"""Power-of-two scaling relations for the closed forms and the nodal oracle.

Multiplying by a power of two is exact in binary floating point, away from
overflow and underflow, so these relations hold bit for bit without any
reference copy (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01,
1998; Segura et al., IEEE TSE 42(9), 2016):

* every impedance (both segments' z1 and z0, z_load, z_ground) and rf
  scaled by 2^k scales each reading z_measured by exactly 2^k;
* the source voltage v1 scaled by 2^k leaves z_measured bit-identical.

A model that raises must raise the same class after scaling; the message may
print the scaled values.  A dimensional slip, such as an absolute ohm
constant added inside a chain, breaks the first relation to the bit.
"""

import random

import pytest

from admrelay import faults, nodal
from admrelay.network import LoadModel, RelayLocation

from test_closed_form_pin import SOLVERS, _model

DRAWS = 400  # models per solver
ORACLE_DRAWS = 20  # the first of them, solved by the nodal oracle too (about 0.4 ms a solve)
POWERS = (-7, 9)


def _scaled_impedances(m, s):
    """m with every impedance and rf multiplied by s."""
    return m._replace(line_1m=m.line_1m.scaled(s), line_m2=m.line_m2.scaled(s),
                      load=LoadModel(m.load.z_load * s, m.load.z_ground * s),
                      fault=m.fault._replace(rf=m.fault.rf * s))


def _scaled_source(m, s):
    """m with its source voltage v1 multiplied by s."""
    return m._replace(source=m.source._replace(v1=m.source.v1 * s))


def _reading(solve, m, s=1.0):
    """z_measured's parts divided by s, bit for bit, or the class raised."""
    try:
        z = solve(m).z_measured
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc)
    return (z.real / s).hex(), (z.imag / s).hex()


@pytest.mark.parametrize("name", SOLVERS)
def test_readings_scale_with_the_impedances_and_ignore_the_source_voltage(name):
    rng = random.Random(f"scaling:{name}")
    models = [_model(rng, *SOLVERS[name]) for _ in range(DRAWS)]
    location = (RelayLocation.DOWNSTREAM_OF_FAULT if name.endswith("downstream")
                else RelayLocation.UPSTREAM_OF_FAULT)

    def oracle(m):
        return nodal.solve_network(m, location)

    for solve, draws in ((getattr(faults, name), DRAWS), (oracle, ORACLE_DRAWS)):
        mismatches = {"impedances": [], "source": []}
        for i, m in enumerate(models[:draws]):
            base = _reading(solve, m)
            for k in POWERS:
                s = 2.0 ** k
                if _reading(solve, _scaled_impedances(m, s), s) != base:
                    mismatches["impedances"].append((i, k))
                if _reading(solve, _scaled_source(m, s)) != base:
                    mismatches["source"].append((i, k))
        assert mismatches == {"impedances": [], "source": []}, solve.__name__
