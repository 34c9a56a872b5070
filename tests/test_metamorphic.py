"""Power-of-two scaling relations for the closed forms and the nodal oracle.

Multiplying by a power of two is exact in binary floating point, away from
overflow and underflow, so these relations hold bit for bit without any
reference copy (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01,
1998; Segura et al., IEEE TSE 42(9), 2016):

* every impedance (both segments' z1 and z0, z_load, z_ground) and rf
  scaled by 2^k scales each reading z_measured by exactly 2^k;
* the source voltage v1 scaled by 2^k leaves z_measured bit-identical;
* a sweep scenario's cable resistance and inductance, load grounding and rf
  grid scaled by 2^k, and its load powers by 2^-k (so z_load scales by 2^k),
  leave the document's rel_err column byte-identical and scale its rf_ohm,
  Re_Z, Im_Z, mag_Z and oracle_mag_Z columns by 2^k, to the printed 10
  digits;
* a trajectory scenario's cable resistance and inductance, load grounding
  and rf scaled by 2^k, and its load powers and i_max by 2^-k (so every
  current scales by 2^-k, limited or not), leave the document's t_s and
  limited columns, its row count and both quadrant verdicts byte-identical,
  and scale its Re_Z/Im_Z columns and final_z lines by 2^k and its I_a_rms_A
  column by 2^-k, to the printed 10 and 12 digits.  The relation leaves the
  source voltages alone, so it cannot see an absolute volt offset: one added
  to the balanced source keeps it on every seed.

A model or scenario that raises must raise the same class after scaling; the
message may print the scaled values.  A dimensional slip, such as an absolute
ohm constant added inside a chain or on the way from a scenario to its model,
breaks the relations.  Run the sweep and trajectory relations on more seeds
than the suite does with

    PYTHONPATH=src python tests/test_metamorphic.py FIRST STOP [sweep|trajectory]
"""

import random
import re
import sys
from decimal import Decimal

import pytest

from admrelay import faults, nodal
from admrelay.cli import run_sweep, run_trajectory
from admrelay.network import LoadModel, RelayLocation
from admrelay.scenario import parse_scenario

from test_closed_form_pin import SOLVERS, _model
from test_sweep import COMBOS, _log_uniform
from trajectory_document_reference import scenario_text

DRAWS = 400  # models per solver
ORACLE_DRAWS = 20  # the first of them, solved by the nodal oracle too (about 0.4 ms a solve)
POWERS = (-7, 9)
SWEEP_SEEDS = range(100)  # about 0.25 s; CI runs 2,000
TRAJECTORY_SEEDS = range(100)  # about 0.45 s; CI runs 2,000


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


# sweep scenario quantities scaled by 2^k, and by 2^-k
WITH_K = ("cable_resistance", "cable_inductance", "load_grounding_resistance", "rf_min", "rf_max")
AGAINST_K = ("load_real_power", "load_reactive_power")


def _sweep_scenario(rng, kind, location, source, spacing):
    """{section: {key: value}}, a quantity as (number, unit), drawn from the
    ranges of test_sweep's scenarios, random unbalance included."""
    grounding = 0.0 if rng.random() < 0.2 else _log_uniform(rng, 1e-3, 1e3)
    rf_min = 0.0 if spacing == "linear" and rng.random() < 0.25 else _log_uniform(rng, 1e-3, 20.0)
    system = {
        "source": source,
        "fault_position": rng.uniform(0.02, 0.98),
        "cable_zero_seq_scale": _log_uniform(rng, 0.2, 20.0),
        "cable_resistance": (_log_uniform(rng, 5.0, 200.0), "mohm"),
        "cable_inductance": (_log_uniform(rng, 10.0, 500.0), "uH"),
        "load_real_power": (rng.uniform(5.0, 50.0), "kW"),
        "load_reactive_power": (rng.uniform(0.0, 30.0), "kvar"),
        "load_grounding_resistance": (grounding, "ohm"),
        "v2_fraction": rng.uniform(0.0, 1.0),
        "v0_fraction": rng.uniform(0.0, 1.0),
        "v2_angle": (rng.uniform(-180.0, 180.0), "deg"),
        "v0_angle": (rng.uniform(-180.0, 180.0), "deg"),
    }
    fault = {"kind": kind, "rf_min": (rf_min, "ohm"),
             "rf_max": (rf_min + _log_uniform(rng, 1e-2, 1e4), "ohm"),
             "rf_points": rng.randint(1, 24), "rf_spacing": spacing}
    return {"system": system, "fault": fault, "relay": {"location": location}}


def _sweep_text(scenario, k):
    """The scenario's text with its WITH_K quantities scaled by 2^k and its
    AGAINST_K ones by 2^-k, each number written with repr."""
    def value(key, v):
        if not isinstance(v, tuple):
            return v
        power = k if key in WITH_K else -k if key in AGAINST_K else 0
        return f"{v[0] * 2.0 ** power!r} {v[1]}"

    return "".join(f"[{name}]\n" + "".join(f"{key} = {value(key, v)}\n" for key, v in fields.items())
                   for name, fields in scenario.items())


def _sweep_rows(text):
    """The document's header and point rows, without the trailer, or the
    class raised."""
    try:
        document = run_sweep(parse_scenario(text))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc)
    return [row.split(",") for row in document.splitlines() if not row.startswith("#")]


def _half_digit(d, digits=10):
    """Half a unit in the 10th (or `digits`th) significant digit of d."""
    return Decimal(5).scaleb(d.adjusted() - digits)


def _scaled_to_ten_digits(printed, scaled, s, digits=10):
    """Whether some value that prints as `printed` at 10 (or `digits`)
    significant digits prints as `scaled` once multiplied by s: their
    rounding intervals meet."""
    x, y = Decimal(printed), Decimal(scaled)
    if not (x and y):
        return printed == scaled
    return abs(y / s - x) <= _half_digit(x, digits) + _half_digit(y, digits) / s


def _sweep_mismatches(seed):
    """The powers k at which seed's scaled sweep breaks the relation, and how
    many documents the seed's unscaled and scaled runs printed."""
    scenario = _sweep_scenario(random.Random(f"sweep-scaling:{seed}"), *COMBOS[seed % len(COMBOS)])
    base = _sweep_rows(_sweep_text(scenario, 0))
    bad, documents = [], 0
    for k in POWERS:
        rows, s = _sweep_rows(_sweep_text(scenario, k)), Decimal(2) ** k
        documents += isinstance(rows, list)
        if not isinstance(base, list) or not isinstance(rows, list):
            same = rows == base
        else:
            same = len(rows) == len(base) and rows[0] == base[0] and all(
                b[5] == a[5] and all(map(_scaled_to_ten_digits, a[:5], b[:5], [s] * 5))
                for a, b in zip(base[1:], rows[1:]))
        if not same:
            bad.append(k)
    return bad, documents


def test_sweep_documents_scale_with_the_impedances():
    results = {seed: _sweep_mismatches(seed) for seed in SWEEP_SEEDS}
    assert {seed: bad for seed, (bad, _) in results.items() if bad} == {}
    assert sum(documents for _, documents in results.values()) >= len(SWEEP_SEEDS)


# trajectory scenario quantities scaled by 2^k, and by 2^-k
TRAJECTORY_WITH_K = ("cable_resistance", "cable_inductance", "load_grounding_resistance", "rf")
TRAJECTORY_AGAINST_K = ("load_real_power", "load_reactive_power", "i_max")
CABLE = "[system]\ncable_resistance = 39 mohm\ncable_inductance = 70.8 uH\n"  # the defaults


def _trajectory_text(seed, k):
    """scenario_text(seed) with the cable written out, its TRAJECTORY_WITH_K
    quantities scaled by 2^k and its TRAJECTORY_AGAINST_K ones by 2^-k, each
    number written with repr (inf stays inf)."""
    lines = scenario_text(seed).replace("[system]\n", CABLE, 1).splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, _, value = line.partition(" = ")
        power = k if key in TRAJECTORY_WITH_K else -k if key in TRAJECTORY_AGAINST_K else 0
        if power:
            number, unit = value.split()
            lines[i] = f"{key} = {float(number) * 2.0 ** power!r} {unit}\n"
    return "".join(lines)


def _trajectory_document(text):
    """The trajectory document, or the class raised."""
    try:
        return run_trajectory(parse_scenario(text))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc)


def _complex_parts(printed):
    """The real and imaginary parts of a complex printed as 1.5e-05-2j."""
    return re.fullmatch(r"(.+?)((?<!e)[+-].*)j", printed).groups()


def _trajectory_scales(base, scaled, s):
    """Whether the scaled document is the base one with its impedances scaled
    by s and its currents by 1/s, to the printed digits."""
    base, scaled = base.splitlines(), scaled.splitlines()
    if len(base) != len(scaled) or base[0] != scaled[0]:
        return False
    for a, b in zip(base[1:], scaled[1:]):
        if a.startswith("# final_z_"):
            key, _, za = a.partition(" = ")
            key_b, _, zb = b.partition(" = ")
            if key != key_b or not all(map(_scaled_to_ten_digits, _complex_parts(za),
                                           _complex_parts(zb), [s] * 2, [12] * 2)):
                return False
        elif a.startswith("#"):
            if a != b and not (a.startswith("# scenario_digest = ")
                               and b.startswith("# scenario_digest = ")):
                return False
        else:
            a, b = a.split(","), b.split(",")
            if not (a[0] == b[0] and a[6] == b[6] and _scaled_to_ten_digits(a[5], b[5], 1 / s)
                    and all(map(_scaled_to_ten_digits, a[1:5], b[1:5], [s] * 4))):
                return False
    return True


def _trajectory_mismatches(seed):
    """The powers k at which seed's scaled trajectory breaks the relation,
    whether its unscaled run printed a document, and whether a row of it is
    limited."""
    base = _trajectory_document(_trajectory_text(seed, 0))
    bad = []
    for k in POWERS:
        scaled = _trajectory_document(_trajectory_text(seed, k))
        if not isinstance(base, str) or not isinstance(scaled, str):
            same = scaled == base
        else:
            same = _trajectory_scales(base, scaled, Decimal(2) ** k)
        if not same:
            bad.append(k)
    printed = isinstance(base, str)
    return bad, printed, printed and any(row.endswith(",1") for row in base.splitlines())


def test_trajectory_documents_scale_with_the_impedances():
    results = {seed: _trajectory_mismatches(seed) for seed in TRAJECTORY_SEEDS}
    assert {seed: bad for seed, (bad, _, _) in results.items() if bad} == {}
    assert sum(printed for _, printed, _ in results.values()) >= len(TRAJECTORY_SEEDS) // 2
    assert any(limited for _, _, limited in results.values())


def _sweep_report(first, stop):
    documents, mismatches = 0, []
    for seed in range(first, stop):
        bad, printed = _sweep_mismatches(seed)
        documents += printed
        mismatches += [(seed, k) for k in bad]
    return f"{documents} scaled documents", mismatches


def _trajectory_report(first, stop):
    documents, limited, mismatches = 0, 0, []
    for seed in range(first, stop):
        bad, printed, with_limited = _trajectory_mismatches(seed)
        documents, limited = documents + printed, limited + with_limited
        mismatches += [(seed, k) for k in bad]
    return f"{documents} documents, {limited} with limited rows", mismatches


RELATIONS = {"sweep": _sweep_report, "trajectory": _trajectory_report}


def main(argv):
    """Check the named relations (both if none is named) at each power on one
    scenario per seed; the sweep takes the test_sweep combinations in turn."""
    first, stop = map(int, argv[:2])
    failed = False
    for name in argv[2:] or RELATIONS:
        counts, mismatches = RELATIONS[name](first, stop)
        print(f"{name} seeds {first}..{stop - 1}: {counts}, {len(mismatches)} mismatches "
              f"{mismatches[:10]}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
