"""The printf-style float conversions give the bytes of the format-spec ones.

The sweep and trajectory rows are formatted with the ``%`` operator;
``tests/sweep_reference.py`` and ``tests/trajectory_document_reference.py``
keep f-strings, so the byte-for-byte runners compare the two formatters.
This test pins the equivalence itself, on edge values and seeded draws.
"""

import math
import random
import struct

import pytest

SPECS = (".10g", ".6e", ".6g")
EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
         9999999999.5, 0.1, 1e-5, 999999.5, 0.5, 1.5, math.inf, math.nan]


def _draws(seed: int, count: int) -> list[float]:
    """Floats of every magnitude (uniform bit patterns) and of ordinary ones."""
    rng = random.Random(seed)
    bits = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(count)]
    return bits + [rng.uniform(-1e3, 1e3) for _ in range(count)]


@pytest.mark.parametrize("spec", SPECS)
def test_percent_formatting_matches_the_format_spec(spec):
    values = EDGES + [-x for x in EDGES] + _draws(34, 2000)
    assert [x for x in values if ("%" + spec) % x != f"{x:{spec}}"] == []


def test_a_row_of_several_values_matches_its_f_string():
    x = _draws(35, 3)
    row = "%.10g,%.10g,%.10g,%.10g,%.10g,%.6e" % tuple(x)
    assert row == f"{x[0]:.10g},{x[1]:.10g},{x[2]:.10g},{x[3]:.10g},{x[4]:.10g},{x[5]:.6e}"
