"""Seeded bit-for-bit pin of the six closed-form solvers.

Each solver runs on randomized models against the frozen copy in
:mod:`closed_form_reference`.  The two must agree in the repr of every
``FaultSolution`` field, intermediates included (so signed zeros and nan
count), or raise the same class with the same message.  The draws cover
rf = 0 and rf = inf, solid, resistive and open load grounding, zero
unbalance fractions, a dead source, a zero-impedance source-side segment and
models of the wrong fault kind or source.  Run more draws than the suite does,
one model per solver and seed, with

    PYTHONPATH=src python tests/test_closed_form_pin.py FIRST STOP
"""

import cmath
import math
import random
import sys

import pytest

import closed_form_reference as ref
from admrelay import faults
from admrelay.network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    IdealSource,
    LoadModel,
    MicrogridModel,
    SequenceImpedancePair,
)

DRAWS = 1200  # models per solver
SOLVERS = {  # name -> (fault kind, source class or None for either)
    "solve_lg_upstream_ideal": (FaultKind.LINE_GROUND_A, IdealSource),
    "solve_lg_upstream_inverter": (FaultKind.LINE_GROUND_A, CurrentLimitedInverter),
    "solve_lg_downstream": (FaultKind.LINE_GROUND_A, None),
    "solve_ll_upstream_ideal": (FaultKind.LINE_LINE_BC, IdealSource),
    "solve_ll_upstream_inverter": (FaultKind.LINE_LINE_BC, CurrentLimitedInverter),
    "solve_ll_downstream": (FaultKind.LINE_LINE_BC, None),
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _fraction(rng):
    return 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.0)


def _segment(rng, zero_chance):
    if rng.random() < zero_chance:
        return SequenceImpedancePair(0j, 0j)
    z1 = complex(_log_uniform(rng, 1e-3, 1.0), _log_uniform(rng, 1e-3, 1.0))
    return SequenceImpedancePair(z1, z1 * _log_uniform(rng, 0.2, 20.0))


def _model(rng, kind, source_class):
    """A random model; one draw in ten has the other fault kind and, for a
    solver that needs one source class, the other source."""
    if rng.random() < 0.1:
        kind = FaultKind.LINE_LINE_BC if kind is FaultKind.LINE_GROUND_A else FaultKind.LINE_GROUND_A
    if source_class is None or rng.random() < 0.1:
        source_class = rng.choice((IdealSource, CurrentLimitedInverter))
    v1 = 0j if rng.random() < 0.02 else cmath.rect(rng.uniform(100.0, 400.0),
                                                     rng.uniform(-math.pi, math.pi))
    if source_class is IdealSource:
        source = IdealSource(v1)
    else:
        source = CurrentLimitedInverter(v1, _fraction(rng), _fraction(rng),
                                        rng.uniform(-math.pi, math.pi),
                                        rng.uniform(-math.pi, math.pi), 70.0)
    roll = rng.random()
    z_ground = 0j if roll < 0.2 else math.inf if roll < 0.25 else _log_uniform(rng, 1e-3, 1e3)
    load = LoadModel(complex(_log_uniform(rng, 1.0, 50.0), rng.uniform(-20.0, 30.0)), z_ground)
    roll = rng.random()
    rf = 0.0 if roll < 0.15 else math.inf if roll < 0.2 else _log_uniform(rng, 1e-3, 1e4)
    return MicrogridModel(source, _segment(rng, 0.03), _segment(rng, 0.05), load,
                          FaultSpec(kind, rf), 60.0)


def _outcome(solver, m):
    """The repr of every solution field, or the class and message raised."""
    try:
        sol = solver(m)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc), str(exc)
    return [repr(getattr(sol, name)) for name in sol.__slots__]


@pytest.mark.parametrize("name", SOLVERS)
def test_closed_form_is_bit_identical_to_the_frozen_reference(name):
    rng = random.Random(f"closed-form:{name}")
    solved = 0
    for _ in range(DRAWS):
        m = _model(rng, *SOLVERS[name])
        got = _outcome(getattr(faults, name), m)
        assert got == _outcome(getattr(ref, name), m), m
        solved += isinstance(got, list)
    assert solved >= DRAWS // 2


def main(argv):
    """Compare each solver with the frozen reference on one model per seed,
    drawn from random.Random(f"closed-form:{name}:{seed}")."""
    first, stop = map(int, argv)
    models, solved, mismatches = 0, 0, []
    for seed in range(first, stop):
        for name, (kind, source_class) in SOLVERS.items():
            m = _model(random.Random(f"closed-form:{name}:{seed}"), kind, source_class)
            got = _outcome(getattr(faults, name), m)
            models += 1
            solved += isinstance(got, list)
            if got != _outcome(getattr(ref, name), m):
                mismatches.append((name, seed))
    print(f"seeds {first}..{stop - 1}: {models} models, {solved} solved, "
          f"{len(mismatches)} mismatches {mismatches[:10]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
