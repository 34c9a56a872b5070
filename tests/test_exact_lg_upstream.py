"""An exact reduction of the line-ground fault seen upstream, as a third oracle.

The two line-ground upstream closed forms follow the paper's compact
current-divider chain, which is not exact, so the nodal oracle's upstream
line-ground reading had no exact check off the nameplate.
:func:`exact_lg_upstream` is the textbook reduction of a single
line-ground fault (Fortescue, 1918; Anderson, *Analysis of Faulted Power
Systems*, 1973, ch. 3), computed from the model's fields alone, without
:mod:`admrelay.faults` or :mod:`admrelay.nodal`.  Every element is balanced,
so the sequence networks decouple.  Each one is reduced to its Thevenin
voltage and impedance at the fault node.  The three networks in series
through 3 rf carry the fault's sequence current.  The relay reads the
fault-node phase-a voltage over the source-side segment's phase-a current.

The nodal oracle must meet it within 1e-9 (relative) on the line-ground
upstream scenarios of ``tests/test_sweep.py``'s generator, with both sources
and random unbalance, at four fault resistances.  Run more seeds than the
suite does with

    PYTHONPATH=src python tests/test_exact_lg_upstream.py FIRST STOP
"""

from __future__ import annotations

import cmath
import random
import sys

import pytest

from admrelay import nodal
from admrelay.network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    MicrogridModel,
    RelayLocation,
)
from admrelay.scenario import build_model

from test_sweep import COMBOS, _random_scenario

TOLERANCE = 1e-9
RFS = (1e-3, 0.1, 3.68, 100.0)  # ohm
LG_UPSTREAM = [i for i, combo in enumerate(COMBOS) if combo[:2] == ("lg", "upstream")]
SEEDS = 800  # tier-1 seeds: the line-ground upstream models among them, at each of RFS


def exact_lg_upstream(m: MicrogridModel) -> complex:
    """The upstream relay's reading v_a / i_a for m's a-to-ground fault through rf."""
    src, line, load = m.source, m.line_1m, m.load
    e = [0j, src.v1, 0j]  # source voltages (zero, pos, neg)
    if isinstance(src, CurrentLimitedInverter):
        e[0] = src.v1 * src.v0_fraction * cmath.exp(1j * src.v0_angle)
        e[2] = src.v1 * src.v2_fraction * cmath.exp(1j * src.v2_angle)
    z_up = (line.z0, line.z1, line.z1)  # the source-side segment
    z_d1 = m.line_m2.z1 + load.z_load  # the load-side path to ground
    z_d = (m.line_m2.z0 + load.z_load + 3.0 * load.z_ground, z_d1, z_d1)
    v_eq = [ek * zd / (zu + zd) for ek, zu, zd in zip(e, z_up, z_d)]
    z_eq = [zu * zd / (zu + zd) for zu, zd in zip(z_up, z_d)]
    i_0 = sum(v_eq) / (sum(z_eq) + 3.0 * m.fault.rf)
    v_m = [v - z * i_0 for v, z in zip(v_eq, z_eq)]
    i_r = [(ek - vm) / zu for ek, vm, zu in zip(e, v_m, z_up)]
    return sum(v_m) / sum(i_r)


def models(seed: int) -> list[MicrogridModel]:
    """The seed's sweep-generator model at each of RFS, if its combination is
    line-ground upstream, else none."""
    if seed % len(COMBOS) not in LG_UPSTREAM:
        return []
    m = build_model(_random_scenario(random.Random(seed), *COMBOS[seed % len(COMBOS)]))
    return [m.with_fault(FaultSpec(FaultKind.LINE_GROUND_A, rf)) for rf in RFS]


def error(m: MicrogridModel) -> float:
    """The nodal oracle's relative distance from the exact reading."""
    z_exact = exact_lg_upstream(m)
    z_nodal = nodal.solve_network(m, RelayLocation.UPSTREAM_OF_FAULT).z_measured
    return abs(z_nodal - z_exact) / abs(z_exact)


@pytest.mark.parametrize("combo", LG_UPSTREAM, ids=lambda i: "-".join(COMBOS[i]))
def test_the_nodal_oracle_meets_the_exact_line_ground_upstream_reading(combo):
    checked = [error(m) for seed in range(combo, SEEDS, len(COMBOS)) for m in models(seed)]
    assert len(checked) == SEEDS // len(COMBOS) * len(RFS)
    assert max(checked) <= TOLERANCE


def main(argv: list[str]) -> int:
    first, stop = map(int, argv)
    points, worst, beyond = 0, 0.0, []
    for seed in range(first, stop):
        for m in models(seed):
            points += 1
            try:
                err = error(m)
            except Exception as exc:  # noqa: BLE001 - a raise is a failure to report
                err = exc
            if not isinstance(err, float) or not err <= TOLERANCE:
                beyond.append((seed, m.fault.rf, err))
            else:
                worst = max(worst, err)
    print(f"seeds {first}..{stop - 1}: {points} points, worst relative error {worst:.2g} "
          f"within {TOLERANCE:g}, {len(beyond)} beyond {beyond[:10]}")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
