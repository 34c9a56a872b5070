"""The injection stream's residual gate is sound.

``nodal.Network.injections`` skips a point's direct residual when its gate
bound, times the safety factor, is below ``RESIDUAL_LIMIT``.  On every stream
point of the seeded sweep scenarios and of random models of both fault kinds,
grounded and solid, the bound as evaluated is at least the direct residual as
evaluated (which ``Transfer.residual`` keeps), and with the limit lowered to a
point's direct residual the point raises as the direct check does.

Run as a script, ``python tests/test_residual_gate.py FIRST STOP`` checks the
bound on the sweep streams of seeds FIRST..STOP-1 and prints the point count,
the number of points the gate passes and the smallest ratio of bound to
direct residual.
"""

import math
import random
import re
import sys

import numpy as np
import pytest

from admrelay import nodal
from admrelay.cli import run_sweep
from admrelay.errors import SingularSystemError
from admrelay.network import FaultSpec
from admrelay.scenario import build_model, default_scenario, sweep_points

from test_nodal import _random_model
from test_sweep import COMBOS, _random_scenario


def _sweep_stream(seed):
    """The network, fault kind and rf grid of seed's sweep scenario."""
    s = _random_scenario(random.Random(seed), *COMBOS[seed % len(COMBOS)])
    m = build_model(s)
    return nodal.Network(m), m.fault.kind, sweep_points(s)


def _points(network, kind, rfs):
    """Each stream point's rf, gate bound and direct residual."""
    points = list(network.injections(kind, rfs))
    bound = network._gate(kind)
    assert bound is not None
    return [(rf, bound(rf, i_f, c), network.transfer(FaultSpec(kind, rf)).residual)
            for rf, (i_f, c) in zip(rfs, points)]


def _raises_as_the_direct_check(monkeypatch, network, kind, rf, direct):
    # with the limit at the point's direct residual, the point must fail, with
    # the direct check's message
    message = f"nodal solve residual {direct:.3e} exceeds {direct}"
    with monkeypatch.context() as patched:
        patched.setattr(nodal, "RESIDUAL_LIMIT", direct)
        with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
            next(network.injections(kind, (rf,)))


def test_the_bound_covers_the_direct_residual_on_the_sweep_streams(monkeypatch):
    points = 0
    for seed in range(200):
        network, kind, grid = _sweep_stream(seed)
        for rf, bound, direct in _points(network, kind, grid):
            assert bound >= direct, (seed, rf)
            _raises_as_the_direct_check(monkeypatch, network, kind, rf, direct)
            points += 1
    assert points > 2000


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_the_bound_covers_the_direct_residual_on_random_models(monkeypatch, kind, grounded):
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        m = _random_model(rng, kind, grounded)
        rfs = [float(10.0 ** rng.uniform(-3.0, 4.0)) for _ in range(5)]
        if m.fault.rf != math.inf:
            rfs.append(m.fault.rf)
        network = nodal.Network(m)
        for rf, bound, direct in _points(network, m.fault.kind, rfs):
            assert bound >= direct, (m, rf)
            _raises_as_the_direct_check(monkeypatch, network, m.fault.kind, rf, direct)


def test_a_default_sweep_checks_its_points_directly_only_when_the_gate_cannot_pass(monkeypatch):
    checks, check = [], nodal.Network._fault_residual
    monkeypatch.setattr(nodal.Network, "_fault_residual",
                        lambda nw, *args: checks.append(args) or check(nw, *args))
    s = default_scenario()
    document = run_sweep(s)
    assert checks == []
    # a limit below every bound times the safety factor (1.5e-12 and up), but
    # above every direct residual (5.2e-16 at most): each point is checked
    # directly and passes
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", 1e-13)
    assert run_sweep(s) == document
    assert len(checks) == len(sweep_points(s)) == 40


def main(argv):
    """Check the bound on the sweep streams of seeds first..stop-1."""
    first, stop = map(int, argv)
    points = gated = 0
    worst, failures = math.inf, []
    for seed in range(first, stop):
        for rf, bound, direct in _points(*_sweep_stream(seed)):
            points += 1
            gated += nodal._SAFETY * bound < nodal.RESIDUAL_LIMIT
            worst = min(worst, bound / direct if direct else math.inf)
            if not bound >= direct:
                failures.append((seed, rf))
    print(f"seeds {first}..{stop - 1}: {points} points, {gated} gated, worst bound / direct "
          f"residual {worst:.4g}, {len(failures)} below {failures[:10]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
