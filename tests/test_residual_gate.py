"""The injection stream's residual gate is sound.

``nodal.Network.injections`` passes every rf >= 0 of a stream without its
direct residual when the stream's one gate bound, ``Network._gate``, times the
safety factor, is below ``RESIDUAL_LIMIT``.  On every stream point of the
seeded sweep scenarios and of random models of both fault kinds, grounded and
solid, at rf from 0 and 5e-324 to 1e300, the bound is at least the direct
residual as evaluated (which ``Transfer.residual`` keeps), and with the limit
lowered to a point's direct residual the point raises as the direct check
does.  A negative rf, and every point of a stream whose z_kk has a negative
real part, is checked directly.

Run as a script, ``python tests/test_residual_gate.py FIRST STOP`` checks the
bound on the sweep stream and on one random model's stream (EXTREME_RFS and
four draws) of each seed FIRST..STOP-1, prints the streams, the gated
streams, the points, the smallest ratio of bound to direct residual and the
points below, and exits 1 if there is any.
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

from test_nodal import _fault_solve_faked, _random_model, lg_model, ll_model
from test_sweep import COMBOS, _random_scenario

# the rf values every random model's stream takes, from zero and the smallest
# subnormal to 1e300, before four log-uniform draws
EXTREME_RFS = (0.0, 5e-324, 1e-3, 0.37, 1.0, 12.5, 1e4, 1e12, 1e300)
KINDS = [(kind, grounded) for kind in ("lg", "ll") for grounded in (True, False)]


def _sweep_stream(seed):
    """The network, fault kind and rf grid of seed's sweep scenario."""
    s = _random_scenario(random.Random(seed), *COMBOS[seed % len(COMBOS)])
    m = build_model(s)
    return nodal.Network(m), m.fault.kind, sweep_points(s)


def _random_stream(seed):
    """The network and fault kind of seed's random model, of both fault kinds and
    groundings in turn, and its stream: EXTREME_RFS and four log-uniform draws
    in [1e-3, 1e4]."""
    rng = np.random.default_rng(seed)
    m = _random_model(rng, *KINDS[seed % len(KINDS)])
    return (nodal.Network(m), m.fault.kind,
            [*EXTREME_RFS, *(float(10.0 ** rng.uniform(-3.0, 4.0)) for _ in range(4))])


def _points(network, kind, rfs):
    """Each stream point's rf, the stream's one gate bound and the point's direct
    residual; the stream must have a gate."""
    list(network.injections(kind, rfs))
    bound = network._gate(kind)
    assert type(bound) is float and bound < math.inf
    return [(rf, bound, network.transfer(FaultSpec(kind, rf)).residual) for rf in rfs]


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


# the random models of seeds 0-3 take each fault kind and grounding; on the
# streams of random models 462, 565 and 637 and of sweep seed 566, a bound
# without its |A0 w - u| term falls below the direct residual
@pytest.mark.parametrize("stream, seed", [
    *((_random_stream, seed) for seed in (0, 1, 2, 3, 462, 565, 637)), (_sweep_stream, 566),
])
def test_the_stream_bound_covers_the_extreme_rf_set_and_the_slope_term(monkeypatch, stream, seed):
    network, kind, rfs = stream(seed)
    for rf, bound, direct in _points(network, kind, rfs):
        assert nodal._SAFETY * bound < nodal.RESIDUAL_LIMIT, (seed, rf)
        assert bound >= direct, (seed, rf)
        _raises_as_the_direct_check(monkeypatch, network, kind, rf, direct)


def _spied_checks(monkeypatch):
    """The rf of each direct check made from now on."""
    checks, check = [], nodal.Network._fault_residual
    monkeypatch.setattr(nodal.Network, "_fault_residual",
                        lambda nw, kind, rf, *args: checks.append(rf) or check(nw, kind, rf, *args))
    return checks


@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_a_gated_stream_checks_a_negative_rf_directly(monkeypatch, make):
    m = make(3.68)
    network = nodal.Network(m)
    checks = _spied_checks(monkeypatch)
    rfs = [0.0, -0.5, 3.68, -12.5, 1e4]
    assert len(list(network.injections(m.fault.kind, rfs))) == len(rfs)
    assert nodal._SAFETY * network._gate(m.fault.kind) < nodal.RESIDUAL_LIMIT
    assert checks == [-0.5, -12.5]


@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_a_stream_whose_z_kk_has_a_negative_real_part_has_no_gate(monkeypatch, make):
    # w is negated, so z_kk = u^T w is too; with every finite residual below
    # the limit, a gate would pass every point, and without one each point is
    # checked directly
    m = make(3.68)
    _fault_solve_faked(monkeypatch, 3, lambda u, w: [-x for x in w])
    network = nodal.Network(m)
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", math.inf)
    checks = _spied_checks(monkeypatch)
    rfs = [0.0, 5e-324, 3.68, 1e4, 1e300]
    assert len(list(network.injections(m.fault.kind, rfs))) == len(rfs)
    assert network.faults[m.fault.kind][1].real < 0
    assert network._gate(m.fault.kind) == math.inf
    assert checks == rfs


def test_a_default_sweep_checks_its_points_directly_only_when_the_gate_cannot_pass(monkeypatch):
    checks, check = [], nodal.Network._fault_residual
    monkeypatch.setattr(nodal.Network, "_fault_residual",
                        lambda nw, *args: checks.append(args) or check(nw, *args))
    s = default_scenario()
    document = run_sweep(s)
    assert checks == []
    # a limit below the stream's one bound times the safety factor (3.2e-12),
    # but above every direct residual (5.2e-16 at most): each point is checked
    # directly and passes
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", 1e-13)
    assert run_sweep(s) == document
    assert len(checks) == len(sweep_points(s)) == 40


def main(argv):
    """Check the stream bound on the sweep stream and the random model's stream
    of each seed first..stop-1."""
    first, stop = map(int, argv)
    streams = gated = points = 0
    worst, below = math.inf, []
    for seed in range(first, stop):
        for name, stream in (("sweep", _sweep_stream), ("random", _random_stream)):
            checked = _points(*stream(seed))
            streams += 1
            gated += nodal._SAFETY * checked[0][1] < nodal.RESIDUAL_LIMIT
            for rf, bound, direct in checked:
                points += 1
                worst = min(worst, bound / direct if direct else math.inf)
                if not bound >= direct:
                    below.append((name, seed, rf))
    print(f"seeds {first}..{stop - 1}: {streams} streams, {gated} gated, {points} points, "
          f"smallest bound / direct residual {worst:.4g}, {len(below)} below {below[:10]}")
    return 1 if below else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
