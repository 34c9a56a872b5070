import math

import pytest

from admrelay import nodal
from admrelay.errors import ModelError
from admrelay.faults import solve_lg_upstream_ideal, solve_lg_upstream_inverter
from admrelay.network import (
    FaultKind,
    FaultSpec,
    RelayLocation,
    downstream_path,
)
from admrelay.phasors import phase_to_sequence
from admrelay.trajectory import (
    LimiterKind,
    TRAJECTORY_HEADER,
    _limited_seq,
    _target_scale,
    calibrate_unbalance,
    format_trajectory,
    simulate_trajectory,
)

from support import close, ideal, inverter, lg_model, ll_model, rel_err

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT
SETTLE_T = 0.05 + 10 * 5e-3  # fault instant plus ten smoothing time constants


def post_fault(points, t0=0.05):
    return [p for p in points if p.t >= t0]


def settled(points):
    return [p for p in points if p.t >= SETTLE_T]


def worst_phase(p):
    return max(abs(p.relay_i.a), abs(p.relay_i.b), abs(p.relay_i.c))


def test_no_fault_gives_constant_load_impedance():
    m = lg_model(math.inf, inverter())
    pts = simulate_trajectory(m)
    z_d1, _ = downstream_path(m)
    assert all(not p.limited for p in pts)
    for p in pts[:: len(pts) // 7]:
        assert close(p.z_lg, z_d1, 1e-9)
        assert close(p.z_ll, z_d1, 1e-9)


def test_times_strictly_increase():
    pts = simulate_trajectory(lg_model(3.68))
    ts = [p.t for p in pts]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_lg_upstream_trajectory_first_quadrant_and_endpoint():
    m = lg_model(3.68)
    pts = simulate_trajectory(m)
    post = post_fault(pts)
    assert all(p.z_lg.real > 0 and p.z_lg.imag > 0 for p in post)
    final = pts[-1].z_lg
    target = solve_lg_upstream_inverter(m).z_measured
    assert rel_err(final, target) < 0.05
    # the locus collapses from the load impedance toward the origin
    z_d1, _ = downstream_path(m)
    assert abs(final) < 0.5 * abs(z_d1)
    assert close(pts[0].z_lg, z_d1, 1e-9)


def test_first_quadrant_holds_across_the_fault_resistance_range():
    for rf in (3.68, 33.0, 300.0, 1000.0):
        pts = simulate_trajectory(lg_model(rf))
        assert all(p.z_lg.real > 0 and p.z_lg.imag > 0 for p in post_fault(pts))


def test_downstream_trajectories_settle_on_the_load_path():
    m = lg_model(3.68)
    z_d1, _ = downstream_path(m)
    pts = simulate_trajectory(m, relay_location=DOWN)
    assert rel_err(pts[-1].z_lg, z_d1) < 0.01
    pts = simulate_trajectory(ll_model(3.68), relay_location=DOWN)
    assert rel_err(pts[-1].z_ll, z_d1) < 0.01


def test_current_cap_holds_at_settled_steps():
    for kind in (LimiterKind.INSTANTANEOUS_SATURATION, LimiterKind.LATCHING):
        pts = simulate_trajectory(lg_model(3.68), limiter=kind)
        late = settled(pts)
        assert late, "window too short to settle"
        assert all(p.limited for p in late)
        worst = max(worst_phase(p) for p in late)
        assert worst <= 70.0 * (1 + 1e-3)


@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_closed_form_target_puts_the_worst_phase_on_the_cap(make):
    m = make(1.0)
    src = m.source
    tf = nodal.transfer(m)
    scale = _target_scale(tf, src)
    assert 0.0 < scale < 1.0
    i_src = tf.solve(UP, _limited_seq(src, scale, 1.0)).relay_i
    worst = max(abs(i_src.a), abs(i_src.b), abs(i_src.c))
    assert abs(worst - src.i_max_rms) <= 1e-9 * src.i_max_rms


def test_instantaneous_limiter_retargets_when_the_fault_switches_on():
    # the healthy load current (about 33 A) already exceeds a 20 A cap, so the
    # limiter engages before the fault on the healthy topology's target
    m = lg_model(3.68, inverter(i_max="20 A"))
    inst = simulate_trajectory(m, limiter=LimiterKind.INSTANTANEOUS_SATURATION)
    latch = simulate_trajectory(m, limiter=LimiterKind.LATCHING)
    pre = [p for p in inst if p.t < 0.05]
    assert pre[-1].limited and latch[len(pre) - 1].limited
    # after the fault the instantaneous limiter settles on the faulted
    # topology's target, the latching one keeps the healthy target
    assert abs(worst_phase(inst[-1]) - 20.0) <= 1e-9 * 20.0
    assert worst_phase(latch[-1]) > 2.0 * 20.0


def test_latching_scale_is_non_increasing():
    pts = simulate_trajectory(lg_model(3.68), limiter=LimiterKind.LATCHING)
    # positive-sequence source magnitude is monotone non-increasing once the
    # fault is on; read it back through the relay-point positive voltage
    post = post_fault(pts, t0=0.051)
    v1 = [abs(phase_to_sequence(p.relay_v).pos) for p in post]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(v1, v1[1:]))


def test_disabled_limiter_matches_static_solutions():
    m = lg_model(3.68)  # inverter source, limiting off -> balanced source
    pts = simulate_trajectory(m, limiter=None)
    assert all(not p.limited for p in pts)
    m_ideal = lg_model(3.68, ideal())
    oracle = nodal.solve_network(m_ideal, UP)
    assert rel_err(pts[-1].z_lg, oracle.z_measured) < 1e-9
    analytic = solve_lg_upstream_ideal(m_ideal)
    assert rel_err(pts[-1].z_lg, analytic.z_measured) < 0.02


def test_unlimited_inverter_keeps_balanced_source():
    m = lg_model(3.68, inverter(i_max="inf A"))
    pts = simulate_trajectory(m)
    assert all(not p.limited for p in pts)


def test_calibration_brackets_the_configured_unbalance():
    m = lg_model(3.68)
    v2_ratio, v0_ratio = calibrate_unbalance(m, m.fault)
    assert 0.3 <= v2_ratio <= 0.9
    assert 0.3 <= v0_ratio <= 0.9


def test_calibration_without_limiting_reads_near_zero():
    m = lg_model(3.68, inverter(i_max="inf A"))
    v2_ratio, v0_ratio = calibrate_unbalance(m, m.fault)
    assert v2_ratio < 0.02
    assert v0_ratio < 0.02


def test_calibration_on_bolted_phase_fault_is_finite():
    m = ll_model(1.0)
    v2_ratio, v0_ratio = calibrate_unbalance(m, FaultSpec(FaultKind.LINE_LINE_BC, 0.0))
    assert math.isfinite(v2_ratio) and math.isfinite(v0_ratio)
    assert v2_ratio > 0.0


def test_calibration_requires_inverter():
    m = lg_model(3.68, ideal())
    with pytest.raises(ModelError):
        calibrate_unbalance(m, m.fault)


def test_parameter_validation():
    m = lg_model(3.68)
    with pytest.raises(ModelError):
        simulate_trajectory(m, dt=0.0)
    with pytest.raises(ModelError):
        simulate_trajectory(m, fault_time=1.0, duration=0.5)


def test_serialization_format():
    pts = simulate_trajectory(lg_model(3.68), duration=0.06)
    text = format_trajectory(pts)
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == len(pts) + 1
    sample = lines[1].split(",")
    assert len(sample) == 7
    assert sample[-1] in ("0", "1")
    float(sample[0]), float(sample[1])  # parses as numbers
