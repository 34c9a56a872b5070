import itertools
import math
import random
import sys

import pytest

from admrelay import nodal, trajectory
from admrelay.cli import run_trajectory
from admrelay.errors import ModelError, NumericalError
from admrelay.faults import solve_lg_upstream_ideal, solve_lg_upstream_inverter
from admrelay.network import (
    FaultKind,
    FaultSpec,
    RelayLocation,
    downstream_path,
)
from admrelay.phasors import PhaseTriple, phase_to_sequence
from admrelay.relaying import measure_zlg
from admrelay.scenario import default_scenario, parse_scenario, scenario_to_text
from admrelay.trajectory import (
    LimiterKind,
    TRAJECTORY_HEADER,
    TrajectoryPoint,
    _rotations,
    _target_scale,
    calibrate_unbalance,
    format_trajectory,
    simulate_trajectory,
)

from support import close, ideal, inverter, lg_model, ll_model, rel_err
from trajectory_document_reference import compare, document_every_walk
from trajectory_reference import _limited_seq, simulate_every_step

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
    tf = nodal.Network(m).transfer(m.fault)
    scale = _target_scale(tf, src, _rotations(src))
    assert 0.0 < scale < 1.0
    i_src = tf.solve(UP, _limited_seq(src, scale, 1.0, _rotations(src))).relay_i
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


def test_a_run_without_limiter_measures_once_per_topology(monkeypatch):
    calls = []
    monkeypatch.setattr(trajectory, "measure_zlg", lambda *a: calls.append(a) or measure_zlg(*a))
    pts = simulate_trajectory(lg_model(3.68), limiter=None)
    assert len(pts) == 201
    assert len(calls) == 2  # healthy before the fault instant, faulted after


def _holds_the_same_readings(p, q):
    return (p.relay_v is q.relay_v and p.relay_i is q.relay_i and p.z_lg is q.z_lg
            and p.z_ll is q.z_ll)


def test_a_reused_step_holds_the_previous_steps_very_objects():
    # without a limiter the source never changes, so only the first step and
    # the first faulted step read the rows; every other step reuses its reading
    pts = simulate_trajectory(lg_model(3.68), limiter=None)
    fresh = [k for k in range(1, len(pts)) if not _holds_the_same_readings(pts[k], pts[k - 1])]
    assert fresh == [next(k for k, p in enumerate(pts) if p.t >= 0.05)]


def test_a_settled_limited_run_reuses_its_last_reading():
    # engaged from the start, level reaches 1.0 and the source stops changing
    pts = simulate_trajectory(ll_model(2.0, inverter(i_max="20 A")), fault_time=0.0)
    assert all(p.limited for p in pts[1:])
    assert _holds_the_same_readings(pts[-1], pts[-2])
    assert not _holds_the_same_readings(pts[2], pts[1])


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
    with pytest.raises(ValueError, match="unknown relay location"):
        simulate_trajectory(m, relay_location="upstream")


def test_serialization_format():
    pts = simulate_trajectory(lg_model(3.68), duration=0.06)
    text = format_trajectory(pts, 0.05)
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == len(pts) + 5
    sample = lines[1].split(",")
    assert len(sample) == 7
    assert sample[-1] in ("0", "1")
    float(sample[0]), float(sample[1])  # parses as numbers
    assert [line.split(" = ")[0] for line in lines[-4:]] == [
        "# final_z_lg", "# final_z_ll", "# post_fault_first_quadrant_z_lg",
        "# post_fault_first_quadrant_z_ll"]


def test_format_repeats_a_row_only_for_the_very_same_readings():
    i, z, z_neg = PhaseTriple(2j, 0j, 0j), complex(0.0, 1.0), complex(-0.0, 1.0)
    assert z == z_neg
    pts = [TrajectoryPoint(0.0, i, i, z, z, False), TrajectoryPoint(1e-3, i, i, z, z, True),
           TrajectoryPoint(2e-3, i, i, z_neg, z, True)]
    assert format_trajectory(pts, 1e-3).splitlines()[1:] == [
        "0,0,1,0,1,2,0", "0.001,0,1,0,1,2,1", "0.002,-0,1,0,1,2,1",
        "# final_z_lg = -0+1j", "# final_z_ll = 0+1j",
        "# post_fault_first_quadrant_z_lg = no", "# post_fault_first_quadrant_z_ll = no"]


@pytest.mark.parametrize("z_lg, z_ll, i_a, name", [
    (complex("nan"), complex("nan"), complex("inf"), "z_lg"),
    (1 + 1j, complex("nan"), complex("inf"), "z_ll"),
    (1 + 1j, 1 + 1j, complex("inf"), "i_a"),
])
def test_format_raises_on_the_first_non_finite_reading(z_lg, z_ll, i_a, name):
    # two steps share their readings as a reused step does; the third is new
    first = TrajectoryPoint(0.0, PhaseTriple(1j, 1j, 1j), PhaseTriple(1j, 1j, 1j), 1 + 1j,
                            1 + 1j, False)
    bad = TrajectoryPoint(2e-3, first.relay_v, PhaseTriple(i_a, 1j, 1j), z_lg, z_ll, True)
    points = [first, first._replace(t=1e-3), bad, bad._replace(t=3e-3)]
    with pytest.raises(NumericalError) as raised:
        format_trajectory(points, 0.0)
    assert str(raised.value) == f"{name} is not finite: {getattr(bad, name, i_a)}"


def _verdicts(points, fault_time):
    return [line.rpartition(" = ")[2] for line in
            format_trajectory(points, fault_time).splitlines()[-2:]]


def test_a_post_fault_step_reusing_a_pre_fault_reading_is_judged():
    # the step at the fault instant holds the pre-fault step's very readings,
    # which lie outside the first quadrant: no new reading is made after it
    i = PhaseTriple(1j, 1j, 1j)
    outside = TrajectoryPoint(0.0, i, i, -1 + 1j, 1 - 1j, False)
    points = [outside, outside._replace(t=1e-3)]
    assert _verdicts(points, 1e-3) == ["no", "no"]
    assert _verdicts(points, 2e-3) == ["yes", "yes"]  # no step at or after the fault


def test_a_pre_fault_reading_outside_the_quadrant_leaves_yes():
    i = PhaseTriple(1j, 1j, 1j)
    points = [TrajectoryPoint(0.0, i, i, -1 + 1j, 1 - 1j, False),
              TrajectoryPoint(1e-3, i, i, 1 + 1j, 1 + 1j, False)]
    assert _verdicts(points, 1e-3) == ["yes", "yes"]
    assert _verdicts(points, 0.0) == ["no", "no"]


def test_the_trajectory_document_is_byte_identical_to_its_reference():
    tally, mismatches = compare(0, 48)
    assert mismatches == []
    assert tally["documents"] >= 40
    assert all(tally[f"{name} {verdict}"] for name in ("z_lg", "z_ll") for verdict in ("yes", "no"))


@pytest.mark.parametrize("reactive,verdict", [("12.5 kvar", "yes"), ("-12.5 kvar", "no")])
def test_a_capacitive_load_leaves_the_first_quadrant(reactive, verdict):
    text = scenario_to_text(default_scenario())
    s = parse_scenario(text.replace("load_reactive_power = 12.5 kvar",
                                    f"load_reactive_power = {reactive}"))
    document = run_trajectory(s)
    assert document == document_every_walk(s)
    assert document.splitlines()[-4:-2] == [f"# post_fault_first_quadrant_z_{name} = {verdict}"
                                            for name in ("lg", "ll")]


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _bits(points):
    """Every field of every point, floats as float.hex."""
    return [(p.t.hex(), *map(_hex, p.relay_v), *map(_hex, p.relay_i), _hex(p.z_lg),
             _hex(p.z_ll), type(p.limited), p.limited) for p in points]


LIMITERS = {"none": None, "instantaneous": LimiterKind.INSTANTANEOUS_SATURATION,
            "latching": LimiterKind.LATCHING}


def _unbalance(rng):
    """[system] fields of an inverter whose unbalance fractions differ and whose
    two angles are nonzero and distinct (v2 leads, v0 lags), so neither
    rotation is 1 and swapping the zero- and negative-sequence parts shows."""
    return {"v2_fraction": rng.uniform(0.05, 0.95), "v0_fraction": rng.uniform(0.05, 0.95),
            "v2_angle": f"{rng.uniform(5.0, 175.0)!r} deg",
            "v0_angle": f"{-rng.uniform(5.0, 175.0)!r} deg"}


_rng, _source_rng = random.Random(11), random.Random(13)
REFERENCE_GRID = [
    (limiter, location, kind, source, dt,
     math.exp(_rng.uniform(math.log(0.5), math.log(300.0))),  # rf [ohm]
     _rng.choice(("20 A", "70 A", "120 A")),  # i_max
     _rng.uniform(0.0, 0.06),  # fault_time [s]
     _unbalance(_source_rng))
    for limiter, location, kind, source, dt in itertools.product(
        LIMITERS, ("up", "down"), ("lg", "ll"), ("ideal", "inverter"), (1e-3, 5e-4, 2.5e-4))
]


def _model(kind, rf, i_max, unbalance):
    """i_max None selects the ideal source."""
    make = lg_model if kind == "lg" else ll_model
    return make(rf, {**(ideal() if i_max is None else inverter(i_max=i_max)), **unbalance})


def _assert_matches_reference(kind, rf, i_max, unbalance, limiter, location, **kw):
    m = _model(kind, rf, i_max, unbalance)
    kw.update(limiter=LIMITERS[limiter], relay_location=UP if location == "up" else DOWN)
    points = simulate_trajectory(m, **kw)
    # _bits iterates the triples, so it cannot tell a PhaseTriple from a plain tuple
    assert all(type(p.relay_v) is PhaseTriple and type(p.relay_i) is PhaseTriple for p in points)
    assert _bits(points) == _bits(simulate_every_step(m, **kw))


@pytest.mark.parametrize("limiter,location,kind,source,dt,rf,i_max,fault_time,unbalance",
                         REFERENCE_GRID)
def test_trajectory_is_bit_identical_to_the_step_by_step_reference(
    limiter, location, kind, source, dt, rf, i_max, fault_time, unbalance
):
    _assert_matches_reference(kind, rf, i_max if source == "inverter" else None, unbalance,
                              limiter, location, dt=dt, fault_time=fault_time, duration=0.12)


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("location", ["up", "down"])
@pytest.mark.parametrize("kind,rf,i_max,fault_time,unbalance", [
    (*row, _unbalance(random.Random(k))) for k, row in enumerate([
        ("lg", 3.68, "70 A", 0.0),
        ("ll", 2.0, "20 A", 0.0),  # engaged from the start: level reaches 1.0, steps repeat
        ("lg", math.inf, "70 A", 0.05),
        ("ll", math.inf, "20 A", 0.05),
        ("lg", 0.0, "70 A", 0.05),
        ("ll", 0.0, "70 A", 0.05),
        ("lg", 3.68, "inf A", 0.05),
        ("ll", 1.0, "inf A", 0.0),
    ])
])
def test_trajectory_edge_cases_are_bit_identical_to_the_reference(
    limiter, location, kind, rf, i_max, fault_time, unbalance
):
    _assert_matches_reference(kind, rf, i_max, unbalance, limiter, location,
                              fault_time=fault_time)


def _random_run(rng):
    """A model and the simulate_trajectory keywords of one seeded run: limiter,
    relay side, fault kind, step, rf (0 or open in one draw of ten each),
    source (ideal in one of four; i_max unlimited in one inverter of ten),
    fault time, unbalance fractions and angles."""
    r = rng.random()
    rf = 0.0 if r < 0.1 else math.inf if r < 0.2 else math.exp(rng.uniform(math.log(0.1), 7.0))
    i_max = (None if rng.random() < 0.25 else "inf A" if rng.random() < 0.1
             else f"{math.exp(rng.uniform(math.log(5.0), math.log(300.0)))!r} A")
    duration = 0.12
    kw = dict(limiter=LIMITERS[rng.choice(list(LIMITERS))],
              relay_location=rng.choice((UP, DOWN)),
              dt=math.exp(rng.uniform(math.log(2.5e-4), math.log(4e-3))), duration=duration,
              fault_time=rng.choice((0.0, rng.uniform(0.0, duration))))
    return _model(rng.choice(("lg", "ll")), rf, i_max, _unbalance(rng)), kw


def _outcome(m, kw, simulate):
    """The bits of the trajectory, or the class and message of what it raised."""
    try:
        return _bits(simulate(m, **kw))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc), str(exc)


def main(argv):
    """Compare simulate_trajectory with the step-by-step reference on one seeded
    run per seed."""
    first, stop = map(int, argv)
    runs, mismatches = 0, []
    for seed in range(first, stop):
        m, kw = _random_run(random.Random(seed))
        got = _outcome(m, kw, simulate_trajectory)
        runs += isinstance(got, list)
        if got != _outcome(m, kw, simulate_every_step):
            mismatches.append(seed)
    print(f"seeds {first}..{stop - 1}: {runs} runs, {len(mismatches)} mismatches "
          f"{mismatches[:10]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
