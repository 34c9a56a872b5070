import math
import random
import sys

import pytest

from admrelay import dcb, nodal
from admrelay.errors import ModelError
from admrelay.network import RelayLocation
from admrelay.phasors import SequenceTriple, phase_to_sequence
from admrelay.relaying import DirectionalDecision, directional_neg_seq

from coupling_reference import contract_model, mismatch
from dcb_reference import simulate_every_scan
from support import ideal, inverter, lg_model, ll_model


def scripted(script, *, latency=2.0, operational=True, loss=0.0, seed=1,
             coordination=16.7, duration=100.0, step=0.1):
    return dcb.DcbScenario(
        coordination_time=coordination,
        channel=dcb.ChannelModel(
            latency=latency, operational=operational, loss_probability=loss, seed=seed
        ),
        fault_script=script,
        duration=duration,
        step=step,
    )


INTERNAL = {
    "A": [dcb.PickupChange(10.0, True, False)],
    "B": [dcb.PickupChange(10.0, True, False)],
}
EXTERNAL = {
    "A": [dcb.PickupChange(10.0, True, False)],
    "B": [dcb.PickupChange(10.0, False, True)],
}


def trip_times(events, relay):
    return [e.time for e in events if e.relay == relay and e.kind is dcb.EventKind.TRIP]


def test_relay_step_basics():
    st = dcb.RelayState()
    st, kinds = dcb.relay_step(st, True, False, False, 1.0, 5.0)
    assert dcb.EventKind.PICKUP_FWD in kinds
    assert st.coordination_timer == 1.0
    st, kinds = dcb.relay_step(st, True, False, True, 1.0, 5.0)
    assert st.coordination_timer == 0.0  # block resets the timer
    st, kinds = dcb.relay_step(st, False, True, False, 1.0, 5.0)
    assert dcb.EventKind.CARRIER_START in kinds
    assert st.reverse_pickup
    st, kinds = dcb.relay_step(st, False, False, False, 1.0, 5.0)
    assert dcb.EventKind.CARRIER_STOP in kinds
    with pytest.raises(ModelError):
        dcb.relay_step(st, False, False, False, 0.0, 5.0)


def test_relay_step_trip_latches_after_coordination_time():
    st = dcb.RelayState()
    tripped_at = None
    for k in range(10):
        st, kinds = dcb.relay_step(st, True, False, False, 1.0, 5.0)
        if dcb.EventKind.TRIP in kinds:
            tripped_at = k
            break
    assert tripped_at == 5  # five full steps of accumulated pickup
    st2, kinds = dcb.relay_step(st, True, False, False, 1.0, 5.0)
    assert dcb.EventKind.TRIP not in kinds  # latched, no re-trip
    assert st2.tripped


def test_internal_fault_healthy_channel_both_trip_at_coordination_time():
    events = dcb.simulate(scripted(INTERNAL))
    assert trip_times(events, "A") == [pytest.approx(26.7)]
    assert trip_times(events, "B") == [pytest.approx(26.7)]


def test_external_fault_no_trip_either_end():
    events = dcb.simulate(scripted(EXTERNAL))
    summary = dcb.trip_summary(events)
    assert not summary["A"]["tripped"]
    assert not summary["B"]["tripped"]
    assert summary["A"]["blocked"]
    kinds = {e.kind for e in events if e.relay == "B"}
    assert dcb.EventKind.CARRIER_START in kinds


def test_internal_fault_dead_channel_still_trips():
    events = dcb.simulate(scripted(INTERNAL, operational=False))
    summary = dcb.trip_summary(events)
    assert summary["A"]["tripped"] and summary["B"]["tripped"]


def test_block_latency_race_is_strict():
    c = 16.7
    # the carrier leaves at the end of its 0.1 ms scan: latency plus one scan
    # at or below the coordination time blocks the trip ...
    for latency in (0.1, 8.0, c - 0.1):
        summary = dcb.trip_summary(dcb.simulate(scripted(EXTERNAL, latency=latency)))
        assert not summary["A"]["tripped"], f"latency {latency}"
    # ... while a block due later than that cannot arrive in time
    for latency in (c - 0.05, c, c + 0.1, 3 * c):
        summary = dcb.trip_summary(dcb.simulate(scripted(EXTERNAL, latency=latency)))
        assert summary["A"]["tripped"], f"latency {latency}"


def test_security_block_held_means_no_trip():
    # B keys its carrier before A picks up, so A counts down fully blocked.
    script = {
        "A": [dcb.PickupChange(30.0, True, False)],
        "B": [dcb.PickupChange(10.0, False, True)],
    }
    events = dcb.simulate(scripted(script))
    assert not dcb.trip_summary(events)["A"]["tripped"]


def test_trace_is_deterministic_and_ordered():
    a = dcb.simulate(scripted(EXTERNAL, loss=0.3, seed=77))
    b = dcb.simulate(scripted(EXTERNAL, loss=0.3, seed=77))
    assert dcb.format_trace(a) == dcb.format_trace(b)
    keys = [(e.time, e.relay, e.kind.value) for e in a]
    assert keys == sorted(keys)
    # losses really are drawn from the seeded stream: over many seeds the
    # single block transition must sometimes drop and sometimes survive
    outcomes = {
        dcb.trip_summary(dcb.simulate(scripted(EXTERNAL, loss=0.5, seed=s)))["A"]["tripped"]
        for s in range(12)
    }
    assert outcomes == {True, False}


def test_trace_format():
    events = dcb.simulate(scripted(INTERNAL))
    text = dcb.format_trace(events)
    lines = text.strip().split("\n")
    assert lines[0] == "10,A,PickupFwd"
    assert all(len(line.split(",")) == 3 for line in lines)
    assert text.endswith("\n")


def test_full_loss_behaves_like_dead_channel():
    events = dcb.simulate(scripted(EXTERNAL, loss=1.0))
    assert dcb.trip_summary(events)["A"]["tripped"]


def test_simulate_evaluates_only_event_scans(monkeypatch):
    # 1,001 scans, but both relays are evaluated only at the pickup (10 ms)
    # and at the trips (26.7 ms): four calls where the scan loop made 2,002
    calls = []
    step = dcb.relay_step
    monkeypatch.setattr(dcb, "relay_step", lambda *a: calls.append(a) or step(*a))
    events = dcb.simulate(scripted(INTERNAL))
    assert trip_times(events, "A") == trip_times(events, "B") == [pytest.approx(26.7)]
    assert len(calls) <= 20


# B keys, drops and keys its carrier again: three transitions, three draws
FLAPPING = {
    "A": [dcb.PickupChange(10.0, True, False)],
    "B": [dcb.PickupChange(5.0, False, True), dcb.PickupChange(6.0, False, False),
          dcb.PickupChange(7.0, False, True)],
}


@pytest.mark.parametrize("loss, operational", [(0.0, True), (1.0, True), (0.5, False),
                                               (0.0, False)])
def test_no_stream_is_made_when_no_draw_can_change_the_trace(monkeypatch, loss, operational):
    s = scripted(FLAPPING, loss=loss, operational=operational, seed=5)
    want = simulate_every_scan(s)
    assert [e.kind for e in want].count(dcb.EventKind.CARRIER_START) == 2

    def refuse(seed):
        raise AssertionError("a stream was made where no draw can change the trace")

    monkeypatch.setattr(dcb.random, "Random", refuse)
    assert dcb.simulate(s) == want


def test_a_lossy_live_channel_draws_from_one_stream(monkeypatch):
    # the stream of seed 2 loses the second start, so A's block lifts and A trips
    s = scripted(FLAPPING, loss=0.5, seed=2)
    want = simulate_every_scan(s)
    assert trip_times(want, "A") and not trip_times(simulate_every_scan(scripted(FLAPPING)), "A")
    made, stream = [], random.Random
    monkeypatch.setattr(dcb.random, "Random", lambda seed: made.append(seed) or stream(seed))
    assert dcb.simulate(s) == want
    assert made == [2]


@pytest.mark.parametrize("script, trips", [
    # B leads by three scans, and neither end is blocked
    ({"A": [dcb.PickupChange(10.3, True, False)], "B": [dcb.PickupChange(10.0, True, False)]},
     {"A": 27.0, "B": 26.7}),
    (INTERNAL, {"A": 26.7, "B": 26.7}),
    # B keys its carrier from 12 to 15 ms while its forward pickup holds: A's
    # timer, started at 10 ms, is reset by the block from 14.1 to 17.1 ms
    ({"A": [dcb.PickupChange(10.0, True, False)],
      "B": [dcb.PickupChange(8.0, True, False), dcb.PickupChange(12.0, True, True),
            dcb.PickupChange(15.0, True, False)]},
     {"A": 33.8, "B": 24.7}),
], ids=["b-picks-up-first", "together", "a-reset-by-a-block"])
def test_two_running_timers_match_the_reference(script, trips):
    # the larger timer, whichever relay's, sets where the scan loop stops next
    s = scripted(script)
    events = dcb.simulate(s)
    assert events == simulate_every_scan(s)
    assert {r: trip_times(events, r) for r in trips} == {
        r: [pytest.approx(t)] for r, t in trips.items()}


@pytest.mark.parametrize("changes, keyed", [
    ([dcb.PickupChange(10.0, True, False), dcb.PickupChange(10.0, False, True)], True),
    ([dcb.PickupChange(10.0, False, True), dcb.PickupChange(10.0, True, False)], False),
    # three at one instant, after a later change listed first
    ([dcb.PickupChange(30.0, False, False), dcb.PickupChange(10.0, False, True),
      dcb.PickupChange(10.0, True, True), dcb.PickupChange(10.0, True, False)], False),
], ids=["forward-then-reverse", "reverse-then-forward", "three-at-once"])
def test_same_instant_script_changes_apply_in_script_order(changes, keyed):
    # the change listed last at an instant holds at that scan: A keys its
    # carrier and blocks B exactly when that change is a reverse pickup
    s = scripted({"A": changes, "B": [dcb.PickupChange(10.0, True, False)]})
    events = dcb.simulate(s)
    assert events == simulate_every_scan(s)
    assert (dcb.EventKind.CARRIER_START in {e.kind for e in events if e.relay == "A"}) == keyed
    assert dcb.trip_summary(events)["B"] == {"tripped": not keyed, "blocked": keyed}


def _random_scenario(rng):
    """A seeded DCB scenario across the regimes where skipping scans could
    go wrong: latency next to the coordination time (c - 0.15, c - 0.05, c,
    c +- one step), losses, a dead channel, off-grid and flapping scripts,
    steps that do not divide the window or the event times (1/3 among them),
    a coordination time that is an exact multiple of the step, two timers
    running together from one pickup, B's timer running ahead of A's, and
    windows that end while a timer still runs."""
    step = rng.choice((0.05, 0.1, 0.25, 1 / 30, 1 / 3))
    c = rng.choice([rng.uniform(10.0, 25.0), round(rng.uniform(10.0, 25.0) / step) * step])
    latency = rng.choice([rng.uniform(0.0, c - 1.0), rng.uniform(c + 1.0, 2.0 * c), 0.0, c,
                          c - 0.05, c - 0.15, c - step, c + step])
    loss = rng.choice([0.0, 0.0, 1.0, rng.uniform(0.2, 0.8)])

    def script():
        changes, t = [], rng.uniform(0.0, 40.0)
        for _ in range(rng.randrange(5)):
            on_grid = rng.random() < 0.5
            changes.append(dcb.PickupChange(round(t / step) * step if on_grid else t,
                                            rng.random() < 0.6, rng.random() < 0.4))
            t += rng.choice([step, 2 * step, rng.uniform(0.0, 5.0), rng.uniform(5.0, 60.0)])
        return changes

    if rng.random() < 0.25:  # both forward from one instant: the timers run together
        together = [dcb.PickupChange(rng.uniform(0.0, 40.0), True, False)]
        fault_script = {"A": together, "B": together}
    else:
        fault_script = {"A": script(), "B": script()}
    return dcb.DcbScenario(
        coordination_time=c,
        channel=dcb.ChannelModel(latency=latency, operational=rng.random() >= 0.2,
                                 loss_probability=loss, seed=rng.randrange(2**31)),
        fault_script=fault_script,
        duration=rng.choice([rng.uniform(70.0, 210.0), rng.uniform(20.0, 60.0)]),
        step=step,
    )


def test_simulate_matches_the_scan_by_scan_reference():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(80):
        s = _random_scenario(rng)
        got, want = dcb.simulate(s), simulate_every_scan(s)
        assert got == want, s
        assert dcb.format_trace(got) == dcb.format_trace(want)
        outcomes.add(dcb.format_trace(want).count("Trip"))
    assert outcomes == {0, 1, 2}  # the draws reach no trip, one end and both ends


@pytest.mark.parametrize("scans", [101, 167, 250, 399])
def test_timer_landing_exactly_on_the_threshold_matches_the_reference(scans):
    # a coordination time whose trip threshold equals the timer after `scans`
    # additions of the step: the trip scan then hangs on the timer's exact
    # float value, which skipping scans must reproduce addition by addition
    timer = 0.0
    for _ in range(scans):
        timer += 0.1
    c = timer / (1.0 - 1e-9)
    while c * (1.0 - 1e-9) != timer:
        c = math.nextafter(c, math.inf if c * (1.0 - 1e-9) < timer else -math.inf)
    s = scripted(INTERNAL, coordination=c)
    assert dcb.simulate(s) == simulate_every_scan(s)


def test_a_compensated_timer_sum_would_move_the_trip():
    # after 50 scans of 1/3 ms the timer, added up scan by scan, lies above the
    # correctly rounded sum that math.fsum (and sum() since Python 3.12) gives;
    # with the trip threshold at the sequential value, a catch-up that sums
    # the skipped scans with compensation trips one scan late
    step, timer = 1 / 3, 0.0
    for _ in range(50):
        timer += step
    assert timer > math.fsum([step] * 50)
    c = timer / (1.0 - 1e-9)
    while c * (1.0 - 1e-9) != timer:
        c = math.nextafter(c, math.inf if c * (1.0 - 1e-9) < timer else -math.inf)
    s = scripted(INTERNAL, coordination=c, step=step)
    assert dcb.simulate(s) == simulate_every_scan(s)


def test_couple_from_network_internal_fault():
    script = dcb.couple_from_network(lg_model(3.68, inverter()), 10.0)
    assert set(script) == {"A", "B"}
    for changes in script.values():
        assert len(changes) == 1
        assert changes[0].fwd and not changes[0].rev


def test_couple_from_network_fault_near_load_bus():
    # fault placed essentially at the far relay: radial feed, both still forward
    m = lg_model(3.68, inverter(), fault_position=0.98)
    script = dcb.couple_from_network(m, 10.0)
    assert script["A"][0].fwd
    assert script["B"][0].fwd


def test_couple_from_network_no_fault_gives_empty_script():
    script = dcb.couple_from_network(lg_model(math.inf, inverter()), 10.0)
    assert script == {}
    events = dcb.simulate(scripted(script))
    assert events == []


def test_scenario_validation():
    with pytest.raises(ModelError):
        scripted({}, latency=-1.0)
    with pytest.raises(ModelError):
        scripted({}, loss=1.5)
    with pytest.raises(ModelError):
        scripted({}, duration=1.0, step=0.0)


@pytest.mark.parametrize("m", [
    lg_model(3.68, inverter()),
    lg_model(3.68, inverter(), fault_position=0.98),
    lg_model(math.inf, inverter()),
], ids=["internal", "near-load-bus", "healthy"])
def test_couple_from_network_assembles_one_network(monkeypatch, m):
    # the script equals the one two separate oracle solves give
    healthy = not math.isfinite(m.fault.rf)
    seq = SequenceTriple(0j, m.source.v1, 0j) if healthy else m.source.sequence_voltages()
    angle = math.atan2(m.line_1m.z1.imag, m.line_1m.z1.real)
    expected = {}
    for relay, loc in zip(("A", "B"), (RelayLocation.UPSTREAM_OF_FAULT,
                                       RelayLocation.DOWNSTREAM_OF_FAULT)):
        sol = nodal.Network(m).transfer(m.fault).solve(loc, seq)
        decision = directional_neg_seq(
            phase_to_sequence(sol.relay_v).neg, sol.relay_seq_i.neg, angle
        )
        if decision is not DirectionalDecision.INDETERMINATE:
            fwd = decision is DirectionalDecision.FORWARD
            expected[relay] = [dcb.PickupChange(10.0, fwd, not fwd)]

    calls = []
    build = nodal.build_system
    monkeypatch.setattr(nodal, "build_system", lambda *a: calls.append(a) or build(*a))
    assert dcb.couple_from_network(m, 10.0) == expected
    assert len(calls) == 1


COUPLING_SEEDS = range(600)  # about 0.6 s; CI runs the contract's 3,000


def test_coupling_matches_the_reference_on_contract_scenarios():
    # the same script, or the same exception class, on every contract
    # scenario that builds a model
    assert [seed for seed in COUPLING_SEEDS
            if (m := contract_model(seed)) is not None and mismatch(m) is not None] == []


@pytest.mark.parametrize("source", [ideal(), inverter()], ids=["ideal", "inverter"])
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
@pytest.mark.parametrize("rf", [0.0, 5e-324, 1e300, math.inf])
def test_coupling_matches_the_reference_on_fixed_cases(rf, make, source):
    assert mismatch(make(rf, source)) is None


def main(argv):
    """Compare simulate with the scan-by-scan reference on one scenario per seed."""
    first, stop = map(int, argv)
    mismatches = [seed for seed in range(first, stop)
                  if dcb.simulate(s := _random_scenario(random.Random(seed)))
                  != simulate_every_scan(s)]
    print(f"seeds {first}..{stop - 1}: {len(mismatches)} mismatches {mismatches[:10]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
