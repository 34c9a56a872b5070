"""Scan-by-scan reference for the DCB simulator.

:func:`simulate_every_scan` evaluates both relays on every scan of the grid,
as :func:`admrelay.dcb.simulate` did before it learned to skip the scans
where nothing can change.  It keeps its own frozen copy of the relay rule
as the simulator first wrote it, with a carrier flag of its own and an inputs
record, so a rewrite of :func:`admrelay.dcb.relay_step` cannot change both
sides at once.  The tests compare the two traces exactly.
"""

from __future__ import annotations

import random

from admrelay.dcb import RELAY_A, RELAY_B, DcbEvent, DcbScenario, EventKind
from admrelay.errors import ModelError
from admrelay.records import Record


class RelayState(Record):
    __slots__ = ("forward_pickup", "reverse_pickup", "carrier_tx", "coordination_timer", "tripped")

    def __init__(self, forward_pickup: bool = False, reverse_pickup: bool = False,
                 carrier_tx: bool = False, coordination_timer: float = 0.0,
                 tripped: bool = False) -> None:
        self.forward_pickup, self.reverse_pickup = forward_pickup, reverse_pickup
        self.carrier_tx, self.tripped = carrier_tx, tripped
        self.coordination_timer = coordination_timer  # ms of continuous unblocked forward pickup


class RelayInputs(Record):
    __slots__ = ("fwd", "rev", "block_rx")

    def __init__(self, fwd: bool, rev: bool, block_rx: bool) -> None:
        self.fwd, self.rev, self.block_rx = fwd, rev, block_rx


def relay_step(
    state: RelayState, inputs: RelayInputs, dt: float, coordination_time: float
) -> tuple[RelayState, list[EventKind]]:
    """Advance one relay by one scan of dt ms and report emitted events."""
    if not dt > 0:
        raise ModelError("relay scan step must be positive")
    events: list[EventKind] = []
    if inputs.fwd and not state.forward_pickup:
        events.append(EventKind.PICKUP_FWD)
    if inputs.rev and not state.reverse_pickup:
        events.append(EventKind.PICKUP_REV)

    carrier = inputs.rev
    if carrier and not state.carrier_tx:
        events.append(EventKind.CARRIER_START)
    elif not carrier and state.carrier_tx:
        events.append(EventKind.CARRIER_STOP)

    counting = inputs.fwd and not inputs.block_rx
    # Tolerance absorbs float accumulation over many scans of dt.
    expired = state.coordination_timer >= coordination_time * (1.0 - 1e-9)
    trip_now = (not state.tripped) and counting and expired
    if trip_now:
        events.append(EventKind.TRIP)
    new_state = RelayState(
        forward_pickup=inputs.fwd,
        reverse_pickup=inputs.rev,
        carrier_tx=carrier,
        coordination_timer=state.coordination_timer + dt if counting else 0.0,
        tripped=state.tripped or trip_now,
    )
    return new_state, events


def simulate_every_scan(scenario: DcbScenario) -> list[DcbEvent]:
    rng = random.Random(scenario.channel.seed)
    relays = (RELAY_A, RELAY_B)
    other = {RELAY_A: RELAY_B, RELAY_B: RELAY_A}
    states = {r: RelayState() for r in relays}
    block_rx = {r: False for r in relays}
    pickups = {r: (False, False) for r in relays}
    script = {
        r: sorted(scenario.fault_script.get(r, ()), key=lambda ch: ch.time) for r in relays
    }
    cursor = {r: 0 for r in relays}
    pending: list[tuple[float, str, bool, bool]] = []  # due, target, value, lost
    events: list[DcbEvent] = []

    n_steps = int(round(scenario.duration / scenario.step))
    eps = scenario.step * 1e-9
    for i in range(n_steps + 1):
        t = i * scenario.step

        due = [d for d in pending if d[0] <= t + eps]
        pending = [d for d in pending if d[0] > t + eps]
        for d_due, target, value, lost in sorted(due, key=lambda d: (d[0], d[1])):
            if not scenario.channel.operational or lost:
                continue
            rising = value and not block_rx[target]
            block_rx[target] = value
            if rising:
                events.append(DcbEvent(time=t, relay=target, kind=EventKind.BLOCK_RECEIVED))

        for r in relays:
            seq = script[r]
            while cursor[r] < len(seq) and seq[cursor[r]].time <= t + eps:
                pickups[r] = (seq[cursor[r]].fwd, seq[cursor[r]].rev)
                cursor[r] += 1

        for r in relays:
            fwd, rev = pickups[r]
            prev_carrier = states[r].carrier_tx
            states[r], kinds = relay_step(
                states[r],
                RelayInputs(fwd=fwd, rev=rev, block_rx=block_rx[r]),
                scenario.step,
                scenario.coordination_time,
            )
            for kind in kinds:
                events.append(DcbEvent(time=t, relay=r, kind=kind))
            if states[r].carrier_tx != prev_carrier:
                pending.append((
                    t + scenario.step + scenario.channel.latency,
                    other[r],
                    states[r].carrier_tx,
                    rng.random() < scenario.channel.loss_probability,
                ))

    events.sort(key=lambda e: (e.time, e.relay, e.kind.value))
    return events
