"""Scan-by-scan reference for the DCB simulator.

:func:`simulate_every_scan` evaluates both relays on every scan of the grid,
as :func:`admrelay.dcb.simulate` did before it learned to skip the scans
where nothing can change.  The tests compare the two traces exactly.
"""

from __future__ import annotations

import random

from admrelay.dcb import (
    RELAY_A,
    RELAY_B,
    DcbEvent,
    DcbScenario,
    EventKind,
    RelayInputs,
    RelayState,
    relay_step,
)


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
