"""Directional comparison blocking: relay logic, carrier channel, simulator.

Two relays guard the line.  Each keys its carrier exactly while its reverse
pickup holds, and the carrier blocks the remote relay; a forward pickup that
survives the coordination delay without a block trips.  The scheme stays
dependable with a dead channel (no block means trip) and secure for external
faults (the block arrives inside the coordination window).

Timing model (fixed scan step): block deliveries due at a scan instant are
applied before the relays are evaluated, so a block landing exactly at timer
expiry still suppresses the trip; carrier transitions computed during a scan
become visible on the channel at the end of that scan.  Net effect on the
classic race: a blocking signal wins if and only if its channel latency plus
one scan step is at or below the coordination time.  Only the scans where an
event can happen are evaluated, and a running timer's skipped scans are added
up in C, so the cost follows the events, not the window.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import reduce
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import ModelError
from .network import MicrogridModel
from .phasors import SequenceTriple, phase_to_sequence, sequence_to_phase
from .records import Record
from .relaying import DirectionalDecision, directional_neg_seq
from . import nodal

RELAY_A = "A"
RELAY_B = "B"


class EventKind(Enum):
    PICKUP_FWD = "PickupFwd"
    PICKUP_REV = "PickupRev"
    CARRIER_START = "CarrierStart"
    CARRIER_STOP = "CarrierStop"
    BLOCK_RECEIVED = "BlockReceived"
    TRIP = "Trip"


class DcbEvent(Record):
    __slots__ = ("time", "relay", "kind")

    def __init__(self, time: float, relay: str, kind: EventKind) -> None:
        self.time, self.relay, self.kind = time, relay, kind  # time in ms


class RelayState(Record):
    """Pickups at the last scan, timer (ms of continuous unblocked forward
    pickup) and trip latch; the carrier is keyed while reverse_pickup holds."""

    __slots__ = ("forward_pickup", "reverse_pickup", "coordination_timer", "tripped")

    def __init__(self, forward_pickup: bool = False, reverse_pickup: bool = False,
                 coordination_timer: float = 0.0, tripped: bool = False) -> None:
        self.forward_pickup, self.reverse_pickup = forward_pickup, reverse_pickup
        self.coordination_timer, self.tripped = coordination_timer, tripped


class ChannelModel(Record):
    """Blocking channel: fixed latency [ms], per-transition loss, seeded."""

    __slots__ = ("latency", "operational", "loss_probability", "seed")

    def __init__(self, latency: float, operational: bool, loss_probability: float,
                 seed: int) -> None:
        if latency < 0:
            raise ModelError("channel latency must be >= 0")
        if not 0.0 <= loss_probability <= 1.0:
            raise ModelError("loss probability must lie in [0, 1]")
        self.latency, self.operational = latency, operational
        self.loss_probability, self.seed = loss_probability, seed


class PickupChange(Record):
    """Scripted directional pickup state taking effect at `time` [ms]."""

    __slots__ = ("time", "fwd", "rev")

    def __init__(self, time: float, fwd: bool, rev: bool) -> None:
        self.time, self.fwd, self.rev = time, fwd, rev


FaultScript = Mapping[str, Sequence[PickupChange]]

_EXPIRY = 1.0 - 1e-9  # tolerance absorbs float accumulation over many scans of dt


class DcbScenario(Record):
    """Both relays share one coordination time [ms]."""

    __slots__ = ("coordination_time", "channel", "fault_script", "duration", "step")

    def __init__(self, coordination_time: float, channel: ChannelModel,
                 fault_script: FaultScript, duration: float, step: float) -> None:
        if not coordination_time > 0:
            raise ModelError("coordination time must be positive")
        if not step > 0:
            raise ModelError("simulation step must be positive")
        if duration < step:
            raise ModelError("duration must cover at least one step")
        self.coordination_time, self.channel = coordination_time, channel
        self.fault_script, self.duration, self.step = fault_script, duration, step  # ms


def relay_step(
    state: RelayState, fwd: bool, rev: bool, block_rx: bool, dt: float, coordination_time: float
) -> tuple[RelayState, list[EventKind]]:
    """Advance one relay by one scan of dt ms, with this scan's forward and
    reverse pickups and received block, and report emitted events.

    The carrier follows the reverse pickup: a rising one emits PickupRev then
    CarrierStart, a falling one CarrierStop.  The timer accumulates while the
    forward pickup holds without a received block and resets otherwise; the
    trip latches once the accumulated time reaches the coordination time
    before this scan's increment.
    """
    if not dt > 0:
        raise ModelError("relay scan step must be positive")
    events: list[EventKind] = []
    if fwd and not state.forward_pickup:
        events.append(EventKind.PICKUP_FWD)
    if rev and not state.reverse_pickup:
        events += (EventKind.PICKUP_REV, EventKind.CARRIER_START)
    elif state.reverse_pickup and not rev:
        events.append(EventKind.CARRIER_STOP)

    counting = fwd and not block_rx
    expired = state.coordination_timer >= coordination_time * _EXPIRY
    trip_now = (not state.tripped) and counting and expired
    if trip_now:
        events.append(EventKind.TRIP)
    timer = state.coordination_timer + dt if counting else 0.0
    return RelayState(fwd, rev, timer, state.tripped or trip_now), events


_NAMES = (RELAY_A, RELAY_B)  # a relay is its index here; a delivery is (due, target, value)
_trace_order = attrgetter("time", "relay", "kind.value")


def simulate(scenario: DcbScenario) -> list[DcbEvent]:
    """Run the two-relay scheme on a fixed scan grid; fully deterministic.

    Only scans where something can change are evaluated: a delivery coming
    due, a script change or an untripped relay's timer expiring.  A skipped
    scan would repeat its inputs and emit nothing, and a running timer gains
    the step once per skipped scan in the same float additions, made in order
    by one ``functools.reduce``, so the trace is exactly the scan-by-scan one.
    The loop holds each relay's state (with its last scan's pickups), block
    and script changes still to come, the next one last, and the deliveries.
    Channel loss is drawn once per carrier transition from the seeded stream,
    which is made only when a draw can change the trace: an inoperative
    channel delivers nothing, and loss 0 or 1 loses none or all.  The trace
    is ordered by (time, relay, kind name).
    """
    channel = scenario.channel
    loss, latency = channel.loss_probability, channel.latency
    sends = channel.operational and loss < 1.0  # else no transition ever lands
    draws = sends and loss > 0.0  # else none is lost, and no stream is needed
    rng = None
    coordination = scenario.coordination_time
    limit = coordination * _EXPIRY  # relay_step's expiry test
    states, block_rx = [RelayState(), RelayState()], [False, False]
    script = [sorted(scenario.fault_script.get(r, ()), key=attrgetter("time"))[::-1]
              for r in _NAMES]  # a stable sort reversed, so pop() takes a tie in script order
    pending: list[tuple[float, int, bool]] = []
    events: list[DcbEvent] = []

    step = scenario.step
    n_steps = int(round(scenario.duration / step))
    eps = step * 1e-9

    def scan_of(x: float, lo: int) -> int:
        """First scan from lo whose instant reaches x by the loop's test, else n_steps + 1."""
        if not x <= n_steps * step + eps:
            return n_steps + 1
        j = lo if x <= lo * step + eps else math.ceil((x - eps) / step) - 1
        while not x <= j * step + eps:
            j += 1
        return j

    def advance(i: int) -> int:
        """First scan after i where anything can change; running timers catch up to it."""
        nxt = n_steps + 1
        for d in pending:
            nxt = min(nxt, scan_of(d[0], i + 1))
        for seq in filter(None, script):
            nxt = min(nxt, scan_of(seq[-1].time, i + 1))
        # The larger timer first: both gain the same step per scan, and rounded
        # addition is monotone, so the smaller one cannot reach the limit sooner.
        lead = None  # the larger running timer's start and its caught-up value
        a, b = states
        for r in (0, 1) if a.coordination_timer >= b.coordination_timer else (1, 0):
            s = states[r]
            if s.forward_pickup and not block_rx[r] and not s.tripped:
                start = s.coordination_timer
                if lead is None:
                    # The scans two steps short of the limit gain the step in one C call, the
                    # same float additions in order (sum() compensates since Python 3.12);
                    # partial sums only grow, so the loop walks the rest, or all if need be.
                    room, left = (limit - start) / step - 2.0, nxt - i - 1
                    n = left if not room < left else int(max(room, 0.0))
                    timer = reduce(add, repeat(step, n), start)
                    timer, j = (timer, i + 1 + n) if timer < limit else (start, i + 1)
                    while timer < limit and j < nxt:
                        timer, j = timer + step, j + 1
                    nxt, lead = j, (start, timer)  # stop where it expires, if sooner
                else:  # the other timer, caught up to the same scan
                    n = nxt - i - 1
                    timer = lead[1] if start == lead[0] else reduce(add, repeat(step, n), start)
                states[r] = RelayState(s.forward_pickup, s.reverse_pickup, timer, s.tripped)
        return nxt

    i = advance(-1)
    while i <= n_steps:
        t = i * step

        # Deliveries first: a block arriving at this instant beats the timer.
        if pending and (due := [d for d in pending if d[0] <= t + eps]):
            pending = [d for d in pending if d[0] > t + eps]
            for _, r, value in sorted(due, key=itemgetter(0, 1)):  # stable: keeps a tie's order
                if value and not block_rx[r]:
                    events.append(DcbEvent(t, _NAMES[r], EventKind.BLOCK_RECEIVED))
                block_rx[r] = value

        for r, seq in enumerate(script):  # in turn: a delivery made now lands a scan later
            s = states[r]
            fwd, rev = s.forward_pickup, s.reverse_pickup
            while seq and seq[-1].time <= t + eps:
                change = seq.pop()
                fwd, rev = change.fwd, change.rev
            states[r], kinds = relay_step(s, fwd, rev, block_rx[r], step, coordination)
            for kind in kinds:
                events.append(DcbEvent(t, _NAMES[r], kind))
            if rev != s.reverse_pickup and sends:
                # Carrier transition leaves at end of scan, lands `latency` later unless lost.
                if draws:
                    rng = rng or random.Random(channel.seed)
                if not draws or not rng.random() < loss:
                    pending.append((t + step + latency, 1 - r, rev))
        i = advance(i)

    events.sort(key=_trace_order)
    return events


def format_trace(events: Iterable[DcbEvent]) -> str:
    """Line-oriented trace: time_ms,relay,kind with LF endings."""
    lines = [f"{e.time:g},{e.relay},{e.kind.value}" for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def trip_summary(events: Iterable[DcbEvent]) -> dict[str, dict[str, bool]]:
    """Per-relay outcome: whether it tripped and whether it was ever blocked."""
    out = {r: {"tripped": False, "blocked": False} for r in (RELAY_A, RELAY_B)}
    for e in events:
        if e.kind is EventKind.TRIP:
            out[e.relay]["tripped"] = True
        elif e.kind is EventKind.BLOCK_RECEIVED:
            out[e.relay]["blocked"] = True
    return out


def couple_from_network(m: MicrogridModel, fault_time: float) -> dict[str, list[PickupChange]]:
    """Derive the pickup script from a steady-state fault study.

    Relay A sits upstream of the fault and relay B downstream.  Both
    measure their own segment current in the source->load direction,
    matching the directional element's source-side-injector polarity, and
    take the line angle from the source-side segment's z1.  Directional
    decisions at fault inception become pickups scripted at fault_time
    [ms]; an undecided element contributes no pickup at all.  On a radial
    feed with the injecting source at one end, a fault beyond the far relay
    still reads FORWARD at both ends (no remote infeed to reverse it), so
    genuine external-fault studies are scripted by hand.

    A model without a fault branch (infinite rf) is solved with the source
    balanced: the inverter only holds unbalanced voltage while its limiter
    is engaged on a fault, so the healthy study produces no pickups.  The
    study is :func:`nodal.fault_phases`: one assembly and factorization and
    at most two triangular solves, for this one fault and source vector.
    """
    line_angle = math.atan2(m.line_1m.z1.imag, m.line_1m.z1.real)
    v = sequence_to_phase(m.source.sequence_voltages() if math.isfinite(m.fault.rf)
                          else SequenceTriple(0j, m.source.v1, 0j))
    v_m, i_up, i_dn = nodal.fault_phases(m, v)
    v2 = phase_to_sequence(v_m).neg  # both relays sit at the fault node
    script: dict[str, list[PickupChange]] = {}
    for relay_id, i in ((RELAY_A, i_up), (RELAY_B, i_dn)):
        decision = directional_neg_seq(v2, phase_to_sequence(i).neg, line_angle)
        fwd = decision is DirectionalDecision.FORWARD
        rev = decision is DirectionalDecision.REVERSE
        if fwd or rev:
            script[relay_id] = [PickupChange(time=fault_time, fwd=fwd, rev=rev)]
    return script
