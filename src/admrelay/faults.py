"""Closed-form solutions for shunt faults at the interior node of the line.

Each solver reduces the per-sequence networks around the fault node and
returns the relay-point quantities plus every intermediate of the reduction
chain under short snake_case keys (z_d, z_1d, i_11, ...).  Every solver needs
a fault: an infinite rf (fault branch open) raises ModelError.

Each chain is split in two.  Its reduction does the rf-free terms of a
model's network and source once and returns its evaluation, which does only
the terms that depend on rf: it returns z_measured and the function that
assembles the whole solution.  Only :func:`reduce` picks a chain.  A solver
checks its model's source class and fault kind, evaluates reduce's chain at
the model's rf and assembles the solution; an rf sweep reduces once per network
and reads z_measured at every grid point.  Both run the same expressions, so a
sweep point reads bit for bit what its model's solve does.

Conventions shared by all six cases:

* the relay voltage is the fault-node voltage;
* an upstream relay measures the source-side segment current (reference
  direction source bus -> fault node), a downstream relay the load-side
  segment current (fault node -> load bus);
* the upstream solvers follow the compact current-divider chains, which treat
  the source-side segment as negligible against the load path when splitting
  the negative-/zero-sequence current.  Their line-ground results therefore
  carry a systematic error against the phase-domain solver in
  :mod:`admrelay.nodal` that grows as rf falls.  Measured on the reference
  system with the inverter source: at most 2 percent for rf of about 3.6 ohm
  and above (1.97e-2 at 3.68 ohm, 5.1e-3 at 1000 ohm), but 2.05e-2 at
  3.5 ohm, 6.5e-2 at 1 ohm and 6.3 at 0.01 ohm; with the ideal source the
  2 percent crossing is at about 2.8 ohm.  The line-line and downstream
  solvers are exact.

Conventions kept deliberately:

* the upstream line-ground relay voltage carries the negative- and
  zero-sequence segment drops with a positive sign; the small bias this
  convention introduces is part of the error band above and of this
  module's contract;
* the compensation that makes a downstream ground element read exactly the
  positive-sequence load-path impedance is z0/z1 - 1 (see
  :func:`admrelay.relaying.path_compensation`), the negative of the textbook
  1 - z0/z1 form kept by :func:`admrelay.relaying.k_factor`.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import MeasurementError, ModelError, SingularSystemError
from .network import (
    CurrentLimitedInverter,
    FaultKind,
    IdealSource,
    MicrogridModel,
    RelayLocation,
    downstream_path,
    thevenin_line_ground,
)
from .phasors import PhaseTriple, SequenceTriple, parallel, sequence_to_phase
from .records import Record

# what an evaluation returns: z_measured and the function that assembles the solution
Measured = tuple[complex, Callable[[], "FaultSolution"]]


class FaultSolution(Record):
    """Relay-point quantities of one solved case.

    relay_v and relay_i are phase triples at the relay; relay_seq_i is the
    sequence resolution of relay_i; z_measured is the distance-element ratio
    for the fault kind (uncompensated phase-a loop for line-ground cases,
    b-c difference loop for line-line cases); intermediates holds every named
    step of the reduction.
    """

    __slots__ = ("relay_v", "relay_i", "relay_seq_i", "z_measured", "intermediates")

    def __init__(self, relay_v: PhaseTriple, relay_i: PhaseTriple, relay_seq_i: SequenceTriple,
                 z_measured: complex, intermediates: dict[str, complex] | None = None) -> None:
        self.relay_v, self.relay_i, self.relay_seq_i = relay_v, relay_i, relay_seq_i
        self.z_measured = z_measured
        self.intermediates = {} if intermediates is None else intermediates


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


def _finite_rf(rf: float) -> None:
    _require(math.isfinite(rf), "closed-form solvers require a finite fault resistance")


def _positive_rf(rf: float) -> None:
    _require(rf > 0,
             "downstream line-line identity needs rf > 0 (bolted fault shorts the b-c loop)")


def _finite_inputs(m: MicrogridModel) -> None:
    """The model's own rf first, so that a reduction fails on it before its
    network, as a solve does; each evaluation checks its rf again."""
    _finite_rf(m.fault.rf)
    z_g = complex(m.load.z_ground)
    if not (math.isfinite(z_g.real) and math.isfinite(z_g.imag)):
        raise ModelError("closed-form solvers require a finite grounding impedance")
    if m.line_1m.z1 == 0 or m.line_1m.z0 == 0:
        raise SingularSystemError(
            "source-side segment with zero impedance has no Norton reduction"
        )


# what a solver needs of its model -> the end of the message when the model lacks it
_EXPECTS = {IdealSource: "an IdealSource model", FaultKind.LINE_GROUND_A: "a line-ground fault",
            CurrentLimitedInverter: "a CurrentLimitedInverter model",
            FaultKind.LINE_LINE_BC: "a line-line fault"}


def _solved(m: MicrogridModel, kind: FaultKind, source: type | None = None) -> FaultSolution:
    """m solved by :func:`reduce`'s chain at m's rf, after checking m's source class
    (an upstream solver names one; a downstream one takes any) and fault kind."""
    if source:
        _require(isinstance(m.source, source), f"solver expects {_EXPECTS[source]}")
    _require(m.fault.kind is kind, f"solver expects {_EXPECTS[kind]}")
    location = RelayLocation.UPSTREAM_OF_FAULT if source else RelayLocation.DOWNSTREAM_OF_FAULT
    return reduce(m, location)(m.fault.rf)[1]()


def _assemble(
    v_seq: SequenceTriple, i_seq: SequenceTriple, z_measured: complex, inter: dict[str, complex]
) -> FaultSolution:
    v, i = sequence_to_phase(v_seq), sequence_to_phase(i_seq)
    return FaultSolution(v, i, i_seq, z_measured, inter)


def _measure_ll(
    v_seq: SequenceTriple, i_seq: SequenceTriple, inter: Callable[[], dict[str, complex]]
) -> Measured:
    """Line-line z_measured, the phase-distance ratio (v_b - v_c) / (i_b - i_c),
    guarded against a vanishing current difference at the positive-sequence
    current's scale."""
    v, i = sequence_to_phase(v_seq), sequence_to_phase(i_seq)
    di = i.b - i.c
    if abs(di) < 1e-12 * abs(i_seq.pos):
        raise MeasurementError("line-line element: phase current difference is zero")
    z_measured = (v.b - v.c) / di
    return z_measured, lambda: FaultSolution(v, i, i_seq, z_measured, inter())


def _lg_reduction(m: MicrogridModel) -> tuple:
    """Both line-ground chains' rf-free prologue: v_src, the source-side segment, the
    load-side path, the healthy Thevenin set and the v_eq2 and v_eq0 dividers."""
    _finite_inputs(m)
    v_src = m.source.sequence_voltages()
    z1_up, z0_up = m.line_1m.z1, m.line_1m.z0
    z_d, z_d0 = downstream_path(m)
    th = thevenin_line_ground(m)
    v_eq2 = v_src.neg * z_d / (z1_up + z_d)
    v_eq0 = v_src.zero * z_d0 / (z0_up + z_d0)
    return v_src, z1_up, z0_up, z_d, z_d0, th, v_eq2, v_eq0


def _lg_upstream(m: MicrogridModel) -> Callable[[float], Measured]:
    """Shared line-ground upstream chain; it carries the source's sequence
    voltages, so a balanced source is the degenerate (zero neg/zero) case."""
    v_src, z1_up, z0_up, z_d, z_d0, th, v_eq2, v_eq0 = _lg_reduction(m)

    # Series chain hanging off the fault node: negative network, zero network
    # and three times the fault resistance.
    v_1 = v_src.pos
    v_2 = v_eq2 + v_eq0
    z_eq20 = th.z_eq2 + th.z_eq0
    z_1d = th.z_eq1
    i_1n = v_1 / z1_up
    # The source's own unbalance also circulates through the load path; the
    # compact chain has no such term, but without it an unbalanced source
    # disagrees with the phase-domain solve once the fault current is small.
    i_circ2 = v_src.neg / (z1_up + z_d)
    i_circ0 = v_src.zero / (z0_up + z_d0)

    def at(rf: float) -> Measured:
        _finite_rf(rf)
        z_2 = z_eq20 + 3.0 * rf
        z_2d = parallel(z_2, z_d)
        i_2n = v_2 / z_2

        # Superposition: each source drives the relay branch and the fault chain.
        i_11 = v_1 / (z1_up + z_2d)
        i_12 = i_2n * z_2d / (z1_up + z_2d)
        i_21 = i_1n * z_1d / (z_2 + z_1d)
        i_22 = v_2 / (z_2 + z_1d)
        i_r1 = i_11 + i_12
        i_r2 = i_21 + i_22 + i_circ2
        i_r0 = i_21 + i_22 + i_circ0

        # Relay-node sequence voltages; the negative/zero drops enter with the
        # positive sign kept by this module's convention (see docstring).
        v_r1 = v_src.pos - z1_up * i_r1
        v_r2 = v_src.neg + z1_up * i_r2
        v_r0 = v_src.zero + z0_up * i_r0

        i_a = i_r0 + i_r1 + i_r2
        if abs(i_a) == 0:
            raise MeasurementError("line-ground element: no phase-a relay current")
        z_measured = (v_r0 + v_r1 + v_r2) / i_a

        def solution() -> FaultSolution:
            return _assemble(SequenceTriple(zero=v_r0, pos=v_r1, neg=v_r2),
                             SequenceTriple(zero=i_r0, pos=i_r1, neg=i_r2), z_measured, {
                "z_d": z_d, "z_d0": z_d0, "z_20": z_2, "z_20d": z_2d, "z_1": z1_up,
                "z_2": z_2, "z_1d": z_1d, "z_2d": z_2d, "i_sn": i_1n, "i_1n": i_1n,
                "i_2n": i_2n, "i_11": i_11, "i_21": i_21, "i_12": i_12, "i_22": i_22,
                "i_circ2": i_circ2, "i_circ0": i_circ0, "v_1": v_1, "v_2": v_2,
                "v_eq1": th.v_eq1, "v_eq2": v_eq2, "v_eq0": v_eq0,
                "z_eq1": th.z_eq1, "z_eq2": th.z_eq2, "z_eq0": th.z_eq0,
            })

        return z_measured, solution

    return at


def solve_lg_upstream_ideal(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault, balanced stiff source, relay on the source side."""
    return _solved(m, FaultKind.LINE_GROUND_A, IdealSource)


def solve_lg_upstream_inverter(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault, current-limited inverter source, source-side relay."""
    return _solved(m, FaultKind.LINE_GROUND_A, CurrentLimitedInverter)


def solve_lg_downstream(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault seen by the load-side relay (exact, any source).

    The load-side path is passive, so each sequence voltage at the relay is
    the path impedance times the path current and the compensated ground
    element reads exactly z_m2 + z_load regardless of source model or fault
    resistance.
    """
    return _solved(m, FaultKind.LINE_GROUND_A)


def _lg_downstream(m: MicrogridModel) -> Callable[[float], Measured]:
    _, _, _, z_d1, z_d0, th, v_eq2, v_eq0 = _lg_reduction(m)
    v_eq = th.v_eq1 + v_eq2 + v_eq0
    z_eq = th.z_eq1 + th.z_eq2 + th.z_eq0
    k = z_d0 / z_d1 - 1.0

    def at(rf: float) -> Measured:
        _finite_rf(rf)
        # Series interconnection of the three sequence networks through 3*rf.
        i_f = v_eq / (z_eq + 3.0 * rf)
        v_m1 = th.v_eq1 - th.z_eq1 * i_f
        v_m2 = v_eq2 - th.z_eq2 * i_f
        v_m0 = v_eq0 - th.z_eq0 * i_f

        i_1 = v_m1 / z_d1
        i_2 = v_m2 / z_d1
        i_0 = v_m0 / z_d0
        i_a = i_0 + i_1 + i_2
        denom = i_a + k * i_0
        scale = max(abs(i_0), abs(i_1), abs(i_2))
        if scale == 0:
            raise MeasurementError("line-ground element: no current in the load path")
        if abs(denom) <= 1e-9 * scale:
            # Bolted fault at the relay point: numerator and compensated current
            # both vanish; the ratio's limit is the load-path impedance itself.
            z_measured = z_d1
        else:
            z_measured = (v_m0 + v_m1 + v_m2) / denom

        def solution() -> FaultSolution:
            return _assemble(SequenceTriple(zero=v_m0, pos=v_m1, neg=v_m2),
                             SequenceTriple(zero=i_0, pos=i_1, neg=i_2), z_measured, {
                "z_d": z_d1, "z_d1": z_d1, "z_d0": z_d0, "k": k, "i_f": i_f,
                "v_m0": v_m0, "v_m1": v_m1, "v_m2": v_m2,
                "v_eq1": th.v_eq1, "v_eq2": v_eq2, "v_eq0": v_eq0,
                "z_eq1": th.z_eq1, "z_eq2": th.z_eq2, "z_eq0": th.z_eq0,
            })

        return z_measured, solution

    return at


def _ll_node_voltages(
    m: MicrogridModel, v_src: SequenceTriple
) -> Callable[[float], tuple[SequenceTriple, Callable[[], dict[str, complex]]]]:
    """Fault-node sequence voltages for a b-c fault through rf, and the
    function that makes the chain's intermediates.

    The positive- and negative-sequence networks exchange the fault current
    through rf; the zero-sequence network stays isolated from the fault and
    only carries the source's own zero-sequence circulation.
    """
    _finite_inputs(m)
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0
    z_d, z_d0 = downstream_path(m)

    z_eq = parallel(z1_up, z_d)  # pos and neg alike (no z0 parallel: it can raise)
    v_eq1 = v_src.pos * z_d / (z1_up + z_d)
    v_eq2 = v_src.neg * z_d / (z1_up + z_d)
    dv = v_eq1 - v_eq2

    if v_src.zero == 0:
        i_0 = 0j
        v_m0 = 0j
    else:
        i_0 = v_src.zero / (z0_up + z_d0)
        v_m0 = v_src.zero - z0_up * i_0

    z_1d = z_eq
    i_1n = v_src.pos / z1_up

    def at(rf: float) -> tuple[SequenceTriple, Callable[[], dict[str, complex]]]:
        _finite_rf(rf)
        z_2 = z_eq + rf  # negative-sequence network entered through the fault
        i_loop = dv / (z_eq + z_2)
        v_m1 = v_eq1 - z_eq * i_loop
        v_m2 = v_eq2 + z_eq * i_loop
        z_2d = parallel(z_2, z_d)  # here, not in intermediates(): its guard can raise

        def intermediates() -> dict[str, complex]:
            i_2n = v_eq2 / z_2 if z_2 != 0 else 0j
            return {
                "z_d": z_d, "z_d0": z_d0, "z_1": z1_up, "z_2": z_2, "z_1d": z_1d,
                "z_2d": z_2d, "i_1n": i_1n, "i_2n": i_2n,
                "i_11": v_src.pos / (z1_up + z_2d),
                "i_21": i_1n * z_1d / (z_1d + z_2),
                "i_22": v_eq2 / (z_2 + z_1d),
                "i_12": i_2n, "i_loop": i_loop, "i_0": i_0, "v_1": v_src.pos, "v_2": v_eq2,
                "v_eq1": v_eq1, "v_eq2": v_eq2, "z_eq1": z_eq, "z_eq2": z_eq,
            }

        return SequenceTriple(zero=v_m0, pos=v_m1, neg=v_m2), intermediates

    return at


def _ll_upstream(m: MicrogridModel) -> Callable[[float], Measured]:
    v_src = m.source.sequence_voltages()
    node_voltages = _ll_node_voltages(m, v_src)
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0

    def at(rf: float) -> Measured:
        v_m, intermediates = node_voltages(rf)
        i_1 = (v_src.pos - v_m.pos) / z1_up
        i_2 = (v_src.neg - v_m.neg) / z1_up
        i_0 = (v_src.zero - v_m.zero) / z0_up if v_src.zero != 0 else 0j
        return _measure_ll(v_m, SequenceTriple(zero=i_0, pos=i_1, neg=i_2), intermediates)

    return at


def solve_ll_upstream_ideal(m: MicrogridModel) -> FaultSolution:
    """Line-line (b-c) fault, balanced stiff source, source-side relay."""
    return _solved(m, FaultKind.LINE_LINE_BC, IdealSource)


def solve_ll_upstream_inverter(m: MicrogridModel) -> FaultSolution:
    """Line-line (b-c) fault, current-limited inverter source, source-side relay."""
    return _solved(m, FaultKind.LINE_LINE_BC, CurrentLimitedInverter)


def solve_ll_downstream(m: MicrogridModel) -> FaultSolution:
    """Line-line fault seen by the load-side relay (exact, any source).

    The b-c difference loop cancels the zero-sequence terms and the passive
    load path forces (v_b - v_c)/(i_b - i_c) = z_m2 + z_load whenever the
    fault actually draws current, which requires rf > 0.
    """
    return _solved(m, FaultKind.LINE_LINE_BC)


def _ll_downstream(m: MicrogridModel) -> Callable[[float], Measured]:
    _positive_rf(m.fault.rf)  # m's own rf before its network, as in _finite_inputs
    node_voltages = _ll_node_voltages(m, m.source.sequence_voltages())
    z_d1, z_d0 = downstream_path(m)

    def at(rf: float) -> Measured:
        _positive_rf(rf)
        v_m, intermediates = node_voltages(rf)
        i_1 = v_m.pos / z_d1
        i_2 = v_m.neg / z_d1
        i_0 = v_m.zero / z_d0 if v_m.zero != 0 else 0j
        return _measure_ll(v_m, SequenceTriple(zero=i_0, pos=i_1, neg=i_2),
                           lambda: dict(intermediates(), z_d1=z_d1))

    return at


def reduce(m: MicrogridModel, location: RelayLocation) -> Callable[[float], Measured]:
    """The one chain choice: the closed form of m's fault kind for a relay at location,
    reduced for m's network and source; each solve_* evaluates it at m's rf, a sweep at any."""
    lg = m.fault.kind is FaultKind.LINE_GROUND_A
    if location is RelayLocation.UPSTREAM_OF_FAULT:
        return _lg_upstream(m) if lg else _ll_upstream(m)
    return _lg_downstream(m) if lg else _ll_downstream(m)
