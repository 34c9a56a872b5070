"""Frozen copy of the six closed-form fault solvers.

Each ``solve_*`` here reduces its model and evaluates every term of its chain
at every call, as :mod:`admrelay.faults` did before it split each chain into
an rf-free reduction, made once per network, and a per-rf evaluation.  The
tests compare the two bit for bit: every field of the ``FaultSolution``, every
intermediate, and the class and message of what either raises.  It keeps its
own frozen copies of the chain inputs, the downstream path and the
line-ground Thevenin reduction, so a defect in either cannot move the solvers
and this reference together.
"""

from __future__ import annotations

import math

from admrelay.errors import MeasurementError, ModelError, SingularSystemError
from admrelay.faults import FaultSolution
from admrelay.network import (
    CurrentLimitedInverter,
    FaultKind,
    IdealSource,
    MicrogridModel,
    TheveninSet,
)
from admrelay.phasors import SequenceTriple, parallel, sequence_to_phase


def downstream_path(m: MicrogridModel) -> tuple[complex, complex]:
    """Positive- and zero-sequence impedance of the load-side path from the
    fault node: (z_m2 + z_load, z_m2_0 + z_load + 3*z_ground)."""
    z_d1 = m.line_m2.z1 + m.load.z_load
    z_d0 = m.line_m2.z0 + m.load.z_load + 3.0 * m.load.z_ground
    return z_d1, z_d0


def thevenin_line_ground(m: MicrogridModel) -> TheveninSet:
    """Reduce each sequence network of the healthy system at the fault node."""
    z_d1, z_d0 = downstream_path(m)
    z_eq1 = parallel(m.line_1m.z1, z_d1)
    v_eq1 = m.source.v1 * z_d1 / (m.line_1m.z1 + z_d1)
    z_eq0 = parallel(m.line_1m.z0, z_d0)
    return TheveninSet(z_eq1=z_eq1, z_eq2=z_eq1, z_eq0=z_eq0, v_eq1=v_eq1)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


def _finite_inputs(m: MicrogridModel) -> None:
    _require(math.isfinite(m.fault.rf), "closed-form solvers require a finite fault resistance")
    z_g = complex(m.load.z_ground)
    if not (math.isfinite(z_g.real) and math.isfinite(z_g.imag)):
        raise ModelError("closed-form solvers require a finite grounding impedance")
    if m.line_1m.z1 == 0 or m.line_1m.z0 == 0:
        raise SingularSystemError(
            "source-side segment with zero impedance has no Norton reduction"
        )


def _assemble(
    v_seq: SequenceTriple, i_seq: SequenceTriple, z_measured: complex, inter: dict[str, complex]
) -> FaultSolution:
    v, i = sequence_to_phase(v_seq), sequence_to_phase(i_seq)
    return FaultSolution(v, i, i_seq, z_measured, inter)


def _assemble_ll(
    v_seq: SequenceTriple, i_seq: SequenceTriple, inter: dict[str, complex]
) -> FaultSolution:
    """Line-line solution: z_measured is the phase-distance ratio
    (v_b - v_c) / (i_b - i_c), guarded against a vanishing current
    difference at the positive-sequence current's scale."""
    v, i = sequence_to_phase(v_seq), sequence_to_phase(i_seq)
    di = i.b - i.c
    if abs(di) < 1e-12 * abs(i_seq.pos):
        raise MeasurementError("line-line element: phase current difference is zero")
    return FaultSolution(v, i, i_seq, (v.b - v.c) / di, inter)


def _lg_upstream(m: MicrogridModel) -> FaultSolution:
    """Shared line-ground upstream chain; it carries the source's sequence
    voltages, so a balanced source is the degenerate (zero neg/zero) case."""
    _finite_inputs(m)
    v_src = m.source.sequence_voltages()
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0
    z_d, z_d0 = downstream_path(m)
    th = thevenin_line_ground(m)
    rf = m.fault.rf

    # Thevenin voltages of the negative- and zero-sequence networks at the
    # fault node: the healthy voltage dividers applied to the source content.
    v_eq2 = v_src.neg * z_d / (z1_up + z_d)
    v_eq0 = v_src.zero * z_d0 / (z0_up + z_d0)

    # Series chain hanging off the fault node: negative network, zero network
    # and three times the fault resistance.
    v_1 = v_src.pos
    v_2 = v_eq2 + v_eq0
    z_2 = th.z_eq2 + th.z_eq0 + 3.0 * rf
    z_1d = parallel(z1_up, z_d)
    z_2d = parallel(z_2, z_d)
    i_1n = v_1 / z1_up
    i_2n = v_2 / z_2

    # Superposition: each source drives the relay branch and the fault chain.
    i_11 = v_1 / (z1_up + z_2d)
    i_12 = i_2n * z_2d / (z1_up + z_2d)
    i_21 = i_1n * z_1d / (z_2 + z_1d)
    i_22 = v_2 / (z_2 + z_1d)
    # The source's own unbalance also circulates through the load path; the
    # compact chain has no such term, but without it an unbalanced source
    # disagrees with the phase-domain solve once the fault current is small.
    i_circ2 = v_src.neg / (z1_up + z_d)
    i_circ0 = v_src.zero / (z0_up + z_d0)
    i_r1 = i_11 + i_12
    i_r2 = i_21 + i_22 + i_circ2
    i_r0 = i_21 + i_22 + i_circ0

    # Relay-node sequence voltages; the negative/zero drops enter with the
    # positive sign kept by this module's convention (see docstring).
    v_r1 = v_src.pos - z1_up * i_r1
    v_r2 = v_src.neg + z1_up * i_r2
    v_r0 = v_src.zero + z0_up * i_r0

    i_seq = SequenceTriple(zero=i_r0, pos=i_r1, neg=i_r2)
    v_seq = SequenceTriple(zero=v_r0, pos=v_r1, neg=v_r2)
    i_a = i_r0 + i_r1 + i_r2
    if abs(i_a) == 0:
        raise MeasurementError("line-ground element: no phase-a relay current")
    z_measured = (v_r0 + v_r1 + v_r2) / i_a

    inter = {
        "z_d": z_d,
        "z_d0": z_d0,
        "z_20": z_2,
        "z_20d": z_2d,
        "z_1": z1_up,
        "z_2": z_2,
        "z_1d": z_1d,
        "z_2d": z_2d,
        "i_sn": i_1n,
        "i_1n": i_1n,
        "i_2n": i_2n,
        "i_11": i_11,
        "i_21": i_21,
        "i_12": i_12,
        "i_22": i_22,
        "i_circ2": i_circ2,
        "i_circ0": i_circ0,
        "v_1": v_1,
        "v_2": v_2,
        "v_eq1": th.v_eq1,
        "v_eq2": v_eq2,
        "v_eq0": v_eq0,
        "z_eq1": th.z_eq1,
        "z_eq2": th.z_eq2,
        "z_eq0": th.z_eq0,
    }
    return _assemble(v_seq, i_seq, z_measured, inter)


def solve_lg_upstream_ideal(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault, balanced stiff source, relay on the source side."""
    _require(isinstance(m.source, IdealSource), "solver expects an IdealSource model")
    _require(m.fault.kind is FaultKind.LINE_GROUND_A, "solver expects a line-ground fault")
    return _lg_upstream(m)


def solve_lg_upstream_inverter(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault, current-limited inverter source, source-side relay."""
    _require(
        isinstance(m.source, CurrentLimitedInverter),
        "solver expects a CurrentLimitedInverter model",
    )
    _require(m.fault.kind is FaultKind.LINE_GROUND_A, "solver expects a line-ground fault")
    return _lg_upstream(m)


def solve_lg_downstream(m: MicrogridModel) -> FaultSolution:
    """Line-ground fault seen by the load-side relay (exact, any source).

    The load-side path is passive, so each sequence voltage at the relay is
    the path impedance times the path current and the compensated ground
    element reads exactly z_m2 + z_load regardless of source model or fault
    resistance.
    """
    _require(m.fault.kind is FaultKind.LINE_GROUND_A, "solver expects a line-ground fault")
    _finite_inputs(m)
    v_src = m.source.sequence_voltages()
    z_d1, z_d0 = downstream_path(m)
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0
    th = thevenin_line_ground(m)
    v_eq2 = v_src.neg * z_d1 / (z1_up + z_d1)
    v_eq0 = v_src.zero * z_d0 / (z0_up + z_d0)

    # Series interconnection of the three sequence networks through 3*rf.
    i_f = (th.v_eq1 + v_eq2 + v_eq0) / (th.z_eq1 + th.z_eq2 + th.z_eq0 + 3.0 * m.fault.rf)
    v_m1 = th.v_eq1 - th.z_eq1 * i_f
    v_m2 = v_eq2 - th.z_eq2 * i_f
    v_m0 = v_eq0 - th.z_eq0 * i_f

    i_1 = v_m1 / z_d1
    i_2 = v_m2 / z_d1
    i_0 = v_m0 / z_d0
    k = z_d0 / z_d1 - 1.0
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

    inter = {
        "z_d": z_d1,
        "z_d1": z_d1,
        "z_d0": z_d0,
        "k": k,
        "i_f": i_f,
        "v_m0": v_m0,
        "v_m1": v_m1,
        "v_m2": v_m2,
        "v_eq1": th.v_eq1,
        "v_eq2": v_eq2,
        "v_eq0": v_eq0,
        "z_eq1": th.z_eq1,
        "z_eq2": th.z_eq2,
        "z_eq0": th.z_eq0,
    }
    return _assemble(
        SequenceTriple(zero=v_m0, pos=v_m1, neg=v_m2),
        SequenceTriple(zero=i_0, pos=i_1, neg=i_2),
        z_measured,
        inter,
    )


def _ll_node_voltages(
    m: MicrogridModel, v_src: SequenceTriple
) -> tuple[SequenceTriple, dict[str, complex]]:
    """Fault-node sequence voltages for a b-c fault through rf.

    The positive- and negative-sequence networks exchange the fault current
    through rf; the zero-sequence network stays isolated from the fault and
    only carries the source's own zero-sequence circulation.
    """
    _finite_inputs(m)
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0
    z_d, z_d0 = downstream_path(m)
    rf = m.fault.rf

    z_eq = parallel(z1_up, z_d)  # positive- and negative-sequence reduction alike
    v_eq1 = v_src.pos * z_d / (z1_up + z_d)
    v_eq2 = v_src.neg * z_d / (z1_up + z_d)

    z_2 = z_eq + rf  # negative-sequence network entered through the fault
    i_loop = (v_eq1 - v_eq2) / (z_eq + z_2)
    v_m1 = v_eq1 - z_eq * i_loop
    v_m2 = v_eq2 + z_eq * i_loop

    if v_src.zero == 0:
        i_0 = 0j
        v_m0 = 0j
    else:
        i_0 = v_src.zero / (z0_up + z_d0)
        v_m0 = v_src.zero - z0_up * i_0

    z_1d = z_eq
    z_2d = parallel(z_2, z_d)
    i_1n = v_src.pos / z1_up
    i_2n = v_eq2 / z_2 if z_2 != 0 else 0j
    inter = {
        "z_d": z_d,
        "z_d0": z_d0,
        "z_1": z1_up,
        "z_2": z_2,
        "z_1d": z_1d,
        "z_2d": z_2d,
        "i_1n": i_1n,
        "i_2n": i_2n,
        "i_11": v_src.pos / (z1_up + z_2d),
        "i_21": i_1n * z_1d / (z_1d + z_2),
        "i_22": v_eq2 / (z_2 + z_1d),
        "i_12": i_2n,
        "i_loop": i_loop,
        "i_0": i_0,
        "v_1": v_src.pos,
        "v_2": v_eq2,
        "v_eq1": v_eq1,
        "v_eq2": v_eq2,
        "z_eq1": z_eq,
        "z_eq2": z_eq,
    }
    return SequenceTriple(zero=v_m0, pos=v_m1, neg=v_m2), inter


def _ll_upstream(m: MicrogridModel) -> FaultSolution:
    v_src = m.source.sequence_voltages()
    v_m, inter = _ll_node_voltages(m, v_src)
    z1_up = m.line_1m.z1
    z0_up = m.line_1m.z0
    i_1 = (v_src.pos - v_m.pos) / z1_up
    i_2 = (v_src.neg - v_m.neg) / z1_up
    i_0 = (v_src.zero - v_m.zero) / z0_up if v_src.zero != 0 else 0j
    return _assemble_ll(v_m, SequenceTriple(zero=i_0, pos=i_1, neg=i_2), inter)


def solve_ll_upstream_ideal(m: MicrogridModel) -> FaultSolution:
    """Line-line (b-c) fault, balanced stiff source, source-side relay."""
    _require(isinstance(m.source, IdealSource), "solver expects an IdealSource model")
    _require(m.fault.kind is FaultKind.LINE_LINE_BC, "solver expects a line-line fault")
    return _ll_upstream(m)


def solve_ll_upstream_inverter(m: MicrogridModel) -> FaultSolution:
    """Line-line (b-c) fault, current-limited inverter source, source-side relay."""
    _require(
        isinstance(m.source, CurrentLimitedInverter),
        "solver expects a CurrentLimitedInverter model",
    )
    _require(m.fault.kind is FaultKind.LINE_LINE_BC, "solver expects a line-line fault")
    return _ll_upstream(m)


def solve_ll_downstream(m: MicrogridModel) -> FaultSolution:
    """Line-line fault seen by the load-side relay (exact, any source).

    The b-c difference loop cancels the zero-sequence terms and the passive
    load path forces (v_b - v_c)/(i_b - i_c) = z_m2 + z_load whenever the
    fault actually draws current, which requires rf > 0.
    """
    _require(m.fault.kind is FaultKind.LINE_LINE_BC, "solver expects a line-line fault")
    _require(
        m.fault.rf > 0,
        "downstream line-line identity needs rf > 0 (bolted fault shorts the b-c loop)",
    )
    v_m, inter = _ll_node_voltages(m, m.source.sequence_voltages())
    z_d1, z_d0 = downstream_path(m)
    i_1 = v_m.pos / z_d1
    i_2 = v_m.neg / z_d1
    i_0 = v_m.zero / z_d0 if v_m.zero != 0 else 0j
    inter["z_d1"] = z_d1
    return _assemble_ll(v_m, SequenceTriple(zero=i_0, pos=i_1, neg=i_2), inter)
