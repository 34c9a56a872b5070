"""Quasi-static R-X trajectory simulation with inverter current limiting.

The network has two topologies, fault branch open before the fault instant
and closed after, sharing one factorization of the healthy network; each
topology's six relay rows (fault-node voltages, then the relay's segment
currents) are taken once per run, flat.  A step reads them as straight-line
sums over the applied source phases, nodal._superpose's operations in its
order, and makes its two PhaseTriples with tuple.__new__; it does so only
when its topology or applied source changed since the previous step, and
otherwise holds that step's very reading objects and reuses its cap test.
When a source phase current exceeds the inverter's RMS cap the limiter
engages: the internal source is rescaled so the worst phase lands on the cap,
and negative-/zero-sequence content appears at the inverter's fractions of
the rescaled positive-sequence voltage, first-order smoothed so the applied
source walks into the limited point.

An upstream relay's ground element reads the plain v_a/i_a loop ratio and a
downstream one is compensated for its load path, on whose positive-sequence
impedance it settles; magnitudes are RMS.  Only format_trajectory reads the
reuse: one row per step, each new reading's tail, finite check and quadrant
verdicts made once, then the final readings and post-fault verdicts.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import ConvergenceError, ModelError, require_finite
from .network import (
    CurrentLimitedInverter,
    FaultSpec,
    MicrogridModel,
    RelayLocation,
    downstream_path,
)
from .phasors import PhaseTriple, fmt_complex, phase_parts, phase_to_sequence
from .records import Record
from .relaying import measure_zlg, measure_zll, path_compensation
from .scenario import default_scenario
from . import nodal

# The default window is the scenario's [transient] default.
_transient = default_scenario()
DT_DEFAULT_S = _transient.si("transient", "dt")
DURATION_DEFAULT_S = _transient.si("transient", "duration")
FAULT_TIME_DEFAULT_S = _transient.si("transient", "fault_time")
TAU_LIM_DEFAULT_S = 5e-3
_CAP_SLACK = 1e-6


class LimiterKind(Enum):
    INSTANTANEOUS_SATURATION = "instantaneous"
    LATCHING = "latching"


class TrajectoryPoint(Record):
    __slots__ = ("t", "relay_v", "relay_i", "z_lg", "z_ll", "limited")

    def __init__(self, t: float, relay_v: PhaseTriple, relay_i: PhaseTriple, z_lg: complex,
                 z_ll: complex, limited: bool) -> None:
        self.t, self.relay_v, self.relay_i = t, relay_v, relay_i
        self.z_lg, self.z_ll, self.limited = z_lg, z_ll, limited


def _worst_phase(i: PhaseTriple | list[complex]) -> float:
    a, b, c = i
    return max(abs(a), abs(b), abs(c))


def _rotations(src: CurrentLimitedInverter) -> tuple[complex, complex]:
    """The unit rotations of the source's zero- and negative-sequence voltages."""
    return cmath.exp(1j * src.v0_angle), cmath.exp(1j * src.v2_angle)


def _applied_phases(src: CurrentLimitedInverter, scale: float, level: float,
                    rotations: tuple[complex, complex]) -> tuple[complex, complex, complex]:
    """Applied source phases at engagement level `level`: the positive-sequence
    magnitude blends from nominal to scale*nominal while the unbalance
    fractions ramp in with the same level.  rotations are the source's
    :func:`_rotations`."""
    rot0, rot2 = rotations
    v1_eff = src.v1 * (1.0 - level * (1.0 - scale))
    return phase_parts(v1_eff * (level * src.v0_fraction) * rot0, v1_eff,
                       v1_eff * (level * src.v2_fraction) * rot2)


def _target_scale(tf: nodal.Transfer, src: CurrentLimitedInverter,
                  rotations: tuple[complex, complex]) -> float:
    """Source scale whose fully engaged, unbalance-injecting solution puts the
    worst phase exactly on the cap.  The network and the fully engaged source
    are both linear in the scale, so it is i_max over the worst phase at unit
    scale; a source already within the cap at unit scale keeps scale 1."""
    worst = _worst_phase(nodal._superpose(tf.maps[3:6], _applied_phases(src, 1.0, 1.0, rotations)))
    return 1.0 if worst <= src.i_max_rms * (1.0 + _CAP_SLACK) else src.i_max_rms / worst


def simulate_trajectory(
    m: MicrogridModel,
    fault_time: float = FAULT_TIME_DEFAULT_S,
    duration: float = DURATION_DEFAULT_S,
    dt: float = DT_DEFAULT_S,
    limiter: LimiterKind | None = LimiterKind.INSTANTANEOUS_SATURATION,
    relay_location: RelayLocation = RelayLocation.UPSTREAM_OF_FAULT,
) -> list[TrajectoryPoint]:
    """Step the model through a fault episode and log the measured impedances.

    limiter=None disables current limiting (the source stays balanced at its
    nominal voltage).  Engagement is smoothed with the 5 ms time constant
    TAU_LIM_DEFAULT_S.  An upstream relay's ground element reads the plain
    loop ratio, a downstream relay's is compensated for its load path.
    """
    if not dt > 0:
        raise ModelError("trajectory step must be positive")
    if not fault_time < duration:
        raise ModelError("fault_time must fall before the end of the window")
    src = m.source
    limit_active = limiter is not None and isinstance(src, CurrentLimitedInverter)

    if relay_location is RelayLocation.DOWNSTREAM_OF_FAULT:
        z_d1, z_d0 = downstream_path(m)
        k_lg = path_compensation(z_d0, z_d1)
    elif relay_location is RelayLocation.UPSTREAM_OF_FAULT:
        k_lg = 0j
    else:
        raise ValueError(f"unknown relay location {relay_location!r}")
    row = nodal.RELAY_ROW[relay_location]

    # (healthy, faulted), indexed by whether the fault is on
    network = nodal.Network(m)
    topologies = [network.transfer(m.fault._replace(rf=math.inf)), network.transfer(m.fault)]
    # each topology's relay rows, flat: the fault-node voltages, then the relay's currents
    relay_rows = [sum(tf.maps[0:3] + tf.maps[row:row + 3], ()) for tf in topologies]
    rotations = _rotations(src) if limit_active else None
    targets = [_target_scale(tf, src, rotations) for tf in topologies] if rotations else [1.0, 1.0]
    cap = src.i_max_rms * (1.0 + _CAP_SLACK) if limit_active else math.inf
    retarget = limiter is LimiterKind.INSTANTANEOUS_SATURATION
    balanced = phase_parts(0j, src.v1, 0j)
    smoothing = 1.0 - math.exp(-dt / TAU_LIM_DEFAULT_S)

    engaged = False
    level = 0.0
    target = 1.0
    inputs = None
    points: list[TrajectoryPoint] = []
    n_steps = int(round(duration / dt))
    for i in range(n_steps + 1):
        t = i * dt
        faulted = t >= fault_time
        # engaged is keyed: the first engaged source can equal balanced but
        # carry -0.0 parts
        if inputs != (faulted, engaged, target, level):
            inputs = (faulted, engaged, target, level)
            sa, sb, sc = _applied_phases(src, target, level, rotations) if engaged else balanced
            # nodal._superpose's operations, written out
            (va0, va1, va2, vb0, vb1, vb2, vc0, vc1, vc2,
             ia0, ia1, ia2, ib0, ib1, ib2, ic0, ic1, ic2) = relay_rows[faulted]
            va = va0 * sa + va1 * sb + va2 * sc
            vb = vb0 * sa + vb1 * sb + vb2 * sc
            vc = vc0 * sa + vc1 * sb + vc2 * sc
            ia = ia0 * sa + ia1 * sb + ia2 * sc
            ib = ib0 * sa + ib1 * sb + ib2 * sc
            ic = ic0 * sa + ic1 * sb + ic2 * sc
            # PhaseTriple._make without its Python-level call
            v = tuple.__new__(PhaseTriple, (va, vb, vc))
            cur = tuple.__new__(PhaseTriple, (ia, ib, ic))
            # i0 as phase_to_sequence computes it
            z_lg = measure_zlg(va, ia, (ia + ib + ic) / 3.0, k_lg)
            z_ll = measure_zll(vb, vc, ib, ic)
            # the steps that reuse this one's source would repeat its cap test
            over = limit_active and not engaged and _worst_phase(
                cur if row == 3 else nodal._superpose(topologies[faulted].maps[3:6], (sa, sb, sc))
            ) > cap
        points.append(TrajectoryPoint(t, v, cur, z_lg, z_ll, engaged))

        if engaged:
            # the latching limiter keeps its engagement target
            if retarget:
                target = targets[faulted]
            level += smoothing * (1.0 - level)
        elif over:
            engaged = True
            target = targets[faulted]

    return points


def calibrate_unbalance(m: MicrogridModel, fault: FaultSpec) -> tuple[float, float]:
    """Measure the steady-state unbalance the limited inverter produces.

    Runs a default trajectory on the given fault and returns the relay-point
    ratios (|v2|/|v1|, |v0|/|v1|) at the final settled step.  Without limiter
    engagement (cap never reached) both ratios stay near zero.
    """
    if not isinstance(m.source, CurrentLimitedInverter):
        raise ModelError("calibration requires a CurrentLimitedInverter source")
    points = simulate_trajectory(m.with_fault(fault))
    v_seq = phase_to_sequence(points[-1].relay_v)
    v1 = abs(v_seq.pos)
    if v1 == 0:
        raise ConvergenceError("calibration found no positive-sequence voltage")
    return abs(v_seq.neg) / v1, abs(v_seq.zero) / v1


TRAJECTORY_HEADER = "t_s,Re_Zlg_ohm,Im_Zlg_ohm,Re_Zll_ohm,Im_Zll_ohm,I_a_rms_A,limited"


def format_trajectory(points: list[TrajectoryPoint], fault_time: float) -> str:
    """The trajectory document's body, LF line endings: one row per step, the
    final z_lg and z_ll, and whether each reads in the open first quadrant at
    every step from fault_time on.  A step holding the last new row's very
    readings reuses its tail, finite check and verdicts; a new reading raises
    ``NumericalError`` naming the first non-finite of z_lg, z_ll and i_a."""
    lines = [TRAJECTORY_HEADER]
    q = None
    quad_lg = quad_ll = True
    for p in points:
        # a reused step's readings are the last row's objects (0.0 == -0.0)
        if not (q and p.z_lg is q.z_lg and p.z_ll is q.z_ll and p.relay_i is q.relay_i
                and p.limited is q.limited):
            q, z_lg, z_ll, i_a = p, p.z_lg, p.z_ll, p.relay_i.a
            if not (cmath.isfinite(z_lg) and cmath.isfinite(z_ll) and cmath.isfinite(i_a)):
                require_finite(z_lg=z_lg, z_ll=z_ll, i_a=i_a)
            rest = (f"{z_lg.real:.10g},{z_lg.imag:.10g},{z_ll.real:.10g},{z_ll.imag:.10g},"
                    f"{abs(i_a):.10g},{1 if p.limited else 0}")
            in_lg, in_ll = z_lg.real > 0 and z_lg.imag > 0, z_ll.real > 0 and z_ll.imag > 0
        if p.t >= fault_time:
            quad_lg, quad_ll = quad_lg and in_lg, quad_ll and in_ll
        lines.append(f"{p.t:.6g},{rest}")
    lines += [f"# final_z_lg = {fmt_complex(p.z_lg)}", f"# final_z_ll = {fmt_complex(p.z_ll)}",
              f"# post_fault_first_quadrant_z_lg = {'yes' if quad_lg else 'no'}",
              f"# post_fault_first_quadrant_z_ll = {'yes' if quad_ll else 'no'}"]
    return "\n".join(lines) + "\n"
