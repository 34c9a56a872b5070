"""Step-by-step reference for the trajectory simulator.

:func:`simulate_every_step` solves every step of the window in full through
:meth:`admrelay.nodal.Transfer.solve`, as :func:`admrelay.trajectory.simulate_trajectory`
did before it learned to reuse a step whose topology and applied source are
the previous step's and to read only the relay rows.  It keeps its own frozen
copies of the applied-source arithmetic, so a rewrite of the simulator cannot
change both sides at once.  The tests compare the two trajectories bit for bit.
"""

from __future__ import annotations

import cmath
import math

from admrelay import nodal
from admrelay.errors import ModelError
from admrelay.network import CurrentLimitedInverter, MicrogridModel, RelayLocation, downstream_path
from admrelay.phasors import PhaseTriple, SequenceTriple
from admrelay.relaying import measure_zlg, measure_zll, path_compensation
from admrelay.trajectory import (
    DT_DEFAULT_S,
    DURATION_DEFAULT_S,
    FAULT_TIME_DEFAULT_S,
    TAU_LIM_DEFAULT_S,
    LimiterKind,
    TrajectoryPoint,
)

_CAP_SLACK = 1e-6


def _rotations(src: CurrentLimitedInverter) -> tuple[complex, complex]:
    return cmath.exp(1j * src.v0_angle), cmath.exp(1j * src.v2_angle)


def _limited_seq(src: CurrentLimitedInverter, scale: float, level: float,
                 rotations: tuple[complex, complex]) -> SequenceTriple:
    """The applied source at engagement level `level`, as the simulator first
    computed it."""
    rot0, rot2 = rotations
    v1_eff = src.v1 * (1.0 - level * (1.0 - scale))
    return SequenceTriple(
        zero=v1_eff * (level * src.v0_fraction) * rot0,
        pos=v1_eff,
        neg=v1_eff * (level * src.v2_fraction) * rot2,
    )


def _source_currents(tf: nodal.Transfer, seq: SequenceTriple) -> PhaseTriple:
    return tf.solve(RelayLocation.UPSTREAM_OF_FAULT, seq).relay_i


def _worst_phase(i: PhaseTriple) -> float:
    return max(abs(i.a), abs(i.b), abs(i.c))


def _target_scale(tf: nodal.Transfer, src: CurrentLimitedInverter) -> float:
    worst = _worst_phase(_source_currents(tf, _limited_seq(src, 1.0, 1.0, _rotations(src))))
    return 1.0 if worst <= src.i_max_rms * (1.0 + _CAP_SLACK) else src.i_max_rms / worst


def simulate_every_step(
    m: MicrogridModel,
    fault_time: float = FAULT_TIME_DEFAULT_S,
    duration: float = DURATION_DEFAULT_S,
    dt: float = DT_DEFAULT_S,
    limiter: LimiterKind | None = LimiterKind.INSTANTANEOUS_SATURATION,
    relay_location: RelayLocation = RelayLocation.UPSTREAM_OF_FAULT,
) -> list[TrajectoryPoint]:
    if not dt > 0:
        raise ModelError("trajectory step must be positive")
    if not fault_time < duration:
        raise ModelError("fault_time must fall before the end of the window")
    src = m.source
    limit_active = limiter is not None and isinstance(src, CurrentLimitedInverter)

    if relay_location is RelayLocation.DOWNSTREAM_OF_FAULT:
        z_d1, z_d0 = downstream_path(m)
        k_lg = path_compensation(z_d0, z_d1)
    else:
        k_lg = 0j

    # (healthy, faulted), indexed by whether the fault is on
    network = nodal.Network(m)
    topologies = [network.transfer(m.fault._replace(rf=math.inf)), network.transfer(m.fault)]
    targets = [_target_scale(tf, src) for tf in topologies] if limit_active else [1.0, 1.0]
    balanced = SequenceTriple(0j, src.v1, 0j)
    smoothing = 1.0 - math.exp(-dt / TAU_LIM_DEFAULT_S)

    engaged = False
    level = 0.0
    target = 1.0
    points: list[TrajectoryPoint] = []
    n_steps = int(round(duration / dt))
    for i in range(n_steps + 1):
        t = i * dt
        faulted = t >= fault_time
        tf = topologies[faulted]
        seq = _limited_seq(src, target, level, _rotations(src)) if engaged else balanced

        sol = tf.solve(relay_location, seq)
        seq_i = sol.relay_seq_i
        z_lg = measure_zlg(sol.relay_v.a, sol.relay_i.a, seq_i.zero, k_lg)
        z_ll = measure_zll(sol.relay_v.b, sol.relay_v.c, sol.relay_i.b, sol.relay_i.c)
        points.append(
            TrajectoryPoint(
                t=t, relay_v=sol.relay_v, relay_i=sol.relay_i,
                z_lg=z_lg, z_ll=z_ll, limited=engaged,
            )
        )

        if not limit_active:
            continue
        if engaged:
            # the latching limiter keeps its engagement target
            if limiter is LimiterKind.INSTANTANEOUS_SATURATION:
                target = targets[faulted]
            level += smoothing * (1.0 - level)
            continue
        if relay_location is RelayLocation.UPSTREAM_OF_FAULT:
            i_src = sol.relay_i
        else:
            i_src = _source_currents(tf, seq)
        if _worst_phase(i_src) > src.i_max_rms * (1.0 + _CAP_SLACK):
            engaged = True
            target = targets[faulted]

    return points
