"""Independent phase-domain nodal solver for the two-bus microgrid.

Ground truth for the closed-form results in :mod:`admrelay.faults`: every
conductor is represented explicitly and the faulted three-phase system is
solved as one dense complex linear system with partial pivoting.  No
sequence-network reductions are used anywhere in this module beyond the
similarity transform that turns per-sequence element data into 3x3 phase
matrices.

Nodes are the three source-bus phases (known voltages), the three fault-node
phases, the three load-bus phases and, when the load neutral is not solidly
grounded, the neutral itself.  A bolted line-ground fault pins the faulted
phase node to ground; a bolted line-line fault merges the two faulted phase
nodes into one supernode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularSystemError
from .faults import FaultSolution
from .network import (
    FaultKind,
    MicrogridModel,
    RelayLocation,
    SequenceImpedancePair,
)
from .phasors import PhaseTriple, SequenceTriple, phase_to_sequence, sequence_to_phase

RESIDUAL_LIMIT = 1e-9


def sequence_to_phase_matrix(z: SequenceImpedancePair) -> np.ndarray:
    """3x3 phase-impedance image of a balanced series element.

    Diagonal entries are (z0 + 2*z1)/3, off-diagonal entries (z0 - z1)/3,
    which is the similarity transform of diag(z0, z1, z1).
    """
    return _balanced_block((z.z0 + 2.0 * z.z1) / 3.0, (z.z0 - z.z1) / 3.0)


def _balanced_block(diag: complex, off: complex) -> np.ndarray:
    return np.array([[diag, off, off], [off, diag, off], [off, off, diag]], dtype=complex)


def _phase_admittance(z: SequenceImpedancePair) -> np.ndarray:
    """Phase-admittance block of a series element; an infinite zero-sequence
    impedance simply contributes zero zero-sequence admittance."""
    if z.z1 == 0 or z.z0 == 0:
        raise SingularSystemError(
            "series element with zero sequence impedance makes the nodal system singular"
        )
    y1 = 1.0 / z.z1
    z0 = complex(z.z0)
    y0 = 0j if not (math.isfinite(z0.real) and math.isfinite(z0.imag)) else 1.0 / z0
    return _balanced_block((y0 + 2.0 * y1) / 3.0, (y0 - y1) / 3.0)


def _shunt_admittance(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 0j
    if z == 0:
        raise SingularSystemError("zero-impedance shunt must be handled structurally")
    return 1.0 / z


@dataclass
class NodalSystem:
    """Assembled three-phase nodal problem.

    node_names lists every non-ground node; ground is the implicit reference.
    known maps node name to a fixed voltage (source phases and, for a bolted
    line-ground fault, the faulted phase node); known nodes come first in
    node_names.  y is the full admittance matrix over node_names; y_1m and
    y_m2 are the phase-admittance blocks of the two line segments stamped
    into it.
    """

    node_names: list[str]
    index: dict[str, int]
    y: np.ndarray
    known: dict[str, complex]
    y_1m: np.ndarray
    y_m2: np.ndarray

    def unknown_names(self) -> list[str]:
        return [n for n in self.node_names if n not in self.known]


def _source_phase_voltages(m: MicrogridModel, source_seq: SequenceTriple | None) -> PhaseTriple:
    seq = m.source.sequence_voltages() if source_seq is None else source_seq
    return sequence_to_phase(seq)


def build_system(
    m: MicrogridModel, source_seq: SequenceTriple | None = None
) -> NodalSystem:
    """Assemble the admittance matrix and known-voltage set for one model.

    source_seq overrides the source's own sequence voltages in the known set.
    """
    rf = m.fault.rf
    faulted = math.isfinite(rf)
    lg = m.fault.kind is FaultKind.LINE_GROUND_A
    ll = m.fault.kind is FaultKind.LINE_LINE_BC
    merge_bc = ll and faulted and rf == 0.0
    pin_a = lg and faulted and rf == 0.0
    solid_neutral = complex(m.load.z_ground) == 0

    node_names = ["1a", "1b", "1c", "Ma", "Mb", "Mc", "2a", "2b", "2c"]
    if merge_bc:
        node_names.remove("Mc")
    if not solid_neutral:
        node_names.append("n")
    index = {name: i for i, name in enumerate(node_names)}
    at = dict(index, Mc=index["Mb"]) if merge_bc else index
    n = len(node_names)
    y = [[0j] * n for _ in range(n)]

    def stamp(block: list[list[complex]], frm: tuple[str, ...], to: tuple[str, ...] = ()) -> None:
        """Series admittance block between the nodes frm and to; to ground
        when to is empty."""
        fi = [at[name] for name in frm]
        ti = [at[name] for name in to]
        for r, row in enumerate(block):
            for c, v in enumerate(row):
                y[fi[r]][fi[c]] += v
                if ti:
                    y[ti[r]][ti[c]] += v
                    y[fi[r]][ti[c]] -= v
                    y[ti[r]][fi[c]] -= v

    y_1m = _phase_admittance(m.line_1m)
    y_m2 = _phase_admittance(m.line_m2)
    stamp(y_1m.tolist(), ("1a", "1b", "1c"), ("Ma", "Mb", "Mc"))
    stamp(y_m2.tolist(), ("Ma", "Mb", "Mc"), ("2a", "2b", "2c"))
    y_load = 1.0 / m.load.z_load
    for ph in ("a", "b", "c"):
        stamp([[y_load]], (f"2{ph}",), () if solid_neutral else ("n",))
    if not solid_neutral:
        stamp([[_shunt_admittance(m.load.z_ground)]], ("n",))
    if faulted and not pin_a and not merge_bc:
        if lg:
            stamp([[1.0 / rf]], ("Ma",))
        elif ll:
            stamp([[1.0 / rf]], ("Mb",), ("Mc",))

    v_src = _source_phase_voltages(m, source_seq)
    known: dict[str, complex] = {"1a": v_src.a, "1b": v_src.b, "1c": v_src.c}
    if pin_a:
        known["Ma"] = 0j

    return NodalSystem(
        node_names=node_names, index=index, y=np.array(y, dtype=complex), known=known,
        y_1m=y_1m, y_m2=y_m2,
    )


@dataclass(frozen=True)
class Transfer:
    """One factorized network topology, linear in the source phase voltages.

    maps stacks four 3x3 blocks over the source phases (a, b, c): rows 0-2
    give the fault-node (relay-point) voltage, rows 3-5 the source-side
    segment current (source bus -> fault node), rows 6-8 the load-side
    segment current (fault node -> load bus) and rows 9-11 the load-bus
    voltage.  residual is the relative residual of the factorization.
    """

    model: MicrogridModel
    maps: np.ndarray
    residual: float

    def solve(
        self, relay_location: RelayLocation, source_seq: SequenceTriple | None = None
    ) -> FaultSolution:
        """Relay quantities for one source; see :func:`solve_network`."""
        m = self.model
        v_1 = _source_phase_voltages(m, source_seq)
        out = (self.maps @ np.array(v_1, dtype=complex)).tolist()
        v_m = PhaseTriple(*out[0:3])
        i_up, i_dn = out[3:6], out[6:9]

        if relay_location is RelayLocation.UPSTREAM_OF_FAULT:
            relay_i = PhaseTriple(*i_up)
        elif relay_location is RelayLocation.DOWNSTREAM_OF_FAULT:
            relay_i = PhaseTriple(*i_dn)
        else:
            raise ValueError(f"unknown relay location {relay_location!r}")

        # fault-branch currents: Ohm's law through rf, or the current balance
        # at the fault node when the fault is bolted
        rf = m.fault.rf
        lg = m.fault.kind is FaultKind.LINE_GROUND_A
        i_f_a = i_f_b = i_f_c = 0j
        if math.isfinite(rf) and lg:
            i_f_a = v_m.a / rf if rf > 0 else i_up[0] - i_dn[0]
        elif math.isfinite(rf):
            i_f_b = (v_m.b - v_m.c) / rf if rf > 0 else i_up[1] - i_dn[1]
            i_f_c = -i_f_b

        if lg:
            z_measured = v_m.a / relay_i.a
        else:
            z_measured = (v_m.b - v_m.c) / (relay_i.b - relay_i.c)
        inter = {
            "i_f_a": i_f_a,
            "i_f_b": i_f_b,
            "i_f_c": i_f_c,
            "residual": complex(self.residual, 0.0),
            "v_src_a": v_1.a,
            "v_load_a": out[9],
        }
        return FaultSolution(
            relay_v=v_m,
            relay_i=relay_i,
            relay_seq_i=phase_to_sequence(relay_i),
            z_measured=z_measured,
            intermediates=inter,
        )


def transfers(models: Sequence[MicrogridModel]) -> list[Transfer]:
    """Factor the networks of many models, in the order given; one model's
    transfer is exactly what it would get on its own.

    Each model is assembled by build_system and solved with the three source
    phases as right-hand sides; any source voltage then follows by
    superposition.  Systems sharing a topology (node list and known-node
    count) are stacked into one batched solve.  The known nodes (source
    phases, then a pinned fault node) come first in the node order, so the
    unknown block is the trailing square of y.  Raises SingularSystemError
    if any member is singular or its relative residual is not below
    RESIDUAL_LIMIT.
    """
    systems = [build_system(m) for m in models]
    groups: dict[tuple[tuple[str, ...], int], list[int]] = {}
    for i, sysm in enumerate(systems):
        groups.setdefault((tuple(sysm.node_names), len(sysm.known)), []).append(i)

    out: list[Transfer] = [None] * len(models)  # type: ignore[list-item]
    for (_, k), members in groups.items():
        y = np.stack([systems[i].y for i in members])
        a_uu = y[:, k:, k:]
        b = -y[:, k:, :3]
        try:
            x = np.linalg.solve(a_uu, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"nodal matrix is singular: {exc}") from exc
        scale = np.linalg.norm(b, axis=(1, 2))
        residuals = (
            np.linalg.norm(a_uu @ x - b, axis=(1, 2)) / np.where(scale > 0, scale, 1.0)
        ).tolist()
        for residual in residuals:
            if not residual < RESIDUAL_LIMIT:
                raise SingularSystemError(
                    f"nodal solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT}"
                )

        # node voltages per unit source phase voltage; a pinned fault node is 0
        v = np.concatenate((np.broadcast_to(np.eye(k, 3), (len(members), k, 3)), x), axis=1)
        idx = systems[members[0]].index
        v_m = v[:, [idx["Ma"], idx["Mb"], idx.get("Mc", idx["Mb"])]]
        v_2 = v[:, [idx["2a"], idx["2b"], idx["2c"]]]
        y_1m = np.stack([systems[i].y_1m for i in members])
        y_m2 = np.stack([systems[i].y_m2 for i in members])
        maps = np.concatenate(
            (v_m, y_1m @ (np.eye(3) - v_m), y_m2 @ (v_m - v_2), v_2), axis=1
        )
        for j, i in enumerate(members):
            out[i] = Transfer(model=models[i], maps=maps[j], residual=residuals[j])
    return out


def transfer(m: MicrogridModel) -> Transfer:
    """Factor the network of one model once; see :func:`transfers`."""
    return transfers([m])[0]


def solve_network(
    m: MicrogridModel,
    relay_location: RelayLocation,
    source_seq: SequenceTriple | None = None,
) -> FaultSolution:
    """Solve the full three-phase network and extract relay quantities.

    The relay voltage is the fault-node voltage; the relay current is the
    source-side segment current (source bus -> fault node) for an upstream
    relay and the load-side segment current (fault node -> load bus) for a
    downstream one.  The intermediates map carries the fault-branch currents
    (i_f_a, i_f_b, i_f_c) and the solve residual.
    """
    return transfer(m).solve(relay_location, source_seq)
