"""Independent phase-domain nodal solver for the two-bus microgrid.

Ground truth for the closed-form results in :mod:`admrelay.faults`: every
conductor is represented explicitly and the network is solved as one dense
complex linear system with partial pivoting; no sequence-network reduction
is used beyond the transform of per-sequence element data into 3x3 blocks.

Nodes are the three source-bus phases (known voltages), the three fault-node
phases, the three load-bus phases and, unless the load neutral is solidly
grounded, the neutral.  :func:`build_system` assembles the healthy network
only.  A fault through rf adds the rank-1 branch u u^T / rf at the fault
node (u = e_Ma line-ground, e_Mb - e_Mc line-line), so it is solved as a
fault current i_f injected along u: with x0 the healthy solution for the
source phases and w = A0^-1 u, z_kk = u^T w and i_f = u^T x0 / (rf + z_kk)
(the Z-bus fault formula and compensation method; Grainger & Stevenson,
*Power System Analysis*, ch. 10-12; Tinney, IEEE Trans. PAS-91, 1972).  The
solution is the bolted one, p = x0 - w u^T x0 / z_kk with u^T p = 0 set
exactly, plus w c, c = rf i_f / z_kk; rf = inf leaves x0.  The residuals of
A0 x + u i_f = b and u^T x = rf i_f are affine in (c, i_f): each fault's come
from A0 p - b and A0 w, made with its kind's bolted solution on first use.
A :class:`Network` is factored once.  :meth:`Network.injections` streams a
fault kind's finite rf values through it, giving each one's i_f and c once
its residual has passed.  The sweep reads each point's fault-node voltage and
relay current from :meth:`Network.readings`: the bolted rows plus the rows of
w times c, in one superposition per point.  :meth:`Network.transfer` makes
one fault's injection, checks its residual directly and makes the 13 map rows
of a :class:`Transfer` in one pass (x0's for rf = inf), which the trajectory
and case read and print.  The DCB coupling needs one fault and one source
vector, so :func:`fault_phases` solves x = x0 - w i_f on that one right-hand
side; the row readers keep :class:`Network`, whose round-off their documents
print.

The stream checks each point through an O(1) bound.  With q_j = A0 p_j - b_j
for source phase j, g_j = u^T x0_j / z_kk and e_j = q_j + u g_j (the bolted
solution's own defect), the residual r_j = q_j + (A0 w) c_j + u i_f_j is, for
any g_j and exactly, e_j + (A0 w - u) c_j + u (c_j + i_f_j - g_j), whose last
factor is zero but for rounding.  So |r_j| <= |e_j| + |A0 w - u| |c_j| +
|u| |c_j + i_f_j - g_j|: with the norms taken once per stream, a few scalar
operations per point in place of the direct residual's 3 n complex
multiply-adds and absolute values.  That bounds the exact residual of the
floats c and i_f, not the residual as the direct check evaluates it, whose
rounding is as large as the residual itself: with nothing added the bound fell
below the evaluated residual at 294 of the 49,166 stream points of
tests/test_sweep.py seeds 0-3999 (smallest ratio 0.81).  In floats an entry
q_k + a_k c_j + u_k i_f_j has u_k i_f_j exact (u_k is 0 or +-1), a complex
product that errs by at most (sqrt(5)/2) eps |a_k| |c_j| (Brent, Percival and
Zimmermann, Math. Comp. 76, 2007) and two sums that each err by at most eps/2
of their magnitude, so the evaluated column is within about eps (|q_j| +
2.2 |A0 w| |c_j| + |u| |i_f_j|) of the exact one; the gate's own e_j errs by
about eps (|q_j| + |u| |g_j|), and c_j + i_f_j - g_j, all cancellation, by
about eps |u| (|c_j| + |i_f_j| + |g_j|), where |A0 w| is near |u|.  The bound
adds 4 eps (|q_j| + |A0 w| |c_j| + |u| (|i_f_j| + |g_j|)), which covers these
and the norms' own rounding: on the same points it is at least 1.036 times
the evaluated residual.  The fault branch's law, |z_kk c - rf i_f| over three
terms, enters as the direct check evaluates it.  A point passes when its
bound times a safety factor of 1e3 is below RESIDUAL_LIMIT, so an allowance
short by less than that factor on a network outside the tested ones still
lets no failing point through; on those points the bound is at most 2.7e-14
against a limit of 1e-9, so the factor costs no point its skip.  Every other point is checked
directly, with the direct check's message, so the same points raise as
without the gate.  The norms are taken under a guard: if one overflows
(abs() of a complex beyond the float range raises OverflowError) or is not
finite, the stream has no gate and every point is checked directly, as is a
point whose own bound overflows.  Transfer.residual is the direct value.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul
from typing import Iterable, Iterator

from .errors import MeasurementError, SingularSystemError
from .faults import FaultSolution
from .network import FaultKind, FaultSpec, MicrogridModel, RelayLocation, SequenceImpedancePair
from .phasors import PhaseTriple, SequenceTriple, phase_to_sequence, sequence_to_phase
from .records import Record

RESIDUAL_LIMIT = 1e-9
# the injection stream's gate: safety factor on its bound, and its rounding
# allowance in units of machine epsilon per term (see Network.injections)
_SAFETY, _ULPS = 1e3, 4

Block = tuple[tuple[complex, ...], ...]


class Matrix(tuple):
    """Dense complex matrix as a tuple of row tuples; tobytes() is a content
    key, as an ndarray's is (the benchmark tracer counts systems by it)."""

    def tobytes(self) -> bytes:
        return repr(self).encode()


def sequence_to_phase_matrix(z: SequenceImpedancePair) -> Block:
    """3x3 phase-impedance image of a balanced series element.

    Diagonal entries are (z0 + 2*z1)/3, off-diagonal entries (z0 - z1)/3,
    which is the similarity transform of diag(z0, z1, z1).
    """
    return _balanced_block((z.z0 + 2.0 * z.z1) / 3.0, (z.z0 - z.z1) / 3.0)


def _balanced_block(diag: complex, off: complex) -> Block:
    return ((diag, off, off), (off, diag, off), (off, off, diag))


def _phase_admittance(z: SequenceImpedancePair) -> Block:
    """Phase-admittance block of a series element."""
    if z.z1 == 0 or z.z0 == 0:
        raise SingularSystemError("series element with zero sequence impedance makes the "
                                  "nodal system singular")
    y1, y0 = 1.0 / z.z1, 1.0 / z.z0
    return _balanced_block((y0 + 2.0 * y1) / 3.0, (y0 - y1) / 3.0)


class NodalSystem(Record):
    """Assembled healthy three-phase nodal problem.

    node_names lists every non-ground node; ground is the implicit reference.
    The first three are the source phases, whose voltages are the known
    inputs; the rest are unknown.  y is the admittance matrix over
    node_names; y_1m and y_m2 are the phase-admittance blocks of the two
    line segments stamped into it.
    """

    __slots__ = ("node_names", "index", "y", "y_1m", "y_m2")

    def __init__(self, node_names: list[str], index: dict[str, int], y: Matrix, y_1m: Block,
                 y_m2: Block) -> None:
        self.node_names, self.index, self.y = node_names, index, y
        self.y_1m, self.y_m2 = y_1m, y_m2


def build_system(m: MicrogridModel) -> NodalSystem:
    """Assemble the admittance matrix of one model's healthy network."""
    z_g = complex(m.load.z_ground)
    solid_neutral = z_g == 0
    node_names = ["1a", "1b", "1c", "Ma", "Mb", "Mc", "2a", "2b", "2c"]
    if not solid_neutral:
        node_names.append("n")
    index = {name: i for i, name in enumerate(node_names)}
    y = [[0j] * len(node_names) for _ in node_names]

    def stamp(block: Block, frm: tuple[str, ...], to: tuple[str, ...] = ()) -> None:
        """Series admittance block between the nodes frm and to; to ground
        when to is empty."""
        fi = [index[name] for name in frm]
        ti = [index[name] for name in to]
        for r, row in enumerate(block):
            for c, v in enumerate(row):
                y[fi[r]][fi[c]] += v
                if ti:
                    y[ti[r]][ti[c]] += v
                    y[fi[r]][ti[c]] -= v
                    y[ti[r]][fi[c]] -= v

    y_1m = _phase_admittance(m.line_1m)
    y_m2 = _phase_admittance(m.line_m2)
    stamp(y_1m, ("1a", "1b", "1c"), ("Ma", "Mb", "Mc"))
    stamp(y_m2, ("Ma", "Mb", "Mc"), ("2a", "2b", "2c"))
    y_load = 1.0 / m.load.z_load
    for ph in ("a", "b", "c"):
        stamp(((y_load,),), (f"2{ph}",), () if solid_neutral else ("n",))
    if not solid_neutral:  # an infinite grounding impedance leaves the neutral floating
        stamp(((1.0 / z_g if cmath.isfinite(z_g) else 0j,),), ("n",))
    return NodalSystem(node_names, index, Matrix(map(tuple, y)), y_1m, y_m2)


def _factor(a: list[list[complex]]) -> tuple[list[list[complex]], list[int]]:
    """LU factorization with partial pivoting, in place: U on and above the
    diagonal, the unit lower factor's multipliers below it, and the row
    order."""
    n = len(a)
    order = list(range(n))
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            raise SingularSystemError("nodal matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        order[k], order[piv] = order[piv], order[k]
        pk = a[k]
        for row in a[k + 1:]:
            f = row[k] = row[k] / pk[k]
            for c in range(k + 1, n):
                row[c] -= f * pk[c]
    return a, order


def _lu_solve(lu: list[list[complex]], order: list[int], b: list[complex]) -> list[complex]:
    """Solve with the factors of :func:`_factor`."""
    n = len(b)
    x = [b[i] for i in order]
    for k in range(n):
        x[k] -= sum(map(mul, lu[k][:k], x[:k]))
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - sum(map(mul, lu[k][k + 1:], x[k + 1:]))) / lu[k][k]
    return x


def _times(y: Block, d: list[list[complex]]) -> list[list[complex]]:
    """The 3x3 block y times the 3-row matrix d."""
    cols = list(zip(*d))
    return [[sum(map(mul, row, col)) for col in cols] for row in y]


def _norm(values: Iterable[complex]) -> float:
    return math.hypot(*map(abs, values))


def _checked(residual: float) -> float:
    if not residual < RESIDUAL_LIMIT:
        raise SingularSystemError(f"nodal solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT}")
    return residual


def _fault_column(kind: FaultKind, lu: list[list[complex]], order: list[int]) -> tuple:
    """u over the unknown nodes, e_Ma (line-ground) or e_Mb - e_Mc (line-line),
    w = A0^-1 u and z_kk = u^T w; SingularSystemError if z_kk is 0 or not finite."""
    u = ([1, 0, 0] if kind is FaultKind.LINE_GROUND_A else [0, 1, -1]) + [0] * (len(lu) - 3)
    w = _lu_solve(lu, order, u)
    z_kk = sum(map(mul, u, w))
    if not (z_kk != 0 and cmath.isfinite(z_kk)):
        raise SingularSystemError(f"fault-point impedance is {z_kk}")
    return u, w, z_kk


def _fault_denominator(rf: float, z_kk: complex) -> complex:
    """rf + z_kk; SingularSystemError if it is 0 or not finite."""
    if not ((d := rf + z_kk) != 0 and cmath.isfinite(d)):
        raise SingularSystemError(f"rf + z_kk is {d}: the fault current is undefined")
    return d


def _injection(rf: float, z_kk: complex,
               ux0: list[complex]) -> tuple[list[complex], list[complex]]:
    """The fault current i_f = u^T x0 / (rf + z_kk) and the injection c = rf i_f / z_kk
    per source phase; SingularSystemError where the fault current is undefined."""
    d = _fault_denominator(rf, z_kk)
    i_f = [v / d for v in ux0]
    return i_f, [rf * f / z_kk for f in i_f]


class Transfer:
    """One fault's network, linear in the source phase voltages.

    maps holds its 13 map rows over the source phases (a, b, c): the
    fault-node (relay-point) voltage (rows 0-2), the source-side segment
    current, source bus -> fault node (3-5), the load-side one, fault node ->
    load bus (6-8), the load-bus voltage (9-11) and the fault-branch current,
    a to ground or b to c (12; zero with the fault open).  residual is the
    relative residual of the fault's own solution.
    """

    __slots__ = ("fault", "residual", "maps")

    def __init__(self, fault: FaultSpec, residual: float,
                 maps: tuple[tuple[complex, complex, complex], ...]) -> None:
        self.fault, self.residual, self.maps = fault, residual, maps

    def rows(self, first: int, v: PhaseTriple) -> PhaseTriple:
        """Map rows first..first+2 (first 0, 3, 6 or 9) for the source phases v."""
        return PhaseTriple._make(_superpose(self.maps[first:first + 3], v))

    def solve(self, relay_location: RelayLocation, source_seq: SequenceTriple) -> FaultSolution:
        """Relay quantities for the source source_seq; see :func:`solve_network`."""
        v = sequence_to_phase(source_seq)
        v_m, relay_i = self.rows(0, v), self.rows(RELAY_ROW[relay_location], v)
        v_load_a, i_f = _superpose((self.maps[9], self.maps[12]), v)
        i_fault = (dict(i_f_a=i_f, i_f_b=0j, i_f_c=0j) if self.fault.kind is FaultKind.LINE_GROUND_A
                   else dict(i_f_a=0j, i_f_b=i_f, i_f_c=-i_f))
        inter = dict(i_fault, residual=complex(self.residual, 0.0), v_load_a=v_load_a)
        return FaultSolution(v_m, relay_i, phase_to_sequence(relay_i),
                             reading(self.fault.kind, v_m, relay_i), inter)


# relay location -> the first map row of the segment current its relay measures
RELAY_ROW = {RelayLocation.UPSTREAM_OF_FAULT: 3, RelayLocation.DOWNSTREAM_OF_FAULT: 6}


def reading(kind: FaultKind, v: PhaseTriple | list[complex],
            i: PhaseTriple | list[complex]) -> complex:
    """The oracle's distance reading from relay voltages v and currents i, each
    indexed a, b, c: v_a / i_a (line-ground) or (v_b - v_c) / (i_b - i_c);
    MeasurementError on a zero denominator."""
    num, den = (v[0], i[0]) if kind is FaultKind.LINE_GROUND_A else (v[1] - v[2], i[1] - i[2])
    if not den:
        raise MeasurementError("oracle reading: no current in the measuring loop")
    return num / den


def _superpose(rows: Iterable[tuple[complex, complex, complex]], v: PhaseTriple) -> list[complex]:
    """The given map rows for the source phases v."""
    va, vb, vc = v
    return [r0 * va + r1 * vb + r2 * vc for r0, r1, r2 in rows]


class Network:
    """One model's healthy network, factored and checked once (SingularSystemError
    if singular or its relative residual is not below RESIDUAL_LIMIT), its solution
    x0 for the source phases and, per fault kind on first use, the bolted
    solution, through which :meth:`injections` streams faults of that kind;
    columns span the unknown nodes."""

    def __init__(self, m: MicrogridModel) -> None:
        sysm = build_system(m)
        self.y_1m, self.y_m2 = sysm.y_1m, sysm.y_m2
        self.a0 = [row[3:] for row in sysm.y[3:]]
        self.lu, self.order = _factor([list(row) for row in self.a0])
        self.b = [[-row[j] for row in sysm.y[3:]] for j in range(3)]
        self.b_norm = _norm(v for col in self.b for v in col) or 1.0
        self.x0 = [_lu_solve(self.lu, self.order, col) for col in self.b]
        self.residual = _checked(
            _norm(v for col in self._residual(self.x0) for v in col) / self.b_norm)
        self.faults: dict[FaultKind, tuple] = {}

    def _residual(self, x: list[list[complex]]) -> list[list[complex]]:
        """A0 x - b, column by column."""
        return [[sum(map(mul, row, xj)) - bi for row, bi in zip(self.a0, bj)]
                for xj, bj in zip(x, self.b)]

    def _maps(self, x: list[list[complex]], source: bool) -> list[list[complex]]:
        """The first 12 map rows of the columns x; source counts the source
        phases in, as the identity, for solutions of the source columns."""
        v_m = [list(v) for v in zip(*(col[0:3] for col in x))]
        v_2 = [list(v) for v in zip(*(col[3:6] for col in x))]
        v_1 = [[float(source and r == j) for j in range(len(x))] for r in range(3)]
        d_up = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(v_1, v_m)]
        d_dn = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(v_m, v_2)]
        return v_m + _times(self.y_1m, d_up) + _times(self.y_m2, d_dn) + v_2

    def _bolted(self, kind: FaultKind) -> tuple:
        """Make and keep the fault kind's bolted solution: u's nonzero (row,
        entry) pairs, z_kk, u^T x0 and its norm, the maps of p and w, and A0 w
        and A0 p - b."""
        lg = kind is FaultKind.LINE_GROUND_A
        u, w, z_kk = _fault_column(kind, self.lu, self.order)
        ux0 = [sum(map(mul, u, col)) for col in self.x0]
        p = [[xk - wk * (uj / z_kk) for xk, wk in zip(col, w)]
             for col, uj in zip(self.x0, ux0)]
        for col in p:  # u^T p = 0 exactly
            col[0 if lg else 2] = 0j if lg else col[1]
        lw = [row[0] for row in self._maps([w], False)]
        aw = [sum(map(mul, row, w)) for row in self.a0]
        nonzero = [(k, uk) for k, uk in enumerate(u) if uk]
        self.faults[kind] = bolted = (nonzero, z_kk, ux0, _norm(ux0) or 1.0,
                                      self._maps(p, True), lw, aw, self._residual(p))
        return bolted

    def _fault_residual(self, kind: FaultKind, rf: float, i_f: list[complex],
                        c: list[complex]) -> float:
        """The checked relative residual of the fault's solution x = p + w c:
        the larger of |A0 x + u i_f - b| / |b| and |u^T x - rf i_f| / |u^T x0|."""
        u_nonzero, z_kk, _, ux0_norm, _, _, aw, q = self.faults[kind]
        n = len(aw)
        # u^T p = 0; u i_f is added only where u is nonzero, at the fault-node rows
        r = [qk + ak * cj for qj, cj in zip(q, c) for qk, ak in zip(qj, aw)]
        for j, fj in enumerate(i_f):
            for k, uk in u_nonzero:
                r[j * n + k] += uk * fj
        return _checked(max(
            _norm(r) / self.b_norm,
            _norm(z_kk * cj - rf * fj for cj, fj in zip(c, i_f)) / ux0_norm,
        ))

    def _gate(self, kind: FaultKind):
        """The bound of :meth:`_fault_residual`'s value as a function of (rf, i_f,
        c), from norms of the kind's bolted solution; None if one of them
        overflows or is not finite."""
        u_nonzero, z_kk, ux0, ux0_norm, _, _, aw, q = self.faults[kind]
        g = [v / z_kk for v in ux0]
        e, awu = [list(qj) for qj in q], list(aw)
        for k, uk in u_nonzero:
            awu[k] -= uk
            for ej, gj in zip(e, g):
                ej[k] += uk * gj
        tol = _ULPS * sys.float_info.epsilon
        try:
            u_norm = _norm(uk for _, uk in u_nonzero)
            slope = _norm(awu) + tol * _norm(aw)
            e0, e1, e2 = (_norm(ej) + tol * (_norm(qj) + u_norm * abs(gj))
                          for ej, qj, gj in zip(e, q, g))
        except OverflowError:
            return None
        if not math.isfinite(slope + e0 + e1 + e2):
            return None
        g0, g1, g2 = g
        u_tol, b_norm = u_norm * tol, self.b_norm

        def bound(rf: float, i_f: list[complex], c: list[complex]) -> float:
            (f0, f1, f2), (c0, c1, c2) = i_f, c
            try:
                dense = math.hypot(
                    e0 + slope * abs(c0) + u_norm * abs(c0 + f0 - g0) + u_tol * abs(f0),
                    e1 + slope * abs(c1) + u_norm * abs(c1 + f1 - g1) + u_tol * abs(f1),
                    e2 + slope * abs(c2) + u_norm * abs(c2 + f2 - g2) + u_tol * abs(f2))
                branch = math.hypot(abs(z_kk * c0 - rf * f0), abs(z_kk * c1 - rf * f1),
                                    abs(z_kk * c2 - rf * f2))
            except OverflowError:
                return math.inf
            return max(dense / b_norm, branch / ux0_norm)

        return bound

    def injections(self, kind: FaultKind,
                   rfs: Iterable[float]) -> Iterator[tuple[list[complex], list[complex]]]:
        """Each finite rf's fault current i_f and injection c = rf i_f / z_kk per
        source phase, one rf at a time, once its residual has passed.  Raises
        SingularSystemError at the rf where the fault current is undefined
        (rf = inf among them) or the residual is not below RESIDUAL_LIMIT.

        The stream takes the norms of :meth:`_gate` once.  A point whose bound,
        |e_j| + |A0 w - u| |c_j| + |u| |c_j + i_f_j - g_j| per source phase plus
        a rounding allowance of 4 eps per term (see the module docstring), times
        _SAFETY (1e3), is below RESIDUAL_LIMIT has passed; any other point, and
        every point when a norm overflows or is not finite, is checked by
        :meth:`_fault_residual`, so the same points raise, with the same
        messages."""
        _, z_kk, ux0, _, _, _, _, _ = self.faults.get(kind) or self._bolted(kind)
        bound = self._gate(kind)
        for rf in rfs:
            i_f, c = _injection(rf, z_kk, ux0)
            if not (bound and _SAFETY * bound(rf, i_f, c) < RESIDUAL_LIMIT):
                self._fault_residual(kind, rf, i_f, c)
            yield i_f, c

    def readings(self, kind: FaultKind, rfs: Iterable[float], v: PhaseTriple,
                 first: int) -> Iterator[tuple[list[complex], list[complex]]]:
        """Each finite rf's fault-node voltages (map rows 0-2) and map rows first..
        first+2 (first 3 or 6: a relay's currents) for the source phases v, one
        rf at a time, raising where :meth:`injections` does.  Each row is the
        kind's bolted row plus lw c, superposed over v in one expression: the
        float operations of :meth:`Transfer.rows`, in the same order."""
        _, _, _, _, bolted, lw, _, _ = self.faults.get(kind) or self._bolted(kind)
        read = list(zip(bolted[0:3] + bolted[first:first + 3], lw[0:3] + lw[first:first + 3]))
        va, vb, vc = v
        for _, (c0, c1, c2) in self.injections(kind, rfs):
            vi = [(b0 + lk * c0) * va + (b1 + lk * c1) * vb + (b2 + lk * c2) * vc
                  for (b0, b1, b2), lk in read]
            yield vi[:3], vi[3:]

    def transfer(self, fault: FaultSpec) -> Transfer:
        """The fault's transfer: x0's rows for rf = inf, else its kind's bolted
        rows plus lw times its one injection from :meth:`injections`, which
        raises where that does."""
        if fault.rf == math.inf:
            return Transfer(fault, self.residual,
                            (*map(tuple, self._maps(self.x0, True)), (0j, 0j, 0j)))
        _, z_kk, ux0, _, bolted, lw, _, _ = (self.faults.get(fault.kind)
                                             or self._bolted(fault.kind))
        i_f, c = _injection(fault.rf, z_kk, ux0)
        residual = self._fault_residual(fault.kind, fault.rf, i_f, c)
        c0, c1, c2 = c
        rows = [(b0 + lk * c0, b1 + lk * c1, b2 + lk * c2) for (b0, b1, b2), lk in zip(bolted, lw)]
        return Transfer(fault, residual, (*rows, tuple(i_f)))


def fault_phases(m: MicrogridModel, v: PhaseTriple) -> tuple[PhaseTriple, PhaseTriple,
                                                              PhaseTriple]:
    """The fault-node voltage and the source-side and load-side segment
    currents of m under its own fault, for one vector v of source phases.

    The compensation method on one right-hand side: x0 = A0^-1 (b v) and, for
    a finite rf, x = x0 - w i_f with w = A0^-1 u and i_f = u^T x0 / (rf + z_kk):
    one factorization and at most two triangular solves.  Raises
    SingularSystemError where :class:`Network` and its transfer do.
    """
    sysm = build_system(m)
    a0 = [row[3:] for row in sysm.y[3:]]
    lu, order = _factor([list(row) for row in a0])
    bv = [-r for r in _superpose((row[:3] for row in sysm.y[3:]), v)]
    b_norm = _norm(bv) or 1.0
    x = _lu_solve(lu, order, bv)
    _checked(_norm(sum(map(mul, row, x)) - bk for row, bk in zip(a0, bv)) / b_norm)
    rf = m.fault.rf
    if rf != math.inf:
        u, w, z_kk = _fault_column(m.fault.kind, lu, order)
        ux0 = sum(map(mul, u, x))
        i_f = ux0 / _fault_denominator(rf, z_kk)
        x = [xk - wk * i_f for xk, wk in zip(x, w)]
        _checked(_norm(sum(map(mul, row, x)) + uk * i_f - bk
                       for row, uk, bk in zip(a0, u, bv)) / b_norm)
        _checked(abs(sum(map(mul, u, x)) - rf * i_f) / (abs(ux0) or 1.0))
    v_m, v_2 = x[0:3], x[3:6]
    d_up, d_dn = [a - b for a, b in zip(v, v_m)], [a - b for a, b in zip(v_m, v_2)]
    return (PhaseTriple._make(v_m), PhaseTriple._make(sum(map(mul, r, d_up)) for r in sysm.y_1m),
            PhaseTriple._make(sum(map(mul, r, d_dn)) for r in sysm.y_m2))


def solve_network(m: MicrogridModel, relay_location: RelayLocation) -> FaultSolution:
    """Solve the full three-phase network and extract relay quantities.

    The relay voltage is the fault-node voltage; the relay current is the
    source-side segment current (source bus -> fault node) for an upstream
    relay and the load-side segment current (fault node -> load bus) for a
    downstream one.  The intermediates map carries the fault-branch currents
    (i_f_a, i_f_b, i_f_c) and the solve residual, for the model's own source.
    """
    return Network(m).transfer(m.fault).solve(relay_location, m.source.sequence_voltages())
