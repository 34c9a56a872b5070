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

The stream checks its residual once.  With q_j = A0 p_j - b_j for source
phase j, g_j = u^T x0_j / z_kk and e_j = q_j + u g_j (the bolted solution's own
defect), the residual r_j = q_j + (A0 w) c_j + u i_f_j is, for any g_j and
exactly, e_j + (A0 w - u) c_j + u (c_j + i_f_j - g_j).  When rf >= 0 and
Re z_kk >= 0, |rf + z_kk|^2 = rf^2 + 2 rf Re z_kk + |z_kk|^2 >= max(rf^2,
|z_kk|^2), so |i_f_j| = |u^T x0_j| / |rf + z_kk| <= |g_j| and |c_j| =
rf |i_f_j| / |z_kk| <= |g_j|, and c_j + i_f_j - g_j is rounding only: one
bound, |(|e_j| + s |g_j|)_j| / |b| with s = |A0 w - u| plus rounding terms,
holds at every rf >= 0.  Rounding, with h = eps/2: CPython divides complex
numbers by Smith's method, within (3 sqrt(2) + 4) h (its denominator sums like
signs, 3 h; its numerators err by 3 h of |a_r| + |a_i b_i / b_r| and
|a_i| + |a_r b_i / b_r|, 3 sqrt(2) h |a| / |b| by Cauchy-Schwarz; the last
division h); rf + z_kk and rf i_f round each part once (h).  To first order
|i_f_j| and |c_j| are within a factor 1 + (9 sqrt(2) + 14) h of |g_j|, and
|c_j + i_f_j - g_j| within (9 sqrt(2) + 14) h |g_j| (13.4 eps): 14 eps each.
The branch law's |z_kk c_j - rf i_f_j| is the division's error and a complex
product's (sqrt(5) h; Brent, Percival and Zimmermann, Math. Comp. 76, 2007)
on rf |i_f_j| <= |u^T x0_j|, as rf <= |rf + z_kk|: 5.24 eps of |u^T x0_j|, so
at most 6 eps after the division by |u^T x0|.  The direct check's rounding is
as large as the residual: an entry q_k + a_k c_j + u_k i_f_j has u_k i_f_j
exact (u_k is 0 or +-1), a product within sqrt(5) h |a_k| |c_j| and two sums
within h each, so the column is within about eps (|q_j| + 2.2 |A0 w| |c_j| +
|u| |i_f_j|) of the exact one, and e_j within eps (|q_j| + |u| |g_j|).  The
bound adds 4 eps of |q_j|, |A0 w| |c_j| and |u| (|i_f_j| + |g_j|), covering
these and the norms' rounding: s = (|A0 w - u| + 4 eps (|A0 w| + |u|))
(1 + 14 eps) + 18 eps |u|, and the bound is the larger of 6 eps and
|(|e_j| + 4 eps |q_j| + s |g_j|)_j| / |b|.  Without its eps terms it fell
below the evaluated residual at 1,748 of the 49,166 points of
tests/test_sweep.py seeds 0-3999; with them it is at least 1.137 times it
there, and 1.192 times on 52,000 points of random models at rf from 0 and
5e-324 to 1e300, which take i_f into underflow (tests/test_residual_gate.py).
A stream whose bound times a safety factor of 1e3 is below RESIDUAL_LIMIT
when it starts passes each rf >= 0 unchecked, so an allowance short by less
than that factor lets no failing point through; the bound is at most 2.8e-14
there, so the factor costs no stream its gate.  Every other point is checked
directly, with the direct check's message, so the same points raise as
without the gate: a negative or nan rf, and every point if not Re z_kk >= 0
or if a norm overflows (abs() of a complex beyond the float range raises
OverflowError) or is not finite.  Transfer.residual is the direct value.
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
# the stream's gate (module docstring): safety factor on its bound, and in machine
# epsilons its allowance per term, the injection's rounding and the branch law's
_SAFETY, _ULPS, _INJECT, _BRANCH = 1e3, 4, 14, 6

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
    v0, v1, v2 = ux0
    f0, f1, f2 = v0 / d, v1 / d, v2 / d
    return [f0, f1, f2], [rf * f0 / z_kk, rf * f1 / z_kk, rf * f2 / z_kk]


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

    def _gate(self, kind: FaultKind) -> float:
        """One bound of :meth:`_fault_residual`'s value at every rf >= 0 of the
        kind's stream, from norms of its bolted solution (see the module
        docstring); inf if not Re z_kk >= 0, or if a norm overflows or is not
        finite."""
        u_nonzero, z_kk, ux0, _, _, _, aw, q = self.faults[kind]
        if not z_kk.real >= 0:
            return math.inf
        g = [v / z_kk for v in ux0]
        e, awu = [list(qj) for qj in q], list(aw)
        for k, uk in u_nonzero:
            awu[k] -= uk
            for ej, gj in zip(e, g):
                ej[k] += uk * gj
        eps = sys.float_info.epsilon
        tol = _ULPS * eps
        try:
            u_norm = _norm(uk for _, uk in u_nonzero)
            slope = ((_norm(awu) + tol * (_norm(aw) + u_norm)) * (1.0 + _INJECT * eps)
                     + u_norm * (tol + _INJECT * eps))
            dense = math.hypot(*(_norm(ej) + tol * _norm(qj) + slope * abs(gj)
                                 for ej, qj, gj in zip(e, q, g))) / self.b_norm
        except OverflowError:
            return math.inf
        return max(dense, _BRANCH * eps) if math.isfinite(dense) else math.inf

    def injections(self, kind: FaultKind,
                   rfs: Iterable[float]) -> Iterator[tuple[list[complex], list[complex]]]:
        """Each finite rf's fault current i_f and injection c = rf i_f / z_kk per
        source phase, one rf at a time, once its residual has passed.  Raises
        SingularSystemError at the rf where the fault current is undefined
        (rf = inf among them) or the residual is not below RESIDUAL_LIMIT.

        When the stream starts it compares :meth:`_gate`, times _SAFETY (1e3),
        with RESIDUAL_LIMIT once: if it is below, every rf >= 0 has passed;
        any other point, a negative or nan rf or every point of a stream
        without a gate, is checked by :meth:`_fault_residual`, so the same
        points raise, with the same messages."""
        _, z_kk, ux0, _, _, _, _, _ = self.faults.get(kind) or self._bolted(kind)
        gated = _SAFETY * self._gate(kind) < RESIDUAL_LIMIT
        for rf in rfs:
            i_f, c = _injection(rf, z_kk, ux0)
            if not (gated and rf >= 0):
                self._fault_residual(kind, rf, i_f, c)
            yield i_f, c

    def readings(self, kind: FaultKind, rfs: Iterable[float], v: PhaseTriple,
                 first: int) -> Iterator[tuple[list[complex], list[complex]]]:
        """Each finite rf's fault-node voltages (map rows 0-2) and map rows first..
        first+2 (first 3 or 6: a relay's currents) for the source phases v, one
        rf at a time, raising where :meth:`injections` does.  The kind's six
        bolted rows and their lw entries are unpacked once; each point's row
        is its bolted row plus lw c, superposed over v as straight-line
        arithmetic: the float operations of :meth:`Transfer.rows`, in the same
        order."""
        _, _, _, _, bolted, lw, _, _ = self.faults.get(kind) or self._bolted(kind)
        ((m00, m01, m02), (m10, m11, m12), (m20, m21, m22),
         (r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) = bolted[0:3] + bolted[first:first + 3]
        lm0, lm1, lm2, lr0, lr1, lr2 = lw[0:3] + lw[first:first + 3]
        va, vb, vc = v
        for _, (c0, c1, c2) in self.injections(kind, rfs):
            yield ([(m00 + lm0 * c0) * va + (m01 + lm0 * c1) * vb + (m02 + lm0 * c2) * vc,
                    (m10 + lm1 * c0) * va + (m11 + lm1 * c1) * vb + (m12 + lm1 * c2) * vc,
                    (m20 + lm2 * c0) * va + (m21 + lm2 * c1) * vb + (m22 + lm2 * c2) * vc],
                   [(r00 + lr0 * c0) * va + (r01 + lr0 * c1) * vb + (r02 + lr0 * c2) * vc,
                    (r10 + lr1 * c0) * va + (r11 + lr1 * c1) * vb + (r12 + lr1 * c2) * vc,
                    (r20 + lr2 * c0) * va + (r21 + lr2 * c1) * vb + (r22 + lr2 * c2) * vc])

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
