"""Exact linear programming for the partition-style lower bound.

The relaxation assigns a nonnegative weight to every (subcube, label)
pair.  At every input x the weights of correctly labeled subcubes
through x must reach 1 - eps while all weights through x sum to exactly
1; the objective charges each subcube 2**(fixed positions).  At eps = 0
the public-coin variant collapses to the cheapest single labeled
partition, which the exhaustive weight search already finds.

The solver solves in floating point and certifies exactly (Applegate,
Cook, Dash and Espinoza, Oper. Res. Lett. 2007).  A dense two-phase
tableau simplex in float64 pivots by Bland's rule, which terminates,
and ends at a basis: one column of the equality form, slacks and
artificials included, per row.  One fraction-free integer inverse of
its matrix B (Bareiss) then gives the primal vertex B^-1 b and the dual
c_B B^-1 as exact rationals.  Where the float simplex read a small
entry as zero, as for eps within its tolerance of 0 or 1/2, that vertex
can have a negative entry, and exact dual simplex pivots, each an eta
update of B^-1, first move the basis to an optimal one.  The pair is
re-checked exactly: primal feasibility, dual feasibility and equal
objectives.  An optimum is reported only when that check passes; the
dual is Jain and Klauck's lower-bound witness (CCC 2010).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfn import TruthTable
from .subcube import all_patterns

MAX_LP_VARS_N = 4
# the float simplex reads an entry within _PIVOT_TOL of zero as zero, and
# stops after _MAX_PIVOTS pivots (Bland's rule cycles only by rounding);
# the exact inverse of its final basis decides the answer
_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 10_000


class CertificateError(ArithmeticError):
    """The float simplex hit its pivot cap, or its final basis is
    singular or fails the exact certificate check."""


@dataclass(frozen=True)
class RationalLP:
    """minimize objective . x  subject to  row . x  (<= | >= | ==)  rhs,
    x >= 0 componentwise; coefficients are ints or Fractions."""

    objective: tuple[Fraction | int, ...]
    rows: tuple[tuple[Fraction | int, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    var_names: tuple[str, ...]

    def __post_init__(self) -> None:
        m = len(self.objective)
        if len(self.var_names) != m:
            raise ValueError("var_names length mismatch")
        for row in self.rows:
            if len(row) != m:
                raise ValueError("constraint row length mismatch")
        if not len(self.rows) == len(self.senses) == len(self.rhs):
            raise ValueError("constraint metadata length mismatch")
        for s in self.senses:
            if s not in ("<=", ">=", "=="):
                raise ValueError(f"bad sense {s!r}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


_HOLDS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class LPSolution:
    """An optimal solution carries the primal assignment x and the dual
    y, one entry per constraint (y >= 0 on >= rows, y <= 0 on <= rows,
    free on == rows); infeasible and unbounded ones carry neither."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    assignment: Optional[tuple[Fraction, ...]]
    dual: Optional[tuple[Fraction, ...]]
    pivots: int

    def violation(self, lp: RationalLP) -> Optional[str]:
        """The first check of the certificate that fails, or None.  In
        exact arithmetic: x >= 0 satisfies every row, y has the row
        signs, every reduced cost c - A^T y is >= 0, and c . x = b . y
        equals the reported value."""
        x, y = self.assignment, self.dual
        if self.status != "optimal":
            if x is None and y is None and self.value is None:
                return None
            return f"a {self.status} solution carries values"
        if x is None or y is None or self.value is None:
            return "an optimal solution lacks its primal, dual or value"
        if len(x) != lp.num_vars or len(y) != lp.num_constraints:
            return "certificate length mismatch"
        for name, v in zip(lp.var_names, x):
            if v < 0:
                return f"primal {name} = {v} < 0"
        aty = [Fraction(0)] * lp.num_vars
        for i, (row, sense, rhs, yi) in enumerate(zip(lp.rows, lp.senses, lp.rhs, y)):
            lhs = _dot(row, x)
            if not _HOLDS[sense](lhs, rhs):
                return f"primal row {i}: {lhs} {sense} {rhs} fails"
            if sense != "==" and not _HOLDS[sense](yi, 0):
                return f"dual y[{i}] = {yi} has the wrong sign for a {sense} row"
            for j, a in enumerate(row):
                if a and yi:
                    aty[j] += a * yi
        for name, c, a in zip(lp.var_names, lp.objective, aty):
            if c < a:
                return f"reduced cost of {name} is {c - a} < 0"
        primal, dual = _dot(lp.objective, x), _dot(lp.rhs, y)
        if not primal == dual == self.value:
            return f"objectives differ: primal {primal}, dual {dual}, reported {self.value}"
        return None


# ---------------------------------------------------------------------------
# float solve, exact certify

def _standard_form(lp: RationalLP) -> tuple[np.ndarray, list[int], list[int]]:
    """lp as [A | S | R] z == rhs: a slack column for each inequality (+1
    on a <= row, -1 on a >= row), then an artificial column, signed like
    the rhs, for each row whose slack cannot start feasible.  Returns the
    object matrix, the sign of each rhs, and the starting basis: each
    row's artificial, or else its slack."""
    m, n = lp.num_constraints, lp.num_vars
    signs = [-1 if b < 0 else 1 for b in lp.rhs]
    slacks = [i for i in range(m) if lp.senses[i] != "=="]
    arts = [i for i in range(m) if lp.senses[i] != ("<=" if signs[i] > 0 else ">=")]
    a = np.zeros((m, n + len(slacks) + len(arts)), dtype=object)
    a[:, :n] = np.array(lp.rows, dtype=object).reshape(m, n)
    basis = [0] * m
    for col, i in enumerate(slacks, n):
        a[i, col], basis[i] = (1 if lp.senses[i] == "<=" else -1), col
    for col, i in enumerate(arts, n + len(slacks)):
        a[i, col], basis[i] = signs[i], col
    return a, signs, basis


def _bland_simplex(
    lp: RationalLP, a: np.ndarray, signs: Sequence[int], basis: list[int]
) -> tuple[str, int]:
    """Two-phase dense tableau simplex in float64 on the standard form
    a, signs and starting basis of lp, rows of negative rhs negated, by
    Bland's rule: the lowest column of negative reduced cost enters, and
    ratio-test ties leave by the lowest basic column.  Phase 1 minimizes
    the sum of the artificials, then pivots out those it can; phase 2
    bars them from entering.  Leaves the final basis in basis and returns
    the status and the pivot count."""
    m, ncols = a.shape
    art_start = lp.num_vars + sum(s != "==" for s in lp.senses)
    t = np.column_stack([a, lp.rhs]).astype(float) * np.array(signs)[:, None]
    pivots = 0

    def pivot(row: int, col: int) -> None:
        nonlocal pivots
        if pivots == _MAX_PIVOTS:
            raise CertificateError(f"the float simplex hit its iteration limit of {_MAX_PIVOTS}")
        pivots += 1
        t[row] /= t[row, col]
        t[:] -= np.outer(t[:, col] - (np.arange(m) == row), t[row])
        basis[row] = col

    def run(cost: np.ndarray, allowed: int) -> bool:
        """Minimize cost over the columns below allowed; False if unbounded."""
        obj = np.append(cost, 0.0) - cost[basis] @ t
        while True:
            entering = np.flatnonzero(obj[:allowed] < -_PIVOT_TOL)
            if not entering.size:
                return True
            col = entering[0]
            rows = np.flatnonzero(t[:, col] > _PIVOT_TOL)
            if not rows.size:
                return False
            ratio = t[rows, -1] / t[rows, col]
            row = min(rows[ratio <= ratio.min() + _PIVOT_TOL], key=basis.__getitem__)
            pivot(row, col)
            obj -= obj[col] * t[row]

    if art_start < ncols:
        run(np.r_[np.zeros(art_start), np.ones(ncols - art_start)], ncols)
        if t[[r for r in range(m) if basis[r] >= art_start], -1].sum() > _PIVOT_TOL:
            return "infeasible", pivots
        for r in range(m):
            nonzero = np.flatnonzero(np.abs(t[r, :art_start]) > _PIVOT_TOL)
            if basis[r] >= art_start and nonzero.size:
                pivot(r, nonzero[0])
    cost = np.r_[np.array(lp.objective, dtype=float), np.zeros(ncols - lp.num_vars)]
    return ("optimal" if run(cost, art_start) else "unbounded"), pivots


def _eta(inv: np.ndarray, det: int, g: np.ndarray, r: int) -> int:
    """Update inv in place, returning the new det, when row r's basic
    column gives way to c with g = inv @ c.  B^-1 = inv / det, the two
    being B's adjugate and determinant up to the sign making det > 0;
    Bareiss's fraction-free update divides each entry exactly by the old det."""
    sign = 1 if g[r] > 0 else -1
    p, g = abs(g[r]), g * sign
    nz = np.flatnonzero(g)
    changed = (p * inv[nz] - np.multiply.outer(g[nz], inv[r])) // det
    pivot = sign * inv[r]
    if p != det:  # for the rows where g is 0
        inv *= p
        inv //= det
    inv[nz] = changed
    inv[r] = pivot
    return p


def _certify(lp: RationalLP, a: np.ndarray, basis: list[int], pivots: int) -> LPSolution:
    """The vertex x_B = B^-1 b and dual y = c_B B^-1 of a basis of lp's
    standard form a, from one exact inverse of B; raises CertificateError
    if B is singular or the pair fails the exact check, which it passes
    iff the basis is optimal.  While the basis is dual feasible and its
    vertex has a negative entry, exact dual simplex pivots by Bland's
    rule come first, counted in pivots, each an eta update of B^-1: the
    lowest basic column of negative value leaves, from row r, and of the
    non-artificial j with alpha_rj < 0 in row r of B^-1 a, the one of
    least d_j / -alpha_rj (d the reduced costs) enters, ties to the lowest."""
    m, n = lp.num_constraints, lp.num_vars
    art_start = n + sum(s != "==" for s in lp.senses)
    cost = np.array(list(lp.objective) + [0] * (a.shape[1] - n), dtype=object)
    den = math.lcm(*(v.denominator for v in lp.rhs))
    b = np.array([v.numerator * (den // v.denominator) for v in lp.rhs], dtype=object)

    def image(j: int) -> tuple[np.ndarray, int]:
        """inv @ (s times column j of a) over its nonzero rows, and s,
        the lcm of the column's denominators."""
        s = math.lcm(*(v.denominator for v in a[:, j].tolist()))
        rows = np.flatnonzero(a[:, j])
        return inv[:, rows] @ (a[rows, j] * s), s

    # B^-1 = diag(t) inv / det, inv and det those of B with column k times
    # t[k]: from the identity, one eta update per basic column, sparsest
    # first to keep inv sparse, at the first free row where it is nonzero
    # (with none, it depends on those before it)
    inv, det, t = np.eye(m, dtype=int).astype(object), 1, [0] * m
    taken: list[Optional[int]] = [None] * m
    for col in sorted(basis, key=lambda j: np.count_nonzero(a[:, j])):
        g, s = image(col)
        r = next((i for i in range(m) if taken[i] is None and g[i]), None)
        if r is not None:
            det = _eta(inv, det, g, r)
            taken[r], t[r] = col, s
    if None in taken:
        raise CertificateError(f"exact re-solve is singular: rank {m - taken.count(None)} < {m}")
    basis[:] = taken
    while True:
        # x_B[k] = t[k] xb[k] / (det den), and y = yb / det
        xb, yb = inv @ b, (cost[basis] * t) @ inv
        leaving = min((j for j, v in zip(basis, xb) if v < 0), default=None)
        if leaving is None:
            break
        d = det * cost - yb @ a  # the reduced costs times det
        if min(d[:art_start]) < 0:
            break  # not dual feasible: the check below fails
        r = basis.index(leaving)
        alpha = inv[r] @ a  # row r of B^-1 a times det / t[r]
        entering = [j for j in range(art_start) if alpha[j] < 0]
        if not entering:
            raise CertificateError(f"row {r} of B^-1 a proves the program infeasible")
        basis[r] = min(entering, key=lambda j: Fraction(d[j], -alpha[j]))
        g, t[r] = image(basis[r])
        det = _eta(inv, det, g, r)
        pivots += 1
    z = {j: Fraction(s * v, det * den) for j, s, v in zip(basis, t, xb)}
    x = tuple(z.get(j, Fraction(0)) for j in range(n))
    y = tuple(Fraction(v, det) for v in yb)
    solution = LPSolution("optimal", _dot(lp.objective, x), x, y, pivots)
    problem = solution.violation(lp)
    if problem is not None:
        raise CertificateError(f"exact certificate fails: {problem}")
    return solution


def solve_exact(lp: RationalLP) -> LPSolution:
    """Solve with the float simplex and certify its final basis exactly.
    Infeasible and unbounded programs are reported as the simplex
    classifies them; ``pivots`` counts its pivots over both phases."""
    a, signs, basis = _standard_form(lp)
    status, pivots = _bland_simplex(lp, a, signs, basis)
    if status != "optimal":
        return LPSolution(status, None, None, None, pivots)
    return _certify(lp, a, basis, pivots)


# ---------------------------------------------------------------------------
# the partition-style relaxation

def build_prt_lp(f: TruthTable, eps: Fraction) -> RationalLP:
    """The weighted-cover relaxation for f at error eps."""
    n = f.n
    if n > MAX_LP_VARS_N:
        raise ValueError(f"relaxation supports n <= {MAX_LP_VARS_N}")
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError("eps must lie in [0, 1/2)")
    patterns = list(all_patterns(n))
    names = [f"w[{pat.text},{z}]" for pat in patterns for z in (0, 1)]
    objective = [1 << pat.fixed_count for pat in patterns for _ in (0, 1)]
    # rows 2*idx and 2*idx + 1: input idx's correct weight and total weight
    rows = [[0] * len(names) for _ in range(2 * f.size)]
    for k, pat in enumerate(patterns):
        for idx in pat.members().tolist():
            rows[2 * idx + 1][2 * k] = rows[2 * idx + 1][2 * k + 1] = 1
            rows[2 * idx][2 * k + f.bit(idx)] = 1
    senses = (">=", "==") * f.size
    rhs = (1 - eps, Fraction(1)) * f.size
    return RationalLP(
        tuple(objective), tuple(map(tuple, rows)), senses, rhs, tuple(names)
    )


@dataclass(frozen=True)
class PrtReport:
    eps: Fraction
    value: Fraction
    dual_value: Fraction
    half_log2: float
    num_vars: int
    num_constraints: int
    pivots: int


def prt_report(f: TruthTable, eps: Fraction) -> PrtReport:
    """Solve the relaxation and report its value v, the value of the
    dual witness (equal to v, or solve_exact would have raised) and
    (log2 v)/2."""
    lp = build_prt_lp(f, eps)
    sol = solve_exact(lp)
    if sol.status != "optimal":
        # every input has a unit-weight singleton, and costs are >= 0
        raise CertificateError(f"the simplex calls a feasible, bounded relaxation {sol.status}")
    assert sol.value is not None and sol.dual is not None
    return PrtReport(
        eps,
        sol.value,
        _dot(lp.rhs, sol.dual),
        0.5 * math.log2(float(sol.value)),
        lp.num_vars,
        lp.num_constraints,
        sol.pivots,
    )
