"""Exact linear programming for the partition-style lower bound.

The relaxation assigns a nonnegative weight to every (subcube, label)
pair.  At every input x the weights of correctly labeled subcubes
through x must reach 1 - eps while all weights through x sum to exactly
1; the objective charges each subcube 2**(fixed positions).  At eps = 0
the public-coin variant collapses to the cheapest single labeled
partition, which the exhaustive weight search already finds.

The solver is a HiGHS solve with an exact primal and dual certificate
(float solve, exact certify: Applegate, Cook, Dash and Espinoza, Oper.
Res. Lett. 2007).  HiGHS's dual simplex ends at a vertex in floating
point.  Gauss-Jordan elimination over Fraction then recomputes the
primal vertex on the float solution's support and tight rows, and the
dual on the dual's support and the columns of zero reduced cost.  The
pair is re-checked exactly: primal feasibility, dual feasibility and
equal objectives.  An optimum is reported only when that check passes;
the dual is Jain and Klauck's lower-bound witness (CCC 2010).
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
# a float entry this close to zero, relative to its scale, counts as zero
# when reading supports and tight rows off the HiGHS solution; the exact
# check decides whether the reading was right
_ZERO_TOL = 1e-9


class CertificateError(ArithmeticError):
    """The float solve did not end optimal, or the exact re-solve of its
    vertex is singular or fails the certificate check."""


@dataclass(frozen=True)
class RationalLP:
    """minimize objective . x  subject to  row . x  (<= | >= | ==)  rhs,
    x >= 0 componentwise."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
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

    def verify(self, lp: RationalLP) -> bool:
        return self.violation(lp) is None


# ---------------------------------------------------------------------------
# float solve, exact certify

def _solve_exactly(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    support: Sequence[int],
    size: int,
) -> tuple[Fraction, ...]:
    """The z of length size, zero off support, with rows . z == rhs, by
    Gauss-Jordan elimination over Fraction on the rows taken in order
    until len(support) of them are independent; later rows are left to
    the certificate check.  Raises CertificateError when the rows do not
    determine z."""
    k = len(support)
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
    for row, b in zip(rows, rhs):
        if len(basis) == k:
            break
        r = [Fraction(row[j]) for j in support] + [Fraction(b)]
        for col, p in basis:
            f = r[col]
            if f:
                r = [u - f * v if v else u for u, v in zip(r, p)]
        col = next((j for j in range(k) if r[j]), None)
        if col is None:
            continue
        r = [u / r[col] for u in r]
        for idx, (c, p) in enumerate(basis):
            f = p[col]
            if f:
                basis[idx] = (c, [u - f * v if v else u for u, v in zip(p, r)])
        basis.append((col, r))
    if len(basis) < k:
        raise CertificateError(f"exact re-solve is singular: rank {len(basis)} < {k}")
    z = [Fraction(0)] * size
    for col, p in basis:
        z[support[col]] = p[k]
    return tuple(z)


def solve_exact(lp: RationalLP) -> LPSolution:
    """Solve once with HiGHS's dual simplex, recover the exact vertex and
    its dual, and re-check both.  Infeasible and unbounded programs are
    reported as HiGHS classifies them; any other outcome raises
    CertificateError, so an optimum is never reported uncertified.
    ``pivots`` counts HiGHS's simplex iterations."""
    # scipy.optimize takes about 0.4 s to import; only this solve needs it
    from scipy.optimize import linprog

    m, n = lp.num_constraints, lp.num_vars
    a = np.array(lp.rows, dtype=float).reshape(m, n)
    b = np.array(lp.rhs, dtype=float)
    c = np.array(lp.objective, dtype=float)
    senses = np.array(lp.senses, dtype=object)
    # linprog takes A_ub x <= b_ub and A_eq x == b_eq: >= rows are negated
    sign = np.where(senses == ">=", -1.0, 1.0)
    ub = senses != "=="
    res = linprog(
        c,
        A_ub=(sign[:, None] * a)[ub],
        b_ub=(sign * b)[ub],
        A_eq=a[~ub],
        b_eq=b[~ub],
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status in (2, 3):
        status = "infeasible" if res.status == 2 else "unbounded"
        return LPSolution(status, None, None, None, res.nit)
    if res.status != 0:
        raise CertificateError(f"HiGHS did not reach an optimum: {res.message}")
    y = np.zeros(m)
    y[ub] = sign[ub] * res.ineqlin.marginals
    y[~ub] = res.eqlin.marginals

    def near_zero(v: float, scale: float) -> bool:
        return abs(v) <= _ZERO_TOL * (1.0 + abs(scale))

    # the vertex solves its tight rows on its support; the dual solves
    # the zero-reduced-cost columns on its own support
    residual = a @ res.x - b
    tight = [i for i in range(m) if not ub[i] or near_zero(residual[i], b[i])]
    x = _solve_exactly(
        [lp.rows[i] for i in tight],
        [lp.rhs[i] for i in tight],
        [j for j in range(n) if not near_zero(res.x[j], 0.0)],
        n,
    )
    reduced = c - a.T @ y
    zero_cost = [j for j in range(n) if near_zero(reduced[j], c[j])]
    dual = _solve_exactly(
        [[row[j] for row in lp.rows] for j in zero_cost],
        [lp.objective[j] for j in zero_cost],
        [i for i in range(m) if not near_zero(y[i], 0.0)],
        m,
    )
    solution = LPSolution("optimal", _dot(lp.objective, x), x, dual, res.nit)
    problem = solution.violation(lp)
    if problem is not None:
        raise CertificateError(f"exact certificate fails: {problem}")
    return solution


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
    names = []
    objective = []
    for pat in patterns:
        for z in (0, 1):
            names.append(f"w[{pat.text},{z}]")
            objective.append(Fraction(1 << pat.fixed_count))
    nvars = len(names)
    rows: list[tuple[Fraction, ...]] = []
    senses: list[str] = []
    rhs: list[Fraction] = []
    for idx in range(f.size):
        good = [Fraction(0)] * nvars
        total = [Fraction(0)] * nvars
        fx = f.bit(idx)
        for k, pat in enumerate(patterns):
            if pat.contains(idx):
                total[2 * k] = Fraction(1)
                total[2 * k + 1] = Fraction(1)
                good[2 * k + fx] = Fraction(1)
        rows.append(tuple(good))
        senses.append(">=")
        rhs.append(1 - eps)
        rows.append(tuple(total))
        senses.append("==")
        rhs.append(Fraction(1))
    return RationalLP(
        tuple(objective), tuple(rows), tuple(senses), tuple(rhs), tuple(names)
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
        raise CertificateError(f"HiGHS calls a feasible, bounded relaxation {sol.status}")
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
