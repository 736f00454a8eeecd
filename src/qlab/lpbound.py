"""Exact linear programming for the partition-style lower bound.

The relaxation assigns a nonnegative weight to every (subcube, label)
pair.  At every input x the weights of correctly labeled subcubes
through x must reach 1 - eps while all weights through x sum to exactly
1; the objective charges each subcube 2**(fixed positions).  At eps = 0
the public-coin variant collapses to the cheapest single labeled
partition, which the exhaustive weight search already finds.

The solver is a two-phase revised simplex in exact integers over one
sparse standard form: each column of the rows scaled to integers by the
lcm of its denominators, then a +-1 unit column per slack and per
artificial.  It keeps the inverse of the basis matrix B fraction-free
(Bareiss) as lists of Python ints, with the vertex x_B = B^-1 b carried
as one more column and the dual y = c_B B^-1 as one more row, and
updates all three by one eta column per pivot; y is priced in full only
when phase 2 swaps the cost.  Every reduced cost is read off y exactly,
and the simplex pivots by Bland's rule, which cannot cycle in exact
arithmetic.  Each optimum is re-checked before it is returned: primal
feasibility, dual feasibility and equal objectives.  The dual is Jain
and Klauck's lower-bound witness (CCC 2010).  The module uses no numpy,
so `bound prt` never loads it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .boolfn import TruthTable

MAX_LP_VARS_N = 4


class CertificateError(ArithmeticError):
    """A solution fails the exact certificate check."""


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
        # row sums and A^T y in integers over x's and y's common denominators
        (dx, xs), (dy, ys) = _over_lcm(x), _over_lcm(y)
        aty = [0] * lp.num_vars
        for i, (row, sense, rhs, yi, scaled) in enumerate(zip(lp.rows, lp.senses, lp.rhs, y, ys)):
            nonzero = [(j, a) for j, a in enumerate(row) if a]
            lhs = Fraction(sum(a * xs[j] for j, a in nonzero), dx)
            if not _HOLDS[sense](lhs, rhs):
                return f"primal row {i}: {lhs} {sense} {rhs} fails"
            if sense != "==" and not _HOLDS[sense](yi, 0):
                return f"dual y[{i}] = {yi} has the wrong sign for a {sense} row"
            if scaled:
                for j, a in nonzero:
                    aty[j] += a * scaled
        for name, c, a in zip(lp.var_names, lp.objective, aty):
            if c * dy < a:
                return f"reduced cost of {name} is {c - Fraction(a, dy)} < 0"
        primal, dual = _dot(lp.objective, x), _dot(lp.rhs, y)
        if not primal == dual == self.value:
            return f"objectives differ: primal {primal}, dual {dual}, reported {self.value}"
        return None


# ---------------------------------------------------------------------------
# the exact simplex

def _over_lcm(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm d of the values' denominators, and the values times d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _at(row: Sequence[int], col: tuple[list[int], list[int]]) -> int:
    """row . a for the sparse column col = (rows, ints) of a."""
    rows, ints = col
    return sum(row[i] * v for i, v in zip(rows, ints))


def _eta(inv: list[list[int]], det: int, g: Sequence[int], r: int) -> int:
    """Update inv's rows in place, returning the new det, when row r's
    basic column gives way to c with g = inv @ c.  B^-1 = inv / det, the
    two being B's adjugate and determinant up to the sign making det > 0;
    Bareiss's fraction-free update divides each entry exactly by the old
    det.  Each row changes by a multiple of row r, so a column carried
    beside B^-1 or a row priced from it stays inv times its vector."""
    sign = 1 if g[r] > 0 else -1
    p, pivot = abs(g[r]), inv[r]
    for k, gk in enumerate(g):
        if k == r:
            continue
        if gk:
            gk *= sign
            inv[k] = [(p * a - gk * e) // det for a, e in zip(inv[k], pivot)]
        elif p != det:
            inv[k] = [p * a // det for a in inv[k]]
    inv[r] = pivot if sign > 0 else [-a for a in pivot]
    return p


class _Basis:
    """A basis of lp's standard form A' z == b, basic[k] the column of
    row k, with B^-1 = inv / det.  Column j is kept as its nonzero rows
    and their integers, cols[j] = (rows, ints): first each column of A
    times scale[j], the lcm of its denominators, so z_j = x_j / scale[j];
    then a +-1 unit column for each inequality's slack (+1 on a <= row),
    then one for each row whose slack cannot start feasible, an
    artificial signed like the rhs.  Each row starts on its last unit
    column.  b is the rhs times den and cost the objective of z times
    cden.  inv has one more column and one more row than B: column m
    carries xb = inv @ b, so z_B = xb / (det den), and row m carries
    yb = priced_B @ inv for the cost last priced, so its dual is
    y = yb / (cden det); their corner is priced_B . xb.  One eta step
    updates all of it, the priced row's entry of the image being the
    negated reduced cost yb . a_j - det c_j."""

    def __init__(self, lp: RationalLP) -> None:
        m = lp.num_constraints
        self.scale, self.cols = [], []
        for j in range(lp.num_vars):
            rows = [i for i in range(m) if lp.rows[i][j]]
            s, ints = _over_lcm([lp.rows[i][j] for i in rows])
            self.scale.append(s)
            self.cols.append((rows, ints))
        signs = [-1 if b < 0 else 1 for b in lp.rhs]
        slacks = [(i, 1 if lp.senses[i] == "<=" else -1) for i in range(m) if lp.senses[i] != "=="]
        arts = [(i, signs[i]) for i in range(m) if lp.senses[i] != ("<=" if signs[i] > 0 else ">=")]
        self.art_start = lp.num_vars + len(slacks)
        self.basic, diagonal = [0] * m, [0] * m
        for j, (i, v) in enumerate(slacks + arts, lp.num_vars):
            self.cols.append(([i], [v]))
            self.basic[i], diagonal[i] = j, v
        self.den, b = _over_lcm(lp.rhs)
        # the starting columns are +-1 unit vectors, each its own inverse;
        # the zero cost prices the zero row
        self.inv = [
            [0] * k + [v] + [0] * (m - k - 1) + [v * bk]
            for k, (v, bk) in enumerate(zip(diagonal, b))
        ]
        self.inv.append([0] * (m + 1))
        self.det, self.pivots, self.priced = 1, 0, [0] * len(self.cols)
        self.cden, cost = _over_lcm(lp.objective)
        self.cost = [c * s for c, s in zip(cost, self.scale)] + [0] * (len(slacks) + len(arts))

    def xb(self) -> list[int]:
        """z_B times det den: the carried column."""
        return [row[-1] for row in self.inv[:-1]]

    def price(self, cost: Sequence[int]) -> None:
        """Carry cost's dual from now on: row m becomes cost_B @ inv, in full."""
        priced = [0] * len(self.inv)
        for j, row in zip(self.basic, self.inv):
            if cost[j]:
                priced = [a + cost[j] * e for a, e in zip(priced, row)]
        self.inv[-1], self.priced = priced, cost

    def image(self, j: int) -> list[int]:
        """inv @ column j, row k of B^-1 a_j having its sign, then the
        priced row's entry yb . a_j - det c_j."""
        g = [_at(row, self.cols[j]) for row in self.inv]
        g[-1] -= self.det * self.priced[j]
        return g

    def pivot(self, r: int, j: int, g: Sequence[int]) -> None:
        self.det = _eta(self.inv, self.det, g, r)
        self.basic[r] = j
        self.pivots += 1

    def minimize(self, cost: Sequence[int], allowed: int) -> bool:
        """Pivot by Bland's rule, which cannot cycle in exact arithmetic,
        until no column below allowed has a negative reduced cost; False
        if the entering column proves the cost unbounded.  cost is the
        one last priced.  The lowest such column enters, priced as
        det c_j - yb . a_j over its nonzeros, and ratio-test ties leave
        by the lowest basic column."""
        cols = self.cols[:allowed]
        while True:
            yb, det = self.inv[-1], self.det
            j = next((j for j, col in enumerate(cols) if det * cost[j] < _at(yb, col)), None)
            if j is None:
                return True
            g, xb = self.image(j), self.xb()
            rows = [k for k in range(len(xb)) if g[k] > 0]
            if not rows:
                return False
            self.pivot(min(rows, key=lambda k: (Fraction(xb[k], g[k]), self.basic[k])), j, g)


def solve_exact(lp: RationalLP) -> LPSolution:
    """Two-phase revised simplex in exact integers.  Phase 1 minimizes
    the sum of the artificials, then pivots each one left at level zero
    out on the lowest other column nonzero in its row; phase 2 bars them
    from entering and re-prices the dual for the real cost once.
    ``pivots`` counts the pivots of both phases.  An optimum is returned
    only once its primal and dual pass violation."""
    basis = _Basis(lp)
    ncols, art_start = len(basis.cols), basis.art_start
    if art_start < ncols:
        phase_1 = [0] * art_start + [1] * (ncols - art_start)
        basis.price(phase_1)
        basis.minimize(phase_1, ncols)
        if any(v > 0 for j, v in zip(basis.basic, basis.xb()) if j >= art_start):
            return LPSolution("infeasible", None, None, None, basis.pivots)
        for r, basic in enumerate(basis.basic):
            if basic >= art_start:
                j = next((j for j in range(art_start) if _at(basis.inv[r], basis.cols[j])), None)
                if j is not None:
                    basis.pivot(r, j, basis.image(j))
    basis.price(basis.cost)
    if not basis.minimize(basis.cost, art_start):
        return LPSolution("unbounded", None, None, None, basis.pivots)
    z, det = dict(zip(basis.basic, basis.xb())), basis.det
    x = tuple(Fraction(s * z.get(j, 0), det * basis.den) for j, s in enumerate(basis.scale))
    y = tuple(Fraction(v, basis.cden * det) for v in basis.inv[-1][:-1])
    solution = LPSolution("optimal", _dot(lp.objective, x), x, y, basis.pivots)
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
    # every subcube as a pattern over 01*, x_1 varying slowest, as
    # subcube.all_patterns lists them
    patterns = ["".join(t) for t in itertools.product("01*", repeat=n)]
    names = [f"w[{pat},{z}]" for pat in patterns for z in (0, 1)]
    objective = [1 << (n - pat.count("*")) for pat in patterns for _ in (0, 1)]
    # rows 2*idx and 2*idx + 1: input idx's correct weight and total weight
    rows = [[0] * len(names) for _ in range(2 * f.size)]
    for k, pat in enumerate(patterns):
        mask = int(pat.replace("0", "1").replace("*", "0"), 2)
        vals = int(pat.replace("*", "0"), 2)
        for idx in range(f.size):
            if idx & mask == vals:
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
