"""Exact rational linear programming for the partition-style lower
bound.

The relaxation assigns a nonnegative weight to every (subcube, label)
pair.  At every input x the weights of correctly labeled subcubes
through x must reach 1 - eps while all weights through x sum to exactly
1; the objective charges each subcube 2**(fixed positions).  At eps = 0
the public-coin variant collapses to the cheapest single labeled
partition, which the exhaustive weight search already finds.

The solver is a dense two-phase tableau simplex over Fraction entries.
Bland's rule (lowest eligible index enters, ties on the ratio test go
to the lowest basic index) guarantees termination, and every reported
optimum is re-checked by substitution into the original program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .boolfn import TruthTable
from .subcube import LabeledPartition, all_patterns, search_min_weight

MAX_LP_VARS_N = 4


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


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    assignment: Optional[tuple[Fraction, ...]]
    pivots: int

    def verify(self, lp: RationalLP) -> bool:
        """Exact substitution of the assignment into the program."""
        if self.status != "optimal":
            return self.assignment is None and self.value is None
        assert self.assignment is not None and self.value is not None
        x = self.assignment
        if len(x) != lp.num_vars or any(v < 0 for v in x):
            return False
        for row, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
            lhs = sum((c * v for c, v in zip(row, x)), Fraction(0))
            if sense == "<=" and lhs > rhs:
                return False
            if sense == ">=" and lhs < rhs:
                return False
            if sense == "==" and lhs != rhs:
                return False
        value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
        return value == self.value


def check_feasible(lp: RationalLP, x: Sequence[Fraction]) -> bool:
    """Exact feasibility of an explicit assignment."""
    probe = LPSolution(
        "optimal",
        sum((c * Fraction(v) for c, v in zip(lp.objective, x)), Fraction(0)),
        tuple(Fraction(v) for v in x),
        0,
    )
    return probe.verify(lp)


# ---------------------------------------------------------------------------
# two-phase dense simplex

def solve_exact(lp: RationalLP) -> LPSolution:
    ncons = lp.num_constraints
    nvars = lp.num_vars

    # normalize to rhs >= 0, then append slack/surplus and artificials
    rows = [list(r) for r in lp.rows]
    senses = list(lp.senses)
    rhs = list(lp.rhs)
    for i in range(ncons):
        if rhs[i] < 0:
            rows[i] = [-c for c in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "==": "=="}[senses[i]]

    slack_of: list[Optional[int]] = [None] * ncons
    art_of: list[Optional[int]] = [None] * ncons
    ncols = nvars
    for i in range(ncons):
        if senses[i] in ("<=", ">="):
            slack_of[i] = ncols
            ncols += 1
    art_start = ncols
    for i in range(ncons):
        if senses[i] in (">=", "=="):
            art_of[i] = ncols
            ncols += 1

    tableau = [[Fraction(0)] * (ncols + 1) for _ in range(ncons)]
    basis = [0] * ncons
    for i in range(ncons):
        for j in range(nvars):
            tableau[i][j] = rows[i][j]
        tableau[i][ncols] = rhs[i]
        s = slack_of[i]
        if s is not None:
            tableau[i][s] = Fraction(1) if senses[i] == "<=" else Fraction(-1)
        a = art_of[i]
        if a is not None:
            tableau[i][a] = Fraction(1)
            basis[i] = a
        else:
            assert s is not None
            basis[i] = s

    pivots = 0

    def pivot(row: int, col: int) -> None:
        nonlocal pivots
        pivots += 1
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        prow = tableau[row]
        for r in range(ncons):
            if r == row:
                continue
            factor = tableau[r][col]
            if factor:
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], prow)]
        basis[row] = col

    def run(cost: list[Fraction], allowed: int) -> Optional[str]:
        """Minimize cost over columns [0, allowed); returns None at
        optimum or 'unbounded'."""
        # reduced-cost row, eliminating the current basic columns
        obj = list(cost) + [Fraction(0)]
        for r in range(ncons):
            cb = cost[basis[r]]
            if cb:
                obj = [v - cb * t for v, t in zip(obj, tableau[r] + [])]
        # keep obj aligned: tableau rows have ncols+1 entries
        while True:
            col = -1
            for j in range(allowed):
                if obj[j] < 0:
                    col = j
                    break
            if col < 0:
                return None
            best_row = -1
            best_ratio: Optional[Fraction] = None
            for r in range(ncons):
                a = tableau[r][col]
                if a > 0:
                    ratio = tableau[r][ncols] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = r
            if best_row < 0:
                return "unbounded"
            factor = obj[col]
            pivot(best_row, col)
            obj = [v - factor * t for v, t in zip(obj, tableau[best_row])]

    if art_start < ncols:
        cost1 = [Fraction(0)] * ncols
        for j in range(art_start, ncols):
            cost1[j] = Fraction(1)
        outcome = run(cost1, ncols)
        assert outcome is None, "phase 1 is bounded below by zero"
        infeas = sum(
            (tableau[r][ncols] for r in range(ncons) if basis[r] >= art_start),
            Fraction(0),
        )
        if infeas != 0:
            return LPSolution("infeasible", None, None, pivots)
        # drive leftover degenerate artificials out of the basis
        for r in range(ncons):
            if basis[r] >= art_start:
                for j in range(art_start):
                    if tableau[r][j] != 0:
                        pivot(r, j)
                        break

    cost2 = [Fraction(0)] * ncols
    for j in range(nvars):
        cost2[j] = lp.objective[j]
    outcome = run(cost2, art_start)
    if outcome == "unbounded":
        return LPSolution("unbounded", None, None, pivots)

    x = [Fraction(0)] * nvars
    for r in range(ncons):
        if basis[r] < nvars:
            x[basis[r]] = tableau[r][ncols]
    value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
    solution = LPSolution("optimal", value, tuple(x), pivots)
    if not solution.verify(lp):
        raise AssertionError("simplex produced a certificate that fails re-check")
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


def partition_to_assignment(
    lp: RationalLP, part: LabeledPartition
) -> tuple[Fraction, ...]:
    """Unit weight on each part of a partition, zero elsewhere; feasible
    at eps = 0 whenever the partition computes f."""
    index = {name: k for k, name in enumerate(lp.var_names)}
    x = [Fraction(0)] * lp.num_vars
    for pat, z in part.entries:
        x[index[f"w[{pat.text},{z}]"]] = Fraction(1)
    return tuple(x)


@dataclass(frozen=True)
class PrtReport:
    eps: Fraction
    value: Fraction
    half_log2: float
    num_vars: int
    num_constraints: int
    pivots: int


def prt_report(f: TruthTable, eps: Fraction) -> PrtReport:
    """Solve the relaxation and report its value v and (log2 v)/2."""
    lp = build_prt_lp(f, eps)
    sol = solve_exact(lp)
    assert sol.status == "optimal", f"relaxation should be feasible: {sol.status}"
    assert sol.value is not None
    return PrtReport(
        eps,
        sol.value,
        0.5 * math.log2(float(sol.value)),
        lp.num_vars,
        lp.num_constraints,
        sol.pivots,
    )


@dataclass(frozen=True)
class PublicPrtReport:
    weight: int
    half_log2: float
    nodes: int
    partition: LabeledPartition


def pprt_zero_report(f: TruthTable) -> PublicPrtReport:
    """The public-coin value at eps = 0: the minimum weight of a single
    labeled partition computing f, from the exhaustive search."""
    result = search_min_weight(f)
    return PublicPrtReport(
        result.weight,
        0.5 * math.log2(result.weight),
        result.nodes,
        result.partition,
    )
