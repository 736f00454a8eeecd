"""Deterministic decision trees: exact minimax depth, exact minimum
weighted zero-error cost under any per-query charge matrix, and the
least expected query count under an input distribution.

Both optimizations run over the subcube lattice: a restriction state
indexes a (3,)*n array whose axis j is variable x_{j+1}, index 2
meaning free.  A mixed state's value is the least, over its free
variables a, of step(a) applied to the two states that fix x_{a+1} to 0
and to 1.  The values start at 0 on f-constant states and at an
"infinity" above every optimum on mixed ones; a sweep then takes each
axis's moves in order and lowers every state a move frees to its step.
Sweeps repeat until one lowers nothing.  Values never fall below
the optimum, and at the fixed point every mixed state's value is
attained by some step, so by induction on the number of free variables
the fixed point is the optimum.  A step reads only states with fewer
free variables, so that fixed point is unique, whatever order a sweep
takes within itself.  Witness trees walk down from the root, querying
at each mixed state the lowest free variable whose step attains the
state's value; this makes them canonical.  ``lattice.lattice`` picks
the lattice and its sweep; on the block classes it may pick, a witness
reads values at each state's class, so it builds the same tree.

The depth sweep runs in uint8, the weighted one in integers over the
charges' common denominator.  There inf = 1 + the sum of every row
bounds every value, and no step exceeds 2 * inf + the largest row sum:
int32 holds that below 2**31, int64 below 2**63, and object arrays the
rest.  Equal rows share one charge lattice, and the DP refuses a
lattice whose arrays and sweep temporaries would, by its own estimate,
take more than MAX_DP_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import lattice
from .boolfn import TruthTable
from .lattice import Lattice, Sweep
from .subcube import LabeledPartition, Pattern

# the most memory, by its own estimate, that the weighted DP may take
MAX_DP_BYTES = 2**30


# ---------------------------------------------------------------------------
# trees

@dataclass(frozen=True)
class Leaf:
    value: int


@dataclass(frozen=True)
class Node:
    var: int  # 0-based, so var 0 is x_1
    low: "DecisionTree"  # taken when the queried bit is 0
    high: "DecisionTree"


DecisionTree = Union[Leaf, Node]


def tree_depth(tree: DecisionTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.low), tree_depth(tree.high))


def tree_to_partition(tree: DecisionTree, n: int) -> LabeledPartition:
    """The tree's reachable leaves as a labeled partition of {0,1}^n;
    each part fixes the variables queried on the way down, so the
    partition computes f exactly when the tree does.  A query of a
    variable already fixed on the path follows the fixed branch, as it
    does when the tree runs on an input.  Raises ValueError on a
    variable outside x_1..x_n."""

    def walk(t: DecisionTree, assignment: dict[int, int]) -> Iterator[tuple[Pattern, int]]:
        if isinstance(t, Leaf):
            chars = ["*"] * n
            for var, b in assignment.items():
                chars[var] = "01"[b]
            yield Pattern("".join(chars)), t.value
        elif not 0 <= t.var < n:
            raise ValueError(f"tree queries x_{t.var + 1} outside x_1..x_{n}")
        elif t.var in assignment:
            yield from walk(t.high if assignment[t.var] else t.low, assignment)
        else:
            for b, child in enumerate((t.low, t.high)):
                yield from walk(child, {**assignment, t.var: b})

    return LabeledPartition(n, tuple(walk(tree, {})))


# serialized as "(j low high)" with 1-based variable numbers and "=0" /
# "=1" leaves, e.g. "(1 =0 (2 =0 =1))"

def tree_to_text(tree: DecisionTree) -> str:
    if isinstance(tree, Leaf):
        return f"={tree.value}"
    return f"({tree.var + 1} {tree_to_text(tree.low)} {tree_to_text(tree.high)})"


def tree_from_text(text: str) -> DecisionTree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        pos += 1
        return tokens[pos - 1]

    def parse() -> DecisionTree:
        tok = take()
        if tok in ("=0", "=1"):
            return Leaf(int(tok[1]))
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        var = int(take()) - 1
        low = parse()
        high = parse()
        if take() != ")":
            raise ValueError("expected ')'")
        if var < 0:
            raise ValueError("variable numbers are 1-based")
        return Node(var, low, high)

    tree = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return tree


# ---------------------------------------------------------------------------
# the axis-sweep relaxation shared by both optimizations

@dataclass(frozen=True)
class LatticeResult:
    """What a lattice DP found, and the work it took."""

    value: Union[int, Fraction]  # the optimum: an int depth, a Fraction cost
    sweeps: int  # passes of the relaxation, the last of which lowered nothing
    states: int  # size of the lattice it relaxed
    tree: Optional[DecisionTree] = None  # a canonical optimal tree, if asked for


# step(a, charges, lo, hi): the value of querying variable a at some
# states, given the values lo and hi of their two children and a tuple
# holding each charge lattice at those states; a sweep passes slabs, a
# witness one state's values
Step = Callable[[int, tuple, object, object], object]


def _relax(val: np.ndarray, sweep: Sweep, step: Step, charges: Sequence[np.ndarray] = ()) -> int:
    """Lower val in place to the fixed point of ``sweep``'s passes and
    return the number of passes made, the last of which lowered nothing."""

    def lower(a: int, lo, hi, free, slabs: tuple) -> None:
        nonlocal lowered
        stepped = step(a, slabs, lo, hi)
        # one value lowered in a pass is enough to need another
        lowered = lowered or bool((stepped < free).any())
        np.minimum(free, stepped, out=free)

    sweeps = 0
    while True:
        lowered = False
        sweep(val, lower, charges)
        sweeps += 1
        if not lowered:
            return sweeps


def _witness(
    n: int, lat: Lattice, val: np.ndarray, step: Step, charges: Sequence[np.ndarray] = ()
) -> DecisionTree:
    """The canonical tree on n variables, walking (3,)*n states and
    reading ``lat.colors``, ``val`` and ``charges`` at lat.key(state),
    the state's index in their lattice."""
    color, key = lat.colors, lat.key

    def build(state: tuple) -> DecisionTree:
        at = key(state)
        if color[at] != 2:
            return Leaf(int(color[at]))
        here = tuple(c[at] for c in charges)
        for a, t in enumerate(state):
            if t != 2:
                continue
            lo, hi = state[:a] + (0,) + state[a + 1 :], state[:a] + (1,) + state[a + 1 :]
            if step(a, here, val[key(lo)], val[key(hi)]) == val[at]:
                return Node(a, build(lo), build(hi))
        raise AssertionError(f"no query attains the value of state {state}")

    return build((2,) * n)


# ---------------------------------------------------------------------------
# exact minimax depth

def _depth_step(a: int, charges: tuple, lo, hi):
    worst = np.maximum(lo, hi)
    worst += 1
    return worst


def exact_depth(f: TruthTable, *, want_tree: bool = False) -> LatticeResult:
    """Minimum worst-case query count of a deterministic tree computing
    f, by the axis-sweep relaxation over ``lattice.lattice(f)``.  With
    ``want_tree`` the result also holds a canonical optimal tree."""
    n = f.n
    # on the full lattice, TruthTable's cap of n at 16 bounds colors,
    # values and one 3**15-byte slab temporary under 2 * 3**16 + 3**15
    # bytes, about 100 MB
    lat = lattice.lattice(f)
    # 1 on mixed states, 0 on constant ones; without a tree the sweeps
    # need only these, so they overwrite the colors in place
    val = lat.colors // 2 if want_tree else np.floor_divide(lat.colors, 2, out=lat.colors)
    val *= n + 1  # "infinity": every depth is at most n
    sweeps = _relax(val, lat.sweep, _depth_step)
    depth = int(val[lat.key((2,) * n)])
    tree = _witness(n, lat, val, _depth_step) if want_tree else None
    return LatticeResult(depth, sweeps, val.size, tree)


# ---------------------------------------------------------------------------
# minimum weighted zero-error cost

@dataclass(frozen=True)
class CostMatrix:
    """Per-query charges over one common denominator: querying variable
    i (0-based) while the input is idx costs rows[which[i]][idx] / denom.
    ``rows`` holds each distinct row once, as an object array of
    nonnegative Python ints.  Build one with from_lists or uniform,
    which convert and check the charges."""

    denom: int
    rows: tuple[np.ndarray, ...]
    which: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.which)

    @classmethod
    def from_lists(cls, n: int, rows: Sequence[Sequence[Fraction]]) -> "CostMatrix":
        """rows[i][idx] is the charge of querying variable i while the
        input is idx; rows equal as values share one row."""
        if len(rows) != n:
            raise ValueError(f"expected {n} rows")
        distinct: dict[tuple, int] = {}
        which = tuple(distinct.setdefault(tuple(row), len(distinct)) for row in rows)
        return cls._scaled(n, list(distinct), which)

    @classmethod
    def uniform(cls, dist: Sequence[Fraction]) -> "CostMatrix":
        """Every query costs the input's probability mass, so tree cost
        is expected query count under the distribution."""
        size = len(dist)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("distribution length must be a power of two")
        return cls._scaled(n, [dist], (0,) * n)

    @classmethod
    def _scaled(cls, n: int, rows: list[Sequence], which: tuple[int, ...]) -> "CostMatrix":
        """The matrix whose distinct rows are ``rows``, each checked and
        converted to Fractions once, then scaled to integers over their
        common denominator; a row is named by its first variable."""
        fractions = []
        for k, row in enumerate(rows):
            if len(row) != 1 << n:
                raise ValueError(f"row {which.index(k)} has {len(row)} entries")
            row = [c if isinstance(c, Fraction) else Fraction(c) for c in row]
            if any(c.numerator < 0 for c in row):
                raise ValueError(f"row {which.index(k)} has a negative charge")
            fractions.append(row)
        denom = math.lcm(*(c.denominator for row in fractions for c in row))
        ints = tuple(
            np.array([c.numerator * (denom // c.denominator) for c in row], dtype=object)
            for row in fractions
        )
        return cls(denom, ints, which)


def tree_cost(tree: DecisionTree, cost: CostMatrix) -> Fraction:
    """Total charge of the tree: sum over inputs of the charges of the
    queries made on that input.  Every input goes down the tree at once,
    each query counting, on the row that charges it, for every input
    reaching it.  Raises ValueError on a variable outside x_1..x_n."""
    n = cost.n
    counts = np.zeros((len(cost.rows), 1 << n), dtype=np.int64)

    def walk(t: DecisionTree, inputs: np.ndarray) -> None:
        # inputs: those reaching t, as an index array
        if isinstance(t, Leaf) or not inputs.size:
            return
        if not 0 <= t.var < n:
            raise ValueError(f"tree queries x_{t.var + 1} outside x_1..x_{n}")
        counts[cost.which[t.var], inputs] += 1
        high = inputs >> (n - 1 - t.var) & 1 == 1
        walk(t.low, inputs[~high])
        walk(t.high, inputs[high])

    walk(tree, np.arange(1 << n))
    total = sum(int(np.dot(row, counts[r])) for r, row in enumerate(cost.rows))
    return Fraction(total, cost.denom)


def min_weighted_zero_error(
    f: TruthTable, cost: CostMatrix, *, want_tree: bool = False
) -> LatticeResult:
    """Minimum of tree_cost over all zero-error trees for f, by the
    axis-sweep relaxation in exact integers over the charges' common
    denominator.  Querying variable i on the subcube S charges the sum
    of rows[i] over members of S.  With ``want_tree`` the result also
    holds a canonical optimal tree."""
    n = f.n
    if n != cost.n:
        raise ValueError(f"function arity {n} != cost arity {cost.n}")
    rows, which = cost.rows, cost.which
    totals = [row.sum() for row in rows]
    # a tree queries each variable at most once per input
    inf = 1 + sum(totals[k] for k in which)
    bound = 2 * inf + max(totals)
    lat = lattice.lattice(f, rows, which)
    if bound < 2**31:
        dtype = np.int32
    elif bound < 2**63:
        dtype = np.int64
    else:
        dtype = object
    # one charge lattice per distinct row, the values and the colors, a
    # Python int taking about 40 bytes with its pointer; then either the
    # mask of mixed states or a move's step and its "lowered" flags on
    # one slab, and numpy's buffers for three operands
    entry = 40 if dtype is object else np.dtype(dtype).itemsize
    size = lat.colors.size
    slab = size // max(lat.colors.shape, default=1)
    need = size * ((len(rows) + 1) * entry + 1) + max(size, slab * (entry + 1))
    need += 3 * np.getbufsize() * entry
    if need > MAX_DP_BYTES:
        raise ValueError(
            f"the weighted DP would take about {need:,} bytes, "
            f"over its limit of {MAX_DP_BYTES:,} bytes"
        )
    lattices = [lat.sums(row.astype(dtype)) for row in rows]
    val = np.zeros(lat.colors.shape, dtype=dtype)
    val[lat.colors == 2] = inf

    def step(a: int, charges: tuple, lo, hi):
        total = charges[which[a]] + lo
        total += hi
        return total

    sweeps = _relax(val, lat.sweep, step, lattices)
    value = Fraction(int(val[lat.key((2,) * n)]), cost.denom)
    tree = _witness(n, lat, val, step, lattices) if want_tree else None
    return LatticeResult(value, sweeps, val.size, tree)


# ---------------------------------------------------------------------------
# distributional zero-error complexity

def delta0(f: TruthTable, dist: Sequence[Fraction]) -> Fraction:
    """Minimum expected query count under the given input distribution
    over zero-error trees for f.  CostMatrix and the weighted DP reject
    a negative mass and a length other than 2**f.n."""
    cost = CostMatrix.uniform(dist)
    if cost.rows[0].sum() != cost.denom:
        raise ValueError("distribution does not sum to 1")
    return min_weighted_zero_error(f, cost).value
