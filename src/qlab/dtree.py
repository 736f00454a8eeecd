"""Deterministic decision trees: exact minimax depth, exact minimum
weighted zero-error cost under any per-query charge matrix, and the
least expected query count under an input distribution.

Both optimizations run over the subcube lattice in numpy: a state
indexes a (3,)*n array whose axis j is x_{j+1}, index 0 or 1 fixing it
and 2 leaving it free, or, as ``lattice`` picks, the smaller lattice of
block classes.  Either lattice builds its colors and charge sums one
way: per-input values (a table as uint8, ``table_values``) go to the
fully fixed states, and one pass of its sweep merges them upward.  A
mixed state's value is the least, over its free variables a, of step(a)
applied to the two states that fix x_{a+1} to 0 and to 1.  The values
start at 0 on f-constant states and at an "infinity" above every
optimum on mixed ones; a sweep then takes each axis's moves in order
and lowers every state a move frees to its step.  Sweeps repeat until
one lowers nothing.  Values never fall below the optimum, and at the
fixed point every mixed state's value is attained by some step, so by
induction on the number of free variables the fixed point is the
optimum.  A step reads only states with fewer free variables, so that
fixed point is unique, whatever order a sweep takes within itself.
Witness trees walk down from the root, querying at each mixed state the
lowest free variable whose step attains the state's value; this makes
them canonical.  On the block classes, a witness reads values at each
state's class, so it builds the same tree.

The depth sweep runs in uint8, the weighted one in integers over the
charges' common denominator.  There inf = 1 + the sum of every row
bounds every value, and no step exceeds 2 * inf + the largest row sum:
int32 holds that below 2**31, int64 below 2**63, and object arrays the
rest.  Equal rows share one charge lattice, and the DP refuses a
lattice whose arrays and sweep temporaries would, by its own estimate,
take more than MAX_DP_BYTES.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .boolfn import TruthTable
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
        tok = take()  # ASCII digits: int() would take "+", "_" and any digit
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"not a variable number: {tok!r}")
        var = int(tok) - 1
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
# the subcube lattice

def table_values(f: TruthTable) -> np.ndarray:
    """f at every input, in index order, as a uint8 array."""
    raw = f.bits.to_bytes((f.size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: f.size]


# update(a, lo, hi, free, aux): one move of a sweep, given views of the
# lattice's slabs fixing x_{a+1} to 0, fixing it to 1 and leaving it
# free, indexed alike, and the free slab of each auxiliary array
Update = Callable[[int, np.ndarray, np.ndarray, np.ndarray, tuple], object]
# sweep(lattice, update, aux=()): one pass of update over a lattice's
# moves, as _sweep makes
Sweep = Callable[..., None]


def _sweep(moves: Sequence[tuple[int, int, int, int]], span: int) -> Sweep:
    """The pass over a lattice each of whose axes stands for ``span``
    variables and takes ``moves``: for each axis b in order, each move
    (offset, free, lo, hi) in order calls update(span * b + offset, ...)
    on the axis's slabs at indices lo, hi and free.  Every slab is a
    view, so update may write the free one; ``aux`` holds read-only
    arrays laid out like the lattice.  The trailing ... keeps a slab of
    a one-axis array a view, not a scalar."""

    def sweep(lattice: np.ndarray, update: Update, aux: Sequence[np.ndarray] = ()) -> None:
        for b in range(lattice.ndim):
            head = (slice(None),) * b
            for offset, free, lo, hi in moves:
                at = head + (free, ...)
                update(
                    span * b + offset,
                    lattice[head + (lo, ...)],
                    lattice[head + (hi, ...)],
                    lattice[at],
                    tuple(x[at] for x in aux),
                )

    return sweep


# the full lattice's one move on axis b: free x_{b+1}
_FULL_MOVES = [(0, 2, 0, 1)]
_FULL_SWEEP = _sweep(_FULL_MOVES, 1)


def _zeta(
    base: np.ndarray,
    merge: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    sweep: Sweep,
    width: int,
) -> np.ndarray:
    """Extend ``base``, an array over the fully fixed states (indices
    below base.shape[j] on each axis j), to a (width,)*ndim lattice by
    one pass of merges: for each move of ``sweep``, merge(lo, hi, out)
    fills the states it frees from its two children.  Every other state
    starts at 0, so a state that is also free at a later axis merges
    only zeros until its last free axis merges its two halves, final by
    then, because on each axis a sweep takes the states with fewer free
    variables first.  This needs merge(0, 0) to be 0, and gives object
    arrays 0 to read there, not None."""
    out = np.zeros((width,) * base.ndim, dtype=base.dtype)
    out[tuple(slice(0, k) for k in base.shape)] = base
    sweep(out, lambda a, lo, hi, free, aux: merge(lo, hi, free))
    return out


# ---------------------------------------------------------------------------
# the block class lattice.  Where f and the charges are unchanged by
# permuting x2..x4 inside each aligned block x_{4b+1}..x_{4b+4}, so is
# every subcube's color, sums and DP value, and a DP over subcubes sees
# a block's restriction only through its class (t, c0, c1, c2): x_{4b+1}'s
# trit, then how many of the other three are 0, 1 and free.  A class
# lattice is a (30,)*(n // 4) array whose axis b is block b.

# the 30 classes by free count, so the 8 fully fixed ones come first
_CLASSES = sorted(
    ((t, c0, c1, 3 - c0 - c1) for t in range(3) for c0 in range(4) for c1 in range(4 - c0)),
    key=lambda c: ((c[0] == 2) + c[3], c),
)
_CLASS_OF = {c: i for i, c in enumerate(_CLASSES)}
# _BLOCK_CLASS[27 t1 + 9 t2 + 3 t3 + t4]: the class of a block's trits
_BLOCK_CLASS = [
    _CLASS_OF[(t[0], t[1:].count(0), t[1:].count(1), t[1:].count(2))]
    for t in itertools.product(range(3), repeat=4)
]


def _class_moves(t: int, c0: int, c1: int, c2: int) -> Iterator[tuple[int, tuple, tuple]]:
    """A class's moves (offset, lo, hi): query x_{4b+1} (offset 0) or
    one free variable among the other three (offset 1)."""
    if t == 2:
        yield 0, (0, c0, c1, c2), (1, c0, c1, c2)
    if c2:
        yield 1, (t, c0 + 1, c1, c2 - 1), (t, c0, c1 + 1, c2 - 1)


# every move as (offset, free, lo, hi), in class order, so by increasing
# free count; on axis b, a query of x_{4b+1} has offset 0 and one of the
# other three offset 1
_CLASS_MOVES = [
    (offset, i, _CLASS_OF[lo], _CLASS_OF[hi])
    for i, c in enumerate(_CLASSES)
    for offset, lo, hi in _class_moves(*c)
]
_CLASS_SWEEP = _sweep(_CLASS_MOVES, 4)

# a block input in each fixed class, x_{4b+1} as its high bit: t, then
# c0 zeros, then c1 ones
_LEAF_INPUT = [8 * t + (1 << c1) - 1 for t, _, c1, _ in _CLASSES[:8]]


def block_symmetric(values: np.ndarray) -> bool:
    """Whether ``values``, one entry per input in index order, has n a
    multiple of 4 and is unchanged by the transpositions (x_{4b+2}
    x_{4b+3}) and (x_{4b+3} x_{4b+4}) of every block, which generate
    the permutations of x2..x4 in each."""
    n = values.size.bit_length() - 1
    if n % 4:
        return False
    v = values.reshape((2,) * n)
    return all(
        np.array_equal(v, v.swapaxes(j, j + 1)) for b in range(0, n, 4) for j in (b + 1, b + 2)
    )


def class_state(state: Sequence[int]) -> tuple[int, ...]:
    """The class lattice's index of a (3,)*n lattice state."""
    return tuple(
        _BLOCK_CLASS[27 * state[j] + 9 * state[j + 1] + 3 * state[j + 2] + state[j + 3]]
        for j in range(0, len(state), 4)
    )


@dataclass(frozen=True)
class Lattice:
    """The lattice a subcube DP runs on, and its pass."""

    colors: np.ndarray  # f's value on each state where f is constant, 2 where mixed
    sweep: Sweep
    key: Callable[[Sequence[int]], tuple]  # the index in it of a (3,)*n state
    sums: Callable[[np.ndarray], np.ndarray]  # per-input values summed over each state


def lattice(f: TruthTable, rows: Sequence[np.ndarray] = (), which: Sequence[int] = ()) -> Lattice:
    """The lattice of a DP over f's subcubes that charges a query of
    x_{i+1} the sum of ``rows[which[i]]`` (one entry per input) over the
    subcube: the class lattice when f and every row are block-symmetric
    and each block charges x_{4b+2..4b+4} by one row, else the full one."""
    values = table_values(f)
    if (
        block_symmetric(values)
        and all(which[j] == which[j + 1] == which[j + 2] for j in range(1, len(which), 4))
        and all(block_symmetric(row) for row in rows)
    ):
        sweep, width, key = _CLASS_SWEEP, len(_CLASSES), class_state
        # the fixed classes read per-input values at one input each
        shape, pick = (16,) * (f.n // 4), np.ix_(*[_LEAF_INPUT] * (f.n // 4))
    else:
        sweep, width, key, shape, pick = _FULL_SWEEP, 3, tuple, (2,) * f.n, ()

    def leaves(v: np.ndarray) -> np.ndarray:
        # per-input values on the fully fixed states
        return v.reshape(shape)[pick]

    def sums(v: np.ndarray) -> np.ndarray:
        return _zeta(leaves(v), np.add, sweep, width)

    # merged as 1 + color, the set of values seen: 0b01 for 0, 0b10 for
    # 1, 0b11 for mixed, so two halves merge by bitwise or
    colors = _zeta(leaves(values) + 1, np.bitwise_or, sweep, width)
    colors -= 1
    return Lattice(colors, sweep, key, sums)


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
    f, by the axis-sweep relaxation over ``lattice(f)``.  With
    ``want_tree`` the result also holds a canonical optimal tree."""
    n = f.n
    # on the full lattice, TruthTable's cap of n at 16 bounds colors,
    # values and one 3**15-byte slab temporary under 2 * 3**16 + 3**15
    # bytes, about 100 MB
    lat = lattice(f)
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
    lat = lattice(f, rows, which)
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
