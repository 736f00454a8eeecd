"""Labeled subcube partitions of the hypercube.

A subcube is written as a pattern over the alphabet {0, 1, *}: position
j (0-based, so position 0 is x_1) is either fixed to a bit or free.  A
labeled partition is a set of disjoint subcubes covering {0,1}^n, each
carrying an output label; it computes f when every subcube is
f-monochromatic with matching label.  Two cost measures:

  * cost   = max number of fixed positions over the parts, and
  * weight = sum over parts of 2**(fixed positions).

Searches below are exhaustive over a canonical order, so an empty
result is a proof that no partition within the budget exists.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .boolfn import MAX_VARS, TruthTable
from .gadget import table_values

MAX_SEARCH_COST_VARS = 5
MAX_SEARCH_WEIGHT_VARS = 4


@dataclass(frozen=True)
class Pattern:
    """One subcube, e.g. Pattern("0*01"): mask has a 1 bit at every
    fixed position (in truth-table bit order), vals holds the fixed
    bits."""

    text: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[01*]+", self.text):
            raise ValueError(f"pattern must be over 0/1/*: {self.text!r}")

    @property
    def n(self) -> int:
        return len(self.text)

    @functools.cached_property
    def mask(self) -> int:
        return int(self.text.replace("0", "1").replace("*", "0"), 2)

    @functools.cached_property
    def vals(self) -> int:
        return int(self.text.replace("*", "0"), 2)

    @property
    def fixed_count(self) -> int:
        return sum(1 for c in self.text if c != "*")

    @property
    def free_count(self) -> int:
        return self.n - self.fixed_count

    def members(self) -> np.ndarray:
        """Every input index inside the subcube, ascending, as an intp
        array: vals with each submask of the free positions, doubled in
        one free bit at a time from the lowest."""
        out = np.array([self.vals], dtype=np.intp)
        for i in range(self.n):
            if not self.mask >> i & 1:
                out = np.concatenate([out, out | 1 << i])
        return out


@dataclass(frozen=True)
class LabeledPartition:
    """Subcubes with 0/1 labels, intended to tile {0,1}^n."""

    n: int
    entries: tuple[tuple[Pattern, int], ...]

    def __post_init__(self) -> None:
        for p, z in self.entries:
            if p.n != self.n:
                raise ValueError(f"pattern {p.text} has length {p.n}, expected {self.n}")
            if z not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {z!r}")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    error: Optional[str] = None  # "overlap" | "gap" | None
    detail: Optional[str] = None
    # when ok, the index of the part holding each input
    owner: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PartitionCost:
    cost: int
    weight: int


def validate(part: LabeledPartition) -> ValidationReport:
    """Check exact coverage of {0,1}^n by painting each part's index
    onto its members in a 2**n owner array: a member already painted
    lies in two parts, and an unpainted input in none."""
    n = part.n
    if n > MAX_VARS:
        raise ValueError(f"partition validation supports n <= {MAX_VARS}")
    owner = np.full(1 << n, -1, dtype=np.int32)
    for b, (pb, _) in enumerate(part.entries):
        members = pb.members()
        prior = owner[members]
        hit = np.flatnonzero(prior >= 0)
        if hit.size:
            pa = part.entries[prior[hit[0]]][0]
            return ValidationReport(
                False, "overlap", f"{pa.text} and {pb.text} share a point"
            )
        owner[members] = b
    total = sum(1 << p.free_count for p, _ in part.entries)
    if total != 1 << n:
        return ValidationReport(
            False, "gap", f"parts cover {total} of {1 << n} points"
        )
    return ValidationReport(True, owner=owner)


def computes(
    part: LabeledPartition, f: TruthTable, report: Optional[ValidationReport] = None
) -> bool:
    """True when every part is f-monochromatic with matching label.
    Requires a valid partition, so together this checks f on every
    input exactly once: one gather of the labels through the owner
    array.  report is validate(part), validated here when not given."""
    if part.n != f.n:
        raise ValueError(f"partition arity {part.n} != function arity {f.n}")
    if report is None:
        report = validate(part)
    if not report.ok:
        raise ValueError(f"not a partition ({report.error}: {report.detail})")
    labels = np.array([z for _, z in part.entries], dtype=np.uint8)
    return bool(np.array_equal(labels[report.owner], table_values(f)))


def partition_cost(part: LabeledPartition) -> PartitionCost:
    cost = max(p.fixed_count for p, _ in part.entries)
    weight = sum(1 << p.fixed_count for p, _ in part.entries)
    return PartitionCost(cost, weight)


def canonical_fmaj_partition() -> LabeledPartition:
    """The eight-part tiling of the four-bit gadget with every part
    fixing exactly three positions."""
    # the first four parts are labeled 0, the last four 1
    texts = ("001*", "0*01", "01*0", "*000", "110*", "1*10", "10*1", "*111")
    return LabeledPartition(4, tuple((Pattern(t), i // 4) for i, t in enumerate(texts)))


def compose_partitions(p: LabeledPartition, q: LabeledPartition) -> LabeledPartition:
    """Partition for the block composition f(g, ..., g) given partitions
    for f (outer, on n blocks) and g (inner, on m bits per block): each
    outer part fixing positions i_1 < ... < i_r expands into one
    composed part per choice, for each i_k, of an inner part labeled
    with the bit the outer part fixes there; unfixed blocks stay free.
    The composed arity is checked first, because the expansion can
    outgrow memory long before validation would reject it."""
    n, m = p.n, q.n
    if n * m > MAX_VARS:
        raise ValueError(f"composed arity {n * m} exceeds {MAX_VARS}")
    # the choices for one block: free, or an inner part of the label the
    # outer part fixes there; product varies the last block fastest
    choices: dict[str, list[str]] = {"*": ["*" * m], "0": [], "1": []}
    for pat, z in q.entries:
        choices[str(z)].append(pat.text)
    out = [
        (Pattern("".join(blocks)), z)
        for outer, z in p.entries
        for blocks in itertools.product(*(choices[c] for c in outer.text))
    ]
    return LabeledPartition(n * m, tuple(out))


# ---------------------------------------------------------------------------
# the subcube lattice: arrays of shape (3,)*n whose axis j is variable
# x_{j+1}, index 0 or 1 fixing it and index 2 leaving it free

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


def _colors(leaves: np.ndarray, sweep: Sweep, width: int) -> np.ndarray:
    # merged as 1 + color, the set of values seen: 0b01 for 0, 0b10 for
    # 1, 0b11 for mixed, so two halves merge by bitwise or
    colors = _zeta(leaves + 1, np.bitwise_or, sweep, width)
    colors -= 1
    return colors


def lattice_colors(f: TruthTable) -> np.ndarray:
    """Color of every subcube: a (3,)*n uint8 array holding f's value
    where f is constant on the subcube and 2 where it is mixed."""
    return _colors(table_values(f).reshape((2,) * f.n), _FULL_SWEEP, 3)


def lattice_sums(values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` (one entry per input, in index order) over the
    members of every subcube, as a (3,)*n array of the same dtype."""
    n = values.size.bit_length() - 1
    return _zeta(values.reshape((2,) * n), np.add, _FULL_SWEEP, 3)


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

    colors: np.ndarray  # as lattice_colors gives them
    sweep: Sweep
    key: Callable[[Sequence[int]], tuple]  # the index in it of a (3,)*n state
    sums: Callable[[np.ndarray], np.ndarray]  # as lattice_sums on it


def lattice(f: TruthTable, rows: Sequence[np.ndarray] = (), which: Sequence[int] = ()) -> Lattice:
    """The lattice of a DP over f's subcubes that charges a query of
    x_{i+1} the sum of ``rows[which[i]]`` (one entry per input) over the
    subcube: the class lattice when f and every row are block-symmetric
    and each block charges x_{4b+2..4b+4} by one row, else the full one."""
    if not (
        block_symmetric(table_values(f))
        and all(which[j] == which[j + 1] == which[j + 2] for j in range(1, len(which), 4))
        and all(block_symmetric(row) for row in rows)
    ):
        return Lattice(lattice_colors(f), _FULL_SWEEP, tuple, lattice_sums)
    m, width = f.n // 4, len(_CLASSES)

    def leaves(values: np.ndarray) -> np.ndarray:
        # the fixed classes read values at one input each
        return values.reshape((16,) * m)[np.ix_(*[_LEAF_INPUT] * m)]

    def sums(values: np.ndarray) -> np.ndarray:
        return _zeta(leaves(values), np.add, _CLASS_SWEEP, width)

    colors = _colors(leaves(table_values(f)), _CLASS_SWEEP, width)
    return Lattice(colors, _CLASS_SWEEP, class_state, sums)


def all_patterns(n: int) -> Iterator[Pattern]:
    """Every subcube of {0,1}^n in the lattice's C order: per position
    0 < 1 < *, x_1 varying slowest."""
    return (Pattern("".join(t)) for t in itertools.product("01*", repeat=n))


# ---------------------------------------------------------------------------
# exhaustive searches

def _monochromatic_patterns(f: TruthTable) -> list[tuple[Pattern, int]]:
    """Every f-monochromatic subcube, with its forced label."""
    colors = lattice_colors(f).ravel()
    return [(p, int(c)) for p, c in zip(all_patterns(f.n), colors) if c != 2]


def _order_key(pat: Pattern) -> tuple[int, str]:
    # canonical order: fewer fixed positions first, then pattern text
    # with * < 0 < 1
    return (pat.fixed_count, pat.text.replace("*", " "))


@dataclass(frozen=True)
class SearchResult:
    partition: Optional[LabeledPartition]
    nodes: int

    @property
    def weight(self) -> int:
        return partition_cost(self.partition).weight


class _CoverSearch:
    """Covers of {0,1}^n by disjoint f-monochromatic cubes fixing at
    most ``budget`` positions, walked in the canonical order: the lowest
    uncovered input first, the cubes through it by ``_order_key``."""

    def __init__(self, f: TruthTable, budget: int) -> None:
        cubes = [(p, z) for p, z in _monochromatic_patterns(f) if p.fixed_count <= budget]
        cubes.sort(key=lambda e: _order_key(e[0]))
        # each cube as (pattern, label, member bitmask, weight * 2**n)
        self.per_point: list[list[tuple[Pattern, int, int, int]]] = [
            [] for _ in range(1 << f.n)
        ]
        for p, z in cubes:
            members = p.members().tolist()
            cube = (p, z, sum(1 << idx for idx in members), 1 << (p.fixed_count + f.n))
            for idx in members:
                self.per_point[idx].append(cube)
        # weights are scaled by 2**n, so the cheapest weight-per-point
        # through a point, 2**fixed / 2**free of its first cube, is
        # 4**fixed; a point no cube covers leaves no cover to bound
        self.rate = [4 ** cs[0][0].fixed_count if cs else 0 for cs in self.per_point]
        self.full = (1 << (1 << f.n)) - 1
        self.best: Optional[int] = None
        self.chosen: list[tuple[Pattern, int]] = []
        self.nodes = 0

    def covers(
        self, covered: int = 0, weight: int = 0
    ) -> Iterator[tuple[tuple[Pattern, int], ...]]:
        """Yield each cover lighter than every cover before it.  Once one
        is found, a branch stops when its weight plus the cheapest rate of
        every uncovered point reaches the lightest so far."""
        self.nodes += 1
        if covered == self.full:
            if self.best is None or weight < self.best:
                self.best = weight
                yield tuple(self.chosen)
            return
        if self.best is not None and weight + sum(
            r for idx, r in enumerate(self.rate) if not covered >> idx & 1
        ) >= self.best:
            return
        lowest = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered
        for p, z, bits, w in self.per_point[lowest]:
            if not bits & covered:
                self.chosen.append((p, z))
                yield from self.covers(covered | bits, weight + w)
                self.chosen.pop()


def search_min_cost(f: TruthTable, budget: int) -> SearchResult:
    """The first labeled partition computing f in which every part
    fixes at most ``budget`` positions.  The cover search is finite and
    exhaustive, so an empty result proves none exists."""
    if f.n > MAX_SEARCH_COST_VARS:
        raise ValueError(f"cost search supports n <= {MAX_SEARCH_COST_VARS}")
    search = _CoverSearch(f, budget)
    entries = next(search.covers(), None)
    part = None if entries is None else LabeledPartition(f.n, entries)
    return SearchResult(part, search.nodes)


def search_min_weight(f: TruthTable) -> SearchResult:
    """A labeled partition computing f of least total weight
    sum(2**fixed): the last cover the unbudgeted search yields.  The
    single points cover every f, so one always exists."""
    if f.n > MAX_SEARCH_WEIGHT_VARS:
        raise ValueError(f"weight search supports n <= {MAX_SEARCH_WEIGHT_VARS}")
    search = _CoverSearch(f, f.n)
    *_, entries = search.covers()
    return SearchResult(LabeledPartition(f.n, entries), search.nodes)


# ---------------------------------------------------------------------------
# text of a .part file: one "<pattern> <label>" pair per line, '#' comments

def partition_to_text(part: LabeledPartition) -> str:
    lines = [f"{p.text} {z}" for p, z in part.entries]
    return "\n".join(lines) + "\n"


def partition_from_text(text: str) -> LabeledPartition:
    entries: list[tuple[Pattern, int]] = []
    n: Optional[int] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("0", "1"):
            raise ValueError(f"expected '<pattern> <label>': {raw!r}")
        pat = Pattern(parts[0])
        if n is None:
            n = pat.n
        elif pat.n != n:
            raise ValueError(f"pattern length mismatch on line {raw!r}")
        entries.append((pat, int(parts[1])))
    if n is None:
        raise ValueError("no patterns in partition text")
    return LabeledPartition(n, tuple(entries))
