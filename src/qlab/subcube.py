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
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .boolfn import MAX_VARS, TruthTable

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
        m = 0
        for j, c in enumerate(self.text):
            if c != "*":
                m |= 1 << (self.n - 1 - j)
        return m

    @functools.cached_property
    def vals(self) -> int:
        v = 0
        for j, c in enumerate(self.text):
            if c == "1":
                v |= 1 << (self.n - 1 - j)
        return v

    @property
    def fixed_count(self) -> int:
        return sum(1 for c in self.text if c != "*")

    @property
    def free_count(self) -> int:
        return self.n - self.fixed_count

    def contains(self, idx: int) -> bool:
        return (idx & self.mask) == self.vals

    def members(self) -> Iterator[int]:
        """All input indices inside the subcube."""
        full = (1 << self.n) - 1
        free = full & ~self.mask
        sub = free
        while True:
            yield self.vals | sub
            if sub == 0:
                return
            sub = (sub - 1) & free

    def intersects(self, other: "Pattern") -> bool:
        common = self.mask & other.mask
        return (self.vals & common) == (other.vals & common)


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
    subsets: dict[int, np.ndarray] = {}
    for b, (pb, _) in enumerate(part.entries):
        members = _free_subsets(pb, subsets) | pb.vals
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


def _free_subsets(p: Pattern, cache: dict[int, np.ndarray]) -> np.ndarray:
    """Every submask of p's free positions, cached by that mask."""
    free = ((1 << p.n) - 1) & ~p.mask
    subs = cache.get(free)
    if subs is None:
        subs = np.zeros(1, dtype=np.intp)
        for i in range(p.n):
            if free >> i & 1:
                subs = np.concatenate([subs, subs | 1 << i])
        cache[free] = subs
    return subs


def computes(part: LabeledPartition, f: TruthTable) -> bool:
    """True when every part is f-monochromatic with matching label.
    Requires a valid partition, so together this checks f on every
    input exactly once: one gather of the labels through the owner
    array."""
    if part.n != f.n:
        raise ValueError(f"partition arity {part.n} != function arity {f.n}")
    report = validate(part)
    if not report.ok:
        raise ValueError(f"not a partition ({report.error}: {report.detail})")
    labels = np.array([z for _, z in part.entries], dtype=np.uint8)
    return bool(np.array_equal(labels[report.owner], f.values()))


def partition_cost(part: LabeledPartition) -> PartitionCost:
    cost = max(p.fixed_count for p, _ in part.entries)
    weight = sum(1 << p.fixed_count for p, _ in part.entries)
    return PartitionCost(cost, weight)


def canonical_fmaj_partition() -> LabeledPartition:
    """The eight-part tiling of the four-bit gadget with every part
    fixing exactly three positions."""
    entries = tuple(
        (Pattern(text), z)
        for text, z in (
            ("001*", 0),
            ("0*01", 0),
            ("01*0", 0),
            ("*000", 0),
            ("110*", 1),
            ("1*10", 1),
            ("10*1", 1),
            ("*111", 1),
        )
    )
    return LabeledPartition(4, entries)


def compose_partitions(p: LabeledPartition, q: LabeledPartition) -> LabeledPartition:
    """Partition for the block composition f(g, ..., g) given partitions
    for f (outer, on n blocks) and g (inner, on m bits per block): each
    outer part fixing positions i_1 < ... < i_r expands into one
    composed part per choice, for each i_k, of an inner part labeled
    with the bit the outer part fixes there; unfixed blocks stay free."""
    n, m = p.n, q.n
    by_label: dict[int, list[Pattern]] = {0: [], 1: []}
    for pat, z in q.entries:
        by_label[z].append(pat)
    free_block = "*" * m
    out: list[tuple[Pattern, int]] = []
    for outer, z in p.entries:
        fixed_positions = [j for j, c in enumerate(outer.text) if c != "*"]
        blocks_template = [free_block] * n
        choices: list[list[Pattern]] = [
            by_label[int(outer.text[j])] for j in fixed_positions
        ]

        def emit(k: int, blocks: list[str]) -> None:
            if k == len(fixed_positions):
                out.append((Pattern("".join(blocks)), z))
                return
            j = fixed_positions[k]
            for inner in choices[k]:
                blocks[j] = inner.text
                emit(k + 1, blocks)
            blocks[j] = free_block

        emit(0, list(blocks_template))
    return LabeledPartition(n * m, tuple(out))


# ---------------------------------------------------------------------------
# the subcube lattice: arrays of shape (3,)*n whose axis j is variable
# x_{j+1}, index 0 or 1 fixing it and index 2 leaving it free

def _zeta(
    base: np.ndarray, merge: Callable[[np.ndarray, np.ndarray, np.ndarray], object]
) -> np.ndarray:
    """Extend ``base``, an array over {0,1}^n with axis j = x_{j+1}, to
    every subcube by one in-place slab operation per axis: for axis a,
    merge(lo, hi, out) fills the states free at a from the states fixing
    it to 0 and to 1.  The slabs keep every axis above a fixed, and the
    axes below a are already complete, so every input to a merge is
    final."""
    n = base.ndim
    out = np.empty((3,) * n, dtype=base.dtype)
    out[(slice(0, 2),) * n] = base
    for a in range(n):
        # the trailing ... keeps n = 1 slabs as arrays, not scalars
        pre, post = (slice(None),) * a, (slice(0, 2),) * (n - 1 - a) + (...,)
        merge(out[pre + (0,) + post], out[pre + (1,) + post], out[pre + (2,) + post])
    return out


def lattice_colors(f: TruthTable) -> np.ndarray:
    """Color of every subcube: a (3,)*n uint8 array holding f's value
    where f is constant on the subcube and 2 where it is mixed."""
    # merged as 1 + color, the set of values seen: 0b01 for 0, 0b10 for
    # 1, 0b11 for mixed, so two halves merge by bitwise or
    colors = _zeta(f.values().reshape((2,) * f.n) + 1, np.bitwise_or)
    colors -= 1
    return colors


def lattice_sums(values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` (one entry per input, in index order) over the
    members of every subcube, as a (3,)*n array of the same dtype."""
    n = values.size.bit_length() - 1
    return _zeta(values.reshape((2,) * n), np.add)


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


def search_min_cost(f: TruthTable, budget: int) -> SearchResult:
    """Exhaustive search for a labeled partition computing f in which
    every part fixes at most ``budget`` positions.  Always covers the
    lowest uncovered input first, so the search space is finite and an
    empty result proves none exists."""
    n = f.n
    if n > MAX_SEARCH_COST_VARS:
        raise ValueError(f"cost search supports n <= {MAX_SEARCH_COST_VARS}")
    cubes = [(p, z) for p, z in _monochromatic_patterns(f) if p.fixed_count <= budget]
    cubes.sort(key=lambda e: _order_key(e[0]))
    per_point: list[list[tuple[Pattern, int]]] = [[] for _ in range(1 << n)]
    for p, z in cubes:
        for idx in p.members():
            per_point[idx].append((p, z))
    full = (1 << (1 << n)) - 1
    nodes = 0
    chosen: list[tuple[Pattern, int]] = []

    def member_bits(p: Pattern) -> int:
        bits = 0
        for idx in p.members():
            bits |= 1 << idx
        return bits

    member_cache = {p.text: member_bits(p) for p, _ in cubes}

    def extend(covered: int) -> bool:
        nonlocal nodes
        nodes += 1
        if covered == full:
            return True
        lowest = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered
        for p, z in per_point[lowest]:
            bits = member_cache[p.text]
            if bits & covered:
                continue
            chosen.append((p, z))
            if extend(covered | bits):
                return True
            chosen.pop()
        return False

    found = extend(0)
    if not found:
        return SearchResult(None, nodes)
    part = LabeledPartition(n, tuple(chosen))
    return SearchResult(part, nodes)


@dataclass(frozen=True)
class WeightSearchResult:
    weight: int
    partition: LabeledPartition
    nodes: int


def search_min_weight(f: TruthTable) -> WeightSearchResult:
    """Branch-and-bound over the same canonical order minimizing the
    total weight sum(2**fixed).  The lower bound charges every
    uncovered point the cheapest weight-per-point among cubes that
    could cover it."""
    n = f.n
    if n > MAX_SEARCH_WEIGHT_VARS:
        raise ValueError(f"weight search supports n <= {MAX_SEARCH_WEIGHT_VARS}")
    cubes = _monochromatic_patterns(f)
    cubes.sort(key=lambda e: _order_key(e[0]))
    size = 1 << n
    per_point: list[list[tuple[Pattern, int]]] = [[] for _ in range(size)]
    member_cache: dict[str, int] = {}
    for p, z in cubes:
        bits = 0
        for idx in p.members():
            bits |= 1 << idx
        member_cache[p.text] = bits
        for idx in p.members():
            per_point[idx].append((p, z))
    # cheapest weight-per-point of any cube through each point
    rate: list[Fraction] = []
    for idx in range(size):
        best = min(
            Fraction(1 << p.fixed_count, 1 << p.free_count) for p, _ in per_point[idx]
        )
        rate.append(best)
    full = (1 << size) - 1
    nodes = 0
    best_weight: Optional[int] = None
    best_entries: Optional[tuple[tuple[Pattern, int], ...]] = None
    chosen: list[tuple[Pattern, int]] = []

    def lower_bound(covered: int) -> Fraction:
        lb = Fraction(0)
        rem = ~covered & full
        while rem:
            idx = (rem & -rem).bit_length() - 1
            lb += rate[idx]
            rem &= rem - 1
        return lb

    def extend(covered: int, weight: int) -> None:
        nonlocal nodes, best_weight, best_entries
        nodes += 1
        if covered == full:
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_entries = tuple(chosen)
            return
        if best_weight is not None and weight + lower_bound(covered) >= best_weight:
            return
        lowest = ((covered + 1) & ~covered).bit_length() - 1
        for p, z in per_point[lowest]:
            bits = member_cache[p.text]
            if bits & covered:
                continue
            chosen.append((p, z))
            extend(covered | bits, weight + (1 << p.fixed_count))
            chosen.pop()

    extend(0, 0)
    assert best_weight is not None and best_entries is not None
    return WeightSearchResult(best_weight, LabeledPartition(n, best_entries), nodes)


# ---------------------------------------------------------------------------
# on-disk format: one "<pattern> <label>" pair per line, '#' comments

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


def save_partition(part: LabeledPartition, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(partition_to_text(part))


def load_partition(path: str) -> LabeledPartition:
    with open(path) as fh:
        return partition_from_text(fh.read())
