"""Labeled subcube partitions of the hypercube.

A subcube is written as a pattern over the alphabet {0, 1, *}: position
j (0-based, so position 0 is x_1) is either fixed to a bit or free.  A
labeled partition is a set of disjoint subcubes covering {0,1}^n, each
carrying an output label; it computes f when every subcube is
f-monochromatic with matching label.  Two cost measures:

  * cost   = max number of fixed positions over the parts, and
  * weight = sum over parts of 2**(fixed positions).

A subcube's member set is a 2**n-bit Python int, bit i for the input
of index i, as in a truth table.  Searches below are exhaustive over a
canonical order, so an empty result is a proof that no partition within
the budget exists.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .boolfn import MAX_VARS, TruthTable

MAX_SEARCH_COST_VARS = 5
MAX_SEARCH_WEIGHT_VARS = 4


@dataclass(frozen=True)
class Pattern:
    """One subcube, e.g. Pattern("0*01"): position j fixed to its bit
    or free.  `members` alone reads the positions as bits."""

    text: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[01*]+", self.text):
            raise ValueError(f"pattern must be over 0/1/*: {self.text!r}")

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def fixed_count(self) -> int:
        return sum(1 for c in self.text if c != "*")

    @property
    def free_count(self) -> int:
        return self.n - self.fixed_count

    def members(self) -> int:
        """The inputs inside the subcube as a 2**n-bit word, bit i set
        for the input of index i: the input with every free position 0,
        doubled into one free position at a time from the last up."""
        word = 1 << int(self.text.replace("*", "0"), 2)
        for i, c in enumerate(reversed(self.text)):
            if c == "*":
                word |= word << (1 << i)
        return word


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
    # when ok, the inputs of the parts labeled 1 as a 2**n-bit word: the
    # truth table the labels give
    ones: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PartitionCost:
    cost: int
    weight: int


def validate(part: LabeledPartition) -> ValidationReport:
    """Check exact coverage of {0,1}^n by OR-ing each part's member word
    into a covered word: a part meeting it shares a point with an
    earlier part, and a point it misses at the end lies in none."""
    n = part.n
    if n > MAX_VARS:
        raise ValueError(f"partition validation supports n <= {MAX_VARS}")
    covered = ones = 0
    for b, (pb, z) in enumerate(part.entries):
        members = pb.members()
        shared = members & covered
        if shared:
            # the earlier part holding the lowest shared point
            low = shared & -shared
            pa = next(pa for pa, _ in part.entries[:b] if pa.members() & low)
            return ValidationReport(
                False, "overlap", f"{pa.text} and {pb.text} share a point"
            )
        covered |= members
        if z:
            ones |= members
    total = sum(1 << p.free_count for p, _ in part.entries)
    if total != 1 << n:
        return ValidationReport(
            False, "gap", f"parts cover {total} of {1 << n} points"
        )
    return ValidationReport(True, ones=ones)


def computes(part: LabeledPartition, f: TruthTable) -> bool:
    """True when part is a partition of {0,1}^n and every part is
    f-monochromatic with matching label: the parts labeled 1, as
    validate ORs them, cover f's 1-inputs and nothing else.  A
    non-partition computes nothing, so it gives False; only an arity
    mismatch raises."""
    if part.n != f.n:
        raise ValueError(f"partition arity {part.n} != function arity {f.n}")
    return validate(part).ones == f.bits


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


def all_patterns(n: int) -> Iterator[Pattern]:
    """Every subcube of {0,1}^n in the C order of `dtree`'s subcube
    lattice: per position 0 < 1 < *, x_1 varying slowest."""
    return (Pattern("".join(t)) for t in itertools.product("01*", repeat=n))


# ---------------------------------------------------------------------------
# exhaustive searches

def _order_key(pat: Pattern) -> tuple[int, str]:
    # canonical order: fewer fixed positions first, then pattern text
    # with * < 0 < 1
    return (pat.fixed_count, pat.text.replace("*", " "))


@dataclass(frozen=True)
class SearchResult:
    partition: Optional[LabeledPartition]
    nodes: int


class _CoverSearch:
    """Covers of {0,1}^n by disjoint f-monochromatic cubes fixing at
    most ``budget`` positions, walked in the canonical order: the lowest
    uncovered input first, the cubes through it by ``_order_key``."""

    def __init__(self, f: TruthTable, budget: int) -> None:
        # each f-monochromatic cube within the budget as (pattern, label,
        # member word, weight * 2**n): f is 1 on all its members or on none
        cubes = []
        for p in all_patterns(f.n):
            members = p.members()
            ones = members & f.bits
            if p.fixed_count <= budget and ones in (0, members):
                cubes.append((p, int(ones != 0), members, 1 << (p.fixed_count + f.n)))
        cubes.sort(key=lambda cube: _order_key(cube[0]))
        self.per_point = [[c for c in cubes if c[2] >> idx & 1] for idx in range(1 << f.n)]
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
