"""Reference values for the benchmark's output checks, derived without
importing qlab.

Everything here follows from three written descriptions:

* the gadget: f(x1, x2, x3, x4) is the majority of (x1, x1, x2, x3, x4),
  with x1 the most significant bit of a four-bit pattern index;
* the seed law of the hard distribution: at a node of value 0 the
  children pattern is 1000 with mass 2/5, each of 0011, 0101, 0110 with
  mass 1/6, and each of 0001, 0010, 0100 with mass 1/30; at a node of
  value 1 it is the bitwise complement; the root value is a fair coin;
* the evaluator round: with probability 1/4 read x1, then x2..x4 in a
  uniformly random order until one matches x1; with probability 3/4
  read x2..x4 in a uniformly random order, reading x1 as soon as two of
  them differ, and stopping without x1 when all three agree.

Given the children's values, the subtrees below a node are independent,
so the first two moments of the leaf-read count follow two-state
recursions over the node value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

GADGET = tuple(
    int(2 * (p >> 3 & 1) + (p >> 2 & 1) + (p >> 1 & 1) + (p & 1) >= 3)
    for p in range(16)
)

SEED0 = {
    0b1000: Fraction(2, 5),
    0b0011: Fraction(1, 6),
    0b0101: Fraction(1, 6),
    0b0110: Fraction(1, 6),
    0b0001: Fraction(1, 30),
    0b0010: Fraction(1, 30),
    0b0100: Fraction(1, 30),
}


def seed_law(b: int) -> dict[int, Fraction]:
    """Children-pattern law at a node of value b."""
    return SEED0 if b == 0 else {15 - p: m for p, m in SEED0.items()}


def hard_law_1() -> dict[int, Fraction]:
    """The height-1 hard distribution: equal mixture of both seeds."""
    law: dict[int, Fraction] = {}
    for b in (0, 1):
        for p, m in seed_law(b).items():
            law[p] = law.get(p, Fraction(0)) + m / 2
    return law


def child(p: int, j: int) -> int:
    """Value of child j (0-based, child 0 is x1) in pattern p."""
    return p >> (3 - j) & 1


def _round_reads(p: int, branch: int, order: tuple[int, ...]) -> frozenset[int]:
    if branch == 0:
        read = [0]
        for q in order:
            read.append(q)
            if child(p, q) == child(p, 0):
                break
        return frozenset(read)
    q1, q2, q3 = order
    if child(p, q1) != child(p, q2):
        return frozenset((q1, q2, 0))
    if child(p, q3) == child(p, q1):
        return frozenset((q1, q2, q3))
    return frozenset((q1, q2, q3, 0))


@lru_cache(maxsize=None)
def read_sets(p: int) -> tuple[tuple[Fraction, frozenset[int]], ...]:
    """(probability, children read) over the round's 12 coin outcomes."""
    out = []
    for branch, weight in ((0, Fraction(1, 4)), (1, Fraction(3, 4))):
        for order in itertools.permutations((1, 2, 3)):
            out.append((weight / 6, _round_reads(p, branch, order)))
    return tuple(out)


def _moments(child_moments, p: int) -> tuple[Fraction, Fraction]:
    """Mean and second moment of a node's reads on pattern p, given
    (mean, second moment) of each child's subtree."""
    mean = second = Fraction(0)
    for w, reads in read_sets(p):
        m = sum((child_moments[j][0] for j in reads), Fraction(0))
        s = sum((child_moments[j][1] for j in reads), Fraction(0))
        s += sum(
            (child_moments[j][0] * child_moments[k][0] for j in reads for k in reads if j != k),
            Fraction(0),
        )
        mean += w * m
        second += w * s
    return mean, second


@lru_cache(maxsize=None)
def hard_law_moments(h: int, b: int) -> tuple[Fraction, Fraction]:
    """Mean and second moment of leaf reads at height h under the hard
    law conditioned on root value b."""
    if h == 0:
        return Fraction(1), Fraction(1)
    mean = second = Fraction(0)
    for p, mass in seed_law(b).items():
        m, s = _moments([hard_law_moments(h - 1, child(p, j)) for j in range(4)], p)
        mean += mass * m
        second += mass * s
    return mean, second


def hard_law_mean(h: int) -> Fraction:
    return (hard_law_moments(h, 0)[0] + hard_law_moments(h, 1)[0]) / 2


def hard_law_sd(h: int) -> float:
    """Standard deviation of one trial's leaf reads under the hard law."""
    (m0, s0), (m1, s1) = hard_law_moments(h, 0), hard_law_moments(h, 1)
    mean, second = (m0 + m1) / 2, (s0 + s1) / 2
    return float(second - mean * mean) ** 0.5


def evaluate(bits: str) -> int:
    """The iterated gadget on a bit string of length 4**h."""
    level = [int(c) for c in bits]
    while len(level) > 1:
        level = [GADGET[int("".join(map(str, level[i : i + 4])), 2)] for i in range(0, len(level), 4)]
    return level[0]


def fixed_input_moments(bits: str) -> tuple[Fraction, Fraction]:
    """Mean and second moment of leaf reads on one fixed input."""
    if len(bits) == 1:
        return Fraction(1), Fraction(1)
    width = len(bits) // 4
    quarters = [bits[i * width : (i + 1) * width] for i in range(4)]
    p = int("".join(str(evaluate(q)) for q in quarters), 2)
    return _moments([fixed_input_moments(q) for q in quarters], p)


def fixed_input_sd(bits: str) -> float:
    mean, second = fixed_input_moments(bits)
    return float(second - mean * mean) ** 0.5


WORST_PATTERN = {0: "1000", 1: "0111"}


def witness(h: int, v: int) -> str:
    """A height-h input of value v that composes the level-1 worst
    patterns: 1000 under every node of value 0, 0111 under value 1."""
    if h == 0:
        return str(v)
    return "".join(witness(h - 1, int(c)) for c in WORST_PATTERN[v])


def support_size(h: int) -> int:
    """Points of positive mass under the height-h hard law."""

    @lru_cache(maxsize=None)
    def count(h: int, b: int) -> int:
        if h == 0:
            return 1
        total = 0
        for p in seed_law(b):
            prod = 1
            for j in range(4):
                prod *= count(h - 1, child(p, j))
            total += prod
        return total

    return count(h, 0) + count(h, 1)


def minority_marginals() -> tuple[Fraction, ...]:
    """Law of the child the minority path enters at height 1: a child
    disagreeing with the node value, two dissenters split by a fair
    coin."""
    out = [Fraction(0)] * 4
    for b in (0, 1):
        for p, mass in seed_law(b).items():
            dissent = [j for j in range(4) if child(p, j) != b]
            for j in dissent:
                out[j] += mass / 2 / len(dissent)
    return tuple(out)


def embedding_slot_law() -> tuple[Fraction, ...]:
    """Slot law of the embedding whose children pattern must follow the
    height-1 hard law.  The embedded child holds a fair bit w.  At slot
    0 the other children form a uniform non-unanimous triple; at slot
    j >= 1 child 0 holds a fair bit c and the other two hold 1 - c.  The
    scheme treats slots 1..3 alike, so the law is (s0, s, s, s); pattern
    1000 can only come from slots 1..3 (c = 1, w = 0), which fixes s.
    Every other pattern is then checked against the hard law."""
    target = hard_law_1()
    s = target[0b1000] / 3 / Fraction(1, 4)
    law = (1 - 3 * s, s, s, s)
    made: dict[int, Fraction] = {}
    triples = [t for t in itertools.product((0, 1), repeat=3) if len(set(t)) > 1]
    for w in (0, 1):
        for t in triples:
            p = int(f"{w}{t[0]}{t[1]}{t[2]}", 2)
            made[p] = made.get(p, Fraction(0)) + law[0] / 2 / len(triples)
        for slot in (1, 2, 3):
            for c in (0, 1):
                bits = [c] + [1 - c] * 3
                bits[slot] = w
                p = int("".join(map(str, bits)), 2)
                made[p] = made.get(p, Fraction(0)) + law[slot] / 4
    if {p: m for p, m in made.items() if m} != target:
        raise AssertionError("no slot law of this scheme yields the hard law")
    return law


# the canonical tiling of the gadget: eight parts, each fixing three inputs
CANONICAL_PARTITION = (
    ("001*", 0), ("0*01", 0), ("01*0", 0), ("*000", 0),
    ("110*", 1), ("1*10", 1), ("10*1", 1), ("*111", 1),
)


def pattern_members(text: str) -> list[int]:
    free = [j for j, c in enumerate(text) if c == "*"]
    out = []
    for fill in itertools.product("01", repeat=len(free)):
        chars = list(text)
        for j, c in zip(free, fill):
            chars[j] = c
        out.append(int("".join(chars), 2))
    return out


def partition_computes(parts, table: tuple[int, ...]) -> bool:
    """Parts tile {0,1}^n exactly once and each is monochromatic with
    its label under the function given as a value per input index."""
    seen = [0] * len(table)
    for text, z in parts:
        for idx in pattern_members(text):
            seen[idx] += 1
            if table[idx] != z:
                return False
    return all(c == 1 for c in seen)


def composed_partition_shape(parts=CANONICAL_PARTITION) -> tuple[int, int]:
    """(number of parts, fixed coordinates per part) of the partition
    composed with itself: each outer part fixing r blocks expands into
    one part per choice of an inner part with the matching label in
    every fixed block.  Requires parts of equal fixed count."""
    by_label = {z: sum(1 for _, lz in parts if lz == z) for z in (0, 1)}
    fixed = {sum(c != "*" for c in text) for text, _ in parts}
    if len(fixed) != 1:
        raise ValueError("shape formula needs parts of equal cost")
    r = fixed.pop()
    count = 0
    for text, _ in parts:
        choices = 1
        for c in text:
            if c != "*":
                choices *= by_label[int(c)]
        count += choices
    return count, r * r


def partition_weight(parts=CANONICAL_PARTITION) -> int:
    return sum(2 ** sum(c != "*" for c in text) for text, _ in parts)


def composed_table() -> tuple[int, ...]:
    """Truth table of the height-2 gadget as a value per input index."""
    return tuple(
        GADGET[int("".join(str(GADGET[idx >> (12 - 4 * j) & 15]) for j in range(4)), 2)]
        for idx in range(1 << 16)
    )


def table_hex(values: tuple[int, ...]) -> str:
    """The .tt body: hex of the table with bit i holding input i."""
    word = sum(v << i for i, v in enumerate(values))
    return f"{word:0{(len(values) + 3) // 4}x}"


@lru_cache(maxsize=None)
def prt_lp_value(eps: Fraction) -> float:
    """Float HiGHS optimum of the partition relaxation of the gadget at
    error eps: a weight per (subcube, label); at every input the
    correctly labelled weight through it is at least 1 - eps and all
    weight through it sums to 1; a subcube fixing k inputs costs 2**k."""
    import numpy as np
    from scipy.optimize import linprog

    patterns = ["".join(t) for t in itertools.product("01*", repeat=4)]
    cost = [2 ** sum(c != "*" for c in t) for t in patterns for _ in (0, 1)]
    good = np.zeros((16, 2 * len(patterns)))
    total = np.zeros((16, 2 * len(patterns)))
    for k, text in enumerate(patterns):
        for idx in pattern_members(text):
            total[idx, 2 * k : 2 * k + 2] = 1
            good[idx, 2 * k + GADGET[idx]] = 1
    res = linprog(
        cost,
        A_ub=-good,
        b_ub=-np.full(16, float(1 - eps)),
        A_eq=total,
        b_eq=np.ones(16),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the relaxation: {res.message}")
    return float(res.fun)
