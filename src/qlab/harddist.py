"""The recursively balanced input distribution that makes the iterated
gadget expensive, and the minority-path process over it.

The one-level seed puts mass 2/5 on the input whose first bit dissents
alone, 1/6 on each input where the first bit joins a two-two tie on the
other three, and 1/30 on each input with a lone dissent among the last
three; the all-agree input gets mass zero.  Conditioned on the root
value b (fair coin), children patterns are drawn from the seed for b
and each subtree recurses on its child's value.  Every seed mass is a
whole number of thirtieths, so the sampler draws one integer below 30
per node and maps it to a children pattern through two lookup tables,
and the exact masses carry integer weights over one common denominator.
An input fixes every node's value, so its mass is one product over the
internal nodes that `boolfn.level_patterns` lists.

The minority path starts at the root and repeatedly steps into a child
disagreeing with its parent's value: a unique dissenter is taken
outright, two dissenters are split by a fair coin, and zero dissenters
only happens off the support (SupportError).  Three dissenters cannot
happen, since the first child's doubled vote caps dissent at two.  The
exact leaf law walks the same level patterns top down.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .boolfn import (
    _FMAJ_BIT,
    _SHIFTS,
    bits_to_index,
    index_to_bits,
    level_patterns,
    parse_bits,
    tree_bits,
)
from .dtree import CostMatrix

MAX_ENUM_HEIGHT = 2


class SupportError(ValueError):
    """Raised when the minority path hits a node all of whose children
    agree with it, which has probability zero under the distribution."""


class InputDistribution:
    """An exact rational distribution on {0,1}^n, stored sparsely."""

    def __init__(self, n: int, masses: dict[int, Fraction]):
        self.n = n
        self.masses = {
            idx: Fraction(m) for idx, m in sorted(masses.items()) if m != 0
        }
        for idx, m in self.masses.items():
            if not 0 <= idx < (1 << n):
                raise ValueError(f"index {idx} out of range for n={n}")
            if m < 0:
                raise ValueError(f"negative mass at index {idx}")
        if sum(self.masses.values(), Fraction(0)) != 1:
            raise ValueError("masses do not sum to 1")

    def mass(self, idx: int) -> Fraction:
        return self.masses.get(idx, Fraction(0))

    def dense(self) -> list[Fraction]:
        return [self.mass(idx) for idx in range(1 << self.n)]

    def support(self) -> list[int]:
        return list(self.masses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InputDistribution)
            and self.n == other.n
            and self.masses == other.masses
        )


# ---------------------------------------------------------------------------
# the four-bit seed and its closure under complement

_SEED0 = {
    "1000": Fraction(2, 5),
    "0011": Fraction(1, 6),
    "0101": Fraction(1, 6),
    "0110": Fraction(1, 6),
    "0001": Fraction(1, 30),
    "0010": Fraction(1, 30),
    "0100": Fraction(1, 30),
}


def d0() -> InputDistribution:
    """Children-pattern law at a node of value 0."""
    return InputDistribution(4, {bits_to_index(s): m for s, m in _SEED0.items()})


def d1() -> InputDistribution:
    """Children-pattern law at a node of value 1: bitwise complement."""
    return InputDistribution(
        4, {15 - bits_to_index(s): m for s, m in _SEED0.items()}
    )


def d() -> InputDistribution:
    """Equal mixture of the two one-level laws; this is the hard input
    distribution at height 1."""
    masses: dict[int, Fraction] = {}
    for dist in (d0(), d1()):
        for idx, m in dist.masses.items():
            masses[idx] = masses.get(idx, Fraction(0)) + m / 2
    return InputDistribution(4, masses)


# ---------------------------------------------------------------------------
# the height-h distribution

def dh_mass(h: int, x: "str | Sequence[int]") -> Fraction:
    """Exact mass of one input under the height-h distribution: the
    input fixes every node's value, so only the root coin matching the
    root's value contributes, times the seed mass of each internal
    node's children pattern at that node's value."""
    pats = level_patterns(tree_bits(h, x), h)
    weight = math.prod(w for pat in pats for w in _W30[pat].tolist())
    return Fraction(weight, _denominator(h))


def dh_support(h: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All inputs of positive mass with their masses; full enumeration
    is kept to h <= 2 (the height-2 support already has 33614 points)."""
    denom = _support_denominator(h)
    return ((bits, Fraction(w, denom)) for b in (0, 1) for bits, w in _dhb_support(h, b))


def dh_total(h: int) -> tuple[int, Fraction]:
    """Size and exact total mass of the height-h support, summed as
    integer weights over one common denominator."""
    denom = _support_denominator(h)
    weights = [w for b in (0, 1) for _, w in _dhb_support(h, b)]
    return len(weights), Fraction(sum(weights), denom)


def _support_denominator(h: int) -> int:
    if h > MAX_ENUM_HEIGHT:
        raise ValueError(f"support enumeration supports h <= {MAX_ENUM_HEIGHT}")
    return _denominator(h)


def _denominator(h: int) -> int:
    """2 * 30**(internal nodes): a fair root coin times one seed draw,
    in thirtieths, per internal node."""
    return 2 * 30 ** ((4**h - 1) // 3)


def _dhb_support(h: int, b: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Support of the height-h law at root value b, each point with its
    mass times 30**((4**h - 1) // 3)."""
    if h == 0:
        yield (b,), 1
        return
    for pat_idx, base in zip(_PATS[b].tolist(), _SEED30):
        subs = [list(_dhb_support(h - 1, bv)) for bv in index_to_bits(pat_idx, 4)]
        for combo in itertools.product(*subs):
            yield sum((bits for bits, _ in combo), ()), base * math.prod(w for _, w in combo)


# support patterns of the seed in threshold order, with masses in
# thirtieths: 12, 5, 5, 5, 1, 1, 1
_PAT0 = np.array([bits_to_index(s) for s in _SEED0], dtype=np.uint8)
_SEED30 = tuple(int(m * 30) for m in _SEED0.values())
_CUM30 = np.cumsum(_SEED30)[:-1]
# _CAT30[u]: the seed category of a base-30 draw u, so category c has
# probability _SEED30[c] / 30
_CAT30 = np.searchsorted(_CUM30, np.arange(30), side="right").astype(np.uint8)
# _PATS[v, c]: children pattern of category c at a node of value v; the
# value-1 law is the bitwise complement of the value-0 law
_PATS = np.stack([_PAT0, 15 - _PAT0])
# _W30[p]: the seed mass, in thirtieths, of children pattern p at a node
# of its own value f(p); the other value's seed never draws p
_W30 = np.zeros(16, dtype=np.int64)
_W30[_PATS] = _SEED30


def sample_inputs(h: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws: a (count, 4**h) uint8 array of inputs
    distributed as the height-h law.  Level by level, each node's
    children pattern comes from one exact base-30 draw, looked up in
    _CAT30 and _PATS.  The draws are int32, which consumes the same
    stream as int64 below 2**32, and everything derived from them stays
    uint8, so the peak, output included, stays under two bytes per
    leaf."""
    vals = rng.integers(0, 2, size=(count, 1), dtype=np.int32).astype(np.uint8)
    for _ in range(h):
        draws = rng.integers(0, 30, size=vals.shape, dtype=np.int32)
        pats = _PATS[vals, _CAT30[draws]]
        del draws
        children = pats[..., None] >> _SHIFTS
        children &= 1
        vals = children.reshape(count, -1)
    return vals


# ---------------------------------------------------------------------------
# the minority path

# _DISSENT[p]: the slots (0 = first child) of the children disagreeing
# with a node of children pattern p.  The doubled first vote caps them
# at two; only off the support are there none.
_DISSENT = tuple(
    tuple(j for j in range(4) if (p >> (3 - j) & 1) != _FMAJ_BIT[p]) for p in range(16)
)
assert all(len(slots) <= 2 for slots in _DISSENT)
# _DIS_PICK[p, c]: the dissenter a fair coin c picks, 255 if there is none
_DIS_PICK = np.array(
    [(slots[0], slots[-1]) if slots else (255, 255) for slots in _DISSENT], dtype=np.uint8
)


def minority_leaf_law(h: int, x: "str | Sequence[int]") -> dict[int, Fraction]:
    """Exact law of the leaf, a 0-based input position, at which the
    minority path of one input ends: top down over the level patterns,
    each node on the path splits its probability evenly over its
    dissenting children."""
    pats = level_patterns(tree_bits(h, x), h)
    law = {0: Fraction(1)}
    for k in range(h, 0, -1):
        step = {}
        for node, prob in law.items():
            slots = _DISSENT[pats[k - 1][node]]
            if not slots:
                raise SupportError(f"node at level {k} has no dissenting child")
            for j in slots:
                step[4 * node + j] = prob / len(slots)
        law = step
    return law


def minority_marginals_exact() -> tuple[Fraction, ...]:
    """Marginal law of the root's child that the minority path enters.
    At every height the root's children pattern follows d(), so this is
    one sum over its support."""
    totals = [Fraction(0)] * 4
    for pat, m in d().masses.items():
        slots = _DISSENT[pat]
        for j in slots:
            totals[j] += m / len(slots)
    return tuple(totals)


def minority_level1_counts(
    trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized height-2 run: sample inputs, take one minority step at
    the root, and count how often each level-1 node is entered."""
    xs = sample_inputs(2, trials, rng)
    root_pat = level_patterns(xs.reshape(-1), 2)[1]
    del xs
    coin = rng.integers(0, 2, size=trials, dtype=np.int32)
    slot = _DIS_PICK[root_pat, coin]
    if np.any(slot == 255):
        raise SupportError("sampled input has an all-agree root")
    return np.bincount(slot, minlength=4)


# ---------------------------------------------------------------------------
# per-query charge matrices of the minority functionals at height 1

def jk_cost_matrices() -> tuple[CostMatrix, CostMatrix]:
    """Charge matrices whose optimal tree costs are the two height-1
    minority functionals.  The first charges a query of x_i by the
    posterior mass of the input given that leaf i is the minority leaf;
    the second cross-charges a query of x_i against the sibling leaves
    the path could enter instead."""
    dist = d()
    marg = minority_marginals_exact()
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in dist.support():
        for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
            prob[leaf][idx] = p
    cj = [
        [dist.mass(idx) * prob[i][idx] / marg[i] for idx in range(16)]
        for i in range(4)
    ]
    # weight 2/5 on entering the first child, 1/5 on each later child
    coeff = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(1, 4):
        coeff[i][0] = Fraction(2, 5)
    for j in range(1, 4):
        for i in range(4):
            if i != j:
                coeff[i][j] = Fraction(1, 5)
    ck = [
        [
            sum(
                (coeff[i][j] * dist.mass(idx) * prob[j][idx] / marg[j] for j in range(4)),
                Fraction(0),
            )
            for idx in range(16)
        ]
        for i in range(4)
    ]
    return CostMatrix.from_lists(4, cj), CostMatrix.from_lists(4, ck)


# ---------------------------------------------------------------------------
# on-disk format: one "<bitstring> <p>/<q>" line per support point

def dist_to_text(dist: InputDistribution) -> str:
    lines = []
    for idx in dist.support():
        bits = "".join(str(b) for b in index_to_bits(idx, dist.n))
        m = dist.mass(idx)
        lines.append(f"{bits} {m.numerator}/{m.denominator}")
    return "\n".join(lines) + "\n"


def dist_from_text(text: str) -> InputDistribution:
    masses: dict[int, Fraction] = {}
    n: Optional[int] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not re.fullmatch(r"-?\d+/\d+|-?\d+", parts[1]):
            raise ValueError(f"expected '<bits> <p>/<q>': {raw!r}")
        bits = parse_bits(parts[0])
        if n is None:
            n = len(bits)
        elif len(bits) != n:
            raise ValueError(f"bit length mismatch on line {raw!r}")
        idx = bits_to_index(bits)
        if idx in masses:
            raise ValueError(f"duplicate input on line {raw!r}")
        masses[idx] = Fraction(parts[1])
    if n is None:
        raise ValueError("no masses in distribution text")
    return InputDistribution(n, masses)


def save_dist(dist: InputDistribution, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dist_to_text(dist))


def load_dist(path: str) -> InputDistribution:
    with open(path) as fh:
        return dist_from_text(fh.read())
