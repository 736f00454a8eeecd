"""The recursively balanced input distribution that makes the iterated
gadget expensive, the minority-path process over it, and the height-1
minority functionals J and K.

The one-level seed puts mass 2/5 on the input whose first bit dissents
alone, 1/6 on each input where the first bit joins a two-two tie on the
other three, and 1/30 on each input with a lone dissent among the last
three; the all-agree input gets mass zero.  Conditioned on the root
value b (fair coin), children patterns are drawn from the seed for b
and each subtree recurses on its child's value.  Every seed mass is a
whole number of thirtieths, so the seed is one literal of integer
masses and the rest derives from it: one draw table, the law's only
sampler, looks up a node's children pattern by its value and one
integer below 30; the exact masses are integer weights over one common
denominator, and d0, d1 and d are those weights as exact laws.  An
exact law on {0,1}^n is a tuple of 2**n Fractions, one mass per input
in index order, the form CostMatrix.uniform, delta0 and chi_square_gof
read.  An input fixes every node's value, so its mass is one product
over the internal nodes that `boolfn.level_patterns` lists.

The minority path starts at the root and repeatedly steps into a child
disagreeing with its parent's value: a unique dissenter is taken
outright, two dissenters are split by a fair coin, and zero dissenters
only happens off the support (SupportError).  Three dissenters cannot
happen, since the first child's doubled vote caps dissent at two.  One
table of picks by children pattern and coin is the whole step: the
exact leaf law walks it down the level patterns, and over the draw
table it gives the first step's 120 equally likely outcomes, whose
counts are the exact marginals and which the minority tally samples
one index per trial.  Charging each query by where that path goes gives
the cost matrices of the J and K functionals, whose optimal zero-error
trees ``dtree`` computes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .boolfn import (
    _FMAJ_BIT,
    MAX_VARS,
    bits_to_index,
    fmaj,
    index_to_bits,
    input_bits,
    level_patterns,
    tree_bits,
)

if TYPE_CHECKING:
    from .dtree import CostMatrix

MAX_ENUM_HEIGHT = 2


class SupportError(ValueError):
    """Raised when the minority path hits a node all of whose children
    agree with it, which has probability zero under the distribution."""


_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# the four-bit seed and its closure under complement

# _SEED30: the value-0 seed's children patterns in threshold order, with
# their masses in thirtieths; the value-1 seed is the bitwise complement
_SEED30 = {"1000": 12, "0011": 5, "0101": 5, "0110": 5, "0001": 1, "0010": 1, "0100": 1}
# _DRAW30[v, u]: the children pattern a base-30 draw u picks at a node of
# value v; each seed pattern covers as many draws as its mass
_DRAW30 = np.repeat(
    np.array([[bits_to_index(s) ^ 15 * v for s in _SEED30] for v in (0, 1)], dtype=np.uint8),
    list(_SEED30.values()),
    axis=1,
)
# _SEED_W[v, p]: the seed mass, in thirtieths, of children pattern p at a
# node of value v
_SEED_W = np.stack([np.bincount(row, minlength=16) for row in _DRAW30])
# _W30[p]: the same mass at a node of p's own value f(p); the other
# value's seed never draws p
_W30 = _SEED_W.sum(axis=0)


def _law(weights: np.ndarray, denom: int) -> tuple[Fraction, ...]:
    """The law of input idx with mass weights[idx] / denom."""
    return tuple(Fraction(w, denom) if w else _ZERO for w in weights.tolist())


def d0() -> tuple[Fraction, ...]:
    """Children-pattern law at a node of value 0."""
    return _law(_SEED_W[0], 30)


def d1() -> tuple[Fraction, ...]:
    """Children-pattern law at a node of value 1: bitwise complement."""
    return _law(_SEED_W[1], 30)


def d() -> tuple[Fraction, ...]:
    """Equal mixture of the two one-level laws; this is the hard input
    distribution at height 1."""
    return _law(_W30, 60)


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


def _dh_weights(h: int) -> np.ndarray:
    """Every input's weight over _denominator(h), in index order: the
    product of _W30 over its level patterns, at most 12**5 at height 2,
    so int64."""
    if not 0 <= h <= MAX_ENUM_HEIGHT:
        raise ValueError(f"exact laws support 0 <= h <= {MAX_ENUM_HEIGHT}")
    inputs = 1 << 4**h
    weights = np.ones(inputs, dtype=np.int64)
    for pat in level_patterns(input_bits(4**h).ravel(), h):
        weights *= _W30[pat].reshape(inputs, -1).prod(axis=1)
    return weights


def dh_law(h: int) -> tuple[Fraction, ...]:
    """The height-h distribution as an exact law over every input."""
    return _law(_dh_weights(h), _denominator(h))


def dh_total(h: int) -> tuple[int, Fraction]:
    """Size and exact total mass of the height-h support, over every
    input."""
    weights = _dh_weights(h)
    return int(np.count_nonzero(weights)), Fraction(int(weights.sum()), _denominator(h))


def _denominator(h: int) -> int:
    """2 * 30**(internal nodes): a fair root coin times one seed draw,
    in thirtieths, per internal node."""
    return 2 * 30 ** ((4**h - 1) // 3)


def batch_sizes(h: int, trials: int) -> Iterator[int]:
    """Sizes of the batches, in order, that tally and the Monte Carlo
    evaluator split trials of height h into: 2**20 // 4**h trials, at
    least one, so a batch of height-h trees holds at most 2**20 leaves up
    to height 10 and one tree above, whatever the trial count."""
    size = max(1, 2**20 // 4**h)
    for start in range(0, trials, size):
        yield min(size, trials - start)


def tally(outcomes: int, h: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """How often each of ``outcomes`` equally likely outcomes comes up in
    ``trials`` uniform draws, made in the batches of batch_sizes(h,
    trials)."""
    return sum(
        np.bincount(rng.integers(0, outcomes, size=n, dtype=np.uint16), minlength=outcomes)
        for n in batch_sizes(h, trials)
    )


# ---------------------------------------------------------------------------
# the minority path

# _DIS_PICK[p, c]: the slot (0 = first child) of the child the minority
# path takes from a node of children pattern p on a fair coin c: coin 0
# takes the first child disagreeing with f(p), coin 1 the last, and 255
# marks a pattern with no dissenter, which only lies off the support.
# The doubled first vote caps the dissenters at two.
_DIS_PICK = np.full((16, 2), 255, dtype=np.uint8)
for _pat in range(16):
    _dis = [j for j in range(4) if (_pat >> (3 - j) & 1) != _FMAJ_BIT[_pat]]
    assert len(_dis) <= 2, _pat
    if _dis:
        _DIS_PICK[_pat] = _dis[0], _dis[-1]


def minority_leaf_law(h: int, x: "str | Sequence[int]") -> dict[int, Fraction]:
    """Exact law of the leaf, a 0-based input position, at which the
    minority path of one input ends: top down over the level patterns,
    each node on the path passes half its probability to the child each
    coin picks."""
    pats = level_patterns(tree_bits(h, x), h)
    law = {0: Fraction(1)}
    for k in range(h, 0, -1):
        step: dict[int, Fraction] = {}
        for node, prob in law.items():
            for j in _DIS_PICK[pats[k - 1][node]].tolist():
                if j == 255:
                    raise SupportError(f"node at level {k} has no dissenting child")
                step[4 * node + j] = step.get(4 * node + j, 0) + prob / 2
        law = step
    return law


def minority_marginals_exact() -> tuple[Fraction, ...]:
    """Marginal law of the root's child that the minority path enters.
    At every height the root's children pattern follows d(), so the step
    has 120 equally likely outcomes: the root's value, its base-30 draw
    into _DRAW30 and the coin."""
    counts = np.bincount(_DIS_PICK[_DRAW30].ravel(), minlength=4)[:4].tolist()
    return tuple(Fraction(c, 120) for c in counts)


def minority_level1_counts(trials: int, rng: np.random.Generator) -> np.ndarray:
    """How often the minority path's first step at a height-2 root enters
    each level-1 node: the step's 120 outcomes, as minority_marginals_exact
    counts them, are judged whole, then each trial draws one."""
    steps = _DIS_PICK[_DRAW30].ravel()
    if np.any(steps == 255):
        # off the support, so only a broken table gets here
        raise RuntimeError("the draw table gave an all-agree root")
    hits = tally(steps.size, 2, trials, rng)
    return np.bincount(steps, weights=hits, minlength=4).astype(np.int64)


# ---------------------------------------------------------------------------
# the minority functionals at height 1 and their per-query charges

def jk_cost_matrices() -> tuple[CostMatrix, CostMatrix]:
    """Charge matrices whose optimal tree costs are the two height-1
    minority functionals.  The first charges a query of x_i by the
    posterior mass of the input given that leaf i is the minority leaf;
    the second cross-charges it by the posterior of each other leaf j
    the path could enter instead, weighted by j's marginal, which sums to
    the mass of the input times the chance that the path misses leaf i."""
    from .dtree import CostMatrix

    dist = d()
    marg = minority_marginals_exact()
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx, mass in enumerate(dist):
        if mass:
            for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
                prob[leaf][idx] = p
    cj = [[m * prob[i][idx] / marg[i] for idx, m in enumerate(dist)] for i in range(4)]
    ck = [[m * (1 - prob[i][idx]) for idx, m in enumerate(dist)] for i in range(4)]
    return CostMatrix.from_lists(4, cj), CostMatrix.from_lists(4, ck)


def jk_values() -> tuple[Fraction, Fraction, Fraction]:
    """The height-1 minority functionals (J(1,0), K(1,1), J(1,1)), each
    a minimum over zero-error trees for fmaj.  J(1,0) counts a queried
    leaf only when it is itself the minority leaf, K(1,1) is the cross
    charge, both under jk_cost_matrices; J(1,1) counts every queried
    leaf, since the level-1 node on the path is the root, so it is the
    expected query count delta0 under d()."""
    from .dtree import delta0, min_weighted_zero_error

    cj, ck = jk_cost_matrices()
    return (
        min_weighted_zero_error(fmaj(), cj).value,
        min_weighted_zero_error(fmaj(), ck).value,
        delta0(fmaj(), d()),
    )


# ---------------------------------------------------------------------------
# on-disk format: one "<bitstring> <p>/<q>" line per input of nonzero
# mass, in index order; an integer mass may omit "/<q>"

_MASS = re.compile(r"(-?\d+)(?:/(\d+))?")
_BITS = re.compile(r"[01]+")


def dist_to_text(dist: Sequence[Fraction]) -> str:
    n = len(dist).bit_length() - 1
    lines = [f"{idx:0{n}b} {m.numerator}/{m.denominator}" for idx, m in enumerate(dist) if m]
    return "\n".join(lines) + "\n"


def dist_from_text(text: str) -> tuple[Fraction, ...]:
    """The law a .dist text gives, refusing bit strings of unequal
    lengths or of more than MAX_VARS bits, a repeated input, a zero
    denominator, a negative mass and a total other than 1.  A line of
    mass zero is allowed and adds nothing."""
    masses: dict[int, Fraction] = {}
    n: Optional[int] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        mass = len(parts) == 2 and _MASS.fullmatch(parts[1])
        if not mass:
            raise ValueError(f"expected '<bits> <p>/<q>': {raw!r}")
        bits = parts[0]
        if not _BITS.fullmatch(bits):
            raise ValueError(f"not a bit string: {bits!r}")
        if n is None:
            n = len(bits)
            # refused before the law's 2**n entries are allocated
            if n > MAX_VARS:
                raise ValueError(f"more than {MAX_VARS} bits on line {raw!r}")
        elif len(bits) != n:
            raise ValueError(f"bit length mismatch on line {raw!r}")
        idx = int(bits, 2)
        if idx in masses:
            raise ValueError(f"duplicate input on line {raw!r}")
        p, q = mass.groups("1")
        try:
            m = Fraction(int(p), int(q))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator on line {raw!r}") from None
        if m.numerator < 0:
            raise ValueError(f"negative mass at index {idx}")
        masses[idx] = m
    if n is None:
        raise ValueError("no masses in distribution text")
    # summed in integers over the common denominator, not in Fractions
    denom = math.lcm(*(m.denominator for m in masses.values()))
    if sum(m.numerator * (denom // m.denominator) for m in masses.values()) != denom:
        raise ValueError("masses do not sum to 1")
    law = [_ZERO] * (1 << n)
    for idx, m in masses.items():
        law[idx] = m
    return tuple(law)


def save_dist(dist: Sequence[Fraction], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dist_to_text(dist))


def load_dist(path: str) -> tuple[Fraction, ...]:
    with open(path) as fh:
        return dist_from_text(fh.read())
