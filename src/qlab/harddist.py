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
and the exact enumeration carries integer weights over one common
denominator.

The minority path starts at the root and repeatedly steps into a child
disagreeing with its parent's value: a unique dissenter is taken
outright, two dissenters are split by a fair coin, and zero dissenters
only happens off the support (SupportError).  Three dissenters cannot
happen, since the first child's doubled vote caps dissent at two.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .boolfn import _FMAJ_BIT, bits_to_index, index_to_bits, iter_eval, parse_bits
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


def _seed(b: int) -> InputDistribution:
    return d0() if b == 0 else d1()


# ---------------------------------------------------------------------------
# the height-h distribution

def dh_mass(h: int, x: "str | Sequence[int]") -> Fraction:
    """Exact mass of one input under the height-h distribution."""
    bits = parse_bits(x)
    if len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    return (_dhb_mass(h, 0, bits) + _dhb_mass(h, 1, bits)) / 2


def _dhb_mass(h: int, b: int, bits: tuple[int, ...]) -> Fraction:
    if h == 0:
        return Fraction(1) if bits == (b,) else Fraction(0)
    width = 4 ** (h - 1)
    quarters = [bits[i * width : (i + 1) * width] for i in range(4)]
    child_vals = tuple(iter_eval(h - 1, q) for q in quarters)
    base = _seed(b).mass(bits_to_index(child_vals))
    if base == 0:
        return Fraction(0)
    out = base
    for bv, q in zip(child_vals, quarters):
        out *= _dhb_mass(h - 1, bv, q)
        if out == 0:
            return out
    return out


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
    """2 * 30**(internal nodes): a fair root coin times one seed draw,
    in thirtieths, per internal node."""
    if h > MAX_ENUM_HEIGHT:
        raise ValueError(f"support enumeration supports h <= {MAX_ENUM_HEIGHT}")
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
_SHIFTS = np.array([3, 2, 1, 0], dtype=np.uint8)


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

# for parent value v and children pattern p: number of dissenting
# children and the first/second dissenting slots (slot 0 = first child)
_DIS_COUNT = np.zeros((2, 16), dtype=np.uint8)
_DIS_FIRST = np.full((2, 16), 255, dtype=np.uint8)
_DIS_SECOND = np.full((2, 16), 255, dtype=np.uint8)
for _v in (0, 1):
    for _p in range(16):
        slots = [j for j in range(4) if ((_p >> (3 - j)) & 1) != _v]
        if _FMAJ_BIT[_p] == _v:
            # the doubled first vote caps dissent against the actual
            # node value at two
            assert len(slots) <= 2
        _DIS_COUNT[_v, _p] = len(slots)
        if slots:
            _DIS_FIRST[_v, _p] = slots[0]
        if len(slots) == 2:
            _DIS_SECOND[_v, _p] = slots[1]


def _dissent_slots(v: int, pat_idx: int) -> list[int]:
    return [j for j in range(4) if ((pat_idx >> (3 - j)) & 1) != v]


class MinorityModel:
    """The minority path of one input: exact leaf distribution and a
    path sampler.  Leaf indices are 0-based positions in the input."""

    def __init__(self, h: int, x: "str | Sequence[int]"):
        self.h = h
        self.bits = parse_bits(x)
        if len(self.bits) != 4**h:
            raise ValueError(f"input length {len(self.bits)} != 4**{h}")

    def _children(self, level: int, node: int) -> tuple[int, tuple[int, ...]]:
        """Children-pattern index and child values of a node, given as
        (level, index within level)."""
        width = 4 ** (level - 1)
        base = node * 4
        vals = tuple(
            iter_eval(
                level - 1,
                self.bits[(base + i) * width : (base + i + 1) * width],
            )
            for i in range(4)
        )
        return bits_to_index(vals), vals

    def leaf_distribution(self) -> dict[int, Fraction]:
        """Exact law of the leaf the path ends at."""
        out: dict[int, Fraction] = {}

        def walk(level: int, node: int, v: int, prob: Fraction) -> None:
            if level == 0:
                out[node] = out.get(node, Fraction(0)) + prob
                return
            pat_idx, vals = self._children(level, node)
            slots = _dissent_slots(v, pat_idx)
            if not slots:
                raise SupportError(
                    f"node at level {level} has no dissenting child"
                )
            share = prob / len(slots)
            for j in slots:
                walk(level - 1, node * 4 + j, vals[j], share)

        walk(self.h, 0, iter_eval(self.h, self.bits), Fraction(1))
        return out


def minority_marginals_exact(h: int = 1) -> tuple[Fraction, ...]:
    """Marginal law of the level-(h-1) node on the minority path under
    the height-h distribution, computed by full enumeration."""
    if h > MAX_ENUM_HEIGHT:
        raise ValueError(f"exact marginals support h <= {MAX_ENUM_HEIGHT}")
    totals = [Fraction(0)] * 4
    for bits, m in dh_support(h):
        model = MinorityModel(h, bits)
        pat_idx, vals = model._children(h, 0)
        slots = _dissent_slots(iter_eval(h, bits), pat_idx)
        share = Fraction(1, len(slots))
        for j in slots:
            totals[j] += m * share
    return tuple(totals)


_FM = np.array(_FMAJ_BIT, dtype=np.uint8)


def _patterns(quads: np.ndarray) -> np.ndarray:
    """Children-pattern indices of uint8 bit quadruples along the last
    axis, x_1 the high bit, in uint8."""
    pat = quads[..., 0] << 3
    pat |= quads[..., 1] << 2
    pat |= quads[..., 2] << 1
    pat |= quads[..., 3]
    return pat


def minority_level1_counts(
    trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized height-2 run: sample inputs, take one minority step at
    the root, and count how often each level-1 node is entered."""
    xs = sample_inputs(2, trials, rng)
    level1 = _FM[_patterns(xs.reshape(trials, 4, 4))]
    del xs
    root_pat = _patterns(level1)
    root_val = _FM[root_pat]
    count = _DIS_COUNT[root_val, root_pat]
    if np.any(count == 0):
        raise SupportError("sampled input has an all-agree root")
    first = _DIS_FIRST[root_val, root_pat]
    second = _DIS_SECOND[root_val, root_pat]
    coin = rng.integers(0, 2, size=trials, dtype=np.int32)
    slot = np.where((count == 2) & (coin == 1), second, first)
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
    marg = minority_marginals_exact(1)
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in dist.support():
        model = MinorityModel(1, index_to_bits(idx, 4))
        for leaf, p in model.leaf_distribution().items():
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
