"""Zero-error randomized evaluation of the iterated gadget.

One gadget instance is evaluated by a mixture of two branches:

  * with probability 1/4, read the tie-breaking first input, then the
    other three in uniformly random order, stopping at the first match
    (output the first input's value; if nothing matches, output its
    complement);
  * with probability 3/4, read the last three inputs in uniformly
    random order with early mismatch detection: two distinct values
    settle the round by reading the first input and outputting it,
    unanimity outputs the common value without touching the first
    input.

Both branches always output the gadget value, so recursing on a tree of
instances reads a random set of leaves but never errs.  The random
intra-branch orders matter: with a fixed order the worst-case expected
read count rises to 4 on its worst input.

Exact per-input expected costs come from enumerating the 12 equally
weighted (branch, order) pairs; Monte Carlo paths reuse the same
enumeration as lookup tables.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfn import _FMAJ_BIT, bits_to_index, index_to_bits, iter_eval, parse_bits
from .harddist import _CUM30, _PAT0, _PAT1, d, dh_support, sample_inputs

MAX_MC_HEIGHT = 12
MAX_EXACT_HEIGHT = 2

_ORDERS = tuple(itertools.permutations((1, 2, 3)))
_FM = np.array(_FMAJ_BIT, dtype=np.uint8)
_POPC = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)


def lv_run(
    x: "str | Sequence[int]", branch: int, order: Sequence[int]
) -> tuple[int, list[int]]:
    """One derandomized round on four bits: returns (output, variables
    read in order).  branch 0 reads the doubled vote first, branch 1
    scans the single votes."""
    bits = parse_bits(x)
    if len(bits) != 4:
        raise ValueError("round runs on exactly four bits")
    if sorted(order) != [1, 2, 3]:
        raise ValueError(f"order must permute the last three variables: {order!r}")
    if branch == 0:
        queried = [0]
        a = bits[0]
        for q in order:
            queried.append(q)
            if bits[q] == a:
                return a, queried
        return 1 - a, queried
    if branch != 1:
        raise ValueError("branch must be 0 or 1")
    q1, q2, q3 = order
    queried = [q1, q2]
    if bits[q1] != bits[q2]:
        queried.append(0)
        return bits[0], queried
    queried.append(q3)
    if bits[q3] == bits[q1]:
        return bits[q1], queried
    queried.append(0)
    return bits[0], queried


# per (branch, order, input) lookup: which variables get read (bit j of
# the mask = variable j) and what the round outputs
_LV_MASK = np.zeros((2, 6, 16), dtype=np.uint8)
_LV_OUT = np.zeros((2, 6, 16), dtype=np.uint8)
for _br in (0, 1):
    for _oi, _order in enumerate(_ORDERS):
        for _pat in range(16):
            _out, _queried = lv_run(index_to_bits(_pat, 4), _br, _order)
            _LV_MASK[_br, _oi, _pat] = sum(1 << q for q in _queried)
            _LV_OUT[_br, _oi, _pat] = _out

_BRANCH_WEIGHT = (Fraction(1, 4), Fraction(3, 4))


def lv_exact_cost(x: "str | Sequence[int]") -> Fraction:
    """Exact expected number of reads on one four-bit input."""
    pat = bits_to_index(parse_bits(x))
    total = Fraction(0)
    for br in (0, 1):
        for oi in range(6):
            total += _BRANCH_WEIGHT[br] * Fraction(1, 6) * int(
                _POPC[_LV_MASK[br, oi, pat]]
            )
    return total


def lv_check_correct() -> bool:
    """Every (input, branch, order) combination outputs the gadget
    value."""
    return all(
        int(_LV_OUT[br, oi, pat]) == _FMAJ_BIT[pat]
        for br in (0, 1)
        for oi in range(6)
        for pat in range(16)
    )


def lv_worst_cost() -> tuple[Fraction, list[int]]:
    """Worst-case expected reads and the inputs attaining it."""
    costs = [lv_exact_cost(index_to_bits(pat, 4)) for pat in range(16)]
    worst = max(costs)
    return worst, [pat for pat, c in enumerate(costs) if c == worst]


def lv_fixed_order_worst(order: Sequence[int] = (1, 2, 3)) -> tuple[Fraction, list[int]]:
    """Worst-case expected reads when both branches use one fixed order
    instead of a random one (only the branch coin remains)."""
    worst = Fraction(0)
    argmax: list[int] = []
    for pat in range(16):
        cost = Fraction(0)
        for br in (0, 1):
            _, queried = lv_run(index_to_bits(pat, 4), br, list(order))
            cost += _BRANCH_WEIGHT[br] * len(queried)
        if cost > worst:
            worst, argmax = cost, [pat]
        elif cost == worst:
            argmax.append(pat)
    return worst, argmax


# probability that a round on the given input reads variable j
_QPROB: list[list[Fraction]] = [
    [
        sum(
            (
                _BRANCH_WEIGHT[br] * Fraction(1, 6)
                for br in (0, 1)
                for oi in range(6)
                if _LV_MASK[br, oi, pat] >> j & 1
            ),
            Fraction(0),
        )
        for j in range(4)
    ]
    for pat in range(16)
]


# ---------------------------------------------------------------------------
# exact recursion (convolution over the instance tree)

def recursive_exact_cost(h: int, x: "str | Sequence[int]") -> Fraction:
    """Exact expected leaf reads of the recursive evaluator on a fixed
    input, by convolving per-node read probabilities with subtree
    costs."""
    if h > MAX_EXACT_HEIGHT:
        raise ValueError(f"exact recursion supports h <= {MAX_EXACT_HEIGHT}")
    bits = parse_bits(x)
    if len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    return _exact_cost(h, bits)


def _exact_cost(h: int, bits: tuple[int, ...]) -> Fraction:
    if h == 0:
        return Fraction(1)
    width = 4 ** (h - 1)
    quarters = [bits[i * width : (i + 1) * width] for i in range(4)]
    vals = tuple(iter_eval(h - 1, q) for q in quarters)
    pat = bits_to_index(vals)
    return sum(
        (_QPROB[pat][j] * _exact_cost(h - 1, quarters[j]) for j in range(4)),
        Fraction(0),
    )


def recursive_exact_mean(h: int) -> Fraction:
    """Exact expected leaf reads under the height-h hard distribution."""
    if h > MAX_EXACT_HEIGHT:
        raise ValueError(f"exact recursion supports h <= {MAX_EXACT_HEIGHT}")
    return sum(
        (m * _exact_cost(h, bits) for bits, m in dh_support(h)), Fraction(0)
    )


def recursive_exact_worst(h: int) -> tuple[Fraction, tuple[int, ...]]:
    """Worst-case exact expected leaf reads over every input, with one
    maximizing input."""
    if h > MAX_EXACT_HEIGHT:
        raise ValueError(f"exact recursion supports h <= {MAX_EXACT_HEIGHT}")
    worst: Optional[Fraction] = None
    arg: tuple[int, ...] = ()
    for idx in range(1 << 4**h):
        bits = index_to_bits(idx, 4**h)
        c = _exact_cost(h, bits)
        if worst is None or c > worst:
            worst, arg = c, bits
    assert worst is not None
    return worst, arg


# ---------------------------------------------------------------------------
# sampling paths

def recursive_run(
    h: int, x: "str | Sequence[int]", rng: np.random.Generator
) -> tuple[int, int]:
    """One randomized evaluation of a fixed input: (output, leaf reads)."""
    bits = parse_bits(x)
    if len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    return _run_node(h, bits, rng)


def recursive_cost_sample(
    h: int, x: "str | Sequence[int]", rng: np.random.Generator
) -> int:
    """Leaf reads of one randomized evaluation of a fixed input."""
    return recursive_run(h, x, rng)[1]


def _run_node(
    h: int, bits: tuple[int, ...], rng: np.random.Generator
) -> tuple[int, int]:
    if h == 0:
        return bits[0], 1
    width = 4 ** (h - 1)
    vals: dict[int, int] = {}
    cost = 0

    def read(j: int) -> int:
        nonlocal cost
        if j not in vals:
            v, c = _run_node(h - 1, bits[j * width : (j + 1) * width], rng)
            vals[j] = v
            cost += c
        return vals[j]

    out = _round(read, rng)
    return out, cost


def _sampled_node(h: int, b: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """Evaluate one node whose input is drawn on the fly from the
    height-h law conditioned on value b: (output, leaf reads, errors).
    Only the subtrees the evaluator actually reads are materialized, so
    any height is cheap."""
    if h == 0:
        return b, 1, 0
    pat = index_to_bits(_seed_draw(b, rng), 4)
    vals: dict[int, int] = {}
    cost = 0
    errors = 0

    def read(j: int) -> int:
        nonlocal cost, errors
        if j not in vals:
            v, c, e = _sampled_node(h - 1, pat[j], rng)
            vals[j] = v
            cost += c
            errors += e
        return vals[j]

    out = _round(read, rng)
    return out, cost, errors + (out != b)


def _seed_draw(b: int, rng: np.random.Generator) -> int:
    u = int(rng.integers(0, 30))
    cat = int(np.searchsorted(_CUM30, u, side="right"))
    return int(_PAT0[cat]) if b == 0 else int(_PAT1[cat])


def _round(read, rng: np.random.Generator) -> int:
    """The two-branch round against a read callback."""
    branch = 0 if int(rng.integers(0, 4)) == 0 else 1
    order = _ORDERS[int(rng.integers(0, 6))]
    if branch == 0:
        a = read(0)
        for q in order:
            if read(q) == a:
                return a
        return 1 - a
    q1, q2, q3 = order
    v1 = read(q1)
    if read(q2) != v1:
        return read(0)
    if read(q3) == v1:
        return v1
    return read(0)


@dataclass(frozen=True)
class McReport:
    trials: int
    mean: Fraction
    stderr: float
    errors: int


def mc_mean_cost(
    h: int,
    trials: int,
    rng: np.random.Generator,
    *,
    x: "str | Sequence[int] | None" = None,
    threads: int = 1,
) -> McReport:
    """Monte Carlo mean leaf reads: on a fixed input x, or under the
    height-h hard distribution when x is None.  The trial budget is
    split over 64 fixed substreams, so results do not depend on the
    thread count."""
    if h > MAX_MC_HEIGHT:
        raise ValueError(f"Monte Carlo supports h <= {MAX_MC_HEIGHT}")
    if trials < 1:
        raise ValueError("need at least one trial")
    bits = None if x is None else parse_bits(x)
    if bits is not None and len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    chunks = min(64, trials)
    streams = rng.spawn(chunks)
    sizes = [trials // chunks + (1 if i < trials % chunks else 0) for i in range(chunks)]

    def work(args: tuple[np.random.Generator, int]) -> tuple[int, int, int]:
        sub, count = args
        if h <= 2:
            return _mc_chunk_vector(h, count, sub, bits)
        return _mc_chunk_scalar(h, count, sub, bits)

    jobs = list(zip(streams, sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    errors = sum(r[2] for r in results)
    mean = Fraction(total, trials)
    var = float(Fraction(total_sq, trials) - mean * mean)
    stderr = (var / trials) ** 0.5
    return McReport(trials, mean, stderr, errors)


def _mc_chunk_scalar(
    h: int, count: int, rng: np.random.Generator, bits: Optional[tuple[int, ...]]
) -> tuple[int, int, int]:
    total = total_sq = errors = 0
    for _ in range(count):
        if bits is None:
            b = int(rng.integers(0, 2))
            out, cost, err = _sampled_node(h, b, rng)
            errors += err
        else:
            out, cost = _run_node(h, bits, rng)
            errors += out != iter_eval(h, bits)
        total += cost
        total_sq += cost * cost
    return total, total_sq, errors


def _mc_chunk_vector(
    h: int, count: int, rng: np.random.Generator, bits: Optional[tuple[int, ...]]
) -> tuple[int, int, int]:
    if h == 0:
        # a leaf is read outright; sampling only fixes its value
        return count, count, 0
    if bits is None:
        xs = sample_inputs(h, count, rng)
    else:
        xs = np.tile(np.array(bits, dtype=np.uint8), (count, 1))
    weights = np.array([8, 4, 2, 1], dtype=np.int64)
    if h == 1:
        pats = xs @ weights
        br = (rng.integers(0, 4, size=count, dtype=np.int64) != 0).astype(np.int64)
        oi = rng.integers(0, 6, size=count, dtype=np.int64)
        cost = _POPC[_LV_MASK[br, oi, pats]].astype(np.int64)
        errors = int(np.count_nonzero(_LV_OUT[br, oi, pats] != _FM[pats]))
        return int(cost.sum()), int((cost * cost).sum()), errors
    quarters = xs.reshape(count, 4, 4) @ weights
    level1 = _FM[quarters]
    root_pat = level1 @ weights
    br_r = (rng.integers(0, 4, size=count, dtype=np.int64) != 0).astype(np.int64)
    oi_r = rng.integers(0, 6, size=count, dtype=np.int64)
    mask_r = _LV_MASK[br_r, oi_r, root_pat]
    out_r = _LV_OUT[br_r, oi_r, root_pat]
    br_c = (rng.integers(0, 4, size=(count, 4), dtype=np.int64) != 0).astype(np.int64)
    oi_c = rng.integers(0, 6, size=(count, 4), dtype=np.int64)
    mask_c = _LV_MASK[br_c, oi_c, quarters]
    out_c = _LV_OUT[br_c, oi_c, quarters]
    cost = np.zeros(count, dtype=np.int64)
    bad = np.zeros(count, dtype=bool)
    for j in range(4):
        used = ((mask_r >> j) & 1).astype(bool)
        cost += used * _POPC[mask_c[:, j]].astype(np.int64)
        bad |= used & (out_c[:, j] != level1[:, j])
    bad |= out_r != _FM[root_pat]
    return int(cost.sum()), int((cost * cost).sum()), int(np.count_nonzero(bad))


# ---------------------------------------------------------------------------
# goodness-of-fit helper

@dataclass(frozen=True)
class GofReport:
    stat: float
    df: int
    critical: float
    impossible_hits: int
    ok: bool


def chi_square_gof(
    counts: Sequence[int], probs: Sequence[Fraction], alpha: float = 1e-3
) -> GofReport:
    """Pearson chi-square against exact cell probabilities.  Cells of
    probability zero must stay empty and are excluded from the
    statistic."""
    counts = list(int(c) for c in counts)
    probs = [Fraction(p) for p in probs]
    if len(counts) != len(probs):
        raise ValueError("counts and probs length mismatch")
    if sum(probs) != 1:
        raise ValueError("cell probabilities must sum to 1")
    n = sum(counts)
    impossible = sum(c for c, p in zip(counts, probs) if p == 0)
    stat = 0.0
    cells = 0
    for c, p in zip(counts, probs):
        if p == 0:
            continue
        expected = float(p) * n
        stat += (c - expected) ** 2 / expected
        cells += 1
    df = cells - 1
    # scipy.stats takes over a second to import; only this check needs it
    from scipy.stats import chi2

    critical = float(chi2.isf(alpha, df))
    return GofReport(stat, df, critical, impossible, impossible == 0 and stat <= critical)


# ---------------------------------------------------------------------------
# the embedding of one instance into a sampled neighborhood

_NONUNANIMOUS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_SLOT_PROBS = (Fraction(1, 5), Fraction(4, 15), Fraction(4, 15), Fraction(4, 15))


@dataclass(frozen=True)
class Restriction:
    """A sampled placement: the embedded instance goes to child
    ``slot``, the other children are pinned to ``sibling_values`` and
    filled with blocks drawn from the matching conditioned law."""

    level: int
    slot: int
    sibling_values: tuple[tuple[int, int], ...]  # (slot, value) pairs
    fills: tuple[tuple[int, tuple[int, ...]], ...]  # (slot, block) pairs


class EmbeddingSampler:
    """Samples placements of a height-(level-1) instance as one child of
    a level-``level`` node, such that the embedded instance's value
    always propagates to the node, and a uniform embedded value makes
    the node's children exactly follow the one-level hard law."""

    def __init__(self, level: int):
        if level not in (1, 2):
            raise ValueError("embedding is implemented for levels 1 and 2")
        self.level = level

    def sample(self, rng: np.random.Generator) -> Restriction:
        r = int(rng.integers(0, 15))
        slot = 0 if r < 3 else 1 + (r - 3) // 4
        if slot == 0:
            k = int(rng.integers(0, 6))
            sib = _NONUNANIMOUS[k]
            values = tuple((j + 1, sib[j]) for j in range(3))
        else:
            c = int(rng.integers(0, 2))
            values = tuple(
                (j, c if j == 0 else 1 - c) for j in range(4) if j != slot
            )
        from .harddist import _dhb_sample

        fills = tuple(
            (j, _dhb_sample(self.level - 1, v, rng)) for j, v in values
        )
        return Restriction(self.level, slot, values, fills)

    def lift(
        self, embedded: "str | Sequence[int]", rest: Restriction
    ) -> tuple[int, ...]:
        """Assemble the full level-``level`` input around the embedded
        block."""
        width = 4 ** (self.level - 1)
        emb = parse_bits(embedded)
        if len(emb) != width:
            raise ValueError(f"embedded block must have {width} bits")
        blocks: dict[int, tuple[int, ...]] = {rest.slot: emb}
        for j, fill in rest.fills:
            blocks[j] = fill
        return sum((blocks[j] for j in range(4)), ())


def embedding_children_law_exact() -> dict[int, Fraction]:
    """Exact law of the four children values when the embedded value is
    a fair coin, by enumerating the sampler's finite randomness."""
    law: dict[int, Fraction] = {}

    def add(pattern: list[int], p: Fraction) -> None:
        idx = bits_to_index(tuple(pattern))
        law[idx] = law.get(idx, Fraction(0)) + p

    for wval in (0, 1):
        base = Fraction(1, 2)
        for k in range(6):
            sib = _NONUNANIMOUS[k]
            add([wval, *sib], base * _SLOT_PROBS[0] * Fraction(1, 6))
        for slot in (1, 2, 3):
            for c in (0, 1):
                pattern = [0] * 4
                pattern[slot] = wval
                for j in range(4):
                    if j == slot:
                        continue
                    pattern[j] = c if j == 0 else 1 - c
                add(pattern, base * _SLOT_PROBS[slot] * Fraction(1, 2))
    return {idx: p for idx, p in law.items() if p != 0}


def minority_conditionals_exact() -> dict[tuple[int, int], Fraction]:
    """Exact probability that the minority path leaves through child j
    given the embedded instance sits at child i, over the sampler's
    randomness with a fair embedded value."""
    joint: dict[tuple[int, int], Fraction] = {}
    for wval in (0, 1):
        base = Fraction(1, 2)
        outcomes: list[tuple[int, list[int], Fraction]] = []
        for k in range(6):
            sib = _NONUNANIMOUS[k]
            outcomes.append((0, [wval, *sib], base * _SLOT_PROBS[0] * Fraction(1, 6)))
        for slot in (1, 2, 3):
            for c in (0, 1):
                pattern = [0] * 4
                pattern[slot] = wval
                for j in range(4):
                    if j != slot:
                        pattern[j] = c if j == 0 else 1 - c
                outcomes.append((slot, pattern, base * _SLOT_PROBS[slot] * Fraction(1, 2)))
        for slot, pattern, p in outcomes:
            pat_idx = bits_to_index(tuple(pattern))
            v = _FMAJ_BIT[pat_idx]
            dis = [j for j in range(4) if pattern[j] != v]
            assert dis, "sampled children never agree unanimously"
            for j in dis:
                key = (slot, j)
                joint[key] = joint.get(key, Fraction(0)) + p / len(dis)
    out: dict[tuple[int, int], Fraction] = {}
    for i in range(4):
        for j in range(4):
            out[(i, j)] = joint.get((i, j), Fraction(0)) / _SLOT_PROBS[i]
    return out


@dataclass(frozen=True)
class EmbedReport:
    trials: int
    slot_counts: tuple[int, ...]
    slot_ok: bool
    chi2: GofReport
    bad_majority: int
    bad_value: int

    @property
    def ok(self) -> bool:
        return (
            self.slot_ok
            and self.chi2.ok
            and self.bad_majority == 0
            and self.bad_value == 0
        )


def embed_check(
    level: int, trials: int, rng: np.random.Generator, alpha: float = 1e-3
) -> EmbedReport:
    """Monte Carlo audit of the embedding: placement frequencies within
    four sigma of (1/5, 4/15, 4/15, 4/15), children patterns passing a
    chi-square against the one-level hard law, and two structural
    checks that must never fire: the embedded node dissenting from its
    parent, or a lifted input evaluating differently from the embedded
    block."""
    if level not in (1, 2):
        raise ValueError("embedding is implemented for levels 1 and 2")
    r = rng.integers(0, 15, size=trials, dtype=np.int64)
    slot = np.where(r < 3, 0, 1 + (r - 3) // 4)
    k6 = rng.integers(0, 6, size=trials, dtype=np.int64)
    c2 = rng.integers(0, 2, size=trials, dtype=np.int64)
    wval = rng.integers(0, 2, size=trials, dtype=np.int64)

    sibs = np.array(_NONUNANIMOUS, dtype=np.int64)  # (6, 3)
    values = np.zeros((trials, 4), dtype=np.int64)
    at0 = slot == 0
    values[at0, 1:] = sibs[k6[at0]]
    for s in (1, 2, 3):
        here = slot == s
        for j in range(4):
            if j == s:
                continue
            values[here, j] = np.where(j == 0, c2[here], 1 - c2[here])
    np.put_along_axis(values, slot[:, None], wval[:, None], axis=1)

    weights = np.array([8, 4, 2, 1], dtype=np.int64)
    pattern = values @ weights
    vroot = _FM[pattern].astype(np.int64)

    # (a) the embedded node must never dissent from the parent value
    wbit = np.take_along_axis(values, slot[:, None], axis=1)[:, 0]
    bad_majority = int(np.count_nonzero(wbit != vroot))

    # (b) with the embedded value flipped the parent must follow; both
    # settings together cover every embedded input exhaustively
    flipped = pattern ^ (8 >> slot)
    bad_value = int(np.count_nonzero((1 - wbit) != _FM[flipped].astype(np.int64)))

    if level == 2:
        # sampled sibling blocks must carry their assigned values
        draws = rng.integers(0, 30, size=(trials, 4), dtype=np.int64)
        cat = np.searchsorted(_CUM30, draws, side="right")
        fills = np.where(values == 0, _PAT0[cat], _PAT1[cat])
        fill_vals = _FM[fills].astype(np.int64)
        sib_ok = (fill_vals == values) | (
            np.arange(4)[None, :] == slot[:, None]
        )
        bad_value += int(np.count_nonzero(~sib_ok))

    counts = tuple(int(c) for c in np.bincount(slot, minlength=4))
    slot_ok = True
    for i in range(4):
        p = float(_SLOT_PROBS[i])
        sigma = (p * (1 - p) / trials) ** 0.5
        if abs(counts[i] / trials - p) > 4 * sigma:
            slot_ok = False

    pat_counts = np.bincount(pattern, minlength=16)
    gof = chi_square_gof(
        [int(c) for c in pat_counts], d().dense(), alpha=alpha
    )
    return EmbedReport(trials, counts, slot_ok, gof, bad_majority, bad_value)
