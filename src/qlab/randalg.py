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

The round's coins amount to 24 equally likely rounds, six of branch 0
and eighteen of branch 1, each order equally often.  The exact
recursions for the mean and variance of the read count and the
level-by-level Monte Carlo evaluator all read the lookup tables of
those rounds, built once from ``lv_run``.  On a fixed input both take
the nodes' children patterns from ``boolfn.level_patterns``.

The embedding audit samples placements of one instance inside a
neighborhood through lookup tables too, in uint8, and its exact laws
enumerate the same tables' 360 equally likely outcomes.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfn import (
    _FM,
    _FMAJ_BIT,
    _SHIFTS,
    bits_to_index,
    index_to_bits,
    level_patterns,
    parse_bits,
    tree_bits,
)
from .harddist import _CAT30, _DISSENT, _PATS, d, d0, d1

MAX_MC_HEIGHT = 12

_ORDERS = tuple(itertools.permutations((1, 2, 3)))
_POPC = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)
# _MASK_BITS[mask, j]: whether a read mask includes variable j
_MASK_BITS = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(bool)


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


# the round's randomness as 24 equally likely rounds: rounds 0-5 take
# branch 0 (probability 1/4), and round r reads in order _ORDERS[r % 6]
_ROUND_BRANCH = (np.arange(24) >= 6).astype(np.intp)
_ROUND_MASK = _LV_MASK[_ROUND_BRANCH, np.arange(24) % 6]
_ROUND_OUT = _LV_OUT[_ROUND_BRANCH, np.arange(24) % 6]

# rounds out of the 24 that read variable j on the given input, and the
# probability that a round does; likewise for reading both j and l
_READ = _MASK_BITS[_ROUND_MASK].astype(np.int64)
_READS24 = _READ.sum(axis=0)
_PAIRS = tuple(itertools.combinations(range(4), 2))
_PAIRS24 = np.stack([_READ[..., j] * _READ[..., l] for j, l in _PAIRS], axis=-1).sum(axis=0)
_QPROB: list[list[Fraction]] = [[Fraction(int(c), 24) for c in row] for row in _READS24]
_QPAIR: list[list[Fraction]] = [[Fraction(int(c), 24) for c in row] for row in _PAIRS24]


# ---------------------------------------------------------------------------
# exact recursion over the instance tree
#
# Given its children's values, a node's subtrees are independent, so the
# expected reads follow a recursion over node values in the style of
# Saks and Wigderson's game-tree bounds.

def _step(pat: int, below: Sequence[Fraction]) -> Fraction:
    """Expected reads of a node with children pattern pat when a child
    of value v costs below[v] in expectation."""
    return sum(
        (q * below[pat >> (3 - j) & 1] for j, q in enumerate(_QPROB[pat])),
        Fraction(0),
    )


def _second_step(pat: int, means: Sequence[Fraction], seconds: Sequence[Fraction]) -> Fraction:
    """Second moment of a node's reads on children pattern pat when a
    child of value v has reads of mean means[v] and second moment
    seconds[v]: the node reads the sum over the children its round
    reads, independent of one another given their values, so it is
    sum_j q_j S_j + 2 sum_{j < l} q_jl M_j M_l, q_jl being the
    probability that the round reads both j and l."""
    child = [pat >> (3 - j) & 1 for j in range(4)]
    return sum(
        (q * seconds[child[j]] for j, q in enumerate(_QPROB[pat])), Fraction(0)
    ) + 2 * sum(
        (q * means[child[j]] * means[child[l]] for (j, l), q in zip(_PAIRS, _QPAIR[pat])),
        Fraction(0),
    )


def recursive_exact_moments(
    h: int, x: "str | Sequence[int] | None" = None
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of one trial's leaf reads: on a fixed
    input x, or under the height-h hard distribution when x is None.
    Under the law, the mean M(k, b) and second moment S(k, b) over
    height-k inputs of value b follow the two-state recursion
    M(k, b) = sum_p seed_b(p) sum_j q_j(p) M(k-1, p_j), and S(k, b)
    likewise through _second_step."""
    if x is not None:
        if not 0 <= h <= MAX_MC_HEIGHT:
            raise ValueError(f"exact recursion supports 0 <= h <= {MAX_MC_HEIGHT}")
        mean, second = _exact_moments(h, tree_bits(h, x))
        return mean, second - mean * mean
    if h < 0:
        raise ValueError("height must be at least 0")
    seeds = (d0().masses, d1().masses)
    means = seconds = (Fraction(1), Fraction(1))
    for _ in range(h):
        means, seconds = (
            tuple(sum((m * _step(p, means) for p, m in seed.items()), Fraction(0)) for seed in seeds),
            tuple(
                sum((m * _second_step(p, means, seconds) for p, m in seed.items()), Fraction(0))
                for seed in seeds
            ),
        )
    mean, second = (means[0] + means[1]) / 2, (seconds[0] + seconds[1]) / 2
    return mean, second - mean * mean


def _exact_moments(h: int, bits: np.ndarray) -> tuple[Fraction, Fraction]:
    """Mean and second moment of the leaf reads on one input, bottom up
    through the per-input counterparts of _step and _second_step."""
    # times 24**k and 24**(2k), a height-k node's moments are integers
    # below 78**k and (24**2 * 16)**k (it reads at most 4**k leaves), so
    # int64 holds them up to height 4
    mean = second = np.broadcast_to(np.int64(1), bits.shape)
    for k, pat in enumerate(level_patterns(bits, h), 1):
        if k == 5:
            mean, second = mean.astype(object), second.astype(object)
        m, s = mean.reshape(-1, 4), second.reshape(-1, 4)
        mean = sum(_READS24[pat, j] * m[:, j] for j in range(4))
        second = 24 * (
            sum(_READS24[pat, j] * s[:, j] for j in range(4))
            + 2 * sum(_PAIRS24[pat, i] * m[:, j] * m[:, l] for i, (j, l) in enumerate(_PAIRS))
        )
    return Fraction(int(mean[0]), 24**h), Fraction(int(second[0]), 24 ** (2 * h))


def recursive_exact_worst(h: int) -> tuple[Fraction, str]:
    """Worst-case exact expected leaf reads over every input, with one
    maximizing input as a bit string.  W(k, v), the worst over height-k
    inputs of value v, is the max over patterns p with f(p) = v of
    sum_j q_j(p) W(k-1, p_j).  The witness puts a maximizing pattern at
    every node, and its replay through the per-input recursion must
    give W."""
    if not 0 <= h <= MAX_MC_HEIGHT:
        raise ValueError(f"exact recursion supports 0 <= h <= {MAX_MC_HEIGHT}")
    worst = (Fraction(1), Fraction(1))
    # per value, a height-k input of that value attaining W(k, value)
    witness = (np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8))
    for _ in range(h):
        steps = [_step(p, worst) for p in range(16)]
        best = [
            max((p for p in range(16) if _FMAJ_BIT[p] == v), key=steps.__getitem__)
            for v in (0, 1)
        ]
        worst = tuple(steps[p] for p in best)
        witness = tuple(
            np.concatenate([witness[b] for b in index_to_bits(p, 4)]) for p in best
        )
    v = int(worst[1] > worst[0])
    if _exact_moments(h, witness[v])[0] != worst[v]:
        raise RuntimeError("the worst-case witness does not replay to its value")
    return worst[v], (witness[v] + ord("0")).tobytes().decode()


# ---------------------------------------------------------------------------
# Monte Carlo

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
    height-h hard distribution when x is None.  A trial errs when any
    node it reads outputs other than its true value.  The trial budget
    is split over 64 fixed substreams, so results do not depend on the
    thread count."""
    if not 0 <= h <= MAX_MC_HEIGHT:
        raise ValueError(f"Monte Carlo supports 0 <= h <= {MAX_MC_HEIGHT}")
    if trials < 1:
        raise ValueError("need at least one trial")
    # intp, since 24 * pattern would wrap in uint8
    pats = None if x is None else [p.astype(np.intp) for p in level_patterns(tree_bits(h, x), h)]
    tables = _round_tables()
    chunks = min(64, trials)
    streams = rng.spawn(chunks)
    sizes = [trials // chunks + (1 if i < trials % chunks else 0) for i in range(chunks)]

    def work(args: tuple[np.random.Generator, int]) -> tuple[int, int, int]:
        sub, count = args
        return _mc_chunk(h, count, sub, tables, pats)

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


def _round_tables() -> tuple[np.ndarray, ...]:
    """The evaluator's flat lookups, built from _ROUND_MASK and
    _ROUND_OUT.  On children pattern p, round r reads round_mask[24p + r]
    and errs where round_bad[24p + r].  A hard-law node of value b takes
    one draw u in [0, 720): u // 24 picks its children pattern from the
    seed law, in thirtieths, and u % 24 picks its round; hard_mask,
    hard_bad and hard_pat are indexed by 720b + u."""
    round_mask = _ROUND_MASK.T.ravel()
    round_bad = (_ROUND_OUT != _FM).T.ravel()
    u = np.arange(720)
    hard_pat = _PATS[:, _CAT30[u // 24]].ravel().astype(np.intp)
    key = 24 * hard_pat + np.tile(u % 24, 2)
    return round_mask, round_bad, round_mask[key], round_bad[key], hard_pat


def _mc_chunk(
    h: int,
    count: int,
    rng: np.random.Generator,
    tables: tuple[np.ndarray, ...],
    pats: Optional[list[np.ndarray]],
) -> tuple[int, int, int]:
    """(total reads, total squared reads, erring trials) of count trials.
    Trials run in batches, one tree level at a time: the frontier holds
    each node read with its trial and its value (hard law) or its index
    (fixed input), and its round's reads name the next frontier.  Leaves
    are only counted.  A batch of 2**20 // 4**h trials keeps every
    frontier within 2**18 nodes up to height 10, before any is drawn."""
    if h == 0:
        # a leaf is read outright; sampling only fixes its value
        return count, count, 0
    round_mask, round_bad, hard_mask, hard_bad, hard_pat = tables
    batch = max(1, 2**20 // 4**h)
    total = total_sq = errors = 0
    for start in range(0, count, batch):
        n = min(batch, count - start)
        trial = np.arange(n)
        erred = np.zeros(n, dtype=bool)
        if pats is None:
            val = rng.integers(0, 2, size=n)
        else:
            node = np.zeros(n, dtype=np.intp)
        for k in range(h, 0, -1):
            if pats is None:
                u = rng.integers(0, 720, size=trial.size, dtype=np.uint16)
                key = 720 * val + u
                mask, bad, pat = hard_mask[key], hard_bad[key], hard_pat[key]
            else:
                r = rng.integers(0, 24, size=trial.size, dtype=np.uint8)
                key = 24 * pats[k - 1][node] + r
                mask, bad = round_mask[key], round_bad[key]
            erred[trial[bad]] = True
            if k > 1:
                read = np.flatnonzero(_MASK_BITS[mask])
                parent, j = read >> 2, read & 3
                trial = trial[parent]
                if pats is None:
                    val = pat[parent] >> (3 - j) & 1
                else:
                    node = 4 * node[parent] + j
        cost = np.bincount(trial, weights=_POPC[mask], minlength=n).astype(np.int64)
        total += int(cost.sum())
        total_sq += int((cost * cost).sum())
        errors += int(np.count_nonzero(erred))
    return total, total_sq, errors


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
    # the upper-alpha chi-square quantile; scipy.special imports in a
    # fraction of scipy.stats's time, and only this check needs it
    from scipy.special import chdtri

    critical = float(chdtri(df, alpha))
    return GofReport(stat, df, critical, impossible, impossible == 0 and stat <= critical)


# ---------------------------------------------------------------------------
# the embedding of one instance into a sampled neighborhood

_NONUNANIMOUS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_SLOT_PROBS = (Fraction(1, 5), Fraction(4, 15), Fraction(4, 15), Fraction(4, 15))
# _EMBED_SLOT[r]: the embedded slot of a base-15 draw r
_EMBED_SLOT = np.repeat(np.arange(4, dtype=np.uint8), (3, 4, 4, 4))
# _EMBED_SIBS[slot, k, c]: the siblings' children pattern, the embedded
# slot's bit clear.  At slot 0 the siblings are the k-th nonunanimous
# triple; elsewhere the first child holds c and the other two 1 - c.
_EMBED_SIBS = np.zeros((4, 6, 2), dtype=np.uint8)
for _k, _sib in enumerate(_NONUNANIMOUS):
    _EMBED_SIBS[0, _k, :] = bits_to_index((0, *_sib))
for _slot in (1, 2, 3):
    for _c in (0, 1):
        _bits = [_c, 1 - _c, 1 - _c, 1 - _c]
        _bits[_slot] = 0
        _EMBED_SIBS[_slot, :, _c] = bits_to_index(_bits)


def _embed_outcomes() -> list[tuple[int, int]]:
    """The embedding's finite randomness as 360 equally likely outcomes
    (embedded value, base-15 slot draw, sibling triple, sibling coin),
    each as (slot, children pattern)."""
    return [
        (slot, int(_EMBED_SIBS[slot, k, c]) | w << (3 - slot))
        for w in (0, 1)
        for slot in _EMBED_SLOT.tolist()
        for k in range(6)
        for c in (0, 1)
    ]


def embedding_children_law_exact() -> dict[int, Fraction]:
    """Exact law of the four children values when the embedded value is
    a fair coin, by enumerating the sampler's finite randomness."""
    law: dict[int, Fraction] = {}
    for _, pat in _embed_outcomes():
        law[pat] = law.get(pat, Fraction(0)) + Fraction(1, 360)
    return law


def minority_conditionals_exact() -> dict[tuple[int, int], Fraction]:
    """Exact probability that the minority path leaves through child j
    given the embedded instance sits at child i, over the sampler's
    randomness with a fair embedded value."""
    joint: dict[tuple[int, int], Fraction] = {}
    for slot, pat in _embed_outcomes():
        dis = _DISSENT[pat]
        assert dis, "sampled children never agree unanimously"
        for j in dis:
            joint[slot, j] = joint.get((slot, j), Fraction(0)) + Fraction(1, 360 * len(dis))
    return {
        (i, j): joint.get((i, j), Fraction(0)) / _SLOT_PROBS[i]
        for i in range(4)
        for j in range(4)
    }


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
    """Monte Carlo audit of the embedding, which places a
    height-(level-1) instance as one child of a level-``level`` node so
    that its value always propagates to the node and a fair embedded
    value makes the node's children follow the one-level hard law.
    Checked: placement frequencies within
    four sigma of (1/5, 4/15, 4/15, 4/15), children patterns passing a
    chi-square against the one-level hard law, and two structural
    checks that must never fire: the embedded node dissenting from its
    parent, or a lifted input evaluating differently from the embedded
    block."""
    if level not in (1, 2):
        raise ValueError("embedding is implemented for levels 1 and 2")
    slot = _EMBED_SLOT[rng.integers(0, 15, size=trials, dtype=np.int32)]
    k6 = rng.integers(0, 6, size=trials, dtype=np.int32)
    c2 = rng.integers(0, 2, size=trials, dtype=np.int32)
    wval = rng.integers(0, 2, size=trials, dtype=np.int32).astype(np.uint8)
    pattern = _EMBED_SIBS[slot, k6, c2] | wval << (3 - slot)
    del k6, c2, wval
    values = pattern[:, None] >> _SHIFTS
    values &= 1
    vroot = _FM[pattern]

    # (a) the embedded node must never dissent from the parent value
    wbit = np.take_along_axis(values, slot[:, None], axis=1)[:, 0]
    bad_majority = int(np.count_nonzero(wbit != vroot))

    # (b) with the embedded value flipped the parent must follow; both
    # settings together cover every embedded input exhaustively
    flipped = pattern ^ (8 >> slot)
    bad_value = int(np.count_nonzero(wbit == _FM[flipped]))

    if level == 2:
        # sampled sibling blocks must carry their assigned values
        draws = rng.integers(0, 30, size=(trials, 4), dtype=np.int32)
        fill_vals = _FM[_PATS[values, _CAT30[draws]]]
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
