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
and eighteen of branch 1, each order equally often.  One table of those
rounds, built once from ``lv_run``, holds what each reads and outputs,
so ``lv_check_correct`` judges zero error on the whole table.  The
level-by-level Monte Carlo evaluator reads it as each level's boolean
read flags, which count the next level's nodes and on a fixed input
name them.
The three exact recursions (per input, under the hard law, and over
the worst inputs) share one integer moment step over its read counts.
On a fixed input the evaluator and the recursion take the nodes'
children patterns from ``gadget.level_patterns``.

The embedding of one instance inside a neighborhood is one table too:
its 360 equally likely outcomes, each a placement slot and a children
pattern.  The audit draws outcome indices through ``harddist.tally``,
as the minority tally does, and its exact laws, with the minority
path's step over every outcome and coin, and its structural checks run
over every outcome.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import harddist
from .boolfn import index_to_bits, parse_bits
from .gadget import _CHILD_BITS, _CHILD_WORD, _FM, level_patterns, tree_bits
from .harddist import batch_sizes, d, tally

# harddist's tables as arrays: _DRAW30[v, u], _SEED_W[v, p], _DIS_PICK[p, c]
_DRAW30, _SEED_W, _DIS_PICK = (
    np.array(t, dtype=np.uint8) for t in (harddist._DRAW30, harddist._SEED_W, harddist._DIS_PICK)
)

MAX_MC_HEIGHT = 12

_ORDERS = tuple(itertools.permutations((1, 2, 3)))
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


# the round's randomness as 24 equally likely rounds: rounds 0-5 take
# branch 0 (probability 1/4), and round r reads in order _ORDERS[r % 6].
# On children pattern p, round r reads the variables set in
# _ROUND_MASK[r, p] (x_1 the high bit, as in a pattern) and outputs
# _ROUND_OUT[r, p].
_ROUND_MASK = np.zeros((24, 16), dtype=np.uint8)
_ROUND_OUT = np.zeros((24, 16), dtype=np.uint8)
_PATTERN_BITS = [index_to_bits(pat, 4) for pat in range(16)]
for _r in range(24):
    for _pat, _bits in enumerate(_PATTERN_BITS):
        _out, _queried = lv_run(_bits, int(_r >= 6), _ORDERS[_r % 6])
        _ROUND_MASK[_r, _pat] = sum(8 >> q for q in _queried)
        _ROUND_OUT[_r, _pat] = _out

# rounds out of the 24 that read variable j on the given input; likewise
# for reading both j and l
_READ = _CHILD_BITS[_ROUND_MASK].astype(np.int64)
_READS24 = _READ.sum(axis=0)
_PAIRS = tuple(itertools.combinations(range(4), 2))
_PAIRS24 = np.stack([_READ[..., j] * _READ[..., l] for j, l in _PAIRS], axis=-1).sum(axis=0)


def lv_check_correct() -> bool:
    """Every (input, branch, order) combination outputs the gadget
    value."""
    return bool(np.all(_ROUND_OUT == _FM))


# ---------------------------------------------------------------------------
# exact recursion over the instance tree
#
# Given its children's values, a node's subtrees are independent, so the
# moments of the reads follow a recursion over node values in the style
# of Saks and Wigderson's game-tree bounds.  All three recursions below
# (per input, under the hard law, and over the worst inputs) take one
# integer step, _node_moments, from the 24-round read counts, and carry
# their moments as integers over a power of 24 or 720.


def _node_mean(pat: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """24 times the mean reads of nodes with children patterns pat, when
    child j of each node has mean reads mean[:, j]: sum_j R_j m_j."""
    return sum(_READS24[pat, j] * mean[:, j] for j in range(4))


def _node_moments(
    pat: np.ndarray, mean: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """24 times the mean and second moment of the reads of nodes with
    children patterns pat, when child j of each node has reads of mean
    mean[:, j] and second moment second[:, j].  A node reads the sum over
    the children its round reads, independent of one another given their
    values, so with R and R_jl the rounds out of 24 reading j, and both j
    and l, the moments are sum_j R_j m_j and
    sum_j R_j s_j + 2 sum_{j < l} R_jl m_j m_l."""
    node_mean = _node_mean(pat, mean)
    node_second = sum(_READS24[pat, j] * second[:, j] for j in range(4)) + 2 * sum(
        _PAIRS24[pat, i] * mean[:, j] * mean[:, l] for i, (j, l) in enumerate(_PAIRS)
    )
    return node_mean, node_second


def recursive_exact_moments(
    h: int, x: "str | Sequence[int] | None" = None
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of one trial's leaf reads: on a fixed
    input x, or under the height-h hard distribution when x is None.
    Under the law, the mean M(k, b) and second moment S(k, b) over
    height-k inputs of value b follow a two-state recursion: each
    pattern p's node moments on children of moments M(k-1, p_j) and
    S(k-1, p_j), mixed by the seed law of value b.  As integers, M(k, b)
    is over 720**k and S(k, b) over 720**(2k)."""
    if x is not None:
        if not 0 <= h <= MAX_MC_HEIGHT:
            raise ValueError(f"exact recursion supports 0 <= h <= {MAX_MC_HEIGHT}")
        mean, second = _exact_moments(h, tree_bits(h, x))
        return mean, second - mean * mean
    if h < 0:
        raise ValueError("height must be at least 0")
    means = seconds = np.ones(2, dtype=object)
    for _ in range(h):
        m, s = _node_moments(np.arange(16), means[_CHILD_BITS], seconds[_CHILD_BITS])
        means, seconds = _SEED_W @ m, 720 * (_SEED_W @ s)
    mean = Fraction(int(means.sum()), 2 * 720**h)
    second = Fraction(int(seconds.sum()), 2 * 720 ** (2 * h))
    return mean, second - mean * mean


def _exact_moments(h: int, bits: np.ndarray) -> tuple[Fraction, Fraction]:
    """Mean and second moment of the leaf reads on one input, bottom up
    one level at a time."""
    # times 24**k and 24**(2k), a height-k node's moments are integers
    # below 78**k and (24**2 * 16)**k (it reads at most 4**k leaves), so
    # int64 holds them up to height 4
    mean = second = np.broadcast_to(np.int64(1), bits.shape)
    for k, pat in enumerate(level_patterns(bits, h), 1):
        if k == 5:
            mean, second = mean.astype(object), second.astype(object)
        mean, second = _node_moments(pat, mean.reshape(-1, 4), second.reshape(-1, 4))
        second = 24 * second
    return Fraction(int(mean[0]), 24**h), Fraction(int(second[0]), 24 ** (2 * h))


def recursive_exact_worst(h: int) -> tuple[Fraction, str]:
    """Worst-case exact expected leaf reads over every input, with one
    maximizing input as a bit string.  W(k, v), the worst over height-k
    inputs of value v, is the max over patterns p with f(p) = v of the
    node mean on children of means W(k-1, p_j); as an integer it is over
    24**k.  The witness puts the first maximizing pattern at every node,
    and its replay through the per-input recursion must give W."""
    if not 0 <= h <= MAX_MC_HEIGHT:
        raise ValueError(f"exact recursion supports 0 <= h <= {MAX_MC_HEIGHT}")
    worst = np.ones(2, dtype=object)
    # per value, a height-k input of that value attaining W(k, value)
    witness = (np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8))
    for _ in range(h):
        steps = _node_mean(np.arange(16), worst[_CHILD_BITS])
        best = [max(np.flatnonzero(_FM == v).tolist(), key=steps.__getitem__) for v in (0, 1)]
        worst = steps[best]
        witness = tuple(
            np.concatenate([witness[b] for b in index_to_bits(p, 4)]) for p in best
        )
    v = int(worst[1] > worst[0])
    value = Fraction(int(worst[v]), 24**h)
    # the replay carries means alone: times 24**k a height-k node's mean
    # is an integer below 78**k, so int64 holds it up to height 10
    mean = np.broadcast_to(np.int64(1), witness[v].shape)
    for k, pat in enumerate(level_patterns(witness[v], h), 1):
        mean = _node_mean(pat, (mean if k <= 10 else mean.astype(object)).reshape(-1, 4))
    if Fraction(int(mean[0]), 24**h) != value:
        raise RuntimeError("the worst-case witness does not replay to its value")
    return value, (witness[v] + ord("0")).tobytes().decode()


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class McReport:
    trials: int
    mean: Fraction
    stderr: float


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
    thread count: worker w of W = min(threads, substreams) runs
    substreams w, w + W, w + 2W and so on."""
    if not 0 <= h <= MAX_MC_HEIGHT:
        raise ValueError(f"Monte Carlo supports 0 <= h <= {MAX_MC_HEIGHT}")
    if trials < 1:
        raise ValueError("need at least one trial")
    # 24 times each node's pattern, to which a round draw adds, widened
    # first, since 24 * pattern would wrap in uint8
    pats = None
    if x is not None:
        pats = [24 * p.astype(np.uint16) for p in level_patterns(tree_bits(h, x), h)]
    chunks = min(64, trials)
    sizes = [trials // chunks + (1 if i < trials % chunks else 0) for i in range(chunks)]
    jobs = list(zip(sizes, rng.spawn(chunks)))
    workers = min(threads, chunks)
    results: list = [None] * workers

    def work(w: int) -> None:
        try:
            results[w] = [
                _mc_batch(h, b, sub, pats)
                for n, sub in jobs[w::workers]
                for b in batch_sizes(h, n)
            ]
        except BaseException as exc:  # raised again in the calling thread
            results[w] = exc

    # worker 0 runs in the calling thread, so one worker starts no thread
    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    total, total_sq = map(sum, zip(*itertools.chain(*results)))
    mean = Fraction(total, trials)
    var = float(Fraction(total_sq, trials) - mean * mean)
    stderr = (var / trials) ** 0.5
    return McReport(trials, mean, stderr)


# the evaluator's flat lookups, indexed by a node's key: 24p + r for a
# node of children pattern p drawing round r on a fixed input; under the
# hard law the node's draw u in [0, 720), whose round is u % 24 and whose
# pattern is the seed law's at u // 24, in thirtieths: _HARD_PAT[u] for
# value 0 and its complement for value 1.  The law's key leaves out the
# value, as a round reads the same children of a pattern and of its
# complement.  The key's round reads the children whose bytes are set in
# its _FLAGS word, _POPC of them
_FLAT_ROUND_MASK = _ROUND_MASK.T.ravel()
_HARD_PAT = _DRAW30[0, np.arange(720) // 24].astype(np.intp)
_HARD_MASK = _FLAT_ROUND_MASK[24 * _HARD_PAT + np.arange(720) % 24]
_ROUND_FLAGS, _HARD_FLAGS = _CHILD_WORD[_FLAT_ROUND_MASK], _CHILD_WORD[_HARD_MASK]
_ROUND_POPC, _HARD_POPC = (_POPC[m].astype(np.int32) for m in (_FLAT_ROUND_MASK, _HARD_MASK))
_SLOTS = np.arange(4, dtype=np.int32)


def _mc_batch(
    h: int, n: int, rng: np.random.Generator, pats: Optional[list[np.ndarray]]
) -> tuple[int, int]:
    """(total reads, total squared reads) of one batch of n trials, one
    tree level at a time; batch_sizes keeps every frontier within 2**18
    nodes up to height 10.  A level's rounds' reads are (m, 4) boolean
    flags over its m nodes read, trial-major and slot-minor, and the next
    level's m is their count.  Under the hard law the draws alone key the
    rounds, and no value is drawn, the roots' included, as no read count
    depends on one; on a fixed input one compress of the children's int32
    indices through the flags is the next frontier.  Each trial's reads
    are the leaf counts scattered back up through every level's flags.
    No index is out of range, so take runs in clip mode."""
    if h == 0:
        # a leaf is read outright; sampling only fixes its value
        return n, n
    hard = pats is None
    flags, popc = (_HARD_FLAGS, _HARD_POPC) if hard else (_ROUND_FLAGS, _ROUND_POPC)
    m, reads = n, []
    if not hard:
        front = np.zeros(n, dtype=np.int32)
    for k in range(h, 0, -1):
        if hard:
            key = rng.integers(0, 720, size=m, dtype=np.uint16)
        else:
            key = pats[k - 1].take(front, mode="clip")
            key += rng.integers(0, 24, size=m, dtype=np.uint8)
        if k == 1:
            break
        read = flags.take(key, mode="clip").view(bool)
        reads.append(read)
        m = int(np.count_nonzero(read))
        if not hard:
            # node i's children are nodes 4i to 4i + 3 one level down
            front *= 4
            front = (front[:, None] + _SLOTS).ravel().compress(read)
    cost = popc.take(key, mode="clip")
    for read in reversed(reads):
        up = np.zeros(read.size, dtype=np.int32)
        up[read] = cost
        cost = up.reshape(-1, 4).sum(axis=1, dtype=np.int32)
    sq = np.multiply(cost, cost, dtype=np.int64)
    return int(cost.sum(dtype=np.int64)), int(sq.sum())


# ---------------------------------------------------------------------------
# goodness-of-fit helper

@dataclass(frozen=True)
class GofReport:
    stat: float
    df: int
    critical: float
    impossible_hits: int
    ok: bool


def chi_square_gof(counts: Sequence, probs: Sequence, alpha: float = 1e-3) -> GofReport:
    """Pearson chi-square of one group of cell counts against exact
    cell probabilities summing to 1.  Cells of probability zero must
    stay empty and are left out.  Sparse cells pool by Cochran's rule
    (1954), in ascending order of probability until each expects 5 or
    more, a short rest joining the last: counts under 5 in all add no
    df."""
    cells = [(int(c), Fraction(p)) for c, p in zip(counts, probs, strict=True)]
    if sum(p for _, p in cells) != 1:
        raise ValueError("cell probabilities must sum to 1")
    n = sum(c for c, _ in cells)
    if n == 0:
        raise ValueError("no counts to test")
    impossible = sum(c for c, p in cells if p == 0)
    cells = [(c, p) for c, p in cells if p != 0]
    if min(p for _, p in cells) * n < 5:
        pooled = []
        for c, p in sorted(cells, key=lambda cell: cell[1]):
            if pooled and min(pooled[-1][1], 1 - sum(q for _, q in pooled)) * n < 5:
                c, p = c + pooled[-1][0], p + pooled.pop()[1]
            pooled.append((c, p))
        cells = pooled
    stat = sum((c - float(p) * n) ** 2 / (float(p) * n) for c, p in cells)
    df = len(cells) - 1
    critical = chi_square_critical(df, alpha)
    return GofReport(stat, df, critical, impossible, impossible == 0 and stat <= critical)


def _chi_square_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square on df degrees of freedom, in the closed
    form of Abramowitz and Stegun 26.4.4-5: with y = x/2, the sum over
    a = df/2 - 1, df/2 - 2, ... >= 0 of e**-y y**a / Gamma(a+1), plus
    erfc(sqrt(y)) when df is odd.  With e**-y split in halves around the
    sum, nothing under- or overflows for x up to 2830."""
    y = x / 2
    half = math.exp(-y / 2)
    a = df % 2 / 2
    term, total = half * y**a / math.gamma(a + 1), 0.0
    while a < df / 2:
        total += term
        a += 1
        term *= y / a
    return total * half + (math.erfc(math.sqrt(y)) if df % 2 else 0.0)


def chi_square_critical(df: int, alpha: float) -> float:
    """The upper-alpha chi-square quantile on df degrees of freedom: the
    least float c with _chi_square_sf(c, df) <= alpha (0 at df 0), bisected
    to adjacent floats in [0, 2830], which holds every quantile to df 400."""
    lo, hi = 0.0, 2830.0 if df else 0.0
    if _chi_square_sf(hi, df) > alpha:
        raise ValueError(f"chi-square quantile at df {df}, alpha {alpha} exceeds 2830")
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if _chi_square_sf(mid, df) > alpha else (lo, mid)
    return hi


def within_four_sigma(counts: Sequence[int], probs: Sequence[Fraction], trials: int) -> bool:
    """Whether each cell's frequency in ``trials`` draws lies within four
    binomial standard errors of its exact probability."""
    return all(
        abs(int(c) / trials - float(p)) <= 4.0 * (float(p) * (1.0 - float(p)) / trials) ** 0.5
        for c, p in zip(counts, probs)
    )


# ---------------------------------------------------------------------------
# the embedding of one instance into a sampled neighborhood

_NONUNANIMOUS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
SLOT_PROBS = (Fraction(1, 5), Fraction(4, 15), Fraction(4, 15), Fraction(4, 15))


# the embedding's randomness as 360 equally likely outcomes: an embedded
# value w, a base-15 placement draw (three place the instance at slot 0,
# four each at slots 1 to 3), a sibling triple k and a sibling coin c.
# Outcome i places the instance at slot _EMBED_SLOT[i] among children of
# pattern _EMBED_PAT[i]; at slot 0 the siblings are the k-th nonunanimous
# triple, elsewhere c, 1 - c, 1 - c.
def _embed_pattern(w: int, slot: int, k: int, c: int) -> int:
    a, b, e = _NONUNANIMOUS[k]
    siblings = a << 2 | b << 1 | e if slot == 0 else 8 * c | 7 * (1 - c)
    return siblings & ~(8 >> slot) | w << 3 - slot


_EMBED_SLOT, _EMBED_PAT = np.array(
    [
        (slot, _embed_pattern(w, slot, k, c))
        for w in (0, 1)
        for slot in [0] * 3 + [1] * 4 + [2] * 4 + [3] * 4
        for k in range(6)
        for c in (0, 1)
    ],
    dtype=np.uint8,
).T


def embedding_children_law_exact() -> tuple[Fraction, ...]:
    """Exact law of the four children values when the embedded value is
    a fair coin: each outcome's pattern has mass 1/360."""
    return tuple(Fraction(c, 360) for c in np.bincount(_EMBED_PAT, minlength=16).tolist())


def embedding_slot_law_exact() -> tuple[Fraction, ...]:
    """Exact law of the slot the embedded instance takes: each outcome's
    slot has mass 1/360."""
    return tuple(Fraction(c, 360) for c in np.bincount(_EMBED_SLOT, minlength=4).tolist())


def minority_conditionals_exact() -> dict[tuple[int, int], Fraction]:
    """Exact probability that the minority path leaves through child j
    given the embedded instance sits at child i: each of the embedding's
    outcomes and the path's coin has mass 1/720."""
    picks = _DIS_PICK[_EMBED_PAT]
    if np.any(picks == 255):
        raise ValueError("sampled children never agree unanimously")
    joint = np.bincount((4 * _EMBED_SLOT[:, None] + picks).ravel(), minlength=16).tolist()
    return {divmod(k, 4): Fraction(c, 720) / SLOT_PROBS[k // 4] for k, c in enumerate(joint)}


def embed_misses(level: int) -> tuple[int, int, int]:
    """The embedding places a height-(level-1) instance as one child of a
    level-``level`` node so that its value always propagates to the
    node.  Judged on every outcome: the outcomes whose embedded child
    dissents from its parent, those whose parent does not follow a flip
    of the embedded value, and at level 2, where each sibling block is
    drawn from the one-level law of its value, the draw-table entries of
    the other value."""
    if level not in (1, 2):
        raise ValueError("embedding is implemented for levels 1 and 2")
    embedded = (_EMBED_PAT >> (3 - _EMBED_SLOT)) & 1
    bad_majority = int(np.count_nonzero(embedded != _FM[_EMBED_PAT]))
    # with the embedded value flipped the parent must follow
    bad_value = int(np.count_nonzero(embedded == _FM[_EMBED_PAT ^ (8 >> _EMBED_SLOT)]))
    bad_sibling = int(np.count_nonzero(_FM[_DRAW30] != [[0], [1]])) if level == 2 else 0
    return bad_majority, bad_value, bad_sibling


@dataclass(frozen=True)
class EmbedReport:
    trials: int
    slot_counts: tuple[int, ...]
    slot_ok: bool
    chi2: GofReport
    bad_majority: int
    bad_value: int
    bad_sibling: int


def embed_check(
    level: int, trials: int, rng: np.random.Generator, alpha: float = 1e-3
) -> EmbedReport:
    """Audit of the embedding: ``embed_misses(level)`` on every outcome,
    and ``trials`` outcomes drawn by tally(360, level, trials, rng),
    whose slots must lie within four sigma of SLOT_PROBS and whose
    children patterns, which a fair embedded value makes follow the
    one-level hard law, must pass a chi-square against it."""
    misses = embed_misses(level)
    hits = tally(360, level, trials, rng)
    slot_counts = tuple(int(c) for c in np.bincount(_EMBED_SLOT, weights=hits, minlength=4))
    slot_ok = within_four_sigma(slot_counts, SLOT_PROBS, trials)
    pat_counts = np.bincount(_EMBED_PAT, weights=hits, minlength=16).astype(np.int64)
    gof = chi_square_gof(pat_counts, d(), alpha=alpha)
    return EmbedReport(trials, slot_counts, slot_ok, gof, *misses)
