"""Zero-error evaluation rounds, exact cost oracles, sampling checks.

The reference round implemented here is a separate transcription of the
two-branch protocol; agreement with the production tables on every input
and both branches is what the cost tests lean on.  The exact recursions
are checked against an enumeration of every input up to height 2 and
against a per-input recursion over the reference round at height 3.
"""

import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from qlab import cli, randalg
from qlab.boolfn import bits_to_index, fmaj, index_to_bits, iter_eval, level_patterns, parse_bits
from qlab.harddist import d
from qlab.randalg import (
    MAX_MC_HEIGHT,
    chi_square_critical,
    chi_square_gof,
    embed_check,
    embedding_children_law_exact,
    lv_check_correct,
    lv_run,
    mc_mean_cost,
    minority_conditionals_exact,
    recursive_exact_moments,
    recursive_exact_worst,
)
from test_harddist import dh_support


def bench_reference():
    """bench/reference.py, an independent transcription of the law and
    the round that imports nothing from qlab, loaded by path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference.py")
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_round(bits, branch, order):
    """Separate transcription of one round: (output, reads)."""
    reads = []
    if branch == 0:
        reads.append(0)
        first = bits[0]
        for j in order:
            reads.append(j)
            if bits[j] == first:
                return first, reads
        return 1 - first, reads
    seen = []
    for j in order:
        reads.append(j)
        seen.append(bits[j])
        if len(set(seen)) > 1:
            reads.append(0)
            return bits[0], reads
    return seen[0], reads


def reference_cost(bits):
    total = Fraction(0)
    for branch, w in ((0, Fraction(1, 4)), (1, Fraction(3, 4))):
        for order in itertools.permutations((1, 2, 3)):
            _, reads = reference_round(bits, branch, order)
            total += w * Fraction(1, 6) * len(reads)
    return total


def test_round_agrees_with_reference_everywhere():
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        for branch in (0, 1):
            for order in itertools.permutations((1, 2, 3)):
                got = lv_run(bits, branch, order)
                assert got == reference_round(bits, branch, order), (pat, branch, order)


def test_round_is_zero_error():
    assert lv_check_correct()
    f = fmaj()
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        for branch in (0, 1):
            for order in itertools.permutations((1, 2, 3)):
                out, _ = reference_round(bits, branch, order)
                assert out == f.bit(pat), (pat, branch, order)


def height_one_cost(x):
    return recursive_exact_moments(1, x)[0]


def test_exact_cost_matches_reference():
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        assert height_one_cost(bits) == reference_cost(bits), pat


def test_exact_cost_point_values():
    assert height_one_cost("0000") == Fraction(11, 4)
    assert height_one_cost("0001") == Fraction(37, 12)


def test_worst_cost_thirteen_quarters():
    costs = [height_one_cost(index_to_bits(p, 4)) for p in range(16)]
    worst, witness = recursive_exact_worst(1)
    assert worst == max(costs) == Fraction(13, 4)
    argmax = [p for p, c in enumerate(costs) if c == worst]
    assert argmax == [3, 5, 6, 7, 8, 9, 10, 12]
    assert bits_to_index(witness) in argmax


def test_mean_cost_under_hard_distribution():
    dd = d()
    mean = sum(
        (dd[p] * height_one_cost(index_to_bits(p, 4)) for p in range(16)),
        Fraction(0),
    )
    assert mean == Fraction(97, 30)
    assert recursive_exact_moments(1)[0] == mean


def test_fixed_order_loses():
    # with one fixed order in both branches only the branch coin remains
    costs = [
        sum(
            w * len(reference_round(index_to_bits(pat, 4), branch, (1, 2, 3))[1])
            for branch, w in ((0, Fraction(1, 4)), (1, Fraction(3, 4)))
        )
        for pat in range(16)
    ]
    worst = max(costs)
    argmax = [pat for pat, c in enumerate(costs) if c == worst]
    assert worst == 4
    assert argmax == [bits_to_index("0110"), bits_to_index("1001")]
    # randomizing the order is what keeps the worst case below four
    assert recursive_exact_worst(1)[0] < worst


def test_cost_is_complement_invariant():
    for pat in range(16):
        comp = pat ^ 0xF
        assert height_one_cost(index_to_bits(pat, 4)) == height_one_cost(
            index_to_bits(comp, 4)
        )


def brute_height2_cost(x):
    """Exhaustive root randomness, expected quarter costs by linearity."""
    bits = parse_bits(x)
    quarters = [bits[k * 4 : (k + 1) * 4] for k in range(4)]
    vals = tuple(fmaj().eval(q) for q in quarters)
    total = Fraction(0)
    for branch, w in ((0, Fraction(1, 4)), (1, Fraction(3, 4))):
        for order in itertools.permutations((1, 2, 3)):
            _, reads = reference_round(vals, branch, order)
            inner = sum((reference_cost(quarters[k]) for k in reads), Fraction(0))
            total += w * Fraction(1, 6) * inner
    return total


def test_recursive_exact_cost_height_two_matches_brute():
    cases = [
        "0011001101110111",
        "0111100010001000",
        "0000000000000000",
        "1111000011110000",
        "1000100010001000",
    ]
    for x in cases:
        assert recursive_exact_moments(2, x)[0] == brute_height2_cost(x), x


def test_recursive_exact_mean_squares():
    # per-branch means agree by complement invariance, so the height-2
    # mean is the square of the height-1 mean
    m0 = sum((m * reference_cost(b) for b, m in dh_support(1)), Fraction(0))
    assert m0 == Fraction(97, 30)
    m2 = recursive_exact_moments(2)[0]
    assert m2 == m0 * m0 == Fraction(9409, 900)


def test_recursive_exact_worst_squares():
    worst, arg = recursive_exact_worst(2)
    assert worst == Fraction(13, 4) ** 2 == Fraction(169, 16)
    assert recursive_exact_moments(2, arg)[0] == worst
    assert brute_height2_cost(arg) == worst


def reference_reads():
    """q[p][j]: probability that the reference round reads variable j
    on pattern p."""
    q = [[Fraction(0)] * 4 for _ in range(16)]
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        for branch, w in ((0, Fraction(1, 4)), (1, Fraction(3, 4))):
            for order in itertools.permutations((1, 2, 3)):
                for j in reference_round(bits, branch, order)[1]:
                    q[pat][j] += w * Fraction(1, 6)
    return q


REFERENCE_READS = reference_reads()


def reference_exact_cost(h, bits):
    """Per-input recursion over the reference round."""
    if h == 0:
        return Fraction(1)
    width = len(bits) // 4
    quarters = [bits[k * width : (k + 1) * width] for k in range(4)]
    pat = bits_to_index(tuple(iter_eval(h - 1, q) for q in quarters))
    q = REFERENCE_READS[pat]
    return sum((q[j] * reference_exact_cost(h - 1, quarters[j]) for j in range(4)), Fraction(0))


def enumerated_height2_costs():
    """576 x the exact expected reads of all 2**16 height-2 inputs, in
    index order, from the reference round."""
    q24 = np.array([[int(24 * q) for q in row] for row in REFERENCE_READS])
    fm = np.array([fmaj().bit(p) for p in range(16)])
    xs = np.arange(1 << 16)
    quarters = (xs[:, None] >> np.array([12, 8, 4, 0])) & 15
    root = fm[quarters] @ np.array([8, 4, 2, 1])
    return (q24[root] * q24.sum(axis=1)[quarters]).sum(axis=1)


def test_recursion_matches_enumeration_up_to_height_two():
    height1 = [int(24 * reference_cost(index_to_bits(p, 4))) for p in range(16)]
    for h, costs, scale in (
        (1, np.array(height1), 24),
        (2, enumerated_height2_costs(), 576),
    ):
        worst, arg = recursive_exact_worst(h)
        assert worst == Fraction(int(costs.max()), scale)
        assert costs[bits_to_index(arg)] == costs.max()
        mean = sum(
            (m * int(costs[bits_to_index(bits)]) for bits, m in dh_support(h)), Fraction(0)
        )
        assert recursive_exact_moments(h)[0] == mean / scale
        rng = np.random.default_rng(h)
        for idx in rng.integers(0, len(costs), size=50):
            bits = index_to_bits(int(idx), 4**h)
            assert recursive_exact_moments(h, bits)[0] == Fraction(int(costs[idx]), scale)


def test_recursive_exact_cost_height_three_matches_reference():
    rng = np.random.default_rng(33)
    inputs = [recursive_exact_worst(3)[1], "0" * 64, "1000" * 16]
    inputs += ["".join(map(str, rng.integers(0, 2, size=64))) for _ in range(20)]
    for x in inputs:
        assert recursive_exact_moments(3, x)[0] == reference_exact_cost(3, parse_bits(x)), x


def test_closed_forms_at_every_height():
    for h in range(MAX_MC_HEIGHT + 1):
        assert recursive_exact_moments(h)[0] == Fraction(97, 30) ** h
    # height 11 replays its witness past the int64 range, in Python ints
    for h in range(12):
        worst, arg = recursive_exact_worst(h)
        assert worst == Fraction(13, 4) ** h
        assert len(arg) == 4**h


def test_exact_moments_match_bench_reference():
    ref = bench_reference()
    for h in range(6):
        (m0, s0), (m1, s1) = ref.hard_law_moments(h, 0), ref.hard_law_moments(h, 1)
        mean, second = (m0 + m1) / 2, (s0 + s1) / 2
        assert recursive_exact_moments(h) == (mean, second - mean * mean), h
    rng = np.random.default_rng(23)
    # past height 4 the per-input moments leave int64 for Python ints
    for h in range(6):
        inputs = [ref.witness(h, 0), ref.witness(h, 1)]
        inputs += ["".join(map(str, rng.integers(0, 2, 4**h))) for _ in range(2)]
        for x in inputs:
            mean, second = ref.fixed_input_moments(x)
            assert recursive_exact_moments(h, x) == (mean, second - mean * mean), (h, x)


# (W(h), sha256 of the witness string) of recursive_exact_worst(h) for
# h = 0 to 8, and the exact variance of the reads under the law for
# h = 6 to 12, past the bench reference's reach: a change to the
# recursions or to the witness's choice of pattern shows here
WORST_WITNESSES = [
    ("1", "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    ("13/4", "a8d0b6f0939cfd883251f62b265f971ef8a5ab97eee32b91460f08b965601d93"),
    ("169/16", "b889b93f5052d15496c0e4ed30f873fd95ea72f159ef8a0dd86db1659aacf834"),
    ("2197/64", "a978200a7275899a560ad27a68705ff744fc3fe695db8dd7c3f0f68ac2d0da29"),
    ("28561/256", "0964c210a2d6b1c4da8e77d1f12e7c7feaaf9e277d1f7a735696285e9d92d4ec"),
    ("371293/1024", "bb6b5e17b7448a51cea2b7a378387d50286db540ddf904b6be58e86e8946ee39"),
    ("4826809/4096", "b928970b8cd3b048a2ca2b351bbd15f22d0edb5bd3b8d0a46989840ad166b633"),
    ("62748517/16384", "8e0baa8c06ec42cde0faa58e9b13b5d4d9ee70305faa0a894c55ad16891975fe"),
    ("815730721/65536", "7107ac31bebca83bff60680b7388fb79adb5325cfd43807f7d22afce5db3cc06"),
]
LAW_VARIANCES = {
    6: "14186839751609686565047/265720500000000000",
    7: "133564737689577441943527223/239148450000000000000",
    8: "1256945635699278483310877641207/215233605000000000000000",
    9: "11827285390938620255778957026116663/193710244500000000000000000",
    10: "111284918405855835194977312721731682167/174339220050000000000000000000",
    11: "1047085588653614332825849074042103397509303/156905298045000000000000000000000",
    12: "9852045156537045085834468875114241167165031927/141214768240500000000000000000000000",
}


def test_recursive_exact_worst_witnesses_are_pinned():
    for h, (value, digest) in enumerate(WORST_WITNESSES):
        worst, arg = recursive_exact_worst(h)
        assert worst == Fraction(value), h
        assert hashlib.sha256(arg.encode()).hexdigest() == digest, h


def test_recursive_exact_worst_replay_mismatch_raises(monkeypatch):
    # a replay that sees every node's children as 0000 reads less than W
    patterns = randalg.level_patterns
    monkeypatch.setattr(
        randalg, "level_patterns", lambda h, x: [bytes(len(p)) for p in patterns(h, x)]
    )
    with pytest.raises(RuntimeError, match="replay"):
        recursive_exact_worst(2)


def test_law_variances_are_pinned():
    for h, variance in LAW_VARIANCES.items():
        assert recursive_exact_moments(h) == (Fraction(97, 30) ** h, Fraction(variance)), h


def test_exact_variance_tracks_sample_variance():
    for h, x in ((2, None), (3, recursive_exact_worst(3)[1])):
        rep = mc_mean_cost(h, 40_000, np.random.default_rng(h), x=x)
        _, variance = recursive_exact_moments(h, x)
        assert abs(rep.stderr**2 * rep.trials / float(variance) - 1) < 0.05


def test_recursive_exact_guards():
    with pytest.raises(ValueError):
        recursive_exact_moments(MAX_MC_HEIGHT + 1, [0] * 64)
    with pytest.raises(ValueError):
        recursive_exact_moments(2, "0000")
    with pytest.raises(ValueError):
        recursive_exact_worst(MAX_MC_HEIGHT + 1)
    with pytest.raises(ValueError):
        recursive_exact_moments(-1)


def test_recursive_run_is_correct_and_bounded():
    # zero error is a fact of the round table, judged on all of it
    assert lv_check_correct()
    rng = np.random.default_rng(3)
    for pat in (3, 8, 12, 7):
        bits = index_to_bits(pat, 4)
        for _ in range(50):
            rep = mc_mean_cost(1, 1, rng, x=bits)
            assert 2 <= rep.mean <= 4


def test_mc_mean_determinism_and_threads():
    r1 = mc_mean_cost(1, 50_000, np.random.default_rng(21))
    r2 = mc_mean_cost(1, 50_000, np.random.default_rng(21))
    assert r1.mean == r2.mean
    r4 = mc_mean_cost(1, 50_000, np.random.default_rng(21), threads=4)
    assert r4.mean == r1.mean
    deep = mc_mean_cost(4, 1500, np.random.default_rng(22))
    assert mc_mean_cost(4, 1500, np.random.default_rng(22), threads=2) == deep


def test_mc_worker_errors_reach_the_caller(monkeypatch):
    # a failure in a helper thread is raised again in the calling thread
    batch = randalg._mc_batch

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("helper")
        return batch(*args)

    monkeypatch.setattr(randalg, "_mc_batch", fail_off_the_main_thread)
    assert mc_mean_cost(2, 100, np.random.default_rng(0)).trials == 100
    with pytest.raises(MemoryError, match="helper"):
        mc_mean_cost(2, 100, np.random.default_rng(0), threads=2)


def test_mc_mean_tracks_exact_height_one():
    rep = mc_mean_cost(1, 200_000, np.random.default_rng(8))
    exact = float(Fraction(97, 30))
    assert abs(float(rep.mean) - exact) < 4 * rep.stderr


def test_mc_mean_tracks_exact_height_two():
    rep = mc_mean_cost(2, 200_000, np.random.default_rng(9), threads=2)
    exact = float(Fraction(9409, 900))
    assert abs(float(rep.mean) - exact) < 4 * rep.stderr


def test_mc_mean_fixed_input():
    rep = mc_mean_cost(1, 200_000, np.random.default_rng(10), x="0011")
    assert abs(float(rep.mean) - 3.25) < 4 * rep.stderr


def test_mc_batches_are_seed_deterministic():
    # 520 trials over 64 substreams: 8 or 9 trials each, run in batches
    # of 2**20 // 4**9 = 4 trials
    first = mc_mean_cost(9, 520, np.random.default_rng(23))
    assert mc_mean_cost(9, 520, np.random.default_rng(23)) == first
    assert abs(float(first.mean - Fraction(97, 30) ** 9)) < 4 * first.stderr


def test_hard_law_reads_ignore_node_values():
    # the evaluator keys a hard-law node by its draw alone: the seed law
    # of value 1 complements that of value 0, and every round reads the
    # same children of a pattern p and of its complement 15 - p
    assert np.array_equal(randalg._DRAW30[1], randalg._DRAW30[0] ^ 15)
    assert np.array_equal(randalg._ROUND_MASK, randalg._ROUND_MASK[:, ::-1])


def test_hard_law_batch_draws_only_the_round_keys():
    # no read count depends on a node's value, the roots' included, so a
    # height-1 batch under the hard law draws its n keys and nothing else
    n = 1000
    rng, fresh = np.random.default_rng(12), np.random.default_rng(12)
    randalg._mc_batch(1, n, rng, None)
    fresh.integers(0, 720, size=n, dtype=np.uint16)
    assert rng.bit_generator.state == fresh.bit_generator.state


def walk_batch(h, n, twin, draws, node, root=None):
    """(total reads, total squared reads) of n height-h trials, walking
    each trial's nodes through lv_run on a twin generator's draws: one
    twin.integers(0, draws) call per level over its frontier, trial-major,
    then left to right.  node(k, i, b, u) gives the children bits and
    the round of height-k node i, of value b, drawing u; the roots have
    value root, and a read child's value is its bit."""
    # the evaluator draws 24 rounds in uint8 and 720 law keys in uint16
    dtype = np.uint8 if draws == 24 else np.uint16
    fronts, reads = [[(0, root)] for _ in range(n)], [0] * n
    for k in range(h, 0, -1):
        us = iter(twin.integers(0, draws, size=sum(map(len, fronts)), dtype=dtype).tolist())
        for t, front in enumerate(fronts):
            fronts[t] = []
            for i, b in front:
                bits, r = node(k, i, b, next(us))
                out, queried = lv_run(bits, int(r >= 6), randalg._ORDERS[r % 6])
                assert b in (None, out)
                reads[t] += len(queried) if k == 1 else 0
                fronts[t] += [(4 * i + j, bits[j]) for j in sorted(queried)]
    return sum(reads), sum(c * c for c in reads)


def test_mc_batch_matches_a_per_trial_walk_of_the_round():
    # the vectorized evaluator against lv_run, trial by trial on the same
    # draws: on a fixed input a node drawing u runs round u on its own
    # children pattern; under the hard law a node of value b drawing u
    # has children pattern _DRAW30[b, u // 24] and runs round u % 24, and
    # both root values give the same reads
    h, n = 3, 200
    level = level_patterns(h, recursive_exact_worst(h)[1])
    pats = [24 * np.frombuffer(p, np.uint8).astype(np.uint16) for p in level]

    def fixed(k, i, b, u):
        return index_to_bits(int(level[k - 1][i]), 4), u

    def hard(k, i, b, u):
        return index_to_bits(int(randalg._DRAW30[b, u // 24]), 4), u % 24

    batch = randalg._mc_batch(h, n, np.random.default_rng(31), pats)
    assert walk_batch(h, n, np.random.default_rng(31), 24, fixed) == batch
    batch = randalg._mc_batch(h, n, np.random.default_rng(32), None)
    for root in (0, 1):
        assert walk_batch(h, n, np.random.default_rng(32), 720, hard, root) == batch


# whole reports of mc_mean_cost(h, trials, default_rng(seed), x=x,
# threads=threads): a change to the draws, their sizes or the frontier's
# order shows here
MC_REPORTS = [
    (1, 100_000, None, 1, 1, "161549/50000", 0.0017220576053082544),
    (2, 100_000, None, 1, 2, "209211/20000", 0.006348451541517821),
    (2, 100_000, None, 2, 2, "209211/20000", 0.006348451541517821),
    (2, 100_000, "0111100010001000", 2, 3, "527819/50000", 0.005083444988981389),
    (3, 5000, recursive_exact_worst(3)[1], 1, 4, "86157/2500", 0.10193627044384153),
    # children patterns 11 to 15, whose 24 * pattern keys pass 255
    (2, 100_000, "1100101111101111", 1, 7, "412211/50000", 0.004801142147031267),
    (3, 5000, recursive_exact_worst(3)[1].translate(str.maketrans("01", "10")), 2, 8,
     "85757/2500", 0.10088162583939654),
    (8, 24, None, 1, 5, "48773/4", 523.0500402619768),
    (9, 520, None, 1, 23, "9962921/260", 326.2865526646624),
    # more threads than substreams
    (2, 3, None, 8, 6, "12", 0.9428090415820634),
]


@pytest.mark.parametrize("h, trials, x, threads, seed, mean, stderr", MC_REPORTS)
def test_mc_reports_are_pinned(h, trials, x, threads, seed, mean, stderr):
    rep = mc_mean_cost(h, trials, np.random.default_rng(seed), x=x, threads=threads)
    assert rep == randalg.McReport(trials, Fraction(mean), stderr)


@pytest.mark.parametrize("h, trials", [(3, 5000), (4, 1500), (5, 500), (6, 150)])
def test_mc_mean_tracks_closed_form(h, trials):
    rep = mc_mean_cost(h, trials, np.random.default_rng(40 + h))
    assert abs(float(rep.mean - Fraction(97, 30) ** h)) < 4 * rep.stderr


def test_mc_mean_tracks_exact_cost_on_fixed_height_three_input():
    x = "".join(map(str, np.random.default_rng(34).integers(0, 2, size=64)))
    rep = mc_mean_cost(3, 5000, np.random.default_rng(35), x=x)
    assert abs(float(rep.mean - recursive_exact_moments(3, x)[0])) < 4 * rep.stderr


@pytest.mark.parametrize(
    "h, x", [(1, None), (3, None), (1, "1000"), (3, "1000" * 16)]
)
def test_mc_counts_trials_with_a_wrong_round_output(monkeypatch, capsys, h, x):
    # simulate r0 judges zero-error on the whole round table, not on the
    # trials that happen to read a wrong entry.  Round 6 (branch 1, order
    # 1, 2, 3) outputs 0 on 1000, which the hard law draws, and on 0000,
    # which it never draws; a flip of either must fail at any input
    argv = ["simulate", "r0", "--height", str(h), "--trials", "2000", "--seed", "36"]
    argv += [] if x is None else ["--input", x]
    right = randalg._ROUND_OUT
    for pat in ("1000", "0000"):
        wrong = right.copy()
        wrong[6, bits_to_index(pat)] ^= 1
        monkeypatch.setattr(randalg, "_ROUND_OUT", wrong)
        assert cli.main(argv) == 1, pat
        assert "zero-error: FAIL" in capsys.readouterr().out.splitlines(), pat


def test_chi_square_gof_accepts_true_law():
    rng = np.random.default_rng(14)
    probs = d()
    draws = rng.choice(16, size=100_000, p=[float(p) for p in probs])
    counts = np.bincount(draws, minlength=16)
    rep = chi_square_gof(counts, probs, alpha=1e-3)
    assert rep.ok
    assert rep.df == 13
    assert rep.impossible_hits == 0


@pytest.mark.parametrize(
    "df, alpha",
    # df 13 is the hard law's support less one, at the default alpha and
    # at the one simulate embed uses in the benchmark; df 37 and 349 hold
    # the quantile to scipy's far above the df any audit reaches
    [
        (13, 1e-3), (13, 1e-6), (15, 1e-3), (15, 1e-6), (3, 1e-3), (255, 1e-6), (1, 0.5),
        (37, 1e-3), (349, 1e-6),
    ],
)
def test_chi_square_critical_value_matches_scipy_stats(df, alpha):
    from scipy.stats import chi2

    c = chi_square_critical(df, alpha)
    # scipy rounds its own last digits, so agreement is to a tolerance
    assert c == pytest.approx(float(chi2.isf(alpha, df)), rel=1e-13, abs=0)
    # the bisection closed: c is the least float whose tail is <= alpha
    assert randalg._chi_square_sf(c, df) <= alpha < randalg._chi_square_sf(np.nextafter(c, 0), df)
    cells = df + 1
    rep = chi_square_gof([9] * cells, [Fraction(1, cells)] * cells, alpha=alpha)
    assert (rep.df, rep.critical) == (df, c)


def test_chi_square_critical_refuses_quantiles_past_its_range():
    # the quantile at df 3000 is about 3245, past where exp(-x/4) underflows
    assert chi_square_critical(400, 1e-300) == pytest.approx(2504.90769273233, rel=1e-13)
    with pytest.raises(ValueError, match="exceeds 2830"):
        chi_square_critical(3000, 1e-3)


def test_chi_square_gof_pools_sparse_cells():
    # five cells expecting 4 each pool in ascending order into 8 and 8,
    # and the last 4 joins the second: (1+2, 8) and (3+4+10, 12)
    rep = chi_square_gof([1, 2, 3, 4, 10], [Fraction(1, 5)] * 5)
    assert rep.df == 1
    assert rep.stat == pytest.approx(25 / 8 + 25 / 12)
    # a row expecting under 5 in all is one cell, with no freedom left
    rep = chi_square_gof([1, 2, 1, 0, 0], [Fraction(1, 5)] * 5)
    assert (rep.df, rep.stat, rep.critical, rep.ok) == (0, 0.0, 0.0, True)


def test_chi_square_gof_rejects_wrong_law():
    counts = np.zeros(16, dtype=np.int64)
    counts[8] = 60_000
    counts[7] = 40_000
    rep = chi_square_gof(counts, d(), alpha=1e-3)
    assert not rep.ok


def test_chi_square_gof_flags_impossible_cells():
    counts = np.zeros(16, dtype=np.int64)
    counts[0] = 5
    counts[8] = 99_995
    rep = chi_square_gof(counts, d(), alpha=1e-3)
    assert rep.impossible_hits == 5
    assert not rep.ok


def test_embedding_children_law_is_the_hard_law():
    assert embedding_children_law_exact() == d()


def test_embedding_slot_law_is_the_placement_law():
    # three of the 15 placement draws take slot 0, four each slot 1 to 3
    assert randalg.embedding_slot_law_exact() == randalg.SLOT_PROBS
    assert randalg.SLOT_PROBS == (Fraction(1, 5),) + (Fraction(4, 15),) * 3


def test_minority_conditionals_table():
    conds = minority_conditionals_exact()
    for i in range(4):
        for j in range(4):
            got = conds[(i, j)]
            if i == j:
                want = Fraction(0)  # the embedded child is always in the majority
            elif i == 0:
                want = Fraction(1, 3)
            elif j == 0:
                want = Fraction(1, 2)
            else:
                want = Fraction(1, 4)
            assert got == want, (i, j)


def test_minority_conditionals_refuse_unanimous_children(monkeypatch):
    # an outcome whose children all agree has no minority child to
    # leave through: a ValueError, under python -O as well, where an
    # assert would leave an IndexError
    pat = randalg._EMBED_PAT.copy()
    pat[0] = 0
    monkeypatch.setattr(randalg, "_EMBED_PAT", pat)
    with pytest.raises(ValueError, match="never agree unanimously"):
        minority_conditionals_exact()
    probe = (
        "from qlab import randalg\n"
        "randalg._EMBED_PAT[0] = 0\n"
        "try:\n"
        "    randalg.minority_conditionals_exact()\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(randalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ValueError: sampled children never agree unanimously\n"


def test_embed_check_rejects_other_levels():
    rng = np.random.default_rng(17)
    for level in (0, 3):
        with pytest.raises(ValueError):
            embed_check(level, 10, rng)


def test_embed_check_pinned():
    # seeded reports of the one-index sampler, and the next draw of the
    # generator afterwards; level 2 checks a table, not draws, so both
    # levels consume the same stream
    for level in (1, 2):
        for seed, slots, stat in (
            (0, (2001, 2614, 2682, 2703), 23.456999999999994),
            (3, (2027, 2699, 2599, 2675), 14.4616),
        ):
            rep = embed_check(level, 10_000, np.random.default_rng(seed))
            assert (rep.slot_counts, rep.chi2.stat) == (slots, stat), (level, seed)
            assert rep.bad_majority == rep.bad_value == rep.bad_sibling == 0
        rng = np.random.default_rng(11)
        embed_check(level, 500, rng)
        assert int(rng.integers(0, 2**62)) == 2967400572929997975, level


def test_embed_tables_follow_the_placement_rule():
    # outcome ((w * 15 + r) * 6 + k) * 2 + c: embedded value w, base-15
    # placement draw r, sibling triple k, sibling coin c
    assert randalg._EMBED_SLOT.shape == randalg._EMBED_PAT.shape == (360,)
    placement = [0] * 3 + [1] * 4 + [2] * 4 + [3] * 4
    for i, (slot, pat) in enumerate(zip(randalg._EMBED_SLOT.tolist(),
                                        randalg._EMBED_PAT.tolist())):
        rest, c = divmod(i, 2)
        rest, k = divmod(rest, 6)
        w, r = divmod(rest, 15)
        assert slot == placement[r], i
        bits = index_to_bits(pat, 4)
        assert bits[slot] == w, i
        if slot == 0:
            assert bits[1:] == randalg._NONUNANIMOUS[k], i
        else:
            assert bits[0] == c, i
            assert all(bits[j] == 1 - c for j in range(1, 4) if j != slot), i


def test_embed_check_passes_both_levels():
    rng = np.random.default_rng(18)
    for level in (1, 2):
        rep = embed_check(level, 100_000, rng, alpha=1e-3)
        assert rep.slot_ok and rep.chi2.ok, rep
        assert rep.bad_majority == 0
        assert rep.bad_value == 0
        assert rep.bad_sibling == 0
        assert rep.chi2.impossible_hits == 0


def test_embed_check_counts_sibling_misses_apart(monkeypatch):
    # with the draw table's value rows swapped every sibling block
    # evaluates to the other value; the flipped-value check does not
    # read the table, so only the sibling count moves
    monkeypatch.setattr(randalg, "_DRAW30", randalg._DRAW30[::-1])
    rep = embed_check(2, 1000, np.random.default_rng(19))
    assert rep.bad_sibling == 60  # every entry of the 2 x 30 draw table
    assert rep.bad_majority == rep.bad_value == 0
    assert randalg.embed_misses(2) == (0, 0, 60)
    assert embed_check(1, 1000, np.random.default_rng(19)).bad_sibling == 0
