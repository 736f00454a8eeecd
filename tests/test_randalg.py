"""Zero-error evaluation rounds, exact cost oracles, sampling checks.

The reference round implemented here is a separate transcription of the
two-branch protocol; agreement with the production tables on every input
and both branches is what the cost tests lean on.  The exact recursions
are checked against an enumeration of every input up to height 2 and
against a per-input recursion over the reference round at height 3.
"""

import importlib.util
import itertools
import os
from fractions import Fraction

import numpy as np
import pytest

from qlab import randalg
from qlab.boolfn import bits_to_index, fmaj, index_to_bits, iter_eval, parse_bits
from qlab.harddist import d, d0, d1, dh_support
from qlab.randalg import (
    MAX_MC_HEIGHT,
    chi_square_gof,
    embed_check,
    embedding_children_law_exact,
    lv_check_correct,
    lv_exact_cost,
    lv_fixed_order_worst,
    lv_run,
    lv_worst_cost,
    mc_mean_cost,
    minority_conditionals_exact,
    recursive_exact_moments,
    recursive_exact_worst,
)


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


def test_exact_cost_matches_reference():
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        assert lv_exact_cost(bits) == reference_cost(bits), pat


def test_exact_cost_point_values():
    assert lv_exact_cost("0000") == Fraction(11, 4)
    assert lv_exact_cost("0001") == Fraction(37, 12)


def test_worst_cost_thirteen_quarters():
    worst, argmax = lv_worst_cost()
    assert worst == Fraction(13, 4)
    assert argmax == [3, 5, 6, 7, 8, 9, 10, 12]


def test_mean_cost_under_hard_distribution():
    dd = d()
    mean = sum(
        (dd.mass(p) * lv_exact_cost(index_to_bits(p, 4)) for p in range(16)),
        Fraction(0),
    )
    assert mean == Fraction(97, 30)
    assert recursive_exact_moments(1)[0] == mean


def test_fixed_order_loses():
    worst, argmax = lv_fixed_order_worst((1, 2, 3))
    assert worst == 4
    assert argmax == [bits_to_index("0110"), bits_to_index("1001")]
    # randomizing the order is what keeps the worst case below four
    assert lv_worst_cost()[0] < worst


def test_cost_is_complement_invariant():
    for pat in range(16):
        comp = pat ^ 0xF
        assert lv_exact_cost(index_to_bits(pat, 4)) == lv_exact_cost(
            index_to_bits(comp, 4)
        )


def test_recursive_exact_cost_height_one_matches_round():
    for pat in range(16):
        bits = index_to_bits(pat, 4)
        assert recursive_exact_moments(1, bits)[0] == lv_exact_cost(bits)


def brute_height2_cost(x):
    """Exhaustive root randomness, expected quarter costs by linearity."""
    bits = parse_bits(x)
    quarters = [bits[k * 4 : (k + 1) * 4] for k in range(4)]
    vals = tuple(fmaj().eval(q) for q in quarters)
    total = Fraction(0)
    for branch, w in ((0, Fraction(1, 4)), (1, Fraction(3, 4))):
        for order in itertools.permutations((1, 2, 3)):
            _, reads = reference_round(vals, branch, order)
            inner = sum((lv_exact_cost(quarters[k]) for k in reads), Fraction(0))
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
    m0 = sum((m * lv_exact_cost(b) for b, m in dh_support(1)), Fraction(0))
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
    rng = np.random.default_rng(3)
    for pat in (3, 8, 12, 7):
        bits = index_to_bits(pat, 4)
        for _ in range(50):
            rep = mc_mean_cost(1, 1, rng, x=bits)
            assert rep.errors == 0
            assert 2 <= rep.mean <= 4


def test_mc_mean_determinism_and_threads():
    r1 = mc_mean_cost(1, 50_000, np.random.default_rng(21))
    r2 = mc_mean_cost(1, 50_000, np.random.default_rng(21))
    assert r1.mean == r2.mean
    assert r1.errors == r2.errors == 0
    r4 = mc_mean_cost(1, 50_000, np.random.default_rng(21), threads=4)
    assert r4.mean == r1.mean
    deep = mc_mean_cost(4, 1500, np.random.default_rng(22))
    assert mc_mean_cost(4, 1500, np.random.default_rng(22), threads=2) == deep


def test_mc_mean_tracks_exact_height_one():
    rep = mc_mean_cost(1, 200_000, np.random.default_rng(8))
    exact = float(Fraction(97, 30))
    assert rep.errors == 0
    assert abs(float(rep.mean) - exact) < 4 * rep.stderr


def test_mc_mean_tracks_exact_height_two():
    rep = mc_mean_cost(2, 200_000, np.random.default_rng(9), threads=2)
    exact = float(Fraction(9409, 900))
    assert rep.errors == 0
    assert abs(float(rep.mean) - exact) < 4 * rep.stderr


def test_mc_mean_fixed_input():
    rep = mc_mean_cost(1, 200_000, np.random.default_rng(10), x="0011")
    assert rep.errors == 0
    assert abs(float(rep.mean) - 3.25) < 4 * rep.stderr


def test_mc_batches_are_seed_deterministic():
    # 520 trials over 64 substreams: 8 or 9 trials each, run in batches
    # of 2**20 // 4**9 = 4 trials
    first = mc_mean_cost(9, 520, np.random.default_rng(23))
    assert mc_mean_cost(9, 520, np.random.default_rng(23)) == first
    assert first.errors == 0
    assert abs(float(first.mean - Fraction(97, 30) ** 9)) < 4 * first.stderr


@pytest.mark.parametrize("h, trials", [(3, 5000), (4, 1500), (5, 500), (6, 150)])
def test_mc_mean_tracks_closed_form(h, trials):
    rep = mc_mean_cost(h, trials, np.random.default_rng(40 + h))
    assert rep.errors == 0
    assert abs(float(rep.mean - Fraction(97, 30) ** h)) < 4 * rep.stderr


def test_mc_mean_tracks_exact_cost_on_fixed_height_three_input():
    x = "".join(map(str, np.random.default_rng(34).integers(0, 2, size=64)))
    rep = mc_mean_cost(3, 5000, np.random.default_rng(35), x=x)
    assert rep.errors == 0
    assert abs(float(rep.mean - recursive_exact_moments(3, x)[0])) < 4 * rep.stderr


@pytest.mark.parametrize(
    "h, x", [(1, None), (3, None), (1, "1000"), (3, "1000" * 16)]
)
def test_mc_counts_trials_with_a_wrong_round_output(monkeypatch, h, x):
    # round 6 (branch 1, order 1, 2, 3) reads three zeros on 1000 and
    # outputs 0; flipping that one output must show up as erring trials
    right = randalg._ROUND_OUT
    wrong = right.copy()
    wrong[6, bits_to_index("1000")] ^= 1
    monkeypatch.setattr(randalg, "_ROUND_OUT", wrong)
    rep = mc_mean_cost(h, 2000, np.random.default_rng(36), x=x)
    assert 0 < rep.errors < rep.trials
    # with every output flipped each trial errs, and counts once
    monkeypatch.setattr(randalg, "_ROUND_OUT", 1 - right)
    assert mc_mean_cost(h, 2000, np.random.default_rng(36), x=x).errors == 2000


def test_chi_square_gof_accepts_true_law():
    rng = np.random.default_rng(14)
    probs = d().dense()
    draws = rng.choice(16, size=100_000, p=[float(p) for p in probs])
    counts = np.bincount(draws, minlength=16)
    rep = chi_square_gof(counts, probs, alpha=1e-3)
    assert rep.ok
    assert rep.df == 13
    assert rep.impossible_hits == 0


@pytest.mark.parametrize(
    "df, alpha",
    # df 13 is the hard law's support less one, at the default alpha and
    # at the one simulate embed uses in the benchmark
    [(13, 1e-3), (13, 1e-6), (15, 1e-3), (15, 1e-6), (3, 1e-3), (255, 1e-6), (1, 0.5)],
)
def test_chi_square_critical_value_matches_scipy_stats(df, alpha):
    from scipy.stats import chi2

    cells = df + 1
    rep = chi_square_gof([1] * cells, [Fraction(1, cells)] * cells, alpha=alpha)
    assert rep.df == df
    assert rep.critical == float(chi2.isf(alpha, df))


def test_chi_square_gof_rejects_wrong_law():
    counts = np.zeros(16, dtype=np.int64)
    counts[8] = 60_000
    counts[7] = 40_000
    rep = chi_square_gof(counts, d().dense(), alpha=1e-3)
    assert not rep.ok


def test_chi_square_gof_flags_impossible_cells():
    counts = np.zeros(16, dtype=np.int64)
    counts[0] = 5
    counts[8] = 99_995
    rep = chi_square_gof(counts, d().dense(), alpha=1e-3)
    assert rep.impossible_hits == 5
    assert not rep.ok


def test_embedding_children_law_is_the_hard_law():
    law = embedding_children_law_exact()
    dd = d()
    for idx in range(16):
        assert law.get(idx, Fraction(0)) == dd.mass(idx), idx


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


def test_embed_check_rejects_other_levels():
    rng = np.random.default_rng(17)
    for level in (0, 3):
        with pytest.raises(ValueError):
            embed_check(level, 10, rng)


def test_embed_check_pinned():
    # reports of the int64 embedding audit these lookups replaced, and the
    # next draw of the generator afterwards
    for level, after in ((1, 3844452935483079151), (2, 1702840043417469758)):
        for seed, slots, stat in (
            (0, (2055, 2629, 2638, 2678), 14.830499999999999),
            (3, (2052, 2635, 2663, 2650), 23.032900000000016),
        ):
            rep = embed_check(level, 10_000, np.random.default_rng(seed))
            assert (rep.slot_counts, rep.chi2.stat) == (slots, stat), (level, seed)
            assert rep.bad_majority == rep.bad_value == 0
        rng = np.random.default_rng(11)
        embed_check(level, 500, rng)
        assert int(rng.integers(0, 2**62)) == after, level


def test_embed_tables_follow_the_placement_rule():
    assert randalg._EMBED_SLOT.tolist() == [0] * 3 + [1] * 4 + [2] * 4 + [3] * 4
    for slot in range(4):
        for k in range(6):
            for c in (0, 1):
                bits = index_to_bits(int(randalg._EMBED_SIBS[slot, k, c]), 4)
                assert bits[slot] == 0
                if slot == 0:
                    assert bits[1:] == randalg._NONUNANIMOUS[k]
                else:
                    assert bits[0] == c
                    assert all(bits[j] == 1 - c for j in range(1, 4) if j != slot)


def test_embed_check_passes_both_levels():
    rng = np.random.default_rng(18)
    for level in (1, 2):
        rep = embed_check(level, 100_000, rng, alpha=1e-3)
        assert rep.ok, rep
        assert rep.bad_majority == 0
        assert rep.bad_value == 0
        assert rep.chi2.impossible_hits == 0
