"""The recursive input law, minority paths, and the charge matrices."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qlab.boolfn import bits_to_index, fmaj, index_to_bits
from qlab.harddist import (
    InputDistribution,
    SupportError,
    d,
    d0,
    d1,
    dh_mass,
    dh_support,
    dh_total,
    dist_from_text,
    dist_to_text,
    jk_cost_matrices,
    load_dist,
    minority_leaf_law,
    minority_level1_counts,
    minority_marginals_exact,
    sample_inputs,
    save_dist,
)
from qlab import harddist
from qlab.randalg import chi_square_gof

SEED_MASSES = {
    "1000": Fraction(2, 5),
    "0011": Fraction(1, 6),
    "0101": Fraction(1, 6),
    "0110": Fraction(1, 6),
    "0001": Fraction(1, 30),
    "0010": Fraction(1, 30),
    "0100": Fraction(1, 30),
}


def complement(bits):
    return "".join("1" if c == "0" else "0" for c in bits)


def test_seed_masses_pinned():
    dd0 = d0()
    assert sum(SEED_MASSES.values()) == 1
    for bits, mass in SEED_MASSES.items():
        assert dd0.mass(bits_to_index(bits)) == mass
    assert dd0.mass(0) == 0
    assert dd0.mass(15) == 0


def test_mirror_distribution_complements():
    dd1 = d1()
    for bits, mass in SEED_MASSES.items():
        assert dd1.mass(bits_to_index(complement(bits))) == mass


def test_mixture_masses():
    dd = d()
    assert dd.mass(bits_to_index("1000")) == Fraction(1, 5)
    assert dd.mass(bits_to_index("0111")) == Fraction(1, 5)
    assert dd.mass(bits_to_index("0011")) == Fraction(1, 12)
    assert dd.mass(bits_to_index("1100")) == Fraction(1, 12)
    assert dd.mass(bits_to_index("0001")) == Fraction(1, 60)
    assert dd.mass(bits_to_index("1110")) == Fraction(1, 60)
    assert dd.mass(0) == 0
    assert dd.mass(15) == 0
    assert len(dd.support()) == 14
    assert sum(dd.dense(), Fraction(0)) == 1


def test_seed_sides_balance_function_value():
    # the two mixture halves sit entirely on opposite function values
    f = fmaj()
    for idx in d0().support():
        assert f.bit(idx) == 0
    for idx in d1().support():
        assert f.bit(idx) == 1


def test_input_distribution_validates():
    with pytest.raises(ValueError):
        InputDistribution(4, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        InputDistribution(4, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_dh_mass_product_structure():
    # independent product computation for one height-2 input: the root
    # children pattern and each quarter pattern are drawn from the seed
    # law matched to the local value
    x = "0111100010001000"
    quarters = [x[i : i + 4] for i in range(0, 16, 4)]
    vals = tuple(fmaj().eval(q) for q in quarters)
    assert vals == (1, 0, 0, 0)
    under_zero = SEED_MASSES["1000"]
    for q, v in zip(quarters, vals):
        pat = q if v == 0 else complement(q)
        under_zero *= SEED_MASSES[pat]
    assert under_zero == Fraction(2, 5) ** 5
    # the mirrored branch assigns this input zero mass
    assert dh_mass(2, x) == under_zero / 2 == Fraction(16, 3125)


def test_dh_mass_off_support():
    assert dh_mass(2, "1000001101010110") == 0
    assert dh_mass(1, "0000") == 0
    assert dh_mass(0, "0") == Fraction(1, 2)


def test_dh_mass_height_one_matches_mixture():
    dd = d()
    for idx in range(16):
        assert dh_mass(1, index_to_bits(idx, 4)) == dd.mass(idx)


def test_dh_support_sizes_and_totals():
    sizes = {}
    for h in (0, 1, 2):
        total = Fraction(0)
        count = 0
        for bits, mass in dh_support(h):
            assert mass > 0
            total += mass
            count += 1
        assert total == 1, h
        sizes[h] = count
    assert sizes == {0: 2, 1: 14, 2: 33614}
    # seven seed patterns at the root and per child, mirrored halves disjoint
    assert sizes[2] == 2 * 7 ** 5


def test_dh_total_sums_integer_weights():
    assert dh_total(0) == (2, 1)
    assert dh_total(1) == (14, 1)
    assert dh_total(2) == (33614, 1)
    with pytest.raises(ValueError):
        dh_total(3)


def test_support_weights_are_integers_over_one_denominator():
    # per root value, the weights over 30**(internal nodes) sum to it
    for h, internal in ((0, 0), (1, 1), (2, 5)):
        for b in (0, 1):
            weights = [w for _, w in harddist._dhb_support(h, b)]
            assert all(isinstance(w, int) and w > 0 for w in weights)
            assert sum(weights) == 30**internal, (h, b)
    denom = 2 * 30**5
    for bits, w in itertools.islice(harddist._dhb_support(2, 1), 0, 16807, 331):
        assert dh_mass(2, bits) == Fraction(w, denom)


def test_dh_support_masses_agree_with_dh_mass():
    for bits, mass in itertools.islice(dh_support(2), 0, 2000, 97):
        assert dh_mass(2, bits) == mass


def test_dh_support_rejects_tall_trees():
    with pytest.raises(ValueError):
        next(dh_support(3))


def test_sample_inputs_distribution_height_one():
    rng = np.random.default_rng(1234)
    xs = sample_inputs(1, 100_000, rng)
    assert xs.shape == (100_000, 4)
    idx = xs @ np.array([8, 4, 2, 1])
    counts = np.bincount(idx, minlength=16)
    rep = chi_square_gof(counts, d().dense(), alpha=1e-3)
    assert rep.impossible_hits == 0
    assert rep.ok, rep


def test_sample_inputs_height_two_on_support():
    rng = np.random.default_rng(99)
    xs = sample_inputs(2, 300, rng)
    assert xs.shape == (300, 16)
    for row in xs:
        assert dh_mass(2, tuple(int(v) for v in row)) > 0
    for row in sample_inputs(3, 100, rng):
        assert dh_mass(3, tuple(int(v) for v in row)) > 0


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# outputs of the int64 sampler these lookups replaced, for fixed seeds:
# (height, seed) -> (digest of sample_inputs(h, 1000), sum of its bits),
# and the next draw of the generator afterwards, which pins how much of
# the stream each call consumes
PINNED_SAMPLES = {
    (1, 0): ("a4210a6758a5d810", 2023),
    (1, 7): ("bcd7aba247a509a4", 1992),
    (2, 0): ("cd27d14bb3b2111f", 8037),
    (2, 7): ("2f360a9a7b6f725d", 8014),
    (3, 0): ("342f2ea1a248f55c", 32030),
    (3, 7): ("81b60460ba576a70", 31984),
}
PINNED_NEXT_DRAW = {1: 1144210423121736275, 2: 3079405470740573113, 3: 2230019557256858157}


def test_sample_inputs_pinned_stream():
    for (h, seed), (digest, ones) in PINNED_SAMPLES.items():
        xs = sample_inputs(h, 1000, np.random.default_rng(seed))
        assert xs.dtype == np.uint8 and xs.shape == (1000, 4**h)
        assert (_digest(xs), int(xs.sum())) == (digest, ones), (h, seed)
    assert sample_inputs(2, 3, np.random.default_rng(5)).tolist() == [
        [1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
        [0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1],
        [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1],
    ]
    for h, draw in PINNED_NEXT_DRAW.items():
        rng = np.random.default_rng(11)
        sample_inputs(h, 500, rng)
        assert int(rng.integers(0, 2**62)) == draw, h


def test_minority_level1_counts_pinned():
    assert minority_level1_counts(10_000, np.random.default_rng(0)).tolist() == [
        4007, 2033, 1949, 2011
    ]
    assert minority_level1_counts(10_000, np.random.default_rng(3)).tolist() == [
        4018, 1982, 1973, 2027
    ]
    rng = np.random.default_rng(11)
    minority_level1_counts(500, rng)
    assert int(rng.integers(0, 2**62)) == 2152903977228906969


def test_category_table_matches_thresholds():
    # draw u in [0, 30) falls in the first category whose running mass
    # in thirtieths exceeds it
    cum = list(itertools.accumulate(harddist._SEED30))
    assert cum[-1] == 30
    for u in range(30):
        assert harddist._CAT30[u] == next(c for c, t in enumerate(cum) if u < t)
    for v in (0, 1):
        for c, s in enumerate(SEED_MASSES):
            pat = bits_to_index(s if v == 0 else complement(s))
            assert harddist._PATS[v, c] == pat
            assert Fraction(harddist._SEED30[c], 30) == SEED_MASSES[s]


def test_minority_unique_dissenter():
    assert minority_leaf_law(1, "1000") == {0: Fraction(1)}
    assert minority_leaf_law(1, "0100") == {1: Fraction(1)}
    assert minority_leaf_law(0, "1") == {0: Fraction(1)}


def test_minority_split_dissenters():
    assert minority_leaf_law(1, "0011") == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert minority_leaf_law(1, "1010") == {1: Fraction(1, 2), 3: Fraction(1, 2)}


def test_minority_needs_a_dissenter():
    with pytest.raises(SupportError):
        minority_leaf_law(1, "0000")
    with pytest.raises(SupportError):
        minority_leaf_law(1, "1111")
    # an all-agree node below a dissenting path, at level 1
    with pytest.raises(SupportError):
        minority_leaf_law(2, "0000" + "0111" * 3)


def test_minority_leaf_law_height_two_composes_height_one():
    # the root step splits evenly over the dissenting quarters, and each
    # quarter it enters continues with its own height-1 law
    f = fmaj()
    for bits, _ in itertools.islice(dh_support(2), 0, 33614, 499):
        quarters = [bits[4 * j : 4 * j + 4] for j in range(4)]
        vals = [f.eval(q) for q in quarters]
        dissent = [j for j in range(4) if vals[j] != f.eval(vals)]
        want = {}
        for j in dissent:
            for leaf, p in minority_leaf_law(1, quarters[j]).items():
                want[4 * j + leaf] = p / len(dissent)
        assert minority_leaf_law(2, bits) == want, bits


def test_minority_leaf_law_height_three_on_sampled_inputs():
    for row in sample_inputs(3, 200, np.random.default_rng(21)):
        law = minority_leaf_law(3, row.tolist())
        assert sum(law.values()) == 1
        # at most two dissenters per node, each split by a fair coin
        assert 1 <= len(law) <= 8
        assert all(p.numerator == 1 and p.denominator in (1, 2, 4, 8) for p in law.values())


def test_minority_marginals_exact():
    marg = minority_marginals_exact()
    assert marg == (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    # direct recomputation from the mixture and per-input leaf laws
    dd = d()
    direct = [Fraction(0)] * 4
    for idx in dd.support():
        for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
            direct[leaf] += dd.mass(idx) * p
    assert tuple(direct) == marg


def test_minority_level1_counts_match_marginals():
    rng = np.random.default_rng(77)
    counts = minority_level1_counts(400_000, rng)
    n = counts.sum()
    assert n == 400_000
    expect = np.array([0.4, 0.2, 0.2, 0.2])
    sigma = np.sqrt(expect * (1 - expect) / n)
    assert (np.abs(counts / n - expect) < 4 * sigma).all(), counts


def test_charge_matrix_shapes_and_row_sums():
    cj, ck = jk_cost_matrices()
    assert cj.n == 4 and ck.n == 4
    dd = d()
    marg = minority_marginals_exact()
    # each diagonal charge row integrates to one by construction
    for i in range(4):
        assert sum(cj.rows[i], Fraction(0)) == 1
    # independent transcription of both matrix definitions
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in dd.support():
        for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
            prob[leaf][idx] = p
    coeff = [[Fraction(0)] * 4 for _ in range(4)]
    for i in (1, 2, 3):
        coeff[i][0] = Fraction(2, 5)
    for j in (1, 2, 3):
        for i in range(4):
            if i != j:
                coeff[i][j] = Fraction(1, 5)
    for i in range(4):
        for x in range(16):
            assert cj.rows[i][x] == dd.mass(x) * prob[i][x] / marg[i]
            want = sum(
                (coeff[i][j] * dd.mass(x) * prob[j][x] / marg[j] for j in range(4)),
                Fraction(0),
            )
            assert ck.rows[i][x] == want


def test_cross_charge_skips_first_leaf_condition():
    # charges against leaf 1 never price leaf 1's own read
    _, ck = jk_cost_matrices()
    # on the input whose sole dissenter is leaf 1, row 1 collects nothing
    assert ck.rows[0][bits_to_index("1000")] == 0
    assert ck.rows[0][bits_to_index("0111")] == 0


def test_dist_text_round_trip(tmp_path):
    dd = d()
    text = dist_to_text(dd)
    assert dist_from_text(text) == dd
    path = tmp_path / "d.dist"
    save_dist(dd, path)
    assert load_dist(path) == dd


def test_dist_text_rejects_garbage():
    with pytest.raises(ValueError):
        dist_from_text("100 1/5\n")
    with pytest.raises(ValueError):
        dist_from_text("1000 1/5\n")  # does not sum to 1
    with pytest.raises(ValueError):
        dist_from_text("1000 2/2/2\n")
