"""The recursive input law, minority paths, and the charge matrices."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qlab.boolfn import MAX_VARS, bits_to_index, fmaj, index_to_bits, parse_bits
from qlab.harddist import (
    _SEED30,
    MAX_ENUM_HEIGHT,
    SupportError,
    d,
    d0,
    d1,
    dh_law,
    dh_mass,
    dh_total,
    dist_from_text,
    dist_to_text,
    jk_cost_matrices,
    minority_leaf_law,
    minority_level1_counts,
    minority_marginals_exact,
)
from qlab import harddist

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


# the reference enumeration of the hard law that the tests compare
# against: top down from the seed, one subtree combination at a time,
# independent of the level-pattern walk behind dh_mass and dh_total

def dh_support(h):
    """All inputs of positive mass with their masses; full enumeration
    is kept to h <= 2 (the height-2 support already has 33614 points)."""
    denom = _support_denominator(h)
    return ((bits, Fraction(w, denom)) for b in (0, 1) for bits, w in _dhb_support(h, b))


def _support_denominator(h):
    if h > MAX_ENUM_HEIGHT:
        raise ValueError(f"support enumeration supports h <= {MAX_ENUM_HEIGHT}")
    return 2 * 30 ** ((4**h - 1) // 3)


def _dhb_support(h, b):
    """Support of the height-h law at root value b, each point with its
    mass times 30**((4**h - 1) // 3)."""
    if h == 0:
        yield (b,), 1
        return
    for seed, base in _SEED30.items():
        subs = [list(_dhb_support(h - 1, bv ^ b)) for bv in parse_bits(seed)]
        for combo in itertools.product(*subs):
            yield sum((bits for bits, _ in combo), ()), base * math.prod(w for _, w in combo)


def test_seed_masses_pinned():
    dd0 = d0()
    assert sum(SEED_MASSES.values()) == 1
    for bits, mass in SEED_MASSES.items():
        assert dd0[bits_to_index(bits)] == mass
    assert dd0[0] == 0
    assert dd0[15] == 0


def test_mirror_distribution_complements():
    dd1 = d1()
    for bits, mass in SEED_MASSES.items():
        assert dd1[bits_to_index(complement(bits))] == mass


def test_mixture_masses():
    dd = d()
    assert dd[bits_to_index("1000")] == Fraction(1, 5)
    assert dd[bits_to_index("0111")] == Fraction(1, 5)
    assert dd[bits_to_index("0011")] == Fraction(1, 12)
    assert dd[bits_to_index("1100")] == Fraction(1, 12)
    assert dd[bits_to_index("0001")] == Fraction(1, 60)
    assert dd[bits_to_index("1110")] == Fraction(1, 60)
    assert dd[0] == 0
    assert dd[15] == 0
    assert len(dd) == 16 and sum(m != 0 for m in dd) == 14
    assert sum(dd, Fraction(0)) == 1


def test_seed_sides_balance_function_value():
    # the two mixture halves sit entirely on opposite function values
    f = fmaj()
    for idx, (m0, m1) in enumerate(zip(d0(), d1())):
        assert not m0 or f.bit(idx) == 0
        assert not m1 or f.bit(idx) == 1


def test_dist_from_text_validates():
    # each refusal the loader makes on a law read from outside
    with pytest.raises(ValueError, match="bit length mismatch on line '000 1/2'"):
        dist_from_text("0000 1/2\n000 1/2\n")
    with pytest.raises(ValueError, match="duplicate input on line '0000 1/2'"):
        dist_from_text("0000 1/2\n0000 1/2\n")
    with pytest.raises(ValueError, match="zero denominator on line '0000 1/0'"):
        dist_from_text("0000 1/0\n")
    with pytest.raises(ValueError, match="negative mass at index 1"):
        dist_from_text("0000 3/2\n0001 -1/2\n")
    with pytest.raises(ValueError, match="masses do not sum to 1"):
        dist_from_text("1000 1/5\n")
    # the total is exact over mixed denominators: 1/3 + 1/6 + 1/6 = 2/3
    with pytest.raises(ValueError, match="masses do not sum to 1"):
        dist_from_text("00 1/3\n01 1/6\n10 1/6\n")
    # a 17-bit line is refused before a law of 2**17 entries is built
    with pytest.raises(ValueError, match=f"more than {MAX_VARS} bits on line"):
        dist_from_text("0" * 17 + " 1\n")
    assert dist_from_text("0" * MAX_VARS + " 1\n") == (1,) + (0,) * (2**MAX_VARS - 1)
    # a zero-mass line adds nothing and is dropped from the text written back
    law = dist_from_text("00 1/3\n01 1/6\n10 1/2\n11 0/7\n")
    assert law == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), 0)
    assert dist_to_text(law) == "00 1/3\n01 1/6\n10 1/2\n"


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
        assert dh_mass(1, index_to_bits(idx, 4)) == dd[idx]


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
    for h in (0, 1, 2):
        masses = [m for _, m in dh_support(h)]
        assert dh_total(h) == (len(masses), sum(masses, Fraction(0))), h
    for h in (-1, 3, 10**9):
        with pytest.raises(ValueError):
            dh_total(h)


def test_dh_law_is_the_reference_enumeration():
    assert dh_law(1) == d()
    for h in (0, 1, 2):
        want = [Fraction(0)] * 2 ** 4**h
        for bits, m in dh_support(h):
            want[bits_to_index(bits)] = m
        assert dh_law(h) == tuple(want), h
    for h in (-1, 3):
        with pytest.raises(ValueError):
            dh_law(h)


def test_support_weights_are_integers_over_one_denominator():
    # per root value, the weights over 30**(internal nodes) sum to it
    for h, internal in ((0, 0), (1, 1), (2, 5)):
        for b in (0, 1):
            weights = [w for _, w in _dhb_support(h, b)]
            assert all(isinstance(w, int) and w > 0 for w in weights)
            assert sum(weights) == 30**internal, (h, b)
    denom = 2 * 30**5
    for bits, w in itertools.islice(_dhb_support(2, 1), 0, 16807, 331):
        assert dh_mass(2, bits) == Fraction(w, denom)


def test_dh_support_masses_agree_with_dh_mass():
    for bits, mass in itertools.islice(dh_support(2), 0, 2000, 97):
        assert dh_mass(2, bits) == mass


def test_dh_support_rejects_tall_trees():
    with pytest.raises(ValueError):
        next(dh_support(3))


def test_minority_level1_counts_pinned():
    assert minority_level1_counts(10_000, np.random.default_rng(0)).tolist() == [
        3972, 2002, 1966, 2060
    ]
    assert minority_level1_counts(10_000, np.random.default_rng(3)).tolist() == [
        4098, 1942, 1991, 1969
    ]
    # one draw per trial, an index into the first step's 120 outcomes
    rng = np.random.default_rng(11)
    minority_level1_counts(500, rng)
    fresh = np.random.default_rng(11)
    fresh.integers(0, 120, size=500, dtype=np.uint16)
    assert rng.bit_generator.state == fresh.bit_generator.state
    assert int(rng.integers(0, 2**62)) == 2967400572929997975


def test_category_table_matches_thresholds():
    # draw u in [0, 30) picks the first seed pattern whose running mass
    # in thirtieths exceeds it; a node of value 1 picks its complement
    cum = list(itertools.accumulate(int(m * 30) for m in SEED_MASSES.values()))
    assert cum[-1] == 30
    assert [len(row) for row in harddist._DRAW30] == [30, 30]
    for u in range(30):
        s = next(s for s, t in zip(SEED_MASSES, cum) if u < t)
        assert harddist._DRAW30[0][u] == bits_to_index(s)
        assert harddist._DRAW30[1][u] == bits_to_index(complement(s))
    for v in (0, 1):
        for s in SEED_MASSES:
            pat = bits_to_index(s if v == 0 else complement(s))
            assert Fraction(harddist._SEED_W[v][pat], 30) == SEED_MASSES[s]
            assert harddist._W30[pat] == harddist._SEED_W[v][pat]
    assert sum(map(sum, harddist._SEED_W)) == 60


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


def support_inputs(h, count, rng):
    """count height-h inputs drawn top down from SEED_MASSES: a fair
    root value, then each node's children pattern from the seed of its
    value, complemented for value 1."""
    patterns = list(SEED_MASSES)
    probs = [float(m) for m in SEED_MASSES.values()]
    for _ in range(count):
        vals = [int(rng.integers(2))]
        for _ in range(h):
            vals = [v ^ int(c) for v in vals for c in patterns[rng.choice(7, p=probs)]]
        yield vals


def test_minority_leaf_law_height_three_on_sampled_inputs():
    for row in support_inputs(3, 200, np.random.default_rng(21)):
        assert dh_mass(3, row) > 0
        law = minority_leaf_law(3, row)
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
    for idx in range(16):
        if dd[idx]:
            for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
                direct[leaf] += dd[idx] * p
    assert tuple(direct) == marg


def test_dissenter_pick_follows_the_dissent_slots():
    # coin 0 takes the first dissenter and coin 1 the last, so a lone
    # dissenter is taken outright; 255 marks a pattern with none
    f = fmaj()
    for p in range(16):
        bits = index_to_bits(p, 4)
        slots = [j for j in range(4) if bits[j] != f.bit(p)]
        assert len(slots) <= 2, p
        want = [slots[0], slots[-1]] if slots else [255, 255]
        assert list(harddist._DIS_PICK[p]) == want, p
    assert [list(harddist._DIS_PICK[p]) for p in (0b0000, 0b1000, 0b0011, 0b1100)] == [
        [255, 255], [0, 0], [2, 3], [2, 3]
    ]


def test_minority_counts_report_an_all_agree_root_as_a_sampler_fault(monkeypatch):
    # the all-zero pattern lies off the support; only a broken draw
    # table yields it
    monkeypatch.setattr(harddist, "_DRAW30", ((0,) * 30,) * 2)
    with pytest.raises(RuntimeError, match="all-agree root"):
        minority_level1_counts(10, np.random.default_rng(0))


def test_minority_counts_judge_the_whole_step_table_before_drawing(monkeypatch):
    # an all-agree pick at any pattern the draw table holds, on either
    # coin, is refused before the generator moves
    for pat in sorted(set(harddist._DRAW30[0] + harddist._DRAW30[1])):
        for coin in (0, 1):
            wrong = [list(picks) for picks in harddist._DIS_PICK]
            wrong[pat][coin] = 255
            monkeypatch.setattr(harddist, "_DIS_PICK", tuple(map(tuple, wrong)))
            rng = np.random.default_rng(5)
            with pytest.raises(RuntimeError, match="all-agree root"):
                minority_level1_counts(10**6, rng)
            assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_minority_level1_counts_match_marginals():
    rng = np.random.default_rng(77)
    counts = minority_level1_counts(400_000, rng)
    n = counts.sum()
    assert n == 400_000
    expect = np.array([0.4, 0.2, 0.2, 0.2])
    sigma = np.sqrt(expect * (1 - expect) / n)
    assert (np.abs(counts / n - expect) < 4 * sigma).all(), counts


def charge(cost, i, x):
    """The charge of querying x_{i+1} on input x, as a Fraction."""
    return Fraction(cost.rows[cost.which[i]][x], cost.denom)


def test_charge_matrix_shapes_and_row_sums():
    cj, ck = jk_cost_matrices()
    assert cj.n == 4 and ck.n == 4
    dd = d()
    marg = minority_marginals_exact()
    # each diagonal charge row integrates to one by construction
    for i in range(4):
        assert sum((charge(cj, i, x) for x in range(16)), Fraction(0)) == 1
    # independent transcription of both matrix definitions
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in range(16):
        if dd[idx]:
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
            assert charge(cj, i, x) == dd[x] * prob[i][x] / marg[i]
            want = sum(
                (coeff[i][j] * dd[x] * prob[j][x] / marg[j] for j in range(4)),
                Fraction(0),
            )
            assert charge(ck, i, x) == want


def test_cross_charge_skips_first_leaf_condition():
    # charges against leaf 1 never price leaf 1's own read
    _, ck = jk_cost_matrices()
    # on the input whose sole dissenter is leaf 1, row 1 collects nothing
    assert charge(ck, 0, bits_to_index("1000")) == 0
    assert charge(ck, 0, bits_to_index("0111")) == 0


def test_dist_text_round_trip():
    dd = d()
    text = dist_to_text(dd)
    assert dist_from_text(text) == dd


def test_dist_text_rejects_garbage():
    with pytest.raises(ValueError):
        dist_from_text("100 1/5\n")
    with pytest.raises(ValueError):
        dist_from_text("1000 2/2/2\n")
    with pytest.raises(ValueError, match="not a bit string: '10x0'"):
        dist_from_text("10x0 1/2\n0000 1/2\n")
    with pytest.raises(ValueError, match="not a bit string: '-101'"):
        dist_from_text("-101 1\n")
    with pytest.raises(ValueError, match="no masses in distribution text"):
        dist_from_text("# only a comment\n")
