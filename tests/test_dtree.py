"""Exact depth DP, weighted zero-error DP, and the minority charge values.

Reference computations here recompute everything top-down over explicit
restriction dictionaries, a different mechanism from the production
axis sweeps over the subcube lattice.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qlab.boolfn import IteratedMajority, TruthTable, fmaj, index_to_bits
from qlab.dtree import (
    CostMatrix,
    Leaf,
    MemoryGuardError,
    Node,
    UnsupportedHeight,
    delta0,
    dt_eval,
    exact_depth,
    j_value,
    k_value,
    load_tree,
    min_weighted_zero_error,
    save_tree,
    tree_computes,
    tree_cost,
    tree_depth,
    tree_from_text,
    tree_to_partition,
    tree_to_text,
)
from qlab.harddist import d, jk_cost_matrices, minority_leaf_law, minority_marginals_exact
from qlab.subcube import computes, validate


def subcube_members(n, mask, vals):
    out = []
    for idx in range(1 << n):
        if (idx & mask) == vals:
            out.append(idx)
    return out


def brute_depth(f):
    """Top-down restriction recursion, memoized on (mask, vals)."""
    n = f.n

    @lru_cache(maxsize=None)
    def rec(mask, vals):
        outs = {f.bit(i) for i in subcube_members(n, mask, vals)}
        if len(outs) == 1:
            return 0
        best = n
        for k in range(n):
            bit = 1 << k
            if mask & bit:
                continue
            depth = 1 + max(rec(mask | bit, vals), rec(mask | bit, vals | bit))
            best = min(best, depth)
        return best

    return rec(0, 0)


def brute_weighted(f, cost):
    """Top-down minimum of the weighted zero-error charge."""
    n = f.n
    rows = cost.rows

    @lru_cache(maxsize=None)
    def rec(mask, vals):
        members = subcube_members(n, mask, vals)
        outs = {f.bit(i) for i in members}
        if len(outs) == 1:
            return Fraction(0)
        best = None
        for j in range(n):
            bit = 1 << (n - 1 - j)  # variable j+1 reads the bit at this position
            if mask & bit:
                continue
            here = sum((rows[j][x] for x in members), Fraction(0))
            total = here + rec(mask | bit, vals) + rec(mask | bit, vals | bit)
            if best is None or total < best:
                best = total
        return best

    return rec(0, 0)


def minority_read_probability():
    """prob[i][x] that leaf i is the minority leaf of input x."""
    dist = d()
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in dist.support():
        for leaf, p in minority_leaf_law(1, index_to_bits(idx, 4)).items():
            prob[leaf][idx] = p
    return prob


def charge_given_minority(tree, i, j):
    """Expected indicator that the tree reads x_{i+1}, conditioned on
    leaf j+1 being the minority leaf, input drawn from the hard law."""
    dist = d()
    prob = minority_read_probability()
    marg = minority_marginals_exact()
    total = Fraction(0)
    for idx in range(16):
        mass = dist.mass(idx) * prob[j][idx] / marg[j]
        if mass == 0:
            continue
        _, reads = dt_eval(tree, index_to_bits(idx, 4))
        if i in reads:
            total += mass
    return total


HAND_TREE = Node(
    0,
    Node(1, Leaf(0), Node(2, Node(3, Leaf(0), Leaf(0)), Node(3, Leaf(0), Leaf(1)))),
    Node(1, Node(2, Node(3, Leaf(0), Leaf(1)), Leaf(1)), Leaf(1)),
)


def test_dt_eval_tracks_path():
    out, reads = dt_eval(HAND_TREE, "1000")
    assert out == 0
    assert reads == [0, 1, 2, 3]
    out, reads = dt_eval(HAND_TREE, "0011")
    assert out == 0
    assert reads == [0, 1]


def test_hand_tree_computes_fmaj():
    assert tree_computes(HAND_TREE, fmaj())
    assert tree_depth(HAND_TREE) == 4


def test_tree_to_partition_round_trip():
    part = tree_to_partition(HAND_TREE, 4)
    assert validate(part).ok
    assert computes(part, fmaj())


def test_exact_depth_matches_brute_force_small():
    for bits in range(16):
        f = TruthTable(2, bits)
        assert exact_depth(f) == brute_depth(f), bits
    for bits in range(0, 256, 7):
        f = TruthTable(3, bits)
        assert exact_depth(f) == brute_depth(f), bits


def test_exact_depth_matches_brute_force_sampled_four_vars():
    for bits in range(0, 1 << 16, 4099):
        f = TruthTable(4, bits)
        assert exact_depth(f) == brute_depth(f), bits


def test_exact_depth_matches_brute_force_random_up_to_six_vars():
    rng = random.Random(11)
    for n in (5, 6):
        for _ in range(15):
            f = TruthTable(n, rng.getrandbits(1 << n))
            assert exact_depth(f) == brute_depth(f), (n, f.bits)


def test_canonical_witness_trees_are_pinned():
    # trees printed by the level-by-level DP this relaxation replaced
    depth, tree = exact_depth(fmaj(), want_tree=True)
    assert (depth, tree_to_text(tree)) == (4, "(1 (2 =0 (3 =0 (4 =0 =1))) (2 (3 (4 =0 =1) =1) =1))")
    cj, ck = jk_cost_matrices()
    balanced = "(2 (3 (4 =0 (1 =0 =1)) (1 =0 =1)) (3 (1 =0 =1) (4 (1 =0 =1) =1)))"
    pinned = [
        (cj, Fraction(13, 6), balanced),
        (ck, Fraction(53, 20), "(1 (2 =0 (3 =0 (4 =0 =1))) (2 (3 (4 =0 =1) =1) =1))"),
        (CostMatrix.uniform(d().dense()), Fraction(16, 5), balanced),
    ]
    for cost, want_value, want_tree in pinned:
        value, tree = min_weighted_zero_error(fmaj(), cost, want_tree=True)
        assert (value, tree_to_text(tree)) == (want_value, want_tree)


def test_exact_depth_fmaj_is_four():
    depth, tree = exact_depth(fmaj(), want_tree=True)
    assert depth == 4
    assert tree_computes(tree, fmaj())
    assert tree_depth(tree) == 4


def test_exact_depth_memory_guard():
    with pytest.raises(MemoryGuardError):
        exact_depth(IteratedMajority(2).truth_table(), memory_limit=1000)


def test_cost_matrix_uniform_and_scale():
    masses = d().dense()
    cu = CostMatrix.uniform(masses)
    assert cu.n == 4
    assert all(cu.rows[i][x] == masses[x] for i in range(4) for x in range(16))
    doubled = cu.scale(Fraction(2))
    assert doubled.rows[0][8] == 2 * masses[8]


def test_tree_cost_uniform_is_expected_reads():
    masses = d().dense()
    cu = CostMatrix.uniform(masses)
    want = sum(
        (masses[i] * len(dt_eval(HAND_TREE, index_to_bits(i, 4))[1]) for i in range(16)),
        Fraction(0),
    )
    assert tree_cost(HAND_TREE, cu) == want


def test_min_weighted_matches_brute_force_two_vars():
    rows = [
        [Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(1, 2)],
        [Fraction(2, 7), Fraction(1, 7), Fraction(0), Fraction(4, 7)],
    ]
    cost = CostMatrix.from_lists(2, rows)
    for bits in range(16):
        f = TruthTable(2, bits)
        got = min_weighted_zero_error(f, cost)
        assert got == brute_weighted(f, cost), bits


def test_min_weighted_matches_brute_force_three_vars():
    rng = random.Random(5)
    cost = CostMatrix.from_lists(
        3, [[Fraction(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(8)] for _ in range(3)]
    )
    for bits in range(256):
        f = TruthTable(3, bits)
        value, tree = min_weighted_zero_error(f, cost, want_tree=True)
        assert value == brute_weighted(f, cost), bits
        assert tree_computes(tree, f) and tree_cost(tree, cost) == value


def test_min_weighted_witness_replays():
    masses = d().dense()
    cost = CostMatrix.uniform(masses)
    value, tree = min_weighted_zero_error(fmaj(), cost, want_tree=True)
    assert tree_computes(tree, fmaj())
    assert tree_cost(tree, cost) == value


def test_delta0_under_hard_distribution():
    value = delta0(fmaj(), d().dense())
    assert value == brute_weighted(fmaj(), CostMatrix.uniform(d().dense()))
    # regression constant, pinned after the cross-check above
    assert value == Fraction(16, 5)


def test_delta0_point_mass_needs_two_reads():
    # no single-variable restriction of the function is constant, so every
    # root-to-leaf path has two or more queries; reading variables 1 then 2
    # reaches the all-zero subcube 00** where the function is constantly 0
    f = fmaj()
    for j in range(4):
        for v in (0, 1):
            mask = 1 << (3 - j)
            vals = v << (3 - j)
            outs = {f.bit(i) for i in subcube_members(4, mask, vals)}
            assert len(outs) == 2
    point = [Fraction(0)] * 16
    point[0] = Fraction(1)
    assert delta0(f, point) == 2


def test_delta0_validates_distribution():
    with pytest.raises(ValueError):
        delta0(fmaj(), [Fraction(1, 16)] * 15)
    bad = [Fraction(1, 8)] * 8 + [Fraction(0)] * 8
    bad[0] = Fraction(-1, 8)
    with pytest.raises(ValueError):
        delta0(fmaj(), bad)
    with pytest.raises(ValueError):
        delta0(fmaj(), [Fraction(1, 32)] * 16)


def test_min_weighted_rejects_oversized():
    f9 = TruthTable(9, 0)
    with pytest.raises(ValueError):
        min_weighted_zero_error(f9, CostMatrix.uniform([Fraction(1, 512)] * 512))


def test_charge_matrices_agree_with_direct_conditional_sums():
    cj, ck = jk_cost_matrices()
    trees = [
        min_weighted_zero_error(fmaj(), cj, want_tree=True)[1],
        min_weighted_zero_error(fmaj(), ck, want_tree=True)[1],
        min_weighted_zero_error(fmaj(), CostMatrix.uniform(d().dense()), want_tree=True)[1],
        HAND_TREE,
    ]
    for tree in trees:
        j10_direct = sum(
            (charge_given_minority(tree, i, i) for i in range(4)), Fraction(0)
        )
        assert tree_cost(tree, cj) == j10_direct
        k_direct = Fraction(2, 5) * sum(
            (charge_given_minority(tree, i, 0) for i in (1, 2, 3)), Fraction(0)
        ) + Fraction(1, 5) * sum(
            (
                charge_given_minority(tree, i, j)
                for j in (1, 2, 3)
                for i in range(4)
                if i != j
            ),
            Fraction(0),
        )
        assert tree_cost(tree, ck) == k_direct


def test_charge_decomposition_identity_per_tree():
    # expected reads split into the cross charge, a one-fifth echo of the
    # per-leaf charge, and a one-fifth echo of the first leaf's own charge
    cj, ck = jk_cost_matrices()
    cu = CostMatrix.uniform(d().dense())
    zero = tuple(Fraction(0) for _ in range(16))
    e11 = CostMatrix(4, (cj.rows[0], zero, zero, zero))
    trees = [
        HAND_TREE,
        min_weighted_zero_error(fmaj(), cu, want_tree=True)[1],
        min_weighted_zero_error(fmaj(), ck, want_tree=True)[1],
    ]
    for tree in trees:
        lhs = tree_cost(tree, cu)
        rhs = (
            tree_cost(tree, ck)
            + Fraction(1, 5) * tree_cost(tree, cj)
            + Fraction(1, 5) * tree_cost(tree, e11)
        )
        assert lhs == rhs


def test_j_and_k_values():
    cj, ck = jk_cost_matrices()
    assert j_value(1, 1) == delta0(fmaj(), d().dense()) == Fraction(16, 5)
    j10 = j_value(1, 0)
    assert j10 == brute_weighted(fmaj(), cj)
    assert j10 == Fraction(13, 6)
    k11 = k_value(1, 1)
    assert k11 == brute_weighted(fmaj(), ck)
    # the cross-charge minimum sits strictly below 3: early-stopping
    # zero-error trees shed charge that full-read trees must pay
    assert k11 == Fraction(53, 20)

    def full_tree(vals, j):
        if j == 4:
            return Leaf(fmaj().bit(vals))
        return Node(j, full_tree(vals, j + 1), full_tree(vals | (1 << (3 - j)), j + 1))

    full = full_tree(0, 0)
    assert tree_computes(full, fmaj())
    assert tree_cost(full, ck) == 3


def test_j_k_unsupported_heights():
    with pytest.raises(UnsupportedHeight):
        j_value(2, 1)
    with pytest.raises(UnsupportedHeight):
        j_value(1, 2)
    with pytest.raises(UnsupportedHeight):
        k_value(1, 0)
    with pytest.raises(UnsupportedHeight):
        k_value(2, 1)


def test_tree_text_round_trip(tmp_path):
    text = tree_to_text(HAND_TREE)
    assert tree_from_text(text) == HAND_TREE
    path = tmp_path / "t.dt"
    save_tree(HAND_TREE, path)
    assert load_tree(path) == HAND_TREE
    assert tree_from_text("=1") == Leaf(1)


def test_tree_text_rejects_garbage():
    with pytest.raises(ValueError):
        tree_from_text("(0 =0 =1)")
    with pytest.raises(ValueError):
        tree_from_text("(1 =0")
    for truncated in ("(1 =0 =1", "(1", "("):
        with pytest.raises(ValueError):
            tree_from_text(truncated)
    with pytest.raises(ValueError):
        tree_from_text("(1 =0 =1) junk")
