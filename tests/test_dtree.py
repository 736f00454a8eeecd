"""Exact depth DP, weighted zero-error DP, and the minority charge values.

Reference computations here recompute everything top-down over explicit
restriction dictionaries, a different mechanism from the production
axis sweeps over the subcube lattice.
"""

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from qlab import dtree, lattice
from qlab.boolfn import TruthTable, fmaj, index_to_bits, iterated_table, parse_bits
from qlab.gadget import table_values
from qlab.dtree import (
    CostMatrix,
    Leaf,
    Node,
    delta0,
    exact_depth,
    min_weighted_zero_error,
    tree_cost,
    tree_depth,
    tree_from_text,
    tree_to_partition,
    tree_to_text,
)
from qlab.harddist import (
    d,
    dh_law,
    jk_cost_matrices,
    jk_values,
    minority_leaf_law,
    minority_marginals_exact,
)
from qlab.subcube import computes, validate


def dt_eval(tree, x):
    """Run the tree on x; returns (output, variables queried in order)."""
    bits = parse_bits(x)
    queried = []
    t = tree
    while isinstance(t, Node):
        queried.append(t.var)
        t = t.high if bits[t.var] else t.low
    return t.value, queried


def tree_computes(tree, f):
    return computes(tree_to_partition(tree, f.n), f)


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


def brute_weighted(f, rows):
    """Top-down minimum of the weighted zero-error charge, querying
    variable j on input x at the charge rows[j][x]."""
    n = f.n

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


def fraction_rows(cost):
    """The charge matrix's rows as Fractions, one per variable."""
    return [[Fraction(c, cost.denom) for c in cost.rows[k]] for k in cost.which]


def minority_read_probability():
    """prob[i][x] that leaf i is the minority leaf of input x."""
    dist = d()
    prob = [[Fraction(0)] * 16 for _ in range(4)]
    for idx in range(16):
        if dist[idx]:
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
        mass = dist[idx] * prob[j][idx] / marg[j]
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


def test_tree_to_partition_follows_a_variable_fixed_on_the_path():
    # the inner query of x_1 lies on x_1 = 0, so only its low branch is
    # reachable; the tree computes the identity
    tree = tree_from_text("(1 (1 =0 =1) =1)")
    f = TruthTable.from_values(1, [0, 1])
    assert all(dt_eval(tree, [b])[0] == f.bit(b) for b in (0, 1))
    part = tree_to_partition(tree, 1)
    assert [(p.text, z) for p, z in part.entries] == [("0", 0), ("1", 1)]
    assert computes(part, f)


def test_tree_to_partition_rejects_a_variable_outside_the_arity():
    with pytest.raises(ValueError, match="x_3"):
        tree_to_partition(tree_from_text("(1 =0 (3 =0 =1))"), 2)
    with pytest.raises(ValueError):
        tree_to_partition(Node(-1, Leaf(0), Leaf(1)), 2)


def test_exact_depth_matches_brute_force_small():
    for bits in range(16):
        f = TruthTable(2, bits)
        assert exact_depth(f).value == brute_depth(f), bits
    for bits in range(0, 256, 7):
        f = TruthTable(3, bits)
        assert exact_depth(f).value == brute_depth(f), bits


def test_exact_depth_matches_brute_force_sampled_four_vars():
    for bits in range(0, 1 << 16, 4099):
        f = TruthTable(4, bits)
        assert exact_depth(f).value == brute_depth(f), bits


def test_exact_depth_matches_brute_force_random_up_to_six_vars():
    rng = random.Random(11)
    for n in (5, 6):
        for _ in range(15):
            f = TruthTable(n, rng.getrandbits(1 << n))
            assert exact_depth(f).value == brute_depth(f), (n, f.bits)


def test_canonical_witness_trees_are_pinned():
    # trees printed by the level-by-level DP this relaxation replaced
    result = exact_depth(fmaj(), want_tree=True)
    assert (result.value, tree_to_text(result.tree)) == (4, "(1 (2 =0 (3 =0 (4 =0 =1))) (2 (3 (4 =0 =1) =1) =1))")
    cj, ck = jk_cost_matrices()
    balanced = "(2 (3 (4 =0 (1 =0 =1)) (1 =0 =1)) (3 (1 =0 =1) (4 (1 =0 =1) =1)))"
    pinned = [
        (cj, Fraction(13, 6), balanced),
        (ck, Fraction(53, 20), "(1 (2 =0 (3 =0 (4 =0 =1))) (2 (3 (4 =0 =1) =1) =1))"),
        (CostMatrix.uniform(d()), Fraction(16, 5), balanced),
    ]
    for cost, want_value, want_tree in pinned:
        result = min_weighted_zero_error(fmaj(), cost, want_tree=True)
        assert (result.value, tree_to_text(result.tree)) == (want_value, want_tree)


def test_exact_depth_fmaj_is_four():
    result = exact_depth(fmaj(), want_tree=True)
    assert result.value == 4
    assert tree_computes(result.tree, fmaj())
    assert tree_depth(result.tree) == 4


# ---------------------------------------------------------------------------
# the block class lattice against the full one

def block_invariant_values(n, g):
    """One value per input, reading each aligned block of four only
    through its first bit and the number of ones among the other three:
    g holds one value per 8**(n // 4) such readings."""
    m = n // 4

    def cls(idx):
        out = 0
        for b in range(m):
            block = idx >> (4 * (m - 1 - b)) & 15
            out = out * 8 + 4 * (block >> 3) + bin(block & 7).count("1")
        return out

    return [g[cls(idx)] for idx in range(1 << n)]


def block_invariant_table(rng, n):
    """A random table that is block-invariant in the sense above."""
    g = [rng.getrandbits(1) for _ in range(8 ** (n // 4))]
    return TruthTable.from_values(n, block_invariant_values(n, g))


def block_invariant_law(rng, n):
    """Random integer masses, block-invariant in the sense above."""
    return block_invariant_values(n, [rng.randint(0, 9) for _ in range(8 ** (n // 4))])


def on_the_full_lattice(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(lattice, "block_symmetric", lambda values: False)
        return run()


def lattice_sizes(monkeypatch, run):
    """run()'s result, and the size of each lattice it asked for."""
    sizes = []
    real = lattice.lattice

    def recording(*args):
        lat = real(*args)
        sizes.append(lat.colors.size)
        return lat

    with monkeypatch.context() as m:
        m.setattr(lattice, "lattice", recording)
        return run(), sizes


@pytest.mark.parametrize("n, count", [(4, 200), (8, 30)])
def test_class_lattice_matches_the_full_lattice(monkeypatch, n, count):
    # equal depths and equal canonical trees; the number of passes may differ
    rng = random.Random(21 + n)
    for _ in range(count):
        f = block_invariant_table(rng, n)
        got = exact_depth(f, want_tree=True)
        want = on_the_full_lattice(monkeypatch, lambda: exact_depth(f, want_tree=True))
        assert (got.states, want.states) == (30 ** (n // 4), 3**n)
        assert (got.value, got.tree) == (want.value, want.tree), f.bits


def test_class_lattice_tree_of_fmaj2_is_the_full_lattice_tree(monkeypatch):
    f = iterated_table(2)
    got = exact_depth(f, want_tree=True)
    want = on_the_full_lattice(monkeypatch, lambda: exact_depth(f, want_tree=True))
    assert (got.value, got.states, want.states) == (16, 30**4, 3**16)
    assert got.tree == want.tree


def test_tables_without_the_block_symmetry_take_the_full_lattice():
    # x2 AND x3 is unchanged by (x2 x3) but not by (x3 x4); fmaj2 with
    # x2 = 1 alone flipped is unchanged by neither of block 1's swaps
    pair = TruthTable.from_values(4, [idx >> 2 & idx >> 1 & 1 for idx in range(16)])
    flipped = TruthTable(16, iterated_table(2).bits ^ 1 << (1 << 14))
    for f, depth in ((pair, 2), (flipped, 16)):
        assert not lattice.block_symmetric(table_values(f))
        result = exact_depth(f)
        assert (result.value, result.states) == (depth, 3**f.n)


@pytest.mark.parametrize("n, count", [(4, 100), (8, 20)])
def test_weighted_class_lattice_matches_the_full_lattice(monkeypatch, n, count):
    # uniform laws, and rows charging x_{4b+1} apart from x_{4b+2..4b+4},
    # so a class's two moves read different rows
    rng = random.Random(41 + n)
    for k in range(count):
        f = block_invariant_table(rng, n)
        if k % 2:
            rows = [block_invariant_law(rng, n) for _ in range(2 * (n // 4))]
            rows = [rows[2 * (i // 4) + (i % 4 > 0)] for i in range(n)]
            if k % 4 == 3:
                # equal rows given as separate lists are still one row
                rows = [list(row) for row in rows]
            cost = CostMatrix.from_lists(n, rows)
        else:
            cost = CostMatrix.uniform(block_invariant_law(rng, n))
        run = lambda: min_weighted_zero_error(f, cost, want_tree=True)
        got, sizes = lattice_sizes(monkeypatch, run)
        want, full_sizes = on_the_full_lattice(monkeypatch, lambda: lattice_sizes(monkeypatch, run))
        assert (sizes, full_sizes) == ([30 ** (n // 4)], [3**n])
        assert (got.states, want.states) == (30 ** (n // 4), 3**n)
        assert (got.value, got.tree) == (want.value, want.tree), f.bits


def asymmetric_jk(rng):
    # the charge rows of x2..x4 differ
    return fmaj(), fraction_rows(jk_cost_matrices()[0])


def asymmetric_law(rng):
    # a block-invariant law with one mass moved off the symmetry
    law = block_invariant_law(rng, 8)
    law[1 << 6] += 1  # x2 = 1 alone
    return block_invariant_table(rng, 8), [law] * 8


def distinct_rows_in_a_block(rng):
    # each row block-invariant, but x3's differs from x2's and x4's
    shared, other = block_invariant_law(rng, 4), block_invariant_law(rng, 4)
    other[0] += 1
    return fmaj(), [block_invariant_law(rng, 4), shared, other, shared]


@pytest.mark.parametrize("case", [asymmetric_jk, asymmetric_law, distinct_rows_in_a_block])
def test_weighted_dp_without_the_symmetry_takes_the_full_lattice(monkeypatch, case):
    f, rows = case(random.Random(43))
    cost = CostMatrix.from_lists(f.n, rows)
    assert lattice.block_symmetric(table_values(f))
    result, sizes = lattice_sizes(monkeypatch, lambda: min_weighted_zero_error(f, cost))
    assert sizes == [3**f.n] and result.states == 3**f.n
    assert result.value == brute_weighted(f, rows)


def test_cost_matrix_uniform_and_scale():
    masses = d()
    cu = CostMatrix.uniform(masses)
    assert cu.n == 4 and len(cu.rows) == 1
    assert fraction_rows(cu) == [list(masses)] * 4
    with pytest.raises(ValueError, match="row 0 has a negative charge"):
        CostMatrix.uniform([Fraction(-1, 2), Fraction(3, 2)])
    with pytest.raises(ValueError, match="distribution length must be a power of two"):
        CostMatrix.uniform([Fraction(1, 3)] * 3)
    # a bad row is named by the first variable it charges
    good, negative = [Fraction(1, 4)] * 4, [Fraction(-1, 4)] * 4
    with pytest.raises(ValueError, match="expected 2 rows"):
        CostMatrix.from_lists(2, [good])
    with pytest.raises(ValueError, match="row 1 has 3 entries"):
        CostMatrix.from_lists(3, [good * 2, good[:3], good[:3]])
    with pytest.raises(ValueError, match="row 1 has a negative charge"):
        CostMatrix.from_lists(2, [good, negative])


def test_tree_cost_uniform_is_expected_reads():
    masses = d()
    cu = CostMatrix.uniform(masses)
    want = sum(
        (masses[i] * len(dt_eval(HAND_TREE, index_to_bits(i, 4))[1]) for i in range(16)),
        Fraction(0),
    )
    assert tree_cost(HAND_TREE, cu) == want


def replayed_tree_cost(tree, rows):
    """The tree's total charge by running it on every input and adding
    rows[i][x] for each query of variable i on input x."""
    n = len(rows)
    total = Fraction(0)
    for idx in range(1 << n):
        _, queried = dt_eval(tree, index_to_bits(idx, n))
        total += sum((rows[i][idx] for i in queried), Fraction(0))
    return total


def random_tree(rng, n, depth):
    if depth == 0 or rng.random() < 0.2:
        return Leaf(rng.getrandbits(1))
    return Node(rng.randrange(n), random_tree(rng, n, depth - 1), random_tree(rng, n, depth - 1))


def test_tree_cost_matches_the_replay_on_every_input():
    # trees deeper than n query some variable twice on a path; half the
    # cost matrices share one row
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(20):
            tree = random_tree(rng, n, n + 2)
            rows = [[Fraction(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(1 << n)]
                    for _ in range(n)]
            if rng.random() < 0.5:
                rows = [rows[0]] * n
            cost = CostMatrix.from_lists(n, rows)
            assert tree_cost(tree, cost) == replayed_tree_cost(tree, rows)


def test_min_weighted_matches_brute_force_two_vars():
    rows = [
        [Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(1, 2)],
        [Fraction(2, 7), Fraction(1, 7), Fraction(0), Fraction(4, 7)],
    ]
    cost = CostMatrix.from_lists(2, rows)
    for bits in range(16):
        f = TruthTable(2, bits)
        got = min_weighted_zero_error(f, cost).value
        assert got == brute_weighted(f, rows), bits


@pytest.mark.parametrize(
    "target, dtype",
    [(2**31, np.int32), (2**32, np.int64), (2**70, object)],
    ids=["int32", "int64", "object"],
)
def test_min_weighted_matches_brute_force_three_vars(monkeypatch, target, dtype):
    # the charges scaled so that the proved bound on every step value,
    # 2 * (1 + every row's sum) + the largest row sum over the common
    # denominator, lies in (target / 2, target): just under int32's limit,
    # just over it, and past int64's; a scale coprime to the denominators
    # keeps them, so the bound grows by unit per unit of scale
    rng = random.Random(5)
    base = [[Fraction(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(8)] for _ in range(3)]
    denom = math.lcm(*(c.denominator for row in base for c in row))
    sums = [sum(row) * denom for row in base]
    unit = 2 * sum(sums) + max(sums)
    scale = (target - 3) // unit
    while math.gcd(scale, denom) > 1:
        scale -= 1
    assert target // 2 < 2 + scale * unit < target
    rows = [[c * scale for c in row] for row in base]
    cost = CostMatrix.from_lists(3, rows)
    dtypes = set()
    real = dtree._relax
    monkeypatch.setattr(dtree, "_relax", lambda val, *rest: (dtypes.add(val.dtype), real(val, *rest))[1])
    for bits in range(256):
        f = TruthTable(3, bits)
        result = min_weighted_zero_error(f, cost, want_tree=True)
        assert result.value == brute_weighted(f, rows), bits
        assert tree_computes(result.tree, f) and tree_cost(result.tree, cost) == result.value
    assert dtypes == {np.dtype(dtype)}


def test_min_weighted_witness_replays():
    masses = d()
    cost = CostMatrix.uniform(masses)
    result = min_weighted_zero_error(fmaj(), cost, want_tree=True)
    assert tree_computes(result.tree, fmaj())
    assert tree_cost(result.tree, cost) == result.value


def test_delta0_under_hard_distribution():
    value = delta0(fmaj(), d())
    assert value == brute_weighted(fmaj(), [d()] * 4)
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
    with pytest.raises(ValueError, match="distribution does not sum to 1"):
        delta0(fmaj(), [Fraction(1, 32)] * 16)


def test_min_weighted_uniform_law_at_nine_vars():
    # above n = 8 a uniform charge matrix's rows share one charge lattice
    uniform = CostMatrix.uniform([Fraction(1, 512)] * 512)
    parity = TruthTable.from_values(9, [bin(i).count("1") % 2 for i in range(512)])
    conj = TruthTable(9, 1 << 511)
    for f, want in ((parity, Fraction(9)), (conj, Fraction(511, 256))):
        result = min_weighted_zero_error(f, uniform, want_tree=True)
        assert result.value == want
        assert tree_computes(result.tree, f) and tree_cost(result.tree, uniform) == want


def no_charge_lattice(monkeypatch):
    """Make lattice.lattice hand out lattices whose charge sums fail."""
    real = lattice.lattice

    def unsummed(*args):
        lat = real(*args)

        def sums(values):
            raise AssertionError("a charge lattice was built")

        return dataclasses.replace(lat, sums=sums)

    monkeypatch.setattr(lattice, "lattice", unsummed)


def test_min_weighted_refuses_an_object_law_before_any_charge_lattice(monkeypatch):
    # a random 16-variable table takes the full lattice, 3**16 states;
    # masses off by 1/p and 1/q, p and q primes near 2**25, put the bound
    # at 72 bits, so Python ints: about 3.2 GiB for the charges and values
    rng = random.Random(5)
    f = TruthTable(16, rng.getrandbits(1 << 16))
    assert not lattice.block_symmetric(table_values(f))
    p, q = 33554393, 33554383
    masses = [Fraction(1, 1 << 16)] * (1 << 16)
    masses[0] += Fraction(1, p)
    masses[1] += Fraction(1, q)
    masses[2] -= Fraction(1, p) + Fraction(1, q)
    no_charge_lattice(monkeypatch)
    with pytest.raises(ValueError, match="over its limit of 1,073,741,824 bytes$"):
        min_weighted_zero_error(f, CostMatrix.uniform(masses))
    # the uniform law on the same table needs int32 alone, about 460 MB,
    # so it passes the guard and goes on to build its charge lattice
    with pytest.raises(AssertionError, match="charge lattice"):
        min_weighted_zero_error(f, CostMatrix.uniform([Fraction(1, 1 << 16)] * (1 << 16)))


@pytest.mark.parametrize("n", [10, 12, None], ids=["random-10", "random-12", "fmaj2-d2"])
def test_weighted_dp_memory_estimate_bounds_its_traced_peak(monkeypatch, n):
    # the estimate counts the sweep's temporaries as well as its arrays:
    # with the limit one byte below the traced peak the DP refuses before
    # building a charge lattice, and at 1.5 times the peak it runs.  A
    # random table under the uniform law takes the full lattice, fmaj2
    # under the height-2 law the classes
    import tracemalloc

    if n is None:
        f, cost = iterated_table(2), CostMatrix.uniform(dh_law(2))
    else:
        f = TruthTable(n, random.Random(n).getrandbits(1 << n))
        cost = CostMatrix.uniform([Fraction(1, 1 << n)] * (1 << n))
    run = lambda: min_weighted_zero_error(f, cost)
    run()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.states == (3**n if n else 30**4)
    monkeypatch.setattr(dtree, "MAX_DP_BYTES", int(1.5 * peak))
    assert run() == result
    monkeypatch.setattr(dtree, "MAX_DP_BYTES", peak - 1)
    no_charge_lattice(monkeypatch)
    with pytest.raises(ValueError, match=f"over its limit of {peak - 1:,} bytes$"):
        run()


def test_two_row_law_at_twelve_vars_matches_the_full_lattice(monkeypatch):
    # one row charges every x_{4b+1}, another the rest of each block, so
    # the classes take both rows; the full lattice holds 3**12 states
    rng = random.Random(12)
    f = block_invariant_table(rng, 12)
    first, rest = block_invariant_law(rng, 12), block_invariant_law(rng, 12)
    cost = CostMatrix.from_lists(12, [first if i % 4 == 0 else rest for i in range(12)])
    assert len(cost.rows) == 2
    run = lambda: min_weighted_zero_error(f, cost, want_tree=True)
    got = run()
    want = on_the_full_lattice(monkeypatch, run)
    assert (got.states, want.states) == (30**3, 3**12)
    assert (got.value, got.tree) == (want.value, want.tree)


def test_charge_matrices_agree_with_direct_conditional_sums():
    cj, ck = jk_cost_matrices()
    trees = [
        min_weighted_zero_error(fmaj(), cj, want_tree=True).tree,
        min_weighted_zero_error(fmaj(), ck, want_tree=True).tree,
        min_weighted_zero_error(fmaj(), CostMatrix.uniform(d()), want_tree=True).tree,
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
    cu = CostMatrix.uniform(d())
    zero = [Fraction(0)] * 16
    e11 = CostMatrix.from_lists(4, [fraction_rows(cj)[0], zero, zero, zero])
    trees = [
        HAND_TREE,
        min_weighted_zero_error(fmaj(), cu, want_tree=True).tree,
        min_weighted_zero_error(fmaj(), ck, want_tree=True).tree,
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
    j10, k11, j11 = jk_values()
    assert j11 == delta0(fmaj(), d()) == Fraction(16, 5)
    assert j10 == brute_weighted(fmaj(), fraction_rows(cj))
    assert j10 == Fraction(13, 6)
    assert k11 == brute_weighted(fmaj(), fraction_rows(ck))
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


def test_tree_text_round_trip():
    text = tree_to_text(HAND_TREE)
    assert tree_from_text(text) == HAND_TREE
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
