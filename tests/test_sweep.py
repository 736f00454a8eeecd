"""The subcube lattice's one sweep, its two move tables, and its full
lattice against a plain per-axis sweep.

``lattice._sweep`` makes a lattice's pass from a table of moves, each
freeing one variable of a state from its two children.  ``_zeta`` and
``dtree._relax`` rely on the order of those moves, which the first test
checks for both tables.  The reference below sweeps every axis of the
full lattice on whole slabs, written out by hand.  Every lattice built
on the full lattice's sweep must come out the same, state for state, at
n = 1 to 7, whether the sweep gets the lattice as `lattice` builds it or
in one of two layouts that are not C-contiguous.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from qlab import dtree, lattice
from qlab.boolfn import TruthTable

NS = range(1, 8)

# each move table, the variables an axis stands for, and a block of
# trits in each state of an axis, its free variables first
TABLES = {
    "full": (lattice._FULL_MOVES, 1, [(t,) for t in range(3)], tuple),
    "class": (
        lattice._CLASS_MOVES,
        4,
        [(t,) + (2,) * c2 + (0,) * c0 + (1,) * c1 for t, c0, c1, c2 in lattice._CLASSES],
        lattice.class_state,
    ),
}


@pytest.mark.parametrize("table", TABLES)
def test_moves_free_one_variable_in_the_order_the_sweeps_need(table):
    moves, span, blocks, key = TABLES[table]
    assert [key(block) for block in blocks] == [(i,) for i in range(len(blocks))]
    counts = [block.count(2) for block in blocks]
    for offset, free, lo, hi in moves:
        block = blocks[free]
        # lo fixes the moved variable to 0 and hi fixes it to 1, so each
        # has one fewer free variable than the state it frees
        assert block[offset] == 2
        assert key(block[:offset] + (0,) + block[offset + 1 :]) == (lo,)
        assert key(block[:offset] + (1,) + block[offset + 1 :]) == (hi,)
        assert counts[lo] == counts[hi] == counts[free] - 1
    # on each axis a state's children are final before it is freed
    order = [counts[free] for _, free, _, _ in moves]
    assert order == sorted(order)
    # on a two-axis lattice the sweep calls update once per move and axis,
    # with views of the move's slabs, and frees x_{span b + offset + 1}: on
    # the full lattice, x_{b+1} on axis b
    grid = np.arange(len(blocks) ** 2).reshape(len(blocks), -1)
    aux = -grid
    calls = []
    lattice._sweep(moves, span)(grid, lambda *call: calls.append(call), (aux,))
    want = [(b, move) for b in (0, 1) for move in moves]
    assert [a for a, *_ in calls] == [span * b + offset for b, (offset, *_) in want]
    for (_, lo, hi, free, (aux_free,)), (b, (_, at, lo_at, hi_at)) in zip(calls, want):
        for slab, whole, index in (
            (lo, grid, lo_at), (hi, grid, hi_at), (free, grid, at), (aux_free, aux, at)
        ):
            assert np.shares_memory(slab, whole)
            assert np.array_equal(slab, whole.take(index, axis=b))


def reference_sweep(lattice, update, aux=()):
    """One pass over the axes in order, each on whole slabs."""
    for a in range(lattice.ndim):
        lo, hi, free = ((slice(None),) * a + (t, ...) for t in range(3))
        update(a, lattice[lo], lattice[hi], lattice[free], tuple(x[free] for x in aux))


# the memory layout in which the full-lattice sweep gets its lattice and
# its auxiliary arrays: as built, C-contiguous; each row strided, in
# column-major order; rows spaced apart, as a view into a buffer one
# wider on every axis
def padded_copy(x):
    view = np.empty(tuple(k + 1 for k in x.shape), dtype=x.dtype)[tuple(map(slice, x.shape))]
    view[...] = x
    return view


LAYOUTS = {"row": np.asfortranarray, "rows": padded_copy, "default": None}


def laid_out(layout, sweep):
    """sweep, run on copies of the lattice and the auxiliary arrays in
    ``layout``, with the swept lattice copied back."""

    def run(lattice, update, aux=()):
        moved = layout(lattice)
        assert not moved.flags.c_contiguous or lattice.ndim == 1
        sweep(moved, update, tuple(layout(x) for x in aux))
        lattice[...] = moved

    return run


@pytest.fixture(params=LAYOUTS)
def both(request, monkeypatch):
    """both(build): build() under the full-lattice sweep, given its
    lattice in the layout of this parameter, and under the reference
    sweep; both.sweep is the sweep the first build ran."""
    layout = LAYOUTS[request.param]

    def run(build):
        swept = build()
        # every build reaches the sweep through the lattice module alone
        with monkeypatch.context() as m:
            m.setattr(lattice, "_FULL_SWEEP", reference_sweep)
            reference = build()
        return swept, reference

    if layout is not None:
        monkeypatch.setattr(lattice, "_FULL_SWEEP", laid_out(layout, lattice._FULL_SWEEP))
    run.sweep = lattice._FULL_SWEEP
    return run


def assert_same_lattice(swept, reference):
    assert swept.shape == reference.shape and swept.dtype == reference.dtype
    assert np.array_equal(swept, reference)


def relaxed_lattices(monkeypatch, run):
    """Each lattice that run() relaxes, at its fixed point, with the
    number of sweeps it took and the sweep it took them with."""
    seen = []
    real = dtree._relax

    def recording(val, sweep, *rest):
        sweeps = real(val, sweep, *rest)
        seen.append((val.copy(), sweeps, sweep))
        return sweeps

    with monkeypatch.context() as m:
        m.setattr(dtree, "_relax", recording)
        run()
    return seen


def test_colors_match_the_reference_sweep(both):
    rng = random.Random(11)
    for n in NS:
        for _ in range(6):
            f = TruthTable(n, rng.getrandbits(1 << n))
            assert_same_lattice(*both(lambda: lattice.lattice_colors(f)))


@pytest.mark.parametrize(
    "dtype, top", [(np.int32, 2**20), (np.int64, 2**50), (object, 10**30)], ids=str
)
def test_sums_match_the_reference_sweep(both, dtype, top):
    rng = random.Random(12)
    for n in NS:
        values = np.array([rng.randint(0, top) for _ in range(1 << n)], dtype=dtype)
        swept, reference = both(lambda: lattice.lattice_sums(values))
        assert_same_lattice(swept, reference)
        assert swept[(2,) * n] == sum(values.tolist())


def test_depth_lattice_matches_the_reference_sweep(both, monkeypatch):
    rng = random.Random(13)
    for n in NS:
        for _ in range(4):
            f = TruthTable(n, rng.getrandbits(1 << n))
            swept, reference = both(
                lambda: relaxed_lattices(monkeypatch, lambda: dtree.exact_depth(f))
            )
            [(got, sweeps, sweep)], [(want, want_sweeps, want_sweep)] = swept, reference
            # none of these tables is block-symmetric, so both relax the
            # full lattice, not the block classes
            assert got.shape == (3,) * n
            assert (sweep, want_sweep) == (both.sweep, reference_sweep)
            assert_same_lattice(got, want)
            assert sweeps == want_sweeps


@pytest.mark.parametrize("scale, dtype", [(1, np.int32), (2**33, np.int64), (2**80, object)])
def test_weighted_lattice_matches_the_reference_sweep(both, monkeypatch, scale, dtype):
    rng = random.Random(14)
    for n in NS:
        f = TruthTable(n, rng.getrandbits(1 << n))
        # distinct rows, so each axis reads its own charge lattice
        rows = [[Fraction(rng.randint(0, 9) * scale, rng.randint(1, 6)) for _ in range(1 << n)]
                for _ in range(n)]
        cost = dtree.CostMatrix.from_lists(n, rows)
        swept, reference = both(
            lambda: relaxed_lattices(
                monkeypatch, lambda: dtree.min_weighted_zero_error(f, cost, want_tree=True)
            )
        )
        [(got, sweeps, sweep)], [(want, want_sweeps, want_sweep)] = swept, reference
        assert (sweep, want_sweep) == (both.sweep, reference_sweep)
        assert got.dtype == np.dtype(dtype)
        assert_same_lattice(got, want)
        assert sweeps == want_sweeps


def test_witness_trees_do_not_depend_on_the_sweep(both):
    rng = random.Random(15)
    for n in NS:
        f = TruthTable(n, rng.getrandbits(1 << n))
        swept, reference = both(lambda: dtree.exact_depth(f, want_tree=True))
        assert swept == reference and swept.states == 3**n
        cost = dtree.CostMatrix.uniform([Fraction(rng.randint(1, 5), 7) for _ in range(1 << n)])
        swept, reference = both(lambda: dtree.min_weighted_zero_error(f, cost, want_tree=True))
        assert swept == reference
