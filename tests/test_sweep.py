"""The blocked axis sweep against a plain unblocked one.

``subcube.sweep_axes`` sweeps the outer half of the axes on whole slabs
and the inner half on chunks of rows copied transposed into a buffer.
The reference here sweeps every axis on whole slabs of the lattice
itself.  Every lattice built on the sweep must come out the same, state
for state, at n = 1 to 7: n = 1 has no outer axis, odd n splits
unevenly, and the chunk budgets below cut the rows into single rows,
into a few rows, and not at all.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from qlab import dtree, subcube
from qlab.boolfn import TruthTable

NS = range(1, 8)
# one row per chunk; 3 to 9 rows per chunk at n = 7; the default
BUDGETS = [1, 3 * 3**4 * 8, subcube._CHUNK_BYTES]


def reference_sweep(lattice, update, aux=()):
    """One pass over the axes in order, each on whole slabs."""
    for a in range(lattice.ndim):
        lo, hi, free = ((slice(None),) * a + (t, ...) for t in range(3))
        update(a, lattice[lo], lattice[hi], lattice[free], tuple(x[free] for x in aux))


@pytest.fixture(params=BUDGETS, ids=["row", "rows", "default"])
def both(request, monkeypatch):
    """both(build): build() under the blocked sweep, with the chunk
    budget of this parameter, and under the reference sweep."""
    monkeypatch.setattr(subcube, "_CHUNK_BYTES", request.param)

    def run(build):
        blocked = build()
        # every build reaches the sweep through subcube alone
        with monkeypatch.context() as m:
            m.setattr(subcube, "sweep_axes", reference_sweep)
            reference = build()
        return blocked, reference

    return run


def assert_same_lattice(blocked, reference):
    assert blocked.shape == reference.shape and blocked.dtype == reference.dtype
    assert np.array_equal(blocked, reference)


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
            assert_same_lattice(*both(lambda: subcube.lattice_colors(f)))


@pytest.mark.parametrize(
    "dtype, top", [(np.int32, 2**20), (np.int64, 2**50), (object, 10**30)], ids=str
)
def test_sums_match_the_reference_sweep(both, dtype, top):
    rng = random.Random(12)
    for n in NS:
        values = np.array([rng.randint(0, top) for _ in range(1 << n)], dtype=dtype)
        blocked, reference = both(lambda: subcube.lattice_sums(values))
        assert_same_lattice(blocked, reference)
        assert blocked[(2,) * n] == sum(values.tolist())


def test_depth_lattice_matches_the_reference_sweep(both, monkeypatch):
    rng = random.Random(13)
    for n in NS:
        for _ in range(4):
            f = TruthTable(n, rng.getrandbits(1 << n))
            blocked, reference = both(
                lambda: relaxed_lattices(monkeypatch, lambda: dtree.exact_depth(f))
            )
            [(got, sweeps, sweep)], [(want, want_sweeps, want_sweep)] = blocked, reference
            # none of these tables is block-symmetric, so both relax the
            # full lattice, not the block classes
            assert got.shape == (3,) * n
            assert (sweep, want_sweep) == (subcube.sweep_axes, reference_sweep)
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
        blocked, reference = both(
            lambda: relaxed_lattices(
                monkeypatch, lambda: dtree.min_weighted_zero_error(f, cost, want_tree=True)
            )
        )
        [(got, sweeps, sweep)], [(want, want_sweeps, want_sweep)] = blocked, reference
        assert (sweep, want_sweep) == (subcube.sweep_axes, reference_sweep)
        assert got.dtype == np.dtype(dtype)
        assert_same_lattice(got, want)
        assert sweeps == want_sweeps


def test_witness_trees_do_not_depend_on_the_sweep(both):
    rng = random.Random(15)
    for n in NS:
        f = TruthTable(n, rng.getrandbits(1 << n))
        blocked, reference = both(lambda: dtree.exact_depth(f, want_tree=True))
        assert blocked == reference and blocked.states == 3**n
        cost = dtree.CostMatrix.uniform([Fraction(rng.randint(1, 5), 7) for _ in range(1 << n)])
        blocked, reference = both(lambda: dtree.min_weighted_zero_error(f, cost, want_tree=True))
        assert blocked == reference


def test_sweep_refuses_a_lattice_that_is_not_contiguous():
    lattice = np.zeros((3, 3, 6), dtype=np.uint8)[:, :, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        subcube.sweep_axes(lattice, lambda *args: None)
