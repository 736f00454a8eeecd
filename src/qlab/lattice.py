"""The subcube lattice that `dtree`'s DPs run on, in numpy: arrays of
shape (3,)*n whose axis j is variable x_{j+1}, index 0 or 1 fixing it
and index 2 leaving it free, or the smaller lattice of block classes,
with one sweep over either's moves; `lattice` picks between the two.
A truth table's values enter as one uint8 array (`table_values`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .boolfn import TruthTable


def table_values(f: TruthTable) -> np.ndarray:
    """f at every input, in index order, as a uint8 array."""
    raw = f.bits.to_bytes((f.size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: f.size]


# update(a, lo, hi, free, aux): one move of a sweep, given views of the
# lattice's slabs fixing x_{a+1} to 0, fixing it to 1 and leaving it
# free, indexed alike, and the free slab of each auxiliary array
Update = Callable[[int, np.ndarray, np.ndarray, np.ndarray, tuple], object]
# sweep(lattice, update, aux=()): one pass of update over a lattice's
# moves, as _sweep makes
Sweep = Callable[..., None]


def _sweep(moves: Sequence[tuple[int, int, int, int]], span: int) -> Sweep:
    """The pass over a lattice each of whose axes stands for ``span``
    variables and takes ``moves``: for each axis b in order, each move
    (offset, free, lo, hi) in order calls update(span * b + offset, ...)
    on the axis's slabs at indices lo, hi and free.  Every slab is a
    view, so update may write the free one; ``aux`` holds read-only
    arrays laid out like the lattice.  The trailing ... keeps a slab of
    a one-axis array a view, not a scalar."""

    def sweep(lattice: np.ndarray, update: Update, aux: Sequence[np.ndarray] = ()) -> None:
        for b in range(lattice.ndim):
            head = (slice(None),) * b
            for offset, free, lo, hi in moves:
                at = head + (free, ...)
                update(
                    span * b + offset,
                    lattice[head + (lo, ...)],
                    lattice[head + (hi, ...)],
                    lattice[at],
                    tuple(x[at] for x in aux),
                )

    return sweep


# the full lattice's one move on axis b: free x_{b+1}
_FULL_MOVES = [(0, 2, 0, 1)]
_FULL_SWEEP = _sweep(_FULL_MOVES, 1)


def _zeta(
    base: np.ndarray,
    merge: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    sweep: Sweep,
    width: int,
) -> np.ndarray:
    """Extend ``base``, an array over the fully fixed states (indices
    below base.shape[j] on each axis j), to a (width,)*ndim lattice by
    one pass of merges: for each move of ``sweep``, merge(lo, hi, out)
    fills the states it frees from its two children.  Every other state
    starts at 0, so a state that is also free at a later axis merges
    only zeros until its last free axis merges its two halves, final by
    then, because on each axis a sweep takes the states with fewer free
    variables first.  This needs merge(0, 0) to be 0, and gives object
    arrays 0 to read there, not None."""
    out = np.zeros((width,) * base.ndim, dtype=base.dtype)
    out[tuple(slice(0, k) for k in base.shape)] = base
    sweep(out, lambda a, lo, hi, free, aux: merge(lo, hi, free))
    return out


def _colors(leaves: np.ndarray, sweep: Sweep, width: int) -> np.ndarray:
    # merged as 1 + color, the set of values seen: 0b01 for 0, 0b10 for
    # 1, 0b11 for mixed, so two halves merge by bitwise or
    colors = _zeta(leaves + 1, np.bitwise_or, sweep, width)
    colors -= 1
    return colors


def lattice_colors(f: TruthTable) -> np.ndarray:
    """Color of every subcube: a (3,)*n uint8 array holding f's value
    where f is constant on the subcube and 2 where it is mixed."""
    return _colors(table_values(f).reshape((2,) * f.n), _FULL_SWEEP, 3)


def lattice_sums(values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` (one entry per input, in index order) over the
    members of every subcube, as a (3,)*n array of the same dtype."""
    n = values.size.bit_length() - 1
    return _zeta(values.reshape((2,) * n), np.add, _FULL_SWEEP, 3)


# ---------------------------------------------------------------------------
# the block class lattice.  Where f and the charges are unchanged by
# permuting x2..x4 inside each aligned block x_{4b+1}..x_{4b+4}, so is
# every subcube's color, sums and DP value, and a DP over subcubes sees
# a block's restriction only through its class (t, c0, c1, c2): x_{4b+1}'s
# trit, then how many of the other three are 0, 1 and free.  A class
# lattice is a (30,)*(n // 4) array whose axis b is block b.

# the 30 classes by free count, so the 8 fully fixed ones come first
_CLASSES = sorted(
    ((t, c0, c1, 3 - c0 - c1) for t in range(3) for c0 in range(4) for c1 in range(4 - c0)),
    key=lambda c: ((c[0] == 2) + c[3], c),
)
_CLASS_OF = {c: i for i, c in enumerate(_CLASSES)}
# _BLOCK_CLASS[27 t1 + 9 t2 + 3 t3 + t4]: the class of a block's trits
_BLOCK_CLASS = [
    _CLASS_OF[(t[0], t[1:].count(0), t[1:].count(1), t[1:].count(2))]
    for t in itertools.product(range(3), repeat=4)
]


def _class_moves(t: int, c0: int, c1: int, c2: int) -> Iterator[tuple[int, tuple, tuple]]:
    """A class's moves (offset, lo, hi): query x_{4b+1} (offset 0) or
    one free variable among the other three (offset 1)."""
    if t == 2:
        yield 0, (0, c0, c1, c2), (1, c0, c1, c2)
    if c2:
        yield 1, (t, c0 + 1, c1, c2 - 1), (t, c0, c1 + 1, c2 - 1)


# every move as (offset, free, lo, hi), in class order, so by increasing
# free count; on axis b, a query of x_{4b+1} has offset 0 and one of the
# other three offset 1
_CLASS_MOVES = [
    (offset, i, _CLASS_OF[lo], _CLASS_OF[hi])
    for i, c in enumerate(_CLASSES)
    for offset, lo, hi in _class_moves(*c)
]
_CLASS_SWEEP = _sweep(_CLASS_MOVES, 4)

# a block input in each fixed class, x_{4b+1} as its high bit: t, then
# c0 zeros, then c1 ones
_LEAF_INPUT = [8 * t + (1 << c1) - 1 for t, _, c1, _ in _CLASSES[:8]]


def block_symmetric(values: np.ndarray) -> bool:
    """Whether ``values``, one entry per input in index order, has n a
    multiple of 4 and is unchanged by the transpositions (x_{4b+2}
    x_{4b+3}) and (x_{4b+3} x_{4b+4}) of every block, which generate
    the permutations of x2..x4 in each."""
    n = values.size.bit_length() - 1
    if n % 4:
        return False
    v = values.reshape((2,) * n)
    return all(
        np.array_equal(v, v.swapaxes(j, j + 1)) for b in range(0, n, 4) for j in (b + 1, b + 2)
    )


def class_state(state: Sequence[int]) -> tuple[int, ...]:
    """The class lattice's index of a (3,)*n lattice state."""
    return tuple(
        _BLOCK_CLASS[27 * state[j] + 9 * state[j + 1] + 3 * state[j + 2] + state[j + 3]]
        for j in range(0, len(state), 4)
    )


@dataclass(frozen=True)
class Lattice:
    """The lattice a subcube DP runs on, and its pass."""

    colors: np.ndarray  # as lattice_colors gives them
    sweep: Sweep
    key: Callable[[Sequence[int]], tuple]  # the index in it of a (3,)*n state
    sums: Callable[[np.ndarray], np.ndarray]  # as lattice_sums on it


def lattice(f: TruthTable, rows: Sequence[np.ndarray] = (), which: Sequence[int] = ()) -> Lattice:
    """The lattice of a DP over f's subcubes that charges a query of
    x_{i+1} the sum of ``rows[which[i]]`` (one entry per input) over the
    subcube: the class lattice when f and every row are block-symmetric
    and each block charges x_{4b+2..4b+4} by one row, else the full one."""
    if not (
        block_symmetric(table_values(f))
        and all(which[j] == which[j + 1] == which[j + 2] for j in range(1, len(which), 4))
        and all(block_symmetric(row) for row in rows)
    ):
        return Lattice(lattice_colors(f), _FULL_SWEEP, tuple, lattice_sums)
    m, width = f.n // 4, len(_CLASSES)

    def leaves(values: np.ndarray) -> np.ndarray:
        # the fixed classes read values at one input each
        return values.reshape((16,) * m)[np.ix_(*[_LEAF_INPUT] * m)]

    def sums(values: np.ndarray) -> np.ndarray:
        return _zeta(leaves(values), np.add, _CLASS_SWEEP, width)

    colors = _colors(leaves(table_values(f)), _CLASS_SWEEP, width)
    return Lattice(colors, _CLASS_SWEEP, class_state, sums)
