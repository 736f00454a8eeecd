"""Boolean functions as bit-packed truth tables, plus the tie-breaking
four-bit majority gadget and its iterated (tree-composed) form.

Index convention, used everywhere in this package: an input
x = (x_1, ..., x_n) is identified with the integer

    index(x) = sum_j x_j * 2**(n - j)

so x_1 is the most significant bit.  A truth table on n variables is a
single Python int whose bit i (i.e. ``(bits >> i) & 1``) holds f at the
input with index i.  String inputs like "1100" are read left to right as
x_1 x_2 ... x_n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Bits = Sequence[int]

MAX_VARS = 16


def parse_bits(x: "str | Bits") -> tuple[int, ...]:
    """Normalize a bit-string or int sequence to a tuple of 0/1 ints."""
    if isinstance(x, str):
        if not re.fullmatch(r"[01]+", x):
            raise ValueError(f"not a bit string: {x!r}")
        return tuple(int(c) for c in x)
    out = tuple(int(b) for b in x)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"not a 0/1 sequence: {x!r}")
    return out


def bits_to_index(x: "str | Bits") -> int:
    idx = 0
    for b in parse_bits(x):
        idx = (idx << 1) | b
    return idx


def index_to_bits(idx: int, n: int) -> tuple[int, ...]:
    if not 0 <= idx < (1 << n):
        raise ValueError(f"index {idx} out of range for n={n}")
    return tuple((idx >> (n - 1 - j)) & 1 for j in range(n))


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function on n <= 16 variables, packed into one int."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"n={self.n} outside supported range 1..{MAX_VARS}")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("truth table word has bits beyond 2**n inputs")

    @property
    def size(self) -> int:
        return 1 << self.n

    def bit(self, idx: int) -> int:
        """f at the input with the given index."""
        if not 0 <= idx < self.size:
            raise ValueError(f"index {idx} out of range for n={self.n}")
        return (self.bits >> idx) & 1

    def eval(self, x: "str | Bits") -> int:
        """f at an explicit input, e.g. f.eval("1100")."""
        bx = parse_bits(x)
        if len(bx) != self.n:
            raise ValueError(f"input length {len(bx)} != n={self.n}")
        return self.bit(bits_to_index(bx))

    def values(self) -> np.ndarray:
        """f at every input, in index order, as a uint8 array."""
        raw = self.bits.to_bytes((self.size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[: self.size]

    @classmethod
    def from_values(cls, n: int, values: "Sequence[int] | np.ndarray") -> "TruthTable":
        """Build from f-values listed in index order 0, 1, ..., 2**n - 1."""
        vals = np.asarray(values)
        # bit counts first, so that a huge n never builds the power 2**n
        if vals.ndim != 1 or vals.size.bit_length() != n + 1 or vals.size != 1 << n:
            raise ValueError(f"expected 2**{n} values, got {vals.size}")
        bad = np.flatnonzero((vals != 0) & (vals != 1))
        if bad.size:
            raise ValueError(f"value at index {bad[0]} is not 0/1")
        packed = np.packbits(vals.astype(np.uint8), bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))


# ---------------------------------------------------------------------------
# the tie-breaking four-bit majority gadget


_FMAJ_BIT = tuple(
    (((x >> 3) & 1) & (((x >> 2) & 1) | ((x >> 1) & 1) | (x & 1)))
    | (((x >> 2) & 1) & ((x >> 1) & 1) & (x & 1))
    for x in range(16)
)


def fmaj() -> TruthTable:
    """Majority of four bits with ties broken by the first:

        f(x) = x1 (x2 or x3 or x4)  or  x2 x3 x4

    Equivalently the simple majority of (x1, x1, x2, x3, x4).
    """
    return TruthTable.from_values(4, _FMAJ_BIT)


# ---------------------------------------------------------------------------
# the iterated gadget on a complete 4-ary tree

_FM = np.array(_FMAJ_BIT, dtype=np.uint8)


def input_bits(n: int) -> np.ndarray:
    """Every n-bit input, n <= 16, as a (2**n, n) uint8 array in index
    order, x_1 in the first column."""
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"n={n} outside supported range 0..{MAX_VARS}")
    idx = np.arange(1 << n, dtype=">u2").view(np.uint8).reshape(-1, 2)
    return np.ascontiguousarray(np.unpackbits(idx, axis=1)[:, MAX_VARS - n :])


# _CHILD_BITS[p, j]: the value of child j in children pattern p;
# _CHILD_WORD[p] holds the same four bytes as one uint32, so a gather of
# children moves one word per pattern, not four bytes
_CHILD_BITS = input_bits(4)
_CHILD_WORD = _CHILD_BITS.view(np.uint32).ravel()


def patterns(quads: np.ndarray) -> np.ndarray:
    """Children-pattern indices of uint8 bit quadruples along the last
    axis, x_1 the high bit, in uint8."""
    pat = quads[..., 0] << 3
    pat |= quads[..., 1] << 2
    pat |= quads[..., 2] << 1
    pat |= quads[..., 3]
    return pat


def tree_bits(h: int, x: "str | Bits") -> np.ndarray:
    """The 4**h leaves of one height-h input as a uint8 array."""
    bits = parse_bits(x)
    # bit counts first, so that a huge h never builds the power 4**h
    if len(bits).bit_length() != 2 * h + 1 or len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    return np.array(bits, dtype=np.uint8)


def level_patterns(bits: np.ndarray, h: int) -> list[np.ndarray]:
    """Children patterns of the internal nodes, in uint8: entry k - 1
    holds those of the height-k nodes, left to right, so node i's
    children are nodes 4i to 4i+3 one level down and a node's value is
    _FM of its pattern.  bits may hold several height-h inputs back to
    back; each entry then lists the inputs' nodes in turn."""
    pats = []
    vals = bits
    for _ in range(h):
        pat = patterns(vals.reshape(-1, 4))
        pats.append(pat)
        vals = _FM[pat]
    return pats


def iter_eval(h: int, x: "str | Bits") -> int:
    """Evaluate the height-h iterated gadget on 4**h bits (h = 0 is the
    identity on one bit)."""
    bits = tree_bits(h, x)
    if h == 0:
        return int(bits[0])
    return int(_FM[level_patterns(bits, h)[-1][0]])


def iterated_table(h: int) -> TruthTable:
    """The height-h iterated gadget as an explicit table on 4**h bits,
    read off the level patterns of every input; only heights 0..2 fit
    the 16-variable cap."""
    if not 0 <= h <= 2:
        raise ValueError("the iterated table fits 16 variables only at heights 0 to 2")
    vals = input_bits(4**h).ravel()
    if h:
        vals = _FM[level_patterns(vals, h)[-1]]
    return TruthTable.from_values(4**h, vals)


# ---------------------------------------------------------------------------
# text of a .tt file: a header line "n=<int>" then the table as hex, least
# significant digit holding inputs 0..3

def table_to_text(f: TruthTable) -> str:
    digits = (f.size + 3) // 4
    return f"n={f.n}\n{f.bits:0{digits}x}\n"


def table_from_text(text: str) -> TruthTable:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ValueError("expected a 'n=<int>' line followed by a hex line")
    n = int(lines[0][2:])
    if not re.fullmatch(r"[0-9a-fA-F]+", lines[1]):
        raise ValueError(f"not a hex string: {lines[1]!r}")
    return TruthTable(n, int(lines[1], 16))
