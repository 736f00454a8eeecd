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
from typing import Iterable, Sequence

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
    def from_values(cls, n: int, values: Iterable[int]) -> "TruthTable":
        """Build from f-values listed in index order 0, 1, ..., 2**n - 1."""
        bits = 0
        count = 0
        for idx, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError(f"value at index {idx} is not 0/1")
            bits |= v << idx
            count += 1
        if count != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {count}")
        return cls(n, bits)


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


def compose(f: TruthTable, g: TruthTable) -> TruthTable:
    """Block composition f(g, ..., g): block j of the input feeds copy j
    of g, and x_1 of the composed input is the most significant bit of
    the first block."""
    n, m = f.n, g.n
    nm = n * m
    if nm > MAX_VARS:
        raise ValueError(f"composed arity {nm} exceeds {MAX_VARS}")
    idx = np.arange(1 << nm)
    gvals = g.values()
    fidx = np.zeros(1 << nm, dtype=np.intp)
    for j in range(n):
        fidx <<= 1
        fidx |= gvals[idx >> ((n - 1 - j) * m) & ((1 << m) - 1)]
    packed = np.packbits(f.values()[fidx], bitorder="little")
    return TruthTable(nm, int.from_bytes(packed.tobytes(), "little"))


# ---------------------------------------------------------------------------
# the iterated gadget on a complete 4-ary tree

_FM = np.array(_FMAJ_BIT, dtype=np.uint8)
_SHIFTS = np.array([3, 2, 1, 0], dtype=np.uint8)


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
    fmaj composed with the height-(h-1) table; only heights 0..2 fit the
    16-variable cap."""
    if h < 0:
        raise ValueError("height must be nonnegative")
    if h == 0:
        return TruthTable(1, 0b10)
    t = fmaj()
    for _ in range(h - 1):
        t = compose(t, fmaj())
    return t


# ---------------------------------------------------------------------------
# on-disk format: a header line "n=<int>" then the table as hex, least
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


def save_table(f: TruthTable, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_text(f))


def load_table(path: str) -> TruthTable:
    with open(path) as fh:
        return table_from_text(fh.read())
