"""Boolean functions as bit-packed truth tables, the tie-breaking
four-bit majority gadget, its iterated tables and its walk over one
explicit input, and the .tt text format, all in Python ints and bytes.

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

    @classmethod
    def from_values(cls, n: int, values: Sequence[int]) -> "TruthTable":
        """Build from f-values listed in index order 0, 1, ..., 2**n - 1."""
        # bit counts first, so that a huge n never builds the power 2**n
        if len(values).bit_length() != n + 1 or len(values) != 1 << n:
            raise ValueError(f"expected 2**{n} values, got {len(values)}")
        bad = next((i for i, v in enumerate(values) if v not in (0, 1)), None)
        if bad is not None:
            raise ValueError(f"value at index {bad} is not 0/1")
        return cls(n, int("".join("1" if v else "0" for v in reversed(values)), 2))


# ---------------------------------------------------------------------------
# the tie-breaking four-bit majority gadget


def _fmaj(a: int, b: int, c: int, d: int) -> int:
    """The gadget on four bits, or bitwise on four truth-table words."""
    return a & (b | c | d) | b & c & d


_FMAJ_BIT = tuple(_fmaj(x >> 3 & 1, x >> 2 & 1, x >> 1 & 1, x & 1) for x in range(16))


def fmaj() -> TruthTable:
    """Majority of four bits with ties broken by the first:

        f(x) = x1 (x2 or x3 or x4)  or  x2 x3 x4

    Equivalently the simple majority of (x1, x1, x2, x3, x4).
    """
    return TruthTable.from_values(4, _FMAJ_BIT)


def iterated_table(h: int) -> TruthTable:
    """The height-h iterated gadget as an explicit table on 4**h bits:
    the leaves' tables are Knuth's "magic masks" (TAOCP 4A 7.1.3), built
    by doubling (the new x_1 is the upper half of the inputs, the others
    repeat in both halves), and each level applies the gadget to four
    consecutive tables.  Only heights 0..2 fit the 16-variable cap."""
    if not 0 <= h <= 2:
        raise ValueError("the iterated table fits 16 variables only at heights 0 to 2")
    tables: list[int] = []
    for k in range(4**h):
        tables = [((1 << 2**k) - 1) << 2**k] + [t | t << 2**k for t in tables]
    for _ in range(h):
        tables = [_fmaj(*tables[i : i + 4]) for i in range(0, len(tables), 4)]
    return TruthTable(4**h, tables[0])


# a hex digit holds four consecutive nodes of one level, the first the
# high bit: translated, the digit gives the children pattern of the node
# above them as a byte, and that node's value as the character 0 or 1
_HEX = b"0123456789abcdef"
_DIGIT_PATTERN = bytes.maketrans(_HEX, bytes(range(16)))
_DIGIT_VALUE = bytes.maketrans(_HEX, bytes(b"01"[v] for v in _FMAJ_BIT))


def level_patterns(h: int, x: "str | Bits") -> list[bytes]:
    """Children patterns of the internal nodes of one height-h input of
    4**h leaf bits: entry k - 1 holds those of the height-k nodes, one
    byte each, left to right, so node i's children are nodes 4i to 4i+3
    one level down and a node's value is _FMAJ_BIT of its pattern.  A
    level's patterns are the hex digits of its nodes' bits read as one
    number, which CPython converts in linear time at any length."""
    if isinstance(x, str) and re.fullmatch(r"[01]+", x):
        bits = x.encode()
    else:
        bits = "".join(map(str, parse_bits(x))).encode()
    # bit counts first, so that a huge h never builds the power 4**h
    if len(bits).bit_length() != 2 * h + 1 or len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    pats = []
    for _ in range(h):
        digits = f"{int(bits, 2):0{len(bits) // 4}x}".encode()
        pats.append(digits.translate(_DIGIT_PATTERN))
        bits = digits.translate(_DIGIT_VALUE)
    return pats


def iter_eval(h: int, x: "str | Bits") -> int:
    """Evaluate the height-h iterated gadget on 4**h bits (h = 0 is the
    identity on one bit)."""
    pats = level_patterns(h, x)
    return _FMAJ_BIT[pats[-1][0]] if pats else int(x[0])


# ---------------------------------------------------------------------------
# text of a .tt file: a header line "n=<int>" then the table as hex, least
# significant digit holding inputs 0..3

def table_to_text(f: TruthTable) -> str:
    digits = (f.size + 3) // 4
    return f"n={f.n}\n{f.bits:0{digits}x}\n"


def table_from_text(text: str) -> TruthTable:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = len(lines) == 2 and re.fullmatch(r"n=([0-9]+)", lines[0])
    if not header:
        raise ValueError("expected a 'n=<int>' line followed by a hex line")
    n = int(header[1])
    if not re.fullmatch(r"[0-9a-fA-F]+", lines[1]):
        raise ValueError(f"not a hex string: {lines[1]!r}")
    return TruthTable(n, int(lines[1], 16))
