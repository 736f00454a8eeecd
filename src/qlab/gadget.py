"""The iterated tie-breaking majority gadget on a complete 4-ary tree,
evaluated in numpy on explicit inputs: every input's bits as an array,
and the children patterns of each level's nodes.  `boolfn.iterated_table`
builds the same function's table in Python ints.

A height-h input is 4**h leaf bits; node i of one level reads nodes
4i to 4i+3 one level down, and its value is the gadget (`boolfn.fmaj`)
at their children pattern.  Truth tables unpack into uint8 arrays here,
so `boolfn` keeps them in Python ints.
"""

from __future__ import annotations

import numpy as np

from .boolfn import _FMAJ_BIT, MAX_VARS, Bits, TruthTable, parse_bits

_FM = np.array(_FMAJ_BIT, dtype=np.uint8)


def table_values(f: TruthTable) -> np.ndarray:
    """f at every input, in index order, as a uint8 array."""
    raw = f.bits.to_bytes((f.size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: f.size]


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
