"""Truth tables, the tie-favoring 4-bit majority, and its iterated tables."""

import random
import re
import tracemalloc

import numpy as np
import pytest

from qlab.boolfn import (
    MAX_VARS,
    TruthTable,
    bits_to_index,
    fmaj,
    index_to_bits,
    iter_eval,
    iterated_table,
    level_patterns,
    parse_bits,
    table_from_text,
    table_to_text,
)
from qlab.dtree import table_values


def formula_reference(bits):
    # independent transcription: x1 and (x2 or x3 or x4), or x2 and x3 and x4
    x1, x2, x3, x4 = bits
    return (x1 & (x2 | x3 | x4)) | (x2 & x3 & x4)


def majority5_reference(bits):
    # doubling the first vote in a 5-way majority is the same function
    x1, x2, x3, x4 = bits
    return 1 if 2 * x1 + x2 + x3 + x4 >= 3 else 0


def test_parse_bits_accepts_strings_and_sequences():
    assert parse_bits("1010") == (1, 0, 1, 0)
    assert parse_bits([1, 0]) == (1, 0)
    assert parse_bits((0,)) == (0,)
    with pytest.raises(ValueError):
        parse_bits("10x0")
    with pytest.raises(ValueError):
        parse_bits([0, 2])


def test_index_convention_first_bit_most_significant():
    assert bits_to_index("1000") == 8
    assert bits_to_index("0001") == 1
    assert bits_to_index("1100") == 12
    for i in range(16):
        assert bits_to_index(index_to_bits(i, 4)) == i


def test_fmaj_matches_formula_on_all_inputs():
    f = fmaj()
    assert f.n == 4
    for i in range(16):
        bits = index_to_bits(i, 4)
        assert f.bit(i) == formula_reference(bits), bits


def test_fmaj_equals_doubled_first_vote_majority():
    f = fmaj()
    for i in range(16):
        assert f.bit(i) == majority5_reference(index_to_bits(i, 4))


def test_fmaj_packed_value():
    # frozen from the formula oracle above
    assert fmaj().bits == 0xFE80


def test_fmaj_point_evaluations():
    f = fmaj()
    assert f.eval("1100") == 1
    assert f.eval("0011") == 0
    assert f.eval("1000") == 0
    assert f.eval("0111") == 1
    assert f.eval("1010") == 1


def test_truth_table_from_values_round_trip():
    vals = [formula_reference(index_to_bits(i, 4)) for i in range(16)]
    t = TruthTable.from_values(4, vals)
    assert t == fmaj()


def test_from_values_rejects_bad_values_and_counts():
    with pytest.raises(ValueError, match="index 2 is not 0/1"):
        TruthTable.from_values(2, [0, 1, 2, 0])
    with pytest.raises(ValueError, match="index 1 is not 0/1"):
        TruthTable.from_values(1, np.array([0.0, 0.5]))
    for values in ([0, 1, 1], [0] * 5, [[0, 1], [1, 0]]):
        with pytest.raises(ValueError, match=r"expected 2\*\*2 values"):
            TruthTable.from_values(2, values)
    with pytest.raises(ValueError, match=r"expected 2\*\*1000000000 values"):
        TruthTable.from_values(10**9, [0, 1])


def test_constant_tables():
    zero = TruthTable(3, 0)
    one = TruthTable(3, (1 << 8) - 1)
    assert table_values(zero).tolist() == [0] * 8 and table_values(one).tolist() == [1] * 8
    assert one == TruthTable.from_values(3, [1] * 8)


def test_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        TruthTable(2, 1 << 4)
    with pytest.raises(ValueError):
        TruthTable(MAX_VARS + 1, 0)
    with pytest.raises(ValueError):
        fmaj().bit(16)


def test_compose_block_order():
    # outer variable 1 reads the most significant block
    f = fmaj()
    g2 = iterated_table(2)
    assert g2.n == 16
    inner = ["0111", "1000", "1000", "1000"]
    outer_bits = tuple(f.eval(b) for b in inner)
    assert outer_bits == (1, 0, 0, 0)
    assert g2.eval("".join(inner)) == f.eval(outer_bits) == 0
    inner = ["1000", "0111", "0111", "0111"]
    assert g2.eval("".join(inner)) == f.eval((0, 1, 1, 1)) == 1


def scalar_compose(f, g):
    """Block composition straight from its definition, one input at a time."""
    n, m = f.n, g.n
    values = []
    for idx in range(1 << (n * m)):
        blocks = [(idx >> ((n - 1 - j) * m)) & ((1 << m) - 1) for j in range(n)]
        fidx = 0
        for block in blocks:
            fidx = (fidx << 1) | g.bit(block)
        values.append(f.bit(fidx))
    return TruthTable.from_values(n * m, values)


def test_iterated_table_matches_scalar_composition():
    identity = TruthTable(1, 0b10)
    assert scalar_compose(fmaj(), identity) == fmaj() == scalar_compose(identity, fmaj())
    assert iterated_table(2) == scalar_compose(fmaj(), fmaj())


def test_values_unpack_the_table_word():
    rng = random.Random(9)
    for n in (1, 2, 3, 5, 8):
        f = TruthTable(n, rng.getrandbits(1 << n))
        assert table_values(f).tolist() == [f.bit(i) for i in range(f.size)]


def test_iterated_majority_heights():
    assert iterated_table(0) == TruthTable(1, 0b10)
    assert iterated_table(1) == fmaj()
    g2 = iterated_table(2)
    assert g2.eval("0111100010001000") == iter_eval(2, "0111100010001000") == 0
    with pytest.raises(ValueError):
        iterated_table(-1)


@pytest.mark.parametrize("h", [0, 1, 2])
def test_iterated_table_is_the_table_of_the_level_patterns(h):
    # the table comes from the variables' tables, the evaluator from the
    # level patterns: both definitions must agree on every input
    table = iterated_table(h)
    for idx in range(table.size):
        assert iter_eval(h, index_to_bits(idx, 4**h)) == table.bit(idx), idx


@pytest.mark.parametrize("h", [3, 10**9])
def test_iterated_table_refuses_tall_heights_without_building_them(h):
    # the height is checked before 4**h or any table is computed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            iterated_table(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_iter_eval_matches_table():
    g2 = iterated_table(2)
    for i in range(0, 1 << 16, 997):
        bits = index_to_bits(i, 16)
        assert iter_eval(2, bits) == g2.bit(i)


def test_level_patterns_inner_nodes():
    x = parse_bits("0111100010001000")
    quarters = ["0111", "1000", "1000", "1000"]
    f = fmaj()
    level1, root = level_patterns(2, x)
    assert type(level1) is bytes and type(root) is bytes
    # node k of level 1 reads leaves 4k to 4k+3, and its pattern is them
    assert list(level1) == [bits_to_index(q) for q in quarters]
    for k in range(4):
        assert f.bit(level1[k]) == f.eval(quarters[k])
    # the root's pattern is its children's values, and its value the table's
    assert list(root) == [bits_to_index([f.eval(q) for q in quarters])]
    assert f.bit(root[0]) == 0 == iter_eval(2, x)
    assert level_patterns(0, "1") == []
    with pytest.raises(ValueError):
        level_patterns(2, "0111")


def naive_level_patterns(h, x):
    """The level patterns by a list walk, one node at a time."""
    bits = parse_bits(x)
    if len(bits) != 4**h:
        raise ValueError(f"input length {len(bits)} != 4**{h}")
    pats, values = [], list(bits)
    for _ in range(h):
        level = [bits_to_index(values[i : i + 4]) for i in range(0, len(values), 4)]
        pats.append(level)
        values = [fmaj().bit(p) for p in level]
    return pats, values[0]


def test_level_patterns_match_a_list_walk():
    rng = random.Random(8)
    for h in range(7):
        for _ in range(4):
            row = tuple(rng.randrange(2) for _ in range(4**h))
            pats, root = naive_level_patterns(h, row)
            for x in (row, "".join(map(str, row))):
                assert [list(p) for p in level_patterns(h, x)] == pats
                assert iter_eval(h, x) == root


@pytest.mark.parametrize(
    "h, x",
    [
        (2, "0111"),
        (1, "01x1"),
        (1, ""),
        (1, (0, 2, 1, 1)),
        (1, "\u0661\u0660\u0661\u0660"),
        (0, "11"),
        (-1, "1"),
        (3, (1,) * 63),
    ],
)
def test_level_patterns_refuse_what_a_list_walk_refuses(h, x):
    with pytest.raises(ValueError) as want:
        naive_level_patterns(h, x)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        level_patterns(h, x)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        iter_eval(h, x)


def test_table_text_round_trip():
    f = fmaj()
    text = table_to_text(f)
    assert text.splitlines()[0] == "n=4"
    assert table_from_text(text) == f
    g2 = iterated_table(2)
    assert table_from_text(table_to_text(g2)) == g2


def test_table_text_rejects_garbage():
    with pytest.raises(ValueError):
        table_from_text("n=4\nzz\n")
    with pytest.raises(ValueError):
        table_from_text("4\nfe80\n")
    with pytest.raises(ValueError):
        table_from_text("n=2\nfe80\n")
