"""Labeled subcube partitions, validation, composition, and the two searches."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from qlab.boolfn import MAX_VARS, TruthTable, fmaj, iterated_table
from qlab.dtree import lattice_colors, lattice_sums
from qlab.subcube import (
    LabeledPartition,
    Pattern,
    canonical_fmaj_partition,
    compose_partitions,
    computes,
    partition_cost,
    partition_from_text,
    partition_to_text,
    search_min_cost,
    search_min_weight,
    validate,
)


def all_patterns(n):
    for combo in itertools.product("01*", repeat=n):
        yield Pattern("".join(combo))


def member_list(p):
    """The indices of the inputs in p, ascending, read off its member word
    one lowest set bit at a time."""
    word, found = p.members(), []
    while word:
        low = word & -word
        found.append(low.bit_length() - 1)
        word ^= low
    return found


def brute_partitions(n):
    """Every partition of the n-cube into subcubes, by direct set cover."""
    pats = [(p, member_list(p)) for p in all_patterns(n)]
    full = (1 << (1 << n)) - 1

    def extend(covered, chosen):
        if covered == full:
            yield tuple(chosen)
            return
        lowest = ((covered + 1) & ~covered).bit_length() - 1
        for p, members in pats:
            if lowest not in members:
                continue
            bitmask = 0
            for m in members:
                bitmask |= 1 << m
            if bitmask & covered:
                continue
            chosen.append(p)
            yield from extend(covered | bitmask, chosen)
            chosen.pop()

    yield from extend(0, [])


def brute_min_cost_and_weight(f):
    best_cost = None
    best_weight = None
    for parts in brute_partitions(f.n):
        mono = True
        for p in parts:
            vals = {f.bit(i) for i in member_list(p)}
            if len(vals) != 1:
                mono = False
                break
        if not mono:
            continue
        cost = max(p.fixed_count for p in parts)
        weight = sum(1 << p.fixed_count for p in parts)
        if best_cost is None or cost < best_cost:
            best_cost = cost
        if best_weight is None or weight < best_weight:
            best_weight = weight
    return best_cost, best_weight


def lattice_states(n):
    """Every lattice index with its pattern: index 0/1 fixes, 2 frees."""
    for state in itertools.product(range(3), repeat=n):
        yield state, Pattern("".join("01*"[t] for t in state))


def test_lattice_colors_match_member_scan():
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(12):
            f = TruthTable(n, rng.getrandbits(1 << n))
            colors = lattice_colors(f)
            assert colors.shape == (3,) * n and colors.dtype == np.uint8
            for state, pat in lattice_states(n):
                outs = {f.bit(i) for i in member_list(pat)}
                assert colors[state] == (outs.pop() if len(outs) == 1 else 2), (n, f.bits, state)


def test_lattice_sums_match_member_scan():
    rng = random.Random(4)
    for n in range(1, 6):
        values = [rng.randint(0, 10**30) for _ in range(1 << n)]
        sums = lattice_sums(np.array(values, dtype=object))
        for state, pat in lattice_states(n):
            assert sums[state] == sum(values[i] for i in member_list(pat))


def test_pattern_members_and_contains():
    p = Pattern("01*0")
    assert p.fixed_count == 3
    assert p.free_count == 1
    members = p.members()
    assert members == 1 << 0b0100 | 1 << 0b0110
    assert not members >> 0b0101 & 1
    # exactly the inputs that agree with every fixed bit
    for n in range(1, 5):
        for _, pat in lattice_states(n):
            want = [
                idx for idx in range(1 << n)
                if all(c == "*" or int(c) == idx >> (n - 1 - j) & 1 for j, c in enumerate(pat.text))
            ]
            assert pat.members() == sum(1 << idx for idx in want), pat.text


def intersects(a, b):
    return bool(set(member_list(a)) & set(member_list(b)))


def test_pattern_intersects():
    assert intersects(Pattern("0**1"), Pattern("**11"))
    assert not intersects(Pattern("1***"), Pattern("0***"))
    assert not intersects(Pattern("01*0"), Pattern("111*"))
    assert intersects(Pattern("****"), Pattern("1111"))


def test_pattern_rejects_bad_text():
    with pytest.raises(ValueError):
        Pattern("01x0")
    with pytest.raises(ValueError):
        Pattern("")


def test_canonical_partition_shape():
    part = canonical_fmaj_partition()
    assert len(part.entries) == 8
    rep = validate(part)
    assert rep.ok, rep
    assert computes(part, fmaj())
    cost = partition_cost(part)
    assert cost.cost == 3
    assert cost.weight == 64


def test_canonical_partition_labels_match_function():
    f = fmaj()
    for pat, label in canonical_fmaj_partition().entries:
        for idx in member_list(pat):
            assert f.bit(idx) == label, pat.text


def test_validate_detects_overlap():
    part = LabeledPartition(2, ((Pattern("0*"), 0), (Pattern("*0"), 0), (Pattern("11"), 1)))
    rep = validate(part)
    assert not rep.ok
    assert rep.error == "overlap"


def test_validate_detects_gap():
    part = LabeledPartition(2, ((Pattern("0*"), 0), (Pattern("11"), 1)))
    rep = validate(part)
    assert not rep.ok
    assert rep.error == "gap"


def pairwise_validate(part):
    """The pairwise definition: (error, overlapping pair or cover count)."""
    entries = [p for p, _ in part.entries]
    for b, pb in enumerate(entries):
        earlier = [pa for pa in entries[:b] if intersects(pa, pb)]
        if earlier:
            return "overlap", earlier, pb
    total = sum(1 << p.free_count for p in entries)
    return (None if total == 1 << part.n else "gap"), total, None


def test_validate_paints_like_the_pairwise_scan():
    rng = random.Random(12)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        parts = []
        covered = 0
        while covered < 1 << n and len(parts) < 12:
            p = Pattern("".join(rng.choice("01**") for _ in range(n)))
            parts.append((p, rng.randint(0, 1)))
            covered += 1 << p.free_count
        if rng.random() < 0.3:
            parts.pop()
        part = LabeledPartition(n, tuple(parts))
        rep = validate(part)
        error, detail, pb = pairwise_validate(part)
        kinds.add(error)
        assert rep.ok == (error is None) and rep.error == error, part
        if error == "overlap":
            assert any(rep.detail == f"{pa.text} and {pb.text} share a point" for pa in detail)
        elif error == "gap":
            assert rep.detail == f"parts cover {detail} of {1 << n} points"
        else:
            # each input takes the label of the one part holding it
            f = TruthTable.from_values(
                n, [next(z for p, z in parts if i in member_list(p)) for i in range(1 << n)]
            )
            assert rep.ones == f.bits
            assert computes(part, f)
    assert kinds == {None, "overlap", "gap"}


def test_validate_refuses_more_than_max_vars():
    part = LabeledPartition(MAX_VARS + 1, ((Pattern("*" * (MAX_VARS + 1)), 0),))
    with pytest.raises(ValueError):
        validate(part)


def test_computes_raises_on_invalid_partition():
    part = LabeledPartition(2, ((Pattern("0*"), 0), (Pattern("11"), 1)))
    f = TruthTable.from_values(2, [0, 0, 0, 1])
    with pytest.raises(ValueError):
        computes(part, f)


def test_computes_detects_wrong_label():
    f = TruthTable.from_values(2, [0, 0, 0, 1])
    part = LabeledPartition(2, ((Pattern("0*"), 0), (Pattern("10"), 0), (Pattern("11"), 0)))
    assert validate(part).ok
    assert not computes(part, f)


def test_search_matches_brute_force_on_two_variables():
    # every function of two variables, and a seeded sample of three
    cases = [(2, bits) for bits in range(16)]
    cases += [(3, bits) for bits in random.Random(3).sample(range(256), 32)]
    for n, bits in cases:
        f = TruthTable(n, bits)
        want_cost, want_weight = brute_min_cost_and_weight(f)
        got_weight = search_min_weight(f)
        assert got_weight.weight == want_weight, (n, bits)
        found = None
        for budget in range(0, n + 1):
            res = search_min_cost(f, budget)
            if res.partition is not None:
                found = budget
                break
        assert found == want_cost, (n, bits)


def test_search_min_cost_exhausts_below_three():
    res = search_min_cost(fmaj(), 2)
    assert res.partition is None
    assert res.nodes >= 1


def test_search_min_cost_finds_three():
    res = search_min_cost(fmaj(), 3)
    assert res.partition is not None
    part = res.partition
    assert validate(part).ok
    assert computes(part, fmaj())
    assert partition_cost(part).cost == 3


def test_search_min_weight_fmaj():
    res = search_min_weight(fmaj())
    assert res.weight == 64
    assert validate(res.partition).ok
    assert computes(res.partition, fmaj())
    assert partition_cost(res.partition).weight == 64


def test_search_results_are_pinned():
    # the canonical order fixes every node count, so a change to the
    # walk or its pruning shows here
    none = search_min_cost(fmaj(), 2)
    assert none.partition is None and none.nodes == 4
    assert search_min_cost(fmaj(), 3).nodes == 20
    light = search_min_weight(fmaj())
    assert (light.weight, light.nodes) == (64, 460)
    # the cost search stops at its first cover, long before exhausting
    f = TruthTable(5, random.Random(0).getrandbits(32))
    first = search_min_cost(f, 5)
    assert first.nodes == 18
    assert computes(first.partition, f)


def test_search_guards_reject_large_inputs():
    g2 = iterated_table(2)
    with pytest.raises(ValueError):
        search_min_cost(g2, 3)
    with pytest.raises(ValueError):
        search_min_weight(g2)


def test_compose_partitions_canonical_square():
    p = canonical_fmaj_partition()
    comp = compose_partitions(p, p)
    assert len(comp.entries) == 512
    assert {pat.fixed_count for pat, _ in comp.entries} == {9}
    assert validate(comp).ok
    cost = partition_cost(comp)
    assert cost.cost == 9
    assert cost.weight == 512 * 2 ** 9
    # the part order: outer parts in turn, the last fixed block fastest
    assert [pat.text for pat, _ in comp.entries[3:5]] == [
        "001*" "001*" "*111" "****",
        "001*" "0*01" "110*" "****",
    ]
    digest = hashlib.sha256(partition_to_text(comp).encode()).hexdigest()
    assert digest == "6923fd58bba4adef294ab97f9ed0fadc918ce302f0b68821a144d194336ad3d3"


def test_compose_partitions_computes_composed_function():
    p = canonical_fmaj_partition()
    comp = compose_partitions(p, p)
    assert computes(comp, iterated_table(2))


def test_compose_agrees_with_membership_semantics():
    # every input's composed label equals the outer label of its per-block
    # inner labels
    p = canonical_fmaj_partition()
    comp = compose_partitions(p, p)
    f = fmaj()

    def inner_label(block):
        for pat, label in p.entries:
            if block in member_list(pat):
                return label
        raise AssertionError("no part")

    comp_members = [(set(member_list(pat)), label) for pat, label in comp.entries]
    for idx in range(0, 1 << 16, 4097):
        blocks = [(idx >> (12 - 4 * k)) & 0xF for k in range(4)]
        labels = tuple(inner_label(b) for b in blocks)
        outer = f.bit((labels[0] << 3) | (labels[1] << 2) | (labels[2] << 1) | labels[3])
        hit = [label for members, label in comp_members if idx in members]
        assert len(hit) == 1
        assert hit[0] == outer


def test_partition_text_round_trip():
    part = canonical_fmaj_partition()
    text = partition_to_text(part)
    back = partition_from_text(text)
    assert back == part


def test_partition_text_rejects_garbage():
    with pytest.raises(ValueError):
        partition_from_text("01x0 0\n")
    with pytest.raises(ValueError):
        partition_from_text("01*0 2\n")
    with pytest.raises(ValueError):
        partition_from_text("01*0 0\n011 1\n")  # mixed widths
