"""Acceptance gate: eleven criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every line states the measured value next to the requirement it is held
to; a FAIL line is followed by a failing assertion with the same detail.
"""

import resource
import time
from fractions import Fraction

import numpy as np

from qlab.boolfn import fmaj, index_to_bits
from qlab.gadget import iterated_table
from qlab.dtree import exact_depth, delta0
from qlab.harddist import (
    _DRAW30,
    d,
    dh_total,
    jk_values,
    minority_level1_counts,
    minority_marginals_exact,
)
from qlab.lpbound import prt_report
from qlab.randalg import (
    embed_check,
    lv_check_correct,
    mc_mean_cost,
    recursive_exact_moments,
    recursive_exact_worst,
)
from qlab.subcube import (
    canonical_fmaj_partition,
    compose_partitions,
    computes,
    partition_cost,
    search_min_cost,
    search_min_weight,
    validate,
)

MC_TRIALS = 1_000_000


def verdict(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'pass' if ok else 'FAIL'} [{detail}]")
    return ok


def elapsed_ok(num, label, seconds, limit):
    ok = seconds < limit
    if not ok:
        print(f"criterion {num} ({label}): FAIL [took {seconds:.1f}s, limit {limit}s]")
    return ok


def test_criterion_1_exact_depth_four():
    t0 = time.monotonic()
    depth = exact_depth(fmaj()).value
    dt = time.monotonic() - t0
    ok = verdict(1, "worst-case queries on 4 bits", depth == 4, f"depth={depth}, {dt:.2f}s")
    assert ok and elapsed_ok(1, "runtime", dt, 1.0)


def test_criterion_2_partition_cost_three_is_optimal():
    t0 = time.monotonic()
    part = canonical_fmaj_partition()
    good = validate(part).ok and computes(part, fmaj())
    cost = partition_cost(part)
    search = search_min_cost(fmaj(), 2)
    dt = time.monotonic() - t0
    ok = good and cost.cost == 3 and search.partition is None
    ok = verdict(
        2,
        "fixing three bits is optimal",
        ok,
        f"cost={cost.cost}, budget-2 search exhausted after {search.nodes} nodes, {dt:.2f}s",
    )
    assert ok and elapsed_ok(2, "runtime", dt, 300.0)


def test_criterion_3_composition_squares_the_partition():
    t0 = time.monotonic()
    part = canonical_fmaj_partition()
    comp = compose_partitions(part, part)
    sizes = {pat.fixed_count for pat, _ in comp.entries}
    good = (
        len(comp.entries) == 512
        and sizes == {9}
        and validate(comp).ok
        and computes(comp, iterated_table(2))
    )
    dt = time.monotonic() - t0
    ok = verdict(3, "composed partition", good, f"parts=512, fixed=9, {dt:.2f}s")
    assert ok and elapsed_ok(3, "runtime", dt, 60.0)


def test_criterion_4_composed_depth_sixteen():
    t0 = time.monotonic()
    depth = exact_depth(iterated_table(2)).value
    dt = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    ok = verdict(
        4,
        "worst-case queries on 16 bits",
        depth == 16,
        f"depth={depth}, {dt:.1f}s, peak {peak_gb:.2f} GB",
    )
    assert ok and elapsed_ok(4, "runtime", dt, 600.0)
    assert peak_gb < 2.0


def test_criterion_5_round_exactness():
    t0 = time.monotonic()
    correct = lv_check_correct()
    worst, _ = recursive_exact_worst(1)
    costs = [recursive_exact_moments(1, index_to_bits(p, 4))[0] for p in range(16)]
    argmax = [p for p, c in enumerate(costs) if c == worst]
    dt = time.monotonic() - t0
    ok = correct and worst == max(costs) == Fraction(13, 4)
    ok = verdict(
        5,
        "zero-error rounds",
        ok,
        f"correct={correct}, worst={worst} on {len(argmax)} inputs, {dt:.2f}s",
    )
    assert ok and elapsed_ok(5, "runtime", dt, 1.0)


def test_criterion_6_distributional_sandwich():
    t0 = time.monotonic()
    dd = d()
    value = delta0(fmaj(), dd)
    upper = sum(
        (dd[p] * recursive_exact_moments(1, index_to_bits(p, 4))[0] for p in range(16)),
        Fraction(0),
    )
    lower = Fraction(16, 5)
    dt = time.monotonic() - t0
    ok = lower <= value <= upper and upper == Fraction(97, 30)
    ok = ok and value == Fraction(16, 5)  # regression pin of the DP value
    ok = verdict(
        6,
        "expected-cost sandwich",
        ok,
        f"{lower} <= {value} <= {upper}, {dt:.2f}s",
    )
    assert ok and elapsed_ok(6, "runtime", dt, 10.0)


def test_criterion_7_charge_recursions():
    t0 = time.monotonic()
    j10, k11, j11 = jk_values()
    dt = time.monotonic() - t0
    base_ok = j10 >= 1
    cross_ok = k11 >= 3
    recur_ok = j11 >= k11 + Fraction(1, 5) * j10
    ok = verdict(
        7,
        "charge recursions",
        base_ok and cross_ok and recur_ok,
        f"J(1,0)={j10} (>=1: {base_ok}), K(1,1)={k11} (>=3: {cross_ok}), "
        f"J(1,1)={j11} (>=K+J/5: {recur_ok}), {dt:.2f}s",
    )
    assert elapsed_ok(7, "runtime", dt, 60.0)
    assert base_ok, f"J(1,0)={j10} < 1"
    assert recur_ok, f"J(1,1)={j11} < {k11 + Fraction(1, 5) * j10}"
    # the exact minimum of the cross charge over zero-error trees is
    # 53/20, so the stated floor of 3 is not met; tests/test_dtree.py
    # pins 53/20 against a direct conditional enumeration
    assert cross_ok, f"K(1,1)={k11} < 3"


def test_criterion_8_minority_marginals():
    t0 = time.monotonic()
    marg = minority_marginals_exact()
    exact_ok = marg == (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    counts = minority_level1_counts(MC_TRIALS, np.random.default_rng(1001))
    freqs = counts / MC_TRIALS
    expect = np.array([0.4, 0.2, 0.2, 0.2])
    sigma = np.sqrt(expect * (1 - expect) / MC_TRIALS)
    mc_ok = bool((np.abs(freqs - expect) < 4 * sigma).all())
    dt = time.monotonic() - t0
    ok = verdict(
        8,
        "minority marginals",
        exact_ok and mc_ok,
        f"exact={tuple(str(m) for m in marg)}, "
        f"mc@{MC_TRIALS}={np.round(freqs, 4).tolist()}, {dt:.2f}s",
    )
    assert ok


def test_criterion_9_bound_chain():
    t0 = time.monotonic()
    rep0 = prt_report(fmaj(), Fraction(0))
    rep3 = prt_report(fmaj(), Fraction(1, 3))
    lp_dt = time.monotonic() - t0
    t1 = time.monotonic()
    pub = search_min_weight(fmaj())
    search_dt = time.monotonic() - t1
    chain_ok = rep0.value <= pub.weight <= 64
    eps_ok = rep3.value <= rep0.value
    ok = verdict(
        9,
        "bound chain",
        chain_ok and eps_ok,
        f"relaxed(0)={rep0.value} <= public(0)={pub.weight} <= 64, "
        f"relaxed(1/3)={rep3.value}, lp {lp_dt:.2f}s, search {search_dt:.2f}s",
    )
    assert ok and elapsed_ok(9, "lp runtime", lp_dt, 60.0)
    assert elapsed_ok(9, "search runtime", search_dt, 1800.0)


def test_criterion_10_monte_carlo_band():
    t0 = time.monotonic()
    worst, _ = recursive_exact_worst(2)
    band_low = Fraction(256, 25)
    band_high = Fraction(169, 16)
    endpoint_ok = worst == band_high
    rep = mc_mean_cost(2, MC_TRIALS, np.random.default_rng(1002), threads=4)
    mean = float(rep.mean)
    band_ok = (
        float(band_low) - 4 * rep.stderr <= mean <= float(band_high) + 4 * rep.stderr
    )
    zero_error = lv_check_correct()
    dt = time.monotonic() - t0
    ok = verdict(
        10,
        "height-2 expected reads",
        endpoint_ok and band_ok and zero_error,
        f"mean={mean:.4f} in [{float(band_low)}, {float(band_high)}], "
        f"worst={worst}, zero-error on every round={zero_error}, {dt:.1f}s",
    )
    assert ok


def test_criterion_11_distribution_integrity():
    t0 = time.monotonic()
    totals_ok = all(dh_total(h)[1] == 1 for h in (0, 1, 2))
    # the draw table, the law's one sampler, covers each children pattern
    # with exactly as many of its 60 entries as 60 times its mass under d
    draws = np.bincount(_DRAW30.ravel(), minlength=16).tolist()
    draws_ok = draws == [60 * m for m in d()]
    rng = np.random.default_rng(1003)
    slots_ok = True
    slot_freqs = []
    for level in (1, 2):
        rep = embed_check(level, MC_TRIALS, rng, alpha=1e-3)
        expect = np.array([1 / 5, 4 / 15, 4 / 15, 4 / 15])
        sigma = np.sqrt(expect * (1 - expect) / rep.trials)
        freqs = np.array(rep.slot_counts) / rep.trials
        slots_ok = slots_ok and bool((np.abs(freqs - expect) < 4 * sigma).all())
        bad = rep.bad_majority + rep.bad_value + rep.bad_sibling
        slots_ok = slots_ok and rep.slot_ok and rep.chi2.ok and bad == 0
        slot_freqs.append(np.round(freqs, 4).tolist())
    dt = time.monotonic() - t0
    ok = verdict(
        11,
        "distribution integrity",
        totals_ok and draws_ok and slots_ok,
        f"mass totals exact={totals_ok}, draw table = 60 d: {draws_ok}, "
        f"slots={slot_freqs}, {dt:.1f}s",
    )
    assert ok
