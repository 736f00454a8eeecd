"""Command-line front end.

Subcommands: fn (tables), measure (tree complexities), partition
(subcube partitions), dist (the hard distribution), bound (LP and
public-coin relaxations), simulate (Monte Carlo), verify (end-to-end
pipelines), fixtures (canonical files).

Reports are machine-parseable "key: value" lines; exact rationals are
printed as p/q next to a float rendering, and every stochastic command
records its seed.  Output is byte-identical across runs with the same
arguments except for the trailing elapsed-time line.  Exit status: 0 on
success, 1 when a requested check fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import boolfn, dtree, harddist, lpbound, randalg, subcube

# exact per-level floor on expected reads for any zero-error tree
LEVEL_COST_FLOOR = Fraction(16, 5)
# peak bytes of `dist sample` per sampled leaf: tracemalloc measures
# 1.77-1.88 at heights 1 to 11, the sampler's last level holding its
# int32 draws (one byte per leaf) beside its uint8 children
SAMPLE_BYTES_PER_LEAF = 2


class InputError(Exception):
    """Bad file contents or inconsistent arguments; exits with 2."""


_DISPATCH_START: Optional[float] = None


class Report:
    def __init__(self, topic: str):
        self._lines: list[tuple[str, str]] = [("report", topic)]
        # command handlers may do their heavy work before building the
        # report, so prefer the dispatch timestamp when one is set
        self._start = _DISPATCH_START if _DISPATCH_START is not None else time.monotonic()

    def add(self, key: str, value) -> None:
        self._lines.append((key, str(value)))

    def add_rational(self, key: str, value: Fraction) -> None:
        self.add(key, f"{value.numerator}/{value.denominator}")
        self.add(f"{key}-float", repr(float(value)))

    def add_verdict(self, key: str, ok: bool) -> bool:
        self.add(key, "pass" if ok else "FAIL")
        return ok

    def emit(self) -> None:
        for key, value in self._lines:
            print(f"{key}: {value}")
        print(f"elapsed-s: {time.monotonic() - self._start:.3f}")


def _default_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _env_at_least("QLAB_SEED", 0)


def _default_threads(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None) is not None:
        return args.threads
    return _env_at_least("QLAB_THREADS", 1)


def _env_at_least(name: str, low: int) -> int:
    """An integer environment default, held to the same floor as its
    flag; unset or empty means the floor itself."""
    text = os.environ.get(name)
    if not text:
        return low
    try:
        return _at_least(low)(text)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {text!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{name} {exc}") from None


def _load_table(path: str) -> boolfn.TruthTable:
    try:
        return boolfn.load_table(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load table {path}: {exc}") from exc


def _load_partition(path: str) -> subcube.LabeledPartition:
    try:
        return subcube.load_partition(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load partition {path}: {exc}") from exc


def _load_dist(path: str) -> harddist.InputDistribution:
    try:
        return harddist.load_dist(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load distribution {path}: {exc}") from exc


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _probability(text: str) -> float:
    """argparse type: a significance level strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


_FIXTURE_TABLES = {
    "identity": lambda: boolfn.IteratedMajority(0).truth_table(),
    "fmaj": boolfn.fmaj,
    "fmaj2": lambda: boolfn.IteratedMajority(2).truth_table(),
}


# ---------------------------------------------------------------------------
# fn

def cmd_fn_emit(args: argparse.Namespace) -> int:
    if args.name not in _FIXTURE_TABLES:
        raise InputError(f"unknown table {args.name!r}")
    table = _FIXTURE_TABLES[args.name]()
    boolfn.save_table(table, args.out)
    rep = Report("fn-emit")
    rep.add("name", args.name)
    rep.add("n", table.n)
    rep.add("out", args.out)
    rep.emit()
    return 0


def cmd_fn_eval(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    try:
        value = table.eval(args.input)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("fn-eval")
    rep.add("n", table.n)
    rep.add("input", args.input)
    rep.add("value", value)
    rep.emit()
    return 0


def cmd_fn_iter(args: argparse.Namespace) -> int:
    try:
        value = boolfn.iter_eval(args.height, args.input)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("fn-iter")
    rep.add("height", args.height)
    rep.add("value", value)
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# measure

def cmd_measure_depth(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    rep = Report("measure-depth")
    rep.add("n", table.n)
    if args.tree_out:
        depth, tree = dtree.exact_depth(table, want_tree=True)
        dtree.save_tree(tree, args.tree_out)
        rep.add("depth", depth)
        rep.add("tree-out", args.tree_out)
        ok = dtree.tree_computes(tree, table) and dtree.tree_depth(tree) == depth
        if not rep.add_verdict("witness-replay", ok):
            rep.emit()
            return 1
    else:
        rep.add("depth", dtree.exact_depth(table))
    rep.emit()
    return 0


def cmd_measure_delta0(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    dist = _load_dist(args.dist)
    if dist.n != table.n:
        raise InputError("table and distribution arity mismatch")
    try:
        value = dtree.delta0(table, dist.dense())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("measure-delta0")
    rep.add("n", table.n)
    rep.add_rational("delta0", value)
    rep.emit()
    return 0


def cmd_measure_jk(args: argparse.Namespace) -> int:
    rep = Report("measure-jk")
    j10 = dtree.j_value(1, 0)
    j11 = dtree.j_value(1, 1)
    k11 = dtree.k_value(1, 1)
    rep.add_rational("j-1-0", j10)
    rep.add_rational("k-1-1", k11)
    rep.add_rational("j-1-1", j11)
    ok = True
    ok &= rep.add_verdict("j-1-0-at-least-1", j10 >= 1)
    ok &= rep.add_verdict("k-1-1-at-least-3", k11 >= 3)
    ok &= rep.add_verdict(
        "j-recursion", j11 >= k11 + Fraction(1, 5) * j10
    )
    ok &= rep.add_verdict("cost-floor", j11 >= LEVEL_COST_FLOOR)
    rep.emit()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# partition

def cmd_partition_emit(args: argparse.Namespace) -> int:
    if args.name != "canonical":
        raise InputError(f"unknown partition {args.name!r}")
    part = subcube.canonical_fmaj_partition()
    subcube.save_partition(part, args.out)
    rep = Report("partition-emit")
    rep.add("name", args.name)
    rep.add("parts", len(part))
    rep.add("out", args.out)
    rep.emit()
    return 0


def cmd_partition_check(args: argparse.Namespace) -> int:
    part = _load_partition(args.part)
    table = _load_table(args.table)
    if part.n != table.n:
        raise InputError("partition and table arity mismatch")
    rep = Report("partition-check")
    rep.add("n", part.n)
    rep.add("parts", len(part))
    try:
        labels_ok = subcube.computes(part, table)  # validates the partition
    except ValueError as exc:  # not a partition
        rep.add_verdict("valid", False)
        rep.add("violation", str(exc))
        rep.emit()
        return 1
    ok = rep.add_verdict("valid", True)
    ok &= rep.add_verdict("computes", labels_ok)
    cost = subcube.partition_cost(part)
    rep.add("cost", cost.cost)
    rep.add("weight", cost.weight)
    rep.emit()
    return 0 if ok else 1


def cmd_partition_compose(args: argparse.Namespace) -> int:
    outer = _load_partition(args.outer)
    inner = _load_partition(args.inner)
    try:
        composed = subcube.compose_partitions(outer, inner)
        valid = subcube.validate(composed).ok
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    subcube.save_partition(composed, args.out)
    cost = subcube.partition_cost(composed)
    rep = Report("partition-compose")
    rep.add("n", composed.n)
    rep.add("parts", len(composed))
    rep.add("cost", cost.cost)
    rep.add("weight", cost.weight)
    rep.add("out", args.out)
    ok = rep.add_verdict("valid", valid)
    rep.emit()
    return 0 if ok else 1


def cmd_partition_search_cost(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    try:
        result = subcube.search_min_cost(table, args.budget)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("partition-search-cost")
    rep.add("n", table.n)
    rep.add("budget", args.budget)
    rep.add("nodes", result.nodes)
    if result.partition is None:
        rep.add("outcome", "none (search exhausted)")
        rep.emit()
        return 0
    rep.add("outcome", "found")
    rep.add("parts", len(result.partition))
    rep.add("cost", subcube.partition_cost(result.partition).cost)
    if args.out:
        subcube.save_partition(result.partition, args.out)
        rep.add("out", args.out)
    rep.emit()
    return 0


def cmd_partition_search_weight(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    try:
        result = subcube.search_min_weight(table)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("partition-search-weight")
    rep.add("n", table.n)
    rep.add("weight", result.weight)
    rep.add("half-log2", repr(0.5 * math.log2(result.weight)))
    rep.add("nodes", result.nodes)
    rep.add("parts", len(result.partition))
    if args.out:
        subcube.save_partition(result.partition, args.out)
        rep.add("out", args.out)
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# dist

_FIXTURE_DISTS = {
    "d0": harddist.d0,
    "d1": harddist.d1,
    "d": harddist.d,
}


def cmd_dist_emit(args: argparse.Namespace) -> int:
    if args.name not in _FIXTURE_DISTS:
        raise InputError(f"unknown distribution {args.name!r}")
    dist = _FIXTURE_DISTS[args.name]()
    harddist.save_dist(dist, args.out)
    rep = Report("dist-emit")
    rep.add("name", args.name)
    rep.add("support", len(dist.support()))
    rep.add("out", args.out)
    rep.emit()
    return 0


def cmd_dist_mass(args: argparse.Namespace) -> int:
    try:
        mass = harddist.dh_mass(args.height, args.input)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("dist-mass")
    rep.add("height", args.height)
    rep.add_rational("mass", mass)
    rep.emit()
    return 0


def cmd_dist_total(args: argparse.Namespace) -> int:
    if args.height > harddist.MAX_ENUM_HEIGHT:
        raise InputError(f"exact totals support h <= {harddist.MAX_ENUM_HEIGHT}")
    rep = Report("dist-total")
    rep.add("height", args.height)
    points, total = harddist.dh_total(args.height)
    rep.add("support", points)
    rep.add_rational("total", total)
    ok = rep.add_verdict("sums-to-1", total == 1)
    rep.emit()
    return 0 if ok else 1


def cmd_dist_sample(args: argparse.Namespace) -> int:
    # capping the height keeps a huge one from costing a huge power;
    # height 16 is already over the limit for one trial
    need = SAMPLE_BYTES_PER_LEAF * args.trials * 4 ** min(args.height, 16)
    if need > dtree.DEFAULT_MEMORY_LIMIT:
        raise InputError(
            f"{args.trials} samples at height {args.height} need more than "
            f"the {dtree.DEFAULT_MEMORY_LIMIT}-byte memory limit"
        )
    seed = _default_seed(args)
    rng = np.random.default_rng(seed)
    rep = Report("dist-sample")
    rep.add("height", args.height)
    rep.add("trials", args.trials)
    rep.add("seed", seed)
    if args.height == 1:
        pattern = boolfn.patterns(harddist.sample_inputs(1, args.trials, rng))
        # counted between sorted boundaries: bincount would copy to intp
        pattern.sort()
        counts = np.diff(np.searchsorted(pattern, np.arange(17, dtype=np.uint8)))
        gof = randalg.chi_square_gof(
            [int(c) for c in counts], harddist.d().dense(), alpha=args.alpha
        )
        rep.add("chi2-stat", repr(gof.stat))
        rep.add("chi2-df", gof.df)
        rep.add("chi2-critical", repr(gof.critical))
        rep.add("off-support-hits", gof.impossible_hits)
        ok = rep.add_verdict("chi2", gof.ok)
        rep.emit()
        return 0 if ok else 1
    xs = harddist.sample_inputs(args.height, args.trials, rng)
    rep.add("width", xs.shape[1])
    rep.add("mean-ones", repr(float(xs.mean())))
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# bound

def cmd_bound_prt(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    eps = _parse_fraction(args.eps)
    rep = Report("bound-prt")
    rep.add("n", table.n)
    rep.add_rational("eps", eps)
    try:
        report = lpbound.prt_report(table, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except lpbound.CertificateError as exc:
        rep.add("certificate-error", str(exc))
        rep.add_verdict("certificate", False)
        rep.emit()
        return 1
    rep.add("lp-vars", report.num_vars)
    rep.add("lp-constraints", report.num_constraints)
    rep.add("pivots", report.pivots)
    rep.add_rational("value", report.value)
    rep.add_rational("dual-value", report.dual_value)
    # prt_report returns only values whose certificate re-checked exactly
    rep.add_verdict("certificate", True)
    rep.add("half-log2", repr(report.half_log2))
    rep.emit()
    return 0


def cmd_bound_pprt0(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    try:
        report = lpbound.pprt_zero_report(table)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("bound-pprt0")
    rep.add("n", table.n)
    rep.add("weight", report.weight)
    rep.add("half-log2", repr(report.half_log2))
    rep.add("nodes", report.nodes)
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# simulate

def _four_sigma(p: float, trials: int) -> float:
    return 4.0 * (p * (1.0 - p) / trials) ** 0.5


def cmd_simulate_r0(args: argparse.Namespace) -> int:
    seed = _default_seed(args)
    threads = _default_threads(args)
    rng = np.random.default_rng(seed)
    try:
        mc = randalg.mc_mean_cost(
            args.height, args.trials, rng, x=args.input, threads=threads
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    reference, variance = randalg.recursive_exact_moments(args.height, args.input)
    # judged by the exact standard error: the sample's is 0 for one
    # trial, or whenever every trial reads alike
    sigma = math.sqrt(variance / args.trials)
    rep = Report("simulate-r0")
    rep.add("height", args.height)
    rep.add("trials", args.trials)
    rep.add("seed", seed)
    rep.add("threads", threads)
    if args.input is not None:
        rep.add("input", args.input)
    rep.add_rational("mean", mc.mean)
    rep.add("stderr", repr(mc.stderr))
    rep.add("exact-stderr", repr(sigma))
    rep.add("output-errors", mc.errors)
    ok = rep.add_verdict("zero-error", mc.errors == 0)
    rep.add_rational("exact-mean", reference)
    ok &= rep.add_verdict(
        "within-4-sigma", abs(float(mc.mean - reference)) <= 4.0 * sigma
    )
    if args.height >= 1 and args.input is None:
        low = LEVEL_COST_FLOOR**args.height
        high, _ = randalg.recursive_exact_worst(args.height)
        rep.add_rational("band-low", low)
        rep.add_rational("band-high", high)
        ok &= rep.add_verdict(
            "within-band",
            float(low) - 4.0 * sigma <= float(mc.mean) <= float(high) + 4.0 * sigma,
        )
    rep.emit()
    return 0 if ok else 1


def cmd_simulate_minority(args: argparse.Namespace) -> int:
    seed = _default_seed(args)
    rng = np.random.default_rng(seed)
    rep = Report("simulate-minority")
    rep.add("trials", args.trials)
    rep.add("seed", seed)
    counts = harddist.minority_level1_counts(args.trials, rng)
    marg = harddist.minority_marginals_exact()
    ok = True
    for i in range(4):
        freq = int(counts[i]) / args.trials
        rep.add(f"count-{i}", int(counts[i]))
        rep.add(f"freq-{i}", repr(freq))
        rep.add(f"exact-{i}", f"{marg[i].numerator}/{marg[i].denominator}")
        ok &= abs(freq - float(marg[i])) <= _four_sigma(float(marg[i]), args.trials)
    rep.add_verdict("within-4-sigma", ok)
    rep.emit()
    return 0 if ok else 1


def cmd_simulate_embed(args: argparse.Namespace) -> int:
    seed = _default_seed(args)
    rng = np.random.default_rng(seed)
    try:
        report = randalg.embed_check(args.level, args.trials, rng, alpha=args.alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = Report("simulate-embed")
    rep.add("level", args.level)
    rep.add("trials", args.trials)
    rep.add("seed", seed)
    for i, c in enumerate(report.slot_counts):
        rep.add(f"slot-{i}", c)
    rep.add("chi2-stat", repr(report.chi2.stat))
    rep.add("chi2-critical", repr(report.chi2.critical))
    rep.add("off-support-hits", report.chi2.impossible_hits)
    ok = rep.add_verdict("slot-frequencies", report.slot_ok)
    ok &= rep.add_verdict("children-law-chi2", report.chi2.ok)
    ok &= rep.add_verdict("always-majority", report.bad_majority == 0)
    ok &= rep.add_verdict("value-propagates", report.bad_value == 0)
    rep.emit()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify

def cmd_verify_separation(args: argparse.Namespace) -> int:
    seed = _default_seed(args)
    threads = _default_threads(args)
    if args.height == 1:
        return _verify_height1(seed)
    return _verify_height2(args, seed, threads)


def _verify_height1(seed: int) -> int:
    rep = Report("verify-separation-1")
    rep.add("seed", seed)
    table = boolfn.fmaj()
    ok = rep.add_verdict("depth-4", dtree.exact_depth(table) == 4)

    part = subcube.canonical_fmaj_partition()
    ok &= rep.add_verdict(
        "canonical-partition",
        subcube.validate(part).ok
        and subcube.computes(part, table)
        and subcube.partition_cost(part).cost == 3,
    )
    ok &= rep.add_verdict(
        "no-cost-2-partition", subcube.search_min_cost(table, 2).partition is None
    )

    worst, _ = randalg.lv_worst_cost()
    ok &= rep.add_verdict("zero-error-rounds", randalg.lv_check_correct())
    ok &= rep.add_verdict("worst-cost-13-4", worst == Fraction(13, 4))

    mean = randalg.recursive_exact_moments(1)[0]
    value = dtree.delta0(table, harddist.d().dense())
    rep.add_rational("delta0", value)
    rep.add_rational("mean-reads", mean)
    ok &= rep.add_verdict("delta0-sandwich", LEVEL_COST_FLOOR <= value <= mean)

    j10 = dtree.j_value(1, 0)
    j11 = dtree.j_value(1, 1)
    k11 = dtree.k_value(1, 1)
    ok &= rep.add_verdict(
        "jk-inequalities",
        j10 >= 1 and k11 >= 3 and j11 >= k11 + Fraction(1, 5) * j10,
    )

    marg = harddist.minority_marginals_exact()
    expected = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    ok &= rep.add_verdict("minority-marginals", marg == expected)

    law = randalg.embedding_children_law_exact()
    target = harddist.d()
    ok &= rep.add_verdict(
        "embedding-law-exact",
        all(law.get(idx, Fraction(0)) == target.mass(idx) for idx in range(16)),
    )
    cond = randalg.minority_conditionals_exact()
    table_expected = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                table_expected[(i, j)] = Fraction(0)
            elif i == 0:
                table_expected[(i, j)] = Fraction(1, 3)
            elif j == 0:
                table_expected[(i, j)] = Fraction(1, 2)
            else:
                table_expected[(i, j)] = Fraction(1, 4)
    ok &= rep.add_verdict("embedding-conditionals", cond == table_expected)
    rep.emit()
    return 0 if ok else 1


def _verify_height2(args: argparse.Namespace, seed: int, threads: int) -> int:
    rep = Report("verify-separation-2")
    rep.add("seed", seed)
    rep.add("trials", args.trials)
    table2 = boolfn.IteratedMajority(2).truth_table()

    part = subcube.compose_partitions(
        subcube.canonical_fmaj_partition(), subcube.canonical_fmaj_partition()
    )
    try:
        computes = subcube.computes(part, table2)  # validates the partition
    except ValueError:  # not a partition
        computes = False
    ok = rep.add_verdict(
        "composed-partition",
        len(part) == 512 and all(p.fixed_count == 9 for p, _ in part.entries) and computes,
    )
    ok &= rep.add_verdict("depth-16", dtree.exact_depth(table2) == 16)

    rng = np.random.default_rng(seed)
    mc = randalg.mc_mean_cost(2, args.trials, rng, threads=threads)
    reference, variance = randalg.recursive_exact_moments(2)
    # judged by the exact standard error, as in simulate r0
    sigma = math.sqrt(variance / args.trials)
    rep.add_rational("mean", mc.mean)
    rep.add("stderr", repr(mc.stderr))
    rep.add_rational("exact-mean", reference)
    rep.add("exact-stderr", repr(sigma))
    low, high = LEVEL_COST_FLOOR**2, randalg.recursive_exact_worst(2)[0]
    ok &= rep.add_verdict("zero-error", mc.errors == 0)
    ok &= rep.add_verdict(
        "mean-band",
        float(low) - 4.0 * sigma <= float(mc.mean) <= float(high) + 4.0 * sigma,
    )

    counts = harddist.minority_level1_counts(args.trials, np.random.default_rng(seed + 1))
    marg = harddist.minority_marginals_exact()
    minority_ok = all(
        abs(int(counts[i]) / args.trials - float(marg[i]))
        <= _four_sigma(float(marg[i]), args.trials)
        for i in range(4)
    )
    ok &= rep.add_verdict("minority-frequencies", minority_ok)

    ok &= rep.add_verdict("mass-total", harddist.dh_total(2)[1] == 1)

    embed = randalg.embed_check(2, args.trials, np.random.default_rng(seed + 2))
    ok &= rep.add_verdict("embedding", embed.ok)
    rep.emit()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fixtures

def cmd_fixtures(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    rep = Report("fixtures")
    boolfn.save_table(boolfn.fmaj(), os.path.join(args.out_dir, "fmaj.tt"))
    boolfn.save_table(
        boolfn.IteratedMajority(2).truth_table(),
        os.path.join(args.out_dir, "fmaj2.tt"),
    )
    subcube.save_partition(
        subcube.canonical_fmaj_partition(),
        os.path.join(args.out_dir, "canonical.part"),
    )
    harddist.save_dist(harddist.d(), os.path.join(args.out_dir, "d.dist"))
    for name in ("fmaj.tt", "fmaj2.tt", "canonical.part", "d.dist"):
        rep.add("wrote", os.path.join(args.out_dir, name))
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="exact query-complexity laboratory for the iterated "
        "tie-breaking majority gadget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fn = sub.add_parser("fn", help="truth tables")
    fn_sub = p_fn.add_subparsers(dest="subcommand", required=True)
    p = fn_sub.add_parser("emit", help="write a named table")
    p.add_argument("--name", required=True, choices=sorted(_FIXTURE_TABLES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fn_emit)
    p = fn_sub.add_parser("eval", help="evaluate a table file")
    p.add_argument("--table", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_fn_eval)
    p = fn_sub.add_parser("iter", help="evaluate the iterated gadget")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_fn_iter)

    p_measure = sub.add_parser("measure", help="decision-tree measures")
    m_sub = p_measure.add_subparsers(dest="subcommand", required=True)
    p = m_sub.add_parser("depth", help="exact deterministic depth")
    p.add_argument("--table", required=True)
    p.add_argument("--tree-out")
    p.set_defaults(func=cmd_measure_depth)
    p = m_sub.add_parser("delta0", help="zero-error distributional cost")
    p.add_argument("--table", required=True)
    p.add_argument("--dist", required=True)
    p.set_defaults(func=cmd_measure_delta0)
    p = m_sub.add_parser("jk", help="minority functionals at height 1")
    p.set_defaults(func=cmd_measure_jk)

    p_part = sub.add_parser("partition", help="labeled subcube partitions")
    pa_sub = p_part.add_subparsers(dest="subcommand", required=True)
    p = pa_sub.add_parser("emit", help="write a named partition")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition_emit)
    p = pa_sub.add_parser("check", help="validate against a table")
    p.add_argument("--part", required=True)
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_partition_check)
    p = pa_sub.add_parser("compose", help="compose outer with inner")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition_compose)
    p = pa_sub.add_parser("search-cost", help="exhaustive bounded-cost search")
    p.add_argument("--table", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_search_cost)
    p = pa_sub.add_parser("search-weight", help="exhaustive minimum-weight search")
    p.add_argument("--table", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_search_weight)

    p_dist = sub.add_parser("dist", help="the hard input distribution")
    d_sub = p_dist.add_subparsers(dest="subcommand", required=True)
    p = d_sub.add_parser("emit", help="write a named distribution")
    p.add_argument("--name", required=True, choices=sorted(_FIXTURE_DISTS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dist_emit)
    p = d_sub.add_parser("mass", help="exact mass of one input")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_dist_mass)
    p = d_sub.add_parser("total", help="exact total mass by enumeration")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_dist_total)
    p = d_sub.add_parser("sample", help="sampler audit")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--alpha", type=_probability, default=1e-3)
    p.set_defaults(func=cmd_dist_sample)

    p_bound = sub.add_parser("bound", help="partition-style relaxations")
    b_sub = p_bound.add_subparsers(dest="subcommand", required=True)
    p = b_sub.add_parser("prt", help="LP relaxation value")
    p.add_argument("--table", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_bound_prt)
    p = b_sub.add_parser("pprt0", help="public-coin value at eps=0")
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_bound_pprt0)

    p_sim = sub.add_parser("simulate", help="Monte Carlo")
    s_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p = s_sub.add_parser("r0", help="recursive zero-error evaluation")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--input")
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--threads", type=_at_least(1))
    p.set_defaults(func=cmd_simulate_r0)
    p = s_sub.add_parser("minority", help="minority path at height 2")
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0))
    p.set_defaults(func=cmd_simulate_minority)
    p = s_sub.add_parser("embed", help="embedding audit")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--alpha", type=_probability, default=1e-3)
    p.set_defaults(func=cmd_simulate_embed)

    p_verify = sub.add_parser("verify", help="end-to-end pipelines")
    v_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = v_sub.add_parser("separation", help="the full block-composition story")
    p.add_argument("--height", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=_at_least(1), default=1_000_000)
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--threads", type=_at_least(1))
    p.set_defaults(func=cmd_verify_separation)

    p_fix = sub.add_parser("fixtures", help="write the canonical files")
    p_fix.add_argument("--out-dir", required=True)
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _DISPATCH_START
    parser = build_parser()
    args = parser.parse_args(argv)
    _DISPATCH_START = time.monotonic()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _DISPATCH_START = None


if __name__ == "__main__":
    sys.exit(main())
