"""Command-line front end.

Subcommands: fn (tables), measure (tree complexities), partition
(subcube partitions), dist (the hard distribution), bound (the
partition-bound LP), simulate (Monte Carlo), verify (end-to-end
pipelines), fixtures (canonical files).

Reports are machine-parseable "key: value" lines; exact rationals are
printed as p/q next to a float rendering, and every stochastic command
records its seed.  Output is byte-identical across runs with the same
arguments except for the trailing elapsed-time line.

Exit status: 0 on success, 1 when a requested check fails, 2 on usage
or input errors.  `main` owns every report: it builds the command's
Report once the arguments parse, hands it to the handler, which only
adds lines and verdicts, and emits it; ``emit`` returns 1 exactly when a
verdict printed FAIL.  `main` turns an InputError, a ValueError (the
library's bad-argument error) or an OSError (a file that cannot be
written) into an ``error:`` line and status 2; argparse exits 2 on usage
errors itself.  `_load` and `_save` are qlab's only file access: the
library keeps each file format as a ``*_to_text``/``*_from_text`` pair.

A command imports only the qlab modules it runs: boolfn, which nearly
every path needs, is imported here, and every other module inside the
handlers that call it, so a fresh process compiles and runs no module
its command never calls (tests/test_cli.py::
test_command_imports_only_the_modules_it_runs pins the sets).  numpy
too loads only where array code runs: every `fn`, `dist` and
`partition` command, `bound prt` and `fixtures` never load it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import boolfn

if TYPE_CHECKING:
    from . import randalg

# exact per-level floor on expected reads for any zero-error tree
LEVEL_COST_FLOOR = Fraction(16, 5)
# where band-low, (16/5)^h, comes from in a report that does not compute delta0
BAND_LOW_SOURCE = f"theorem ({LEVEL_COST_FLOOR})^{{}}, not computed here"
# the law of the root's child that the minority path enters
MINORITY_MARGINALS = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
# the law of the child the minority path leaves through, j, given the
# embedded instance at child i: never i, else 1/3 with the instance at
# the first child, 1/2 when j is the first child, and 1/4
MINORITY_CONDITIONALS = {
    (i, j): Fraction(i != j, 3 if i == 0 else 2 if j == 0 else 4)
    for i in range(4)
    for j in range(4)
}


class InputError(Exception):
    """Bad file contents or inconsistent arguments; exits with 2."""


class Report:
    def __init__(self, topic: str):
        self._lines: list[tuple[str, str]] = [("report", topic)]
        self._start = time.monotonic()
        self._failed = False

    def add(self, key: str, value) -> None:
        self._lines.append((key, str(value)))

    def add_rational(self, key: str, value: Fraction) -> None:
        self.add(key, f"{value.numerator}/{value.denominator}")
        self.add(f"{key}-float", repr(float(value)))

    def add_verdict(self, key: str, ok: bool) -> None:
        self.add(key, "pass" if ok else "FAIL")
        self._failed |= not ok

    def emit(self) -> int:
        """Print the report and return the exit status: 1 if a verdict
        failed, else 0."""
        for key, value in self._lines:
            print(f"{key}: {value}")
        print(f"elapsed-s: {time.monotonic() - self._start:.3f}")
        return 1 if self._failed else 0


def _load(kind: str, parse, path: str):
    """``parse`` of the file's text, naming the kind and path if it fails."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {kind} {path}: {exc}") from exc


def _save(path: str, text: str) -> None:
    """Write text to path; an OSError reaches `main` as is."""
    with open(path, "w") as fh:
        fh.write(text)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``, in ASCII digits."""

    def integer(text: str) -> int:
        # int() alone would also take "+", "_" and any Unicode digit
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _probability(text: str) -> float:
    """argparse type: a significance level in (0, 1), in ASCII digits."""
    if not re.fullmatch(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _parse_fraction(text: str) -> Fraction:
    # an integer or p/q, as .dist masses are written: "1e99999999" would
    # build its power of ten before any range check
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise InputError(f"not an integer or p/q: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


# ---------------------------------------------------------------------------
# fn

def cmd_fn_eval(args: argparse.Namespace, rep: Report) -> None:
    table = _load("table", boolfn.table_from_text, args.table)
    value = table.eval(args.input)
    rep.add("n", table.n)
    rep.add("input", args.input)
    rep.add("value", value)


def cmd_fn_iter(args: argparse.Namespace, rep: Report) -> None:
    value = boolfn.iter_eval(args.height, args.input)
    rep.add("height", args.height)
    rep.add("value", value)


# ---------------------------------------------------------------------------
# measure

def cmd_measure_depth(args: argparse.Namespace, rep: Report) -> None:
    from . import dtree, subcube

    table = _load("table", boolfn.table_from_text, args.table)
    rep.add("n", table.n)
    result = dtree.exact_depth(table, want_tree=bool(args.tree_out))
    rep.add("depth", result.value)
    rep.add("lattice-sweeps", result.sweeps)
    rep.add("lattice-states", result.states)
    if args.tree_out:
        _save(args.tree_out, dtree.tree_to_text(result.tree) + "\n")
        # the replay checks the tree as written
        tree = _load("tree", dtree.tree_from_text, args.tree_out)
        rep.add("tree-out", args.tree_out)
        rep.add_verdict(
            "witness-replay",
            subcube.computes(dtree.tree_to_partition(tree, table.n), table)
            and dtree.tree_depth(tree) == result.value,
        )


def cmd_measure_delta0(args: argparse.Namespace, rep: Report) -> None:
    from . import dtree, harddist, subcube

    table = _load("table", boolfn.table_from_text, args.table)
    dist = _load("distribution", harddist.dist_from_text, args.dist)
    if len(dist) != table.size:
        raise InputError("table and distribution arity mismatch")
    charges = dtree.CostMatrix.uniform(dist)
    result = dtree.min_weighted_zero_error(table, charges, want_tree=True)
    rep.add("n", table.n)
    rep.add_rational("delta0", result.value)
    rep.add("lattice-sweeps", result.sweeps)
    rep.add("lattice-states", result.states)
    rep.add_verdict(
        "witness-replay",
        subcube.computes(dtree.tree_to_partition(result.tree, table.n), table)
        and dtree.tree_cost(result.tree, charges) == result.value,
    )


def _add_jk(rep: Report) -> Fraction:
    """Report the height-1 minority functionals J(1, 0), K(1, 1) and
    J(1, 1) with criterion 7's verdicts on them, and return J(1, 1),
    which is delta0 under d."""
    from . import harddist

    j10, k11, j11 = harddist.jk_values()
    rep.add_rational("j-1-0", j10)
    rep.add_rational("k-1-1", k11)
    rep.add_rational("j-1-1", j11)
    rep.add_verdict("j-1-0-at-least-1", j10 >= 1)
    rep.add_verdict("k-1-1-at-least-3", k11 >= 3)
    rep.add_verdict("j-recursion", j11 >= k11 + Fraction(1, 5) * j10)
    rep.add_verdict("cost-floor", j11 >= LEVEL_COST_FLOOR)
    return j11


def cmd_measure_jk(args: argparse.Namespace, rep: Report) -> None:
    _add_jk(rep)


# ---------------------------------------------------------------------------
# partition

def cmd_partition_check(args: argparse.Namespace, rep: Report) -> None:
    from . import subcube

    part = _load("partition", subcube.partition_from_text, args.part)
    table = _load("table", boolfn.table_from_text, args.table)
    if part.n != table.n:
        raise InputError("partition and table arity mismatch")
    rep.add("n", part.n)
    rep.add("parts", len(part))
    report = subcube.validate(part)
    rep.add_verdict("valid", report.ok)
    if not report.ok:
        rep.add("violation", f"not a partition ({report.error}: {report.detail})")
        return
    rep.add_verdict("computes", report.ones == table.bits)
    cost = subcube.partition_cost(part)
    rep.add("cost", cost.cost)
    rep.add("weight", cost.weight)


def cmd_partition_compose(args: argparse.Namespace, rep: Report) -> None:
    from . import subcube

    outer = _load("partition", subcube.partition_from_text, args.outer)
    inner = _load("partition", subcube.partition_from_text, args.inner)
    composed = subcube.compose_partitions(outer, inner)
    valid = subcube.validate(composed).ok
    _save(args.out, subcube.partition_to_text(composed))
    cost = subcube.partition_cost(composed)
    rep.add("n", composed.n)
    rep.add("parts", len(composed))
    rep.add("cost", cost.cost)
    rep.add("weight", cost.weight)
    rep.add("out", args.out)
    rep.add_verdict("valid", valid)


def cmd_partition_search_cost(args: argparse.Namespace, rep: Report) -> None:
    from . import subcube

    table = _load("table", boolfn.table_from_text, args.table)
    result = subcube.search_min_cost(table, args.budget)
    rep.add("n", table.n)
    rep.add("budget", args.budget)
    rep.add("nodes", result.nodes)
    if result.partition is None:
        rep.add("outcome", "none (search exhausted)")
        return
    rep.add("outcome", "found")
    rep.add("parts", len(result.partition))
    rep.add("cost", subcube.partition_cost(result.partition).cost)
    if args.out:
        _save(args.out, subcube.partition_to_text(result.partition))
        rep.add("out", args.out)


def cmd_partition_search_weight(args: argparse.Namespace, rep: Report) -> None:
    from . import subcube

    table = _load("table", boolfn.table_from_text, args.table)
    result = subcube.search_min_weight(table)
    rep.add("n", table.n)
    weight = subcube.partition_cost(result.partition).weight
    rep.add("weight", weight)
    rep.add("half-log2", repr(0.5 * math.log2(weight)))
    rep.add("nodes", result.nodes)
    rep.add("parts", len(result.partition))
    if args.out:
        _save(args.out, subcube.partition_to_text(result.partition))
        rep.add("out", args.out)


# ---------------------------------------------------------------------------
# dist

def cmd_dist_mass(args: argparse.Namespace, rep: Report) -> None:
    from . import harddist

    mass = harddist.dh_mass(args.height, args.input)
    rep.add("height", args.height)
    rep.add_rational("mass", mass)


def cmd_dist_total(args: argparse.Namespace, rep: Report) -> None:
    from . import harddist

    rep.add("height", args.height)
    points, total = harddist.dh_total(args.height)
    rep.add("support", points)
    rep.add_rational("total", total)
    rep.add_verdict("sums-to-1", total == 1)


# ---------------------------------------------------------------------------
# bound

def cmd_bound_prt(args: argparse.Namespace, rep: Report) -> None:
    from . import lpbound

    table = _load("table", boolfn.table_from_text, args.table)
    eps = _parse_fraction(args.eps)
    try:
        # before the eps line floats eps: build_prt_lp refuses it outside [0, 1/2)
        report = lpbound.prt_report(table, eps)
    except lpbound.CertificateError as exc:
        report = exc
    rep.add("n", table.n)
    rep.add_rational("eps", eps)
    if isinstance(report, lpbound.CertificateError):
        rep.add("certificate-error", str(report))
        rep.add_verdict("certificate", False)
        return
    rep.add("lp-vars", report.num_vars)
    rep.add("lp-constraints", report.num_constraints)
    rep.add("pivots", report.pivots)
    rep.add_rational("value", report.value)
    rep.add_rational("dual-value", report.dual_value)
    # prt_report returns only values whose certificate re-checked exactly
    rep.add_verdict("certificate", True)
    rep.add("half-log2", repr(report.half_log2))


# ---------------------------------------------------------------------------
# simulate

def _mc_reference(
    args: argparse.Namespace, h: int, x: Optional[str] = None
) -> tuple[randalg.McReport, Fraction, float, Optional[tuple[Fraction, Fraction, bool]]]:
    """Monte Carlo mean reads at height h, on x or under the hard law,
    beside the exact mean and the exact standard error of a mean of
    --trials reads: the sample's is 0 for one trial, or whenever every
    trial reads alike.  Under the hard law at h >= 1 the last value is
    the band [(16/5)^h, worst-case mean] and whether the MC mean lies
    within four exact standard errors of it; else it is None."""
    import numpy as np

    from . import randalg

    rng = np.random.default_rng(args.seed)
    mc = randalg.mc_mean_cost(h, args.trials, rng, x=x, threads=args.threads)
    exact, variance = randalg.recursive_exact_moments(h, x)
    sigma = math.sqrt(variance / args.trials)
    band = None
    if h >= 1 and x is None:
        low, high = LEVEL_COST_FLOOR**h, randalg.recursive_exact_worst(h)[0]
        band = low, high, float(low) - 4.0 * sigma <= float(mc.mean) <= float(high) + 4.0 * sigma
    return mc, exact, sigma, band


def cmd_simulate_r0(args: argparse.Namespace, rep: Report) -> None:
    from . import randalg

    mc, exact, sigma, band = _mc_reference(args, args.height, args.input)
    rep.add("height", args.height)
    rep.add("trials", args.trials)
    rep.add("seed", args.seed)
    rep.add("threads", args.threads)
    if args.input is not None:
        rep.add("input", args.input)
    rep.add_rational("mean", mc.mean)
    rep.add("stderr", repr(mc.stderr))
    rep.add("exact-stderr", repr(sigma))
    rep.add_verdict("zero-error", randalg.lv_check_correct())
    rep.add_rational("exact-mean", exact)
    rep.add_verdict("within-4-sigma", abs(float(mc.mean - exact)) <= 4.0 * sigma)
    if band is not None:
        low, high, within = band
        rep.add_rational("band-low", low)
        rep.add("band-low-source", BAND_LOW_SOURCE.format(args.height))
        rep.add_rational("band-high", high)
        rep.add_verdict("within-band", within)


def cmd_simulate_minority(args: argparse.Namespace, rep: Report) -> None:
    import numpy as np

    from . import harddist, randalg

    rep.add("trials", args.trials)
    rep.add("seed", args.seed)
    counts = harddist.minority_level1_counts(args.trials, np.random.default_rng(args.seed))
    marg = harddist.minority_marginals_exact()
    for i in range(4):
        rep.add(f"count-{i}", int(counts[i]))
        rep.add(f"freq-{i}", repr(int(counts[i]) / args.trials))
        rep.add(f"exact-{i}", f"{marg[i].numerator}/{marg[i].denominator}")
    rep.add_verdict("within-4-sigma", randalg.within_four_sigma(counts, marg, args.trials))


def cmd_simulate_embed(args: argparse.Namespace, rep: Report) -> None:
    import numpy as np

    from . import randalg

    rng = np.random.default_rng(args.seed)
    report = randalg.embed_check(args.level, args.trials, rng, alpha=args.alpha)
    rep.add("level", args.level)
    rep.add("trials", args.trials)
    rep.add("seed", args.seed)
    for i, c in enumerate(report.slot_counts):
        rep.add(f"slot-{i}", c)
    rep.add("chi2-stat", repr(report.chi2.stat))
    rep.add("chi2-critical", repr(report.chi2.critical))
    rep.add("off-support-hits", report.chi2.impossible_hits)
    rep.add_verdict("slot-frequencies", report.slot_ok)
    rep.add_verdict("children-law-chi2", report.chi2.ok)
    rep.add_verdict("always-majority", report.bad_majority == 0)
    rep.add_verdict("value-propagates", report.bad_value == 0)
    if args.level == 2:
        rep.add("sibling-misses", report.bad_sibling)
        rep.add_verdict("sibling-blocks", report.bad_sibling == 0)


# ---------------------------------------------------------------------------
# verify

def cmd_verify_separation(args: argparse.Namespace, rep: Report) -> None:
    """The cost-3^h partition against the depth-4^h tree at height h, and
    the evaluator and hard-law facts behind them; at height 1 also the
    cost-2 search and the J/K functionals."""
    from . import dtree, harddist, randalg, subcube

    h = args.height
    rep.add("seed", args.seed)
    # only the Monte Carlo samples: every other verdict reads a whole table
    rep.add("trials", args.trials)
    table = boolfn.iterated_table(h)
    part = canon = subcube.canonical_fmaj_partition()
    if h == 2:
        part = subcube.compose_partitions(canon, canon)
    rep.add_verdict(
        "composed-partition",
        all(p.fixed_count == 3**h for p, _ in part.entries) and subcube.computes(part, table),
    )
    if h == 1:
        search = subcube.search_min_cost(table, 2)
        rep.add("cost-2-search-nodes", search.nodes)
        rep.add_verdict("no-cost-2-partition", search.partition is None)
    depth = dtree.exact_depth(table)
    rep.add_verdict(f"depth-{4**h}", depth.value == 4**h)
    rep.add("lattice-sweeps", depth.sweeps)
    rep.add("lattice-states", depth.states)

    mc, exact, sigma, (low, high, within) = _mc_reference(args, h)
    rep.add_rational("mean", mc.mean)
    rep.add("stderr", repr(mc.stderr))
    rep.add_rational("exact-mean", exact)
    rep.add("exact-stderr", repr(sigma))
    rep.add_verdict("zero-error", randalg.lv_check_correct())
    rep.add_rational("band-low", low)
    if h == 2:  # at height 1 the J/K functionals below compute it, as J(1, 1)
        rep.add("band-low-source", BAND_LOW_SOURCE.format(h))
    rep.add_rational("band-high", high)
    rep.add_verdict("mean-band", within)
    rep.add_verdict("worst-cost-13-4-power", high == Fraction(13, 4) ** h)
    marg = harddist.minority_marginals_exact()
    rep.add_verdict("minority-frequencies", marg == MINORITY_MARGINALS)
    rep.add_verdict("mass-total", harddist.dh_total(h)[1] == 1)
    # embed_misses(2) also judges the draw table the Monte Carlo samples
    # through; the conditionals come last, as they need every outcome's
    # children on the support
    rep.add_verdict(
        "embedding",
        randalg.embed_misses(2) == (0, 0, 0)
        and randalg.embedding_children_law_exact() == harddist.d()
        and randalg.embedding_slot_law_exact() == randalg.SLOT_PROBS
        and randalg.minority_conditionals_exact() == MINORITY_CONDITIONALS,
    )
    if h == 1:
        # J(1, 1) is delta0 under d: no zero-error evaluator reads fewer
        rep.add_verdict("j-1-1-at-most-mean", _add_jk(rep) <= exact)


# ---------------------------------------------------------------------------
# fixtures

# every named file qlab writes, by the command that emits it: the file
# suffix and the names it can make
_FIXTURES = {
    "fn": (".tt", ("identity", "fmaj", "fmaj2")),
    "partition": (".part", ("canonical",)),
    "dist": (".dist", ("d0", "d1", "d", "d2")),
}
# the files `fixtures` writes, in order
_FIXTURE_FILES = (("fn", "fmaj"), ("fn", "fmaj2"), ("partition", "canonical"), ("dist", "d"))


def _fixture(command: str, name: str) -> tuple[str, str, int]:
    """The text of command's file ``name`` and the report line that
    sizes it, importing only the module that makes it."""
    if command == "fn":
        table = boolfn.iterated_table({"identity": 0, "fmaj": 1, "fmaj2": 2}[name])
        return boolfn.table_to_text(table), "n", table.n
    if command == "partition":
        from . import subcube

        part = {"canonical": subcube.canonical_fmaj_partition}[name]()
        return subcube.partition_to_text(part), "parts", len(part)
    from . import harddist

    laws = {"d0": harddist.d0, "d1": harddist.d1, "d": harddist.d, "d2": lambda: harddist.dh_law(2)}
    dist = laws[name]()
    return harddist.dist_to_text(dist), "support", sum(1 for m in dist if m)


def cmd_emit(args: argparse.Namespace, rep: Report) -> None:
    text, key, size = _fixture(args.command, args.name)
    _save(args.out, text)
    rep.add("name", args.name)
    rep.add(key, size)
    rep.add("out", args.out)


def cmd_fixtures(args: argparse.Namespace, rep: Report) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    for command, name in _FIXTURE_FILES:
        path = os.path.join(args.out_dir, name + _FIXTURES[command][0])
        _save(path, _fixture(command, name)[0])
        rep.add("wrote", path)


# ---------------------------------------------------------------------------
# parser

def _add_emit(sub, command: str, summary: str) -> None:
    p = sub.add_parser("emit", help=summary)
    p.add_argument("--name", required=True, choices=sorted(_FIXTURES[command][1]))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="exact query-complexity laboratory for the iterated "
        "tie-breaking majority gadget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fn = sub.add_parser("fn", help="truth tables")
    fn_sub = p_fn.add_subparsers(dest="subcommand", required=True)
    _add_emit(fn_sub, "fn", "write a named table")
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
    _add_emit(pa_sub, "partition", "write a named partition")
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
    p.add_argument("--budget", type=_at_least(0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_search_cost)
    p = pa_sub.add_parser("search-weight", help="exhaustive minimum-weight search")
    p.add_argument("--table", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_search_weight)

    p_dist = sub.add_parser("dist", help="the hard input distribution")
    d_sub = p_dist.add_subparsers(dest="subcommand", required=True)
    _add_emit(d_sub, "dist", "write a named distribution")
    p = d_sub.add_parser("mass", help="exact mass of one input")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_dist_mass)
    p = d_sub.add_parser("total", help="exact total mass over every input")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_dist_total)

    p_bound = sub.add_parser("bound", help="partition-bound LP")
    b_sub = p_bound.add_subparsers(dest="subcommand", required=True)
    p = b_sub.add_parser("prt", help="LP relaxation value")
    p.add_argument("--table", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_bound_prt)

    p_sim = sub.add_parser("simulate", help="Monte Carlo")
    s_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p = s_sub.add_parser("r0", help="recursive zero-error evaluation")
    p.add_argument("--height", type=_at_least(0), required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--input")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--threads", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_simulate_r0)
    p = s_sub.add_parser("minority", help="minority path at height 2")
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_simulate_minority)
    p = s_sub.add_parser("embed", help="embedding audit")
    p.add_argument("--level", type=_at_least(1), choices=(1, 2), required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--alpha", type=_probability, default=1e-3)
    p.set_defaults(func=cmd_simulate_embed)

    p_verify = sub.add_parser("verify", help="end-to-end pipelines")
    v_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = v_sub.add_parser("separation", help="the full block-composition story")
    p.add_argument("--height", type=_at_least(1), choices=(1, 2), required=True)
    p.add_argument("--trials", type=_at_least(1), default=1_000_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--threads", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_verify_separation)

    p_fix = sub.add_parser("fixtures", help="write the canonical files")
    p_fix.add_argument("--out-dir", required=True)
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    topic = "-".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    if args.command == "verify":
        topic += f"-{args.height}"
    rep = Report(topic)
    try:
        args.func(args, rep)
        return rep.emit()
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
