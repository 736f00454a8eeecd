"""The benchmark's workloads: qlab command lines made from a seed, and the
checks each command's report must pass.

A command fails on a nonzero exit, a traceback, a FAIL line, a verdict
that does not read pass, or a value that disagrees with `reference`.
Monte Carlo means must lie within K_SIGMA standard errors of the exact
mean, with the standard error taken from the exact variance rather than
from the report, so a wrong stderr cannot widen the band.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import reference

K_SIGMA = 6
LP_REL_TOL = 1e-6

VERIFY_TRIALS = 200_000
# (height, trials, threads) of the hard-law runs in mc-deep
DEEP_RUNS = ((3, 5000, 1), (4, 1500, 2), (6, 150, 1), (8, 24, 1))
DEEP_WITNESS = (3, 3000)
SHALLOW_TRIALS = 1_000_000
EMBED_TRIALS = 500_000
# significance of the embedding chi-square: every benchmark run makes
# this test, so 1e-3 would fail about one run in a thousand by chance
EMBED_ALPHA = "1e-6"

WORKLOADS = ("certify-h2", "mc-deep", "mc-shallow")


@dataclass
class Command:
    args: list[str]
    stage: str  # setup | certify | lp | mc | audit
    verdicts: tuple[str, ...] = ()
    check: Callable[[dict[str, str]], list[str]] = lambda report: []


def parse_report(text: str) -> dict[str, str]:
    report: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report.setdefault(key.strip(), value.strip())
    return report


def judge(cmd: Command, rc: object, out: str, err: str) -> tuple[list[str], list[str]]:
    """(errors, mismatches) of one finished command; either fails it."""
    errors = []
    if rc != 0:
        errors.append(f"exit status {rc}")
    if "Traceback" in out or "Traceback" in err:
        errors.append("traceback")
    report = parse_report(out)
    if any(line.rstrip().endswith(": FAIL") for line in out.splitlines()):
        errors.append("FAIL line")
    for key in cmd.verdicts:
        if report.get(key) != "pass":
            errors.append(f"{key}: {report.get(key)}")
    if errors:
        return errors, []
    try:
        mismatches = cmd.check(report)
    except (KeyError, ValueError, ZeroDivisionError, OSError) as exc:
        mismatches = [f"unreadable report: {exc!r}"]
    return [], mismatches


def leaf_reads(cmd: Command, report: dict[str, str]) -> float:
    """Trials x mean reads of a `simulate r0` command, else 0."""
    if cmd.stage == "mc" and "mean" in report and "trials" in report:
        return int(report["trials"]) * float(Fraction(report["mean"]))
    return 0.0


# ---------------------------------------------------------------------------
# checks


def _within(mean: Fraction, ref: Fraction, sd: float, trials: int) -> bool:
    return abs(float(mean - ref)) <= K_SIGMA * sd / trials**0.5


def check_mc(height: int, trials: int, witness: str | None, exact: bool = True) -> Callable:
    """Monte Carlo mean check; with `exact`, a report at height <= 2
    must also print the exact mean."""
    if witness is None:
        ref, sd = reference.hard_law_mean(height), reference.hard_law_sd(height)
    else:
        ref, sd = reference.fixed_input_moments(witness)[0], reference.fixed_input_sd(witness)

    def check(report: dict[str, str]) -> list[str]:
        problems = []
        if int(report["trials"]) != trials:
            problems.append(f"trials {report['trials']} != {trials}")
        mean = Fraction(report["mean"])
        if not _within(mean, ref, sd, trials):
            problems.append(f"mean {float(mean)} not within {K_SIGMA} sigma of {ref}")
        if exact and height <= 2 and "exact-mean" not in report:
            problems.append("no exact-mean at height <= 2")
        if "exact-mean" in report and Fraction(report["exact-mean"]) != ref:
            problems.append(f"exact-mean {report['exact-mean']} != {ref}")
        return problems

    return check


def check_prt(eps: Fraction) -> Callable:
    highs = reference.prt_lp_value(eps)

    def check(report: dict[str, str]) -> list[str]:
        problems = []
        value = Fraction(report["value"])
        if abs(float(value) - highs) > LP_REL_TOL * max(1.0, abs(highs)):
            problems.append(f"LP value {value} != HiGHS {highs}")
        if eps == 0 and value > reference.partition_weight():
            problems.append(f"eps-0 LP value {value} above the canonical weight")
        return problems

    return check


def check_minority(trials: int) -> Callable:
    marg = reference.minority_marginals()

    def check(report: dict[str, str]) -> list[str]:
        problems = []
        for i, p in enumerate(marg):
            if Fraction(report[f"exact-{i}"]) != p:
                problems.append(f"exact-{i} {report[f'exact-{i}']} != {p}")
            freq = int(report[f"count-{i}"]) / trials
            if abs(freq - float(p)) > K_SIGMA * (float(p * (1 - p)) / trials) ** 0.5:
                problems.append(f"freq-{i} {freq} not within {K_SIGMA} sigma of {p}")
        return problems

    return check


def check_embed(trials: int) -> Callable:
    law = reference.embedding_slot_law()

    def check(report: dict[str, str]) -> list[str]:
        problems = []
        for i, p in enumerate(law):
            freq = int(report[f"slot-{i}"]) / trials
            if abs(freq - float(p)) > K_SIGMA * (float(p * (1 - p)) / trials) ** 0.5:
                problems.append(f"slot-{i} {freq} not within {K_SIGMA} sigma of {p}")
        if int(report["off-support-hits"]) != 0:
            problems.append("children pattern off the support")
        return problems

    return check


def check_total(height: int) -> Callable:
    def check(report: dict[str, str]) -> list[str]:
        problems = []
        if int(report["support"]) != reference.support_size(height):
            problems.append(f"support {report['support']} != {reference.support_size(height)}")
        if Fraction(report["total"]) != 1:
            problems.append(f"total mass {report['total']}")
        return problems

    return check


@lru_cache(maxsize=None)
def _fmaj2_hex() -> str:
    return reference.table_hex(reference.composed_table())


def check_fixture_files(out_dir: str) -> Callable:
    """Checks the files the set-up command wrote, not its report."""

    def check(report: dict[str, str]) -> list[str]:
        problems = []

        def read(name: str) -> list[str]:
            with open(os.path.join(out_dir, name)) as fh:
                return [ln.strip() for ln in fh.read().splitlines() if ln.strip()]

        if read("fmaj.tt") != ["n=4", reference.table_hex(reference.GADGET)]:
            problems.append("fmaj.tt is not the gadget")
        if read("fmaj2.tt") != ["n=16", _fmaj2_hex()]:
            problems.append("fmaj2.tt is not the height-2 gadget")
        parts = [(t, int(z)) for t, z in (ln.split() for ln in read("canonical.part"))]
        costs = {sum(c != "*" for c in t) for t, _ in parts}
        if not reference.partition_computes(parts, reference.GADGET) or costs != {3}:
            problems.append("canonical.part is not a cost-3 partition computing the gadget")
        masses = {int(b, 2): Fraction(m) for b, m in (ln.split() for ln in read("d.dist"))}
        if masses != reference.hard_law_1():
            problems.append("d.dist is not the height-1 hard law")
        return problems

    return check


# ---------------------------------------------------------------------------
# command lists


def setup_command(out_dir: str) -> Command:
    return Command(
        ["fixtures", "--out-dir", out_dir], "setup", check=check_fixture_files(out_dir)
    )


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def round_commands(workload: str, rng: random.Random, fixtures: str) -> list[Command]:
    """One round of a workload; `fixtures` is a directory written by
    the set-up command."""
    if workload == "certify-h2":
        table = os.path.join(fixtures, "fmaj.tt")
        return [
            Command(
                ["verify", "separation", "--height", "2", "--trials", str(VERIFY_TRIALS),
                 "--seed", _seed(rng)],
                "certify",
                ("composed-partition", "depth-16", "zero-error", "mean-band",
                 "minority-frequencies", "mass-total", "embedding"),
                check_mc(2, VERIFY_TRIALS, None, exact=False),
            ),
            Command(["bound", "prt", "--table", table, "--eps", "0"], "lp",
                    check=check_prt(Fraction(0))),
            Command(["bound", "prt", "--table", table, "--eps", "1/3"], "lp",
                    check=check_prt(Fraction(1, 3))),
        ]
    if workload == "mc-deep":
        cmds = [
            Command(
                ["simulate", "r0", "--height", str(h), "--trials", str(n), "--threads", str(t),
                 "--seed", _seed(rng)],
                "mc", ("zero-error",), check_mc(h, n, None),
            )
            for h, n, t in DEEP_RUNS
        ]
        h, n = DEEP_WITNESS
        w = reference.witness(h, rng.randrange(2))
        cmds.append(Command(
            ["simulate", "r0", "--height", str(h), "--trials", str(n), "--input", w,
             "--seed", _seed(rng)],
            "mc", ("zero-error",), check_mc(h, n, w),
        ))
        return cmds
    if workload == "mc-shallow":
        w = reference.witness(2, rng.randrange(2))
        n = SHALLOW_TRIALS
        return [
            Command(["simulate", "r0", "--height", "1", "--trials", str(n), "--seed", _seed(rng)],
                    "mc", ("zero-error", "within-4-sigma", "within-band"), check_mc(1, n, None)),
            Command(["simulate", "r0", "--height", "2", "--trials", str(n), "--seed", _seed(rng)],
                    "mc", ("zero-error", "within-4-sigma", "within-band"), check_mc(2, n, None)),
            Command(["simulate", "r0", "--height", "2", "--trials", str(n), "--input", w,
                     "--threads", "2", "--seed", _seed(rng)],
                    "mc", ("zero-error", "within-4-sigma"), check_mc(2, n, w)),
            Command(["simulate", "minority", "--trials", str(n), "--seed", _seed(rng)],
                    "audit", ("within-4-sigma",), check_minority(n)),
            Command(["simulate", "embed", "--level", "2", "--trials", str(EMBED_TRIALS),
                     "--alpha", EMBED_ALPHA, "--seed", _seed(rng)],
                    "audit",
                    ("slot-frequencies", "children-law-chi2", "always-majority",
                     "value-propagates"),
                    check_embed(EMBED_TRIALS)),
            Command(["dist", "total", "--height", "2"], "audit", ("sums-to-1",), check_total(2)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
