"""Self-tests of the benchmark: its references against the facts table
of the package summary, its failure accounting, and the traced run's
time accounting.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_reference_reproduces_the_facts_table():
    # the facts table: table 0xfe80, cheapest partition cost 3 and weight
    # 64, LP bound 64 at eps 0 and 14 at eps 1/3, evaluator worst case
    # 13/4 and hard-law mean 97/30 at height 1, worst case 169/16 at 2
    assert reference.table_hex(reference.GADGET) == "fe80"
    parts = reference.CANONICAL_PARTITION
    assert reference.partition_computes(parts, reference.GADGET)
    assert {sum(c != "*" for c in t) for t, _ in parts} == {3}
    assert reference.partition_weight() == 64
    assert reference.prt_lp_value(Fraction(0)) == pytest.approx(64.0, rel=1e-9)
    assert reference.prt_lp_value(Fraction(1, 3)) == pytest.approx(14.0, rel=1e-9)
    worst = max(reference.fixed_input_moments("".join(b))[0]
                for b in itertools.product("01", repeat=4))
    assert worst == Fraction(13, 4)
    assert reference.hard_law_mean(1) == Fraction(97, 30)
    assert reference.fixed_input_moments(reference.witness(2, 0))[0] == Fraction(169, 16)


def test_reference_closed_forms():
    for h in range(1, 9):
        assert reference.hard_law_mean(h) == Fraction(97, 30) ** h
    for h in range(1, 4):
        for v in (0, 1):
            w = reference.witness(h, v)
            assert reference.evaluate(w) == v
            assert reference.fixed_input_moments(w)[0] == Fraction(13, 4) ** h
        assert reference.support_size(h) == 2 * 7 ** ((4**h - 1) // 3)
    assert reference.support_size(2) == 33614
    assert reference.minority_marginals() == (Fraction(2, 5),) + (Fraction(1, 5),) * 3
    assert reference.embedding_slot_law() == (Fraction(1, 5),) + (Fraction(4, 15),) * 3
    assert reference.composed_partition_shape() == (512, 9)
    assert reference.table_hex(reference.composed_table())[-4:] == "0000"


def test_hard_law_variance_matches_enumeration():
    # height 1: enumerate the hard law and the round's 12 coin outcomes
    law = reference.hard_law_1()
    mean = sum(m * w * len(r) for p, m in law.items() for w, r in reference.read_sets(p))
    second = sum(m * w * len(r) ** 2 for p, m in law.items() for w, r in reference.read_sets(p))
    assert mean == reference.hard_law_mean(1)
    assert reference.hard_law_sd(1) == pytest.approx(float(second - mean * mean) ** 0.5)


def _report(mean: str, trials: int) -> str:
    return f"report: simulate-r0\ntrials: {trials}\nmean: {mean}\nzero-error: pass\n"


def test_mc_check_counts_a_wrong_reference_as_failed(monkeypatch):
    trials = 10_000
    good = workloads.Command(["simulate"], "mc", ("zero-error",), workloads.check_mc(3, trials, None))
    out = _report(str(reference.hard_law_mean(3)), trials)
    tally = run.Tally()
    tally.record(good, 0, out, "")
    assert (tally.attempted, tally.failed) == (1, 0)

    monkeypatch.setattr(reference, "hard_law_mean", lambda h: Fraction(97, 30) ** h + 1)
    wrong = workloads.Command(["simulate"], "mc", ("zero-error",), workloads.check_mc(3, trials, None))
    tally.record(wrong, 0, out, "")
    assert (tally.attempted, tally.failed, tally.mismatched) == (2, 1, True)


def test_errors_are_counted_as_failed():
    cmd = workloads.Command(["simulate"], "mc", ("zero-error",))
    out = _report("1", 1)
    cases = [
        (1, out, ""),
        (0, out, "Traceback (most recent call last):\n"),
        (0, out.replace("zero-error: pass", "zero-error: FAIL"), ""),
        (0, out + "within-4-sigma: FAIL\n", ""),
    ]
    for rc, stdout, stderr in cases:
        errors, _ = workloads.judge(cmd, rc, stdout, stderr)
        assert errors, (rc, stdout, stderr)


def test_real_command_passes_and_fails_with_a_wrong_reference(tmp_path, monkeypatch):
    trials = 20_000
    cmd = workloads.Command(
        ["simulate", "r0", "--height", "1", "--trials", str(trials), "--seed", "5"],
        "mc", ("zero-error", "within-4-sigma"), workloads.check_mc(1, trials, None),
    )
    rc, out, err, _, _, _ = run.run_qlab(cmd, str(tmp_path))
    assert workloads.judge(cmd, rc, out, err) == ([], [])
    monkeypatch.setattr(reference, "hard_law_mean", lambda h: Fraction(16, 5))
    cmd.check = workloads.check_mc(1, trials, None)
    errors, mismatches = workloads.judge(cmd, rc, out, err)
    assert not errors and mismatches


def test_traced_spans_account_for_wall_time(tmp_path):
    import spans

    modules = spans.load_qlab(run.SRC)
    randalg = modules["randalg"]
    tracer = spans.Tracer()
    restore = tracer.install(modules)
    try:
        for args in (["fixtures", "--out-dir", str(tmp_path)],
                     ["simulate", "r0", "--height", "1", "--trials", "1000"],
                     ["dist", "total", "--height", "1"]):
            cmd = workloads.Command(args, "mc")
            rc, out, err = tracer.command(lambda: run.run_inprocess(modules["cli"], cmd))
            assert rc == 0, err
    finally:
        restore()
    assert randalg.mc_mean_cost.__module__ == "qlab.randalg"
    assert not hasattr(randalg.iter_eval, "__wrapped__")
    walls, accounted = tracer.accounting()
    assert tracer.problems == []
    assert accounted == pytest.approx(walls, abs=1e-9)
    metrics = tracer.layer_metrics(0.0, 0.0)
    assert metrics["harddist.support_points"] == 2 * reference.support_size(1)
    assert metrics["boolfn.iter_eval_calls"] > 0
    assert metrics["randalg.mc_trials"] == 1000
    assert {n for n, _, _ in spans.PER_LAYER} == set(metrics)


def test_refuses_to_run_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
