"""Command line surface: reports, file round-trips, exit codes."""

import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import cli, harddist, lpbound, randalg, subcube
from qlab.boolfn import IteratedMajority, fmaj, load_table
from qlab.cli import main
from qlab.harddist import d, load_dist
from qlab.subcube import (
    LabeledPartition,
    canonical_fmaj_partition,
    compose_partitions,
    load_partition,
    save_partition,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def lines(out):
    return dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )


def test_fixtures_round_trip(tmp_path, capsys):
    code, out = run(capsys, "fixtures", "--out-dir", str(tmp_path))
    assert code == 0
    assert load_table(tmp_path / "fmaj.tt") == fmaj()
    assert load_table(tmp_path / "fmaj2.tt") == IteratedMajority(2).truth_table()
    assert load_partition(tmp_path / "canonical.part") == canonical_fmaj_partition()
    assert load_dist(tmp_path / "d.dist") == d()


def test_fn_commands(tmp_path, capsys):
    table = tmp_path / "f.tt"
    code, _ = run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    assert code == 0
    code, out = run(capsys, "fn", "eval", "--table", str(table), "--input", "0111")
    assert code == 0
    assert lines(out)["value"] == "1"
    code, out = run(capsys, "fn", "iter", "--height", "2", "--input", "0111100010001000")
    assert code == 0
    assert lines(out)["value"] == "0"


def test_measure_depth_and_delta0(tmp_path, capsys):
    table = tmp_path / "f.tt"
    dist = tmp_path / "d.dist"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    run(capsys, "dist", "emit", "--name", "d", "--out", str(dist))
    tree = tmp_path / "t.dt"
    code, out = run(
        capsys, "measure", "depth", "--table", str(table), "--tree-out", str(tree)
    )
    assert code == 0
    got = lines(out)
    assert got["depth"] == "4"
    assert got["witness-replay"] == "pass"
    assert tree.exists()
    code, out = run(
        capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist)
    )
    assert code == 0
    assert lines(out)["delta0"] == "16/5"


def test_measure_jk_reports_honest_failure(capsys):
    code, out = run(capsys, "measure", "jk")
    got = lines(out)
    assert got["j-1-0"] == "13/6"
    assert got["k-1-1"] == "53/20"
    assert got["j-1-1"] == "16/5"
    assert got["j-1-0-at-least-1"] == "pass"
    assert got["j-recursion"] == "pass"
    # the cross-charge minimum misses the stated floor of 3; the command
    # says so and exits nonzero rather than glossing over it
    assert got["k-1-1-at-least-3"] == "FAIL"
    assert code == 1


def test_partition_commands(tmp_path, capsys):
    table = tmp_path / "f.tt"
    part = tmp_path / "c.part"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    code, out = run(capsys, "partition", "emit", "--name", "canonical", "--out", str(part))
    assert code == 0
    code, out = run(capsys, "partition", "check", "--part", str(part), "--table", str(table))
    assert code == 0
    got = lines(out)
    assert got["valid"] == "pass" and got["computes"] == "pass"
    assert got["cost"] == "3" and got["weight"] == "64"

    table2 = tmp_path / "f2.tt"
    comp = tmp_path / "c2.part"
    run(capsys, "fn", "emit", "--name", "fmaj2", "--out", str(table2))
    code, out = run(
        capsys, "partition", "compose",
        "--outer", str(part), "--inner", str(part), "--out", str(comp),
    )
    assert code == 0
    assert lines(out)["parts"] == "512"
    code, out = run(capsys, "partition", "check", "--part", str(comp), "--table", str(table2))
    assert code == 0
    assert lines(out)["computes"] == "pass"

    code, out = run(capsys, "partition", "search-cost", "--table", str(table), "--budget", "2")
    assert code == 0
    assert "none" in lines(out)["outcome"]
    best = tmp_path / "best.part"
    code, out = run(
        capsys, "partition", "search-weight", "--table", str(table), "--out", str(best)
    )
    assert code == 0
    assert lines(out)["weight"] == "64"
    assert load_partition(best).n == 4


def test_partition_check_validates_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = subcube.validate

    def counting(part):
        calls.append(part)
        return real(part)

    monkeypatch.setattr(subcube, "validate", counting)
    table = tmp_path / "f.tt"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    good = tmp_path / "good.part"
    save_partition(canonical_fmaj_partition(), good)
    code, out = run(capsys, "partition", "check", "--part", str(good), "--table", str(table))
    assert code == 0
    assert lines(out)["valid"] == "pass" and lines(out)["computes"] == "pass"
    assert len(calls) == 1

    entries = canonical_fmaj_partition().entries
    bad = tmp_path / "bad.part"
    save_partition(LabeledPartition(4, entries[:-1] + entries[:1]), bad)
    code, out = run(capsys, "partition", "check", "--part", str(bad), "--table", str(table))
    assert code == 1
    got = lines(out)
    assert got["valid"] == "FAIL"
    assert "overlap" in got["violation"]
    assert "computes" not in got
    assert len(calls) == 2


def test_dist_commands(capsys):
    code, out = run(capsys, "dist", "mass", "--height", "2", "--input", "0111100010001000")
    assert code == 0
    assert lines(out)["mass"] == "16/3125"
    code, out = run(capsys, "dist", "total", "--height", "1")
    assert code == 0
    got = lines(out)
    assert got["total"] == "1/1" and got["sums-to-1"] == "pass"
    code, out = run(
        capsys, "dist", "sample", "--height", "1", "--trials", "20000", "--seed", "5"
    )
    assert code == 0
    assert lines(out)["chi2"] == "pass"


def test_bound_commands(tmp_path, capsys):
    table = tmp_path / "f.tt"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    code, out = run(capsys, "bound", "prt", "--table", str(table), "--eps", "0")
    assert code == 0
    got = lines(out)
    assert got["value"] == got["dual-value"] == "64/1"
    assert got["certificate"] == "pass"
    assert got["lp-vars"] == "162"
    code, out = run(capsys, "bound", "prt", "--table", str(table), "--eps", "1/3")
    assert code == 0
    got = lines(out)
    assert got["value"] == got["dual-value"] == "14/1"
    assert got["certificate"] == "pass"
    code, out = run(capsys, "bound", "pprt0", "--table", str(table))
    assert code == 0
    assert lines(out)["weight"] == "64"


def test_bound_prt_failed_certificate_exits_one(tmp_path, capsys, monkeypatch):
    table = tmp_path / "f.tt"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    monkeypatch.setattr(
        lpbound.LPSolution, "violation", lambda self, lp: "reduced cost of w[****,0] is -1 < 0"
    )
    code, out = run(capsys, "bound", "prt", "--table", str(table), "--eps", "1/3")
    assert code == 1
    got = lines(out)
    assert got["certificate"] == "FAIL"
    assert "reduced cost" in got["certificate-error"]
    # no uncertified value is printed
    assert "value" not in got and "dual-value" not in got


def test_import_loads_no_scipy():
    # every CLI process pays its imports; scipy loads only where a
    # command needs it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_simulate_commands(capsys):
    code, out = run(
        capsys, "simulate", "r0", "--height", "1", "--trials", "50000", "--seed", "2"
    )
    assert code == 0
    got = lines(out)
    assert got["zero-error"] == "pass"
    assert got["within-4-sigma"] == "pass"
    code, out = run(capsys, "simulate", "minority", "--trials", "50000", "--seed", "2")
    assert code == 0
    assert lines(out)["within-4-sigma"] == "pass"
    code, out = run(
        capsys, "simulate", "embed", "--level", "1", "--trials", "50000", "--seed", "2"
    )
    assert code == 0
    got = lines(out)
    assert got["always-majority"] == "pass"
    assert got["value-propagates"] == "pass"


def test_simulate_r0_exact_references_at_every_height(capsys):
    argv = ["simulate", "r0", "--height", "4", "--trials", "1500", "--seed", "11"]
    code, one = run(capsys, *argv, "--threads", "1")
    assert code == 0
    got = lines(one)
    assert got["output-errors"] == "0"
    assert got["exact-mean"] == "88529281/810000"  # (97/30)**4
    assert got["band-high"] == "28561/256"  # (13/4)**4
    for verdict in ("zero-error", "within-4-sigma", "within-band"):
        assert got[verdict] == "pass"
    _, two = run(capsys, *argv, "--threads", "2")

    def body(out):
        return [l for l in out.splitlines() if not l.startswith(("threads:", "elapsed-s:"))]

    assert body(one) == body(two)

    x = randalg.recursive_exact_worst(3)[1]
    code, out = run(
        capsys, "simulate", "r0", "--height", "3", "--trials", "3000", "--input", x,
        "--seed", "12",
    )
    assert code == 0
    got = lines(out)
    assert got["exact-mean"] == "2197/64"  # (13/4)**3
    assert got["within-4-sigma"] == "pass"
    assert "within-band" not in got


def test_simulate_r0_judges_one_trial_by_the_exact_stderr(capsys):
    for h in (1, 3, 4):
        for seed in (1, 2, 3):
            code, out = run(
                capsys, "simulate", "r0", "--height", str(h), "--trials", "1",
                "--seed", str(seed),
            )
            got = lines(out)
            assert got["stderr"] == "0.0"
            _, variance = randalg.recursive_exact_moments(h)
            assert float(got["exact-stderr"]) == pytest.approx(float(variance) ** 0.5)
            assert got["within-4-sigma"] == "pass" and code == 0, (h, seed)
    x = randalg.recursive_exact_worst(2)[1]
    code, out = run(
        capsys, "simulate", "r0", "--height", "2", "--trials", "4", "--input", x, "--seed", "3"
    )
    _, variance = randalg.recursive_exact_moments(2, x)
    assert float(lines(out)["exact-stderr"]) == pytest.approx(float(variance / 4) ** 0.5)
    assert code == 0


def test_verify_height_one_fails_only_on_cross_charge(capsys):
    code, out = run(capsys, "verify", "separation", "--height", "1")
    got = lines(out)
    failing = [k for k, v in got.items() if v == "FAIL"]
    assert failing == ["jk-inequalities"]
    assert code == 1


def test_verify_height_two_quick(capsys):
    code, out = run(
        capsys, "verify", "separation", "--height", "2",
        "--trials", "100000", "--seed", "4", "--threads", "2",
    )
    got = lines(out)
    assert got["depth-16"] == "pass"
    failing = [k for k, v in got.items() if v == "FAIL"]
    assert failing == []
    assert code == 0


def test_verify_height_two_judges_one_trial_by_the_exact_stderr(capsys):
    _, variance = randalg.recursive_exact_moments(2)
    for seed in (1, 2, 3):
        code, out = run(
            capsys, "verify", "separation", "--height", "2", "--trials", "1",
            "--seed", str(seed),
        )
        got = lines(out)
        assert got["stderr"] == "0.0"
        assert got["exact-mean"] == "9409/900"  # (97/30)**2
        assert float(got["exact-stderr"]) == pytest.approx(float(variance) ** 0.5)
        assert got["mean-band"] == "pass" and code == 0, seed


def test_verify_height_two_fails_an_overlapping_partition(capsys, monkeypatch):
    # same shape as the composed partition, but its last part repeats the first
    def overlapping(outer, inner):
        part = compose_partitions(outer, inner)
        return LabeledPartition(part.n, part.entries[:-1] + part.entries[:1])

    monkeypatch.setattr(cli.subcube, "compose_partitions", overlapping)
    code, out = run(
        capsys, "verify", "separation", "--height", "2", "--trials", "1000", "--seed", "4"
    )
    assert lines(out)["composed-partition"] == "FAIL"
    assert code == 1


def test_exit_two_on_bad_input(tmp_path, capsys):
    table = tmp_path / "f.tt"
    run(capsys, "fn", "emit", "--name", "fmaj", "--out", str(table))
    code = main(["fn", "eval", "--table", str(table), "--input", "01"])
    capsys.readouterr()
    assert code == 2
    code = main(["measure", "depth", "--table", str(tmp_path / "missing.tt")])
    capsys.readouterr()
    assert code == 2
    bad = tmp_path / "bad.tt"
    bad.write_text("n=4\nzzzz\n")
    code = main(["measure", "depth", "--table", str(bad)])
    capsys.readouterr()
    assert code == 2


def exit_code(argv):
    """main's exit status, counting argparse's exit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "sample", "--height", "1", "--trials", "0"],
        ["simulate", "minority", "--trials", "0"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--threads", "-3"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--threads", "0"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--seed", "-1"],
        ["dist", "sample", "--height", "1", "--trials", "100", "--alpha", "2"],
        ["simulate", "embed", "--level", "1", "--trials", "100", "--alpha", "0"],
        ["dist", "total", "--height", "-1"],
        # trials x 4**height bytes, checked before anything is allocated
        ["dist", "sample", "--height", "12", "--trials", "1000000"],
        ["dist", "sample", "--height", "1000000000", "--trials", "1"],
    ],
)
def test_exit_two_on_out_of_range_arguments(capsys, argv):
    assert exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_dist_sample_memory_guard_boundary(capsys, monkeypatch):
    # at height 10 the limit holds exactly limit / (bytes per leaf * 4**10)
    # trials; the stub keeps the accepted run from allocating anything
    fits = cli.dtree.DEFAULT_MEMORY_LIMIT // (cli.SAMPLE_BYTES_PER_LEAF * 4**10)
    calls = []

    def stub(h, count, rng):
        calls.append((h, count))
        return np.zeros((1, 4), dtype=np.uint8)

    monkeypatch.setattr(cli.harddist, "sample_inputs", stub)
    argv = ["dist", "sample", "--height", "10", "--seed", "1", "--trials"]
    assert exit_code(argv + [str(fits + 1)]) == 2
    assert "memory limit" in capsys.readouterr().err
    assert calls == []
    assert exit_code(argv + [str(fits)]) == 0
    assert calls == [(10, fits)]


def test_sampler_peak_stays_within_the_guard():
    import tracemalloc

    for h, trials in ((1, 200_000), (2, 50_000), (5, 800)):
        harddist.sample_inputs(h, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            harddist.sample_inputs(h, trials, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.SAMPLE_BYTES_PER_LEAF * trials * 4**h, h


def test_partition_compose_past_sixteen_variables_exits_two(tmp_path, capsys):
    outer = tmp_path / "wide.part"
    outer.write_text("*" * 17 + " 0\n")
    inner = tmp_path / "id.part"
    inner.write_text("0 0\n1 1\n")
    argv = ["partition", "compose", "--outer", str(outer), "--inner", str(inner),
            "--out", str(tmp_path / "out.part")]
    assert exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


_SEED = st.tuples(st.just("--seed"), st.integers(-3, 2**31).map(str))
_CHEAP_ARGV = st.one_of(
    st.tuples(
        st.just(("fn", "iter")),
        st.tuples(st.just("--height"), st.integers(-2, 2).map(str)),
        st.tuples(st.just("--input"), st.text("01x", min_size=1, max_size=16)),
    ),
    st.tuples(
        st.just(("dist", "mass")),
        st.tuples(st.just("--height"), st.integers(-2, 2).map(str)),
        st.tuples(st.just("--input"), st.text("01", min_size=1, max_size=16)),
    ),
    st.tuples(
        st.just(("dist", "sample")),
        st.tuples(st.just("--height"), st.integers(-2, 3).map(str)),
        st.tuples(st.just("--trials"), st.integers(-3, 40).map(str)),
        st.tuples(
            st.just("--alpha"),
            st.sampled_from(["0", "1e-3", "0.5", "1", "2", "-1", "nan", "x"]),
        ),
        _SEED,
    ),
    st.tuples(
        st.just(("simulate", "minority")),
        st.tuples(st.just("--trials"), st.integers(-3, 40).map(str)),
        _SEED,
    ),
    st.tuples(
        st.just(("simulate", "r0")),
        st.tuples(st.just("--height"), st.integers(-2, 2).map(str)),
        st.tuples(st.just("--trials"), st.integers(-3, 40).map(str)),
        st.tuples(st.just("--threads"), st.integers(-3, 3).map(str)),
        _SEED,
    ),
).map(lambda groups: [word for group in groups for word in group])


_ENV_NAMES = ("QLAB_SEED", "QLAB_THREADS")
_ENV = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(
            st.integers(-3, 3).map(str), st.sampled_from(["", "abc", "1.5", "2**3"])
        )
        for name in _ENV_NAMES
    },
)


@settings(max_examples=60, deadline=None)
@given(argv=_CHEAP_ARGV, env=_ENV)
def test_exit_code_contract_on_generated_arguments(argv, env):
    # an exception escaping main fails the test with its traceback
    with mock.patch.dict(os.environ, env):
        for name in set(_ENV_NAMES) - env.keys():
            os.environ.pop(name, None)
        assert exit_code(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "name, value",
    [("QLAB_THREADS", "abc"), ("QLAB_THREADS", "0"), ("QLAB_SEED", "x"), ("QLAB_SEED", "-1")],
)
def test_exit_two_on_bad_environment(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert exit_code(["simulate", "r0", "--height", "1", "--trials", "10"]) == 2
    assert f"error: {name}" in capsys.readouterr().err


def test_seeded_output_is_deterministic(capsys):
    argv = ["simulate", "r0", "--height", "1", "--trials", "20000", "--seed", "9"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)

    def strip_elapsed(out):
        return [l for l in out.splitlines() if not l.startswith("elapsed-s:")]

    assert strip_elapsed(first) == strip_elapsed(second)


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QLAB_SEED", "31")
    code, out = run(capsys, "simulate", "minority", "--trials", "2000")
    assert code == 0
    assert lines(out)["seed"] == "31"
