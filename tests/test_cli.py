"""Command line surface: reports, file round-trips, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import cli, dtree, harddist, lpbound, randalg, subcube
from qlab.boolfn import fmaj, iterated_table, load_table, save_table
from qlab.cli import main
from qlab.harddist import d, load_dist, save_dist
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
    assert load_table(tmp_path / "fmaj2.tt") == iterated_table(2)
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
    # the relaxation's passes over the lattice, the last lowering nothing,
    # and the lattice's size: fmaj's 30 block classes, not its 3**4 states
    keys = list(got)
    assert (got["lattice-sweeps"], got["lattice-states"]) == ("2", "30")
    assert keys.index("depth") + 1 == keys.index("lattice-sweeps")
    assert keys.index("lattice-sweeps") + 1 == keys.index("lattice-states")
    assert got["witness-replay"] == "pass"
    assert tree.exists()
    code, out = run(
        capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist)
    )
    assert code == 0
    got = lines(out)
    assert got["delta0"] == "16/5"
    assert got["witness-replay"] == "pass"


def test_measure_depth_at_height_two_writes_the_pinned_tree(tmp_path, capsys):
    # depth 16 on the 30**4 block classes of the composed gadget; the
    # tree file is the one the full 3**16-state lattice wrote
    table, tree = tmp_path / "fmaj2.tt", tmp_path / "t.dt"
    save_table(iterated_table(2), table)
    code, out = run(capsys, "measure", "depth", "--table", str(table), "--tree-out", str(tree))
    assert code == 0
    got = lines(out)
    assert (got["depth"], got["lattice-sweeps"], got["lattice-states"]) == ("16", "2", "810000")
    assert got["witness-replay"] == "pass"
    digest = hashlib.sha256(tree.read_bytes()).hexdigest()
    assert digest == "612eb5b2354f6c46c999638eedbf591ab8eb260ab081de5a2af8826224182585"


def test_measure_delta0_at_height_two(tmp_path, capsys):
    # the hard law's height-2 file and the exact weighted DP, which runs
    # on the 30**4 block classes of the composed gadget's subcubes: the
    # gadget and the law are both unchanged by permuting x2..x4 in a block
    table, dist = tmp_path / "fmaj2.tt", tmp_path / "d2.dist"
    code, out = run(capsys, "dist", "emit", "--name", "d2", "--out", str(dist))
    assert code == 0
    assert lines(out)["support"] == "33614"
    save_table(iterated_table(2), table)
    code, out = run(capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist))
    assert code == 0
    got = lines(out)
    assert (got["delta0"], got["witness-replay"]) == ("256/25", "pass")
    assert got["lattice-states"] == "810000"


def test_measure_delta0_without_the_block_symmetry(tmp_path, capsys):
    # a law that tells x2 from x3 and x4 takes the full 3**4 lattice;
    # each of its three inputs needs three reads (brute force agrees)
    table, dist = tmp_path / "f.tt", tmp_path / "skew.dist"
    save_table(fmaj(), table)
    dist.write_text("0111 1/2\n1000 1/4\n0100 1/4\n")
    code, out = run(capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist))
    assert code == 0
    got = lines(out)
    assert (got["delta0"], got["witness-replay"]) == ("3/1", "pass")
    assert got["lattice-states"] == "81"


def flip_first_leaf(tree):
    """The tree with its leftmost leaf's output flipped."""
    if isinstance(tree, dtree.Leaf):
        return dtree.Leaf(1 - tree.value)
    return dtree.Node(tree.var, flip_first_leaf(tree.low), tree.high)


def test_measure_depth_replays_the_tree_file(tmp_path, capsys, monkeypatch):
    # the replay reads the tree back, so a file that differs from the
    # optimal tree fails it
    table, tree = tmp_path / "f.tt", tmp_path / "t.dt"
    save_table(fmaj(), table)
    real = dtree.save_tree
    monkeypatch.setattr(dtree, "save_tree", lambda t, path: real(flip_first_leaf(t), path))
    code, out = run(capsys, "measure", "depth", "--table", str(table), "--tree-out", str(tree))
    assert lines(out)["witness-replay"] == "FAIL"
    assert code == 1


def test_measure_delta0_replays_its_witness(tmp_path, capsys, monkeypatch):
    # a witness that errs on an input, and one that computes fmaj at a
    # higher cost (the depth-optimal tree costs 10/3 under d), both fail
    table, dist = tmp_path / "f.tt", tmp_path / "d.dist"
    save_table(fmaj(), table)
    save_dist(d(), dist)
    argv = ["measure", "delta0", "--table", str(table), "--dist", str(dist)]
    real = dtree.min_weighted_zero_error
    for wrong in (flip_first_leaf, lambda t: dtree.exact_depth(fmaj(), want_tree=True).tree):

        def witness(f, cost, *, want_tree, wrong=wrong):
            result = real(f, cost, want_tree=want_tree)
            return dataclasses.replace(result, tree=wrong(result.tree))

        monkeypatch.setattr(dtree, "min_weighted_zero_error", witness)
        code, out = run(capsys, *argv)
        got = lines(out)
        assert (got["delta0"], got["witness-replay"]) == ("16/5", "FAIL")
        assert code == 1


def test_measure_delta0_enumerates_each_witness_leaf_once(tmp_path, capsys, monkeypatch):
    # the partition check paints each input's leaf, and the replay reads
    # both the labels and the charges through that owner array
    table, dist = tmp_path / "f.tt", tmp_path / "d.dist"
    save_table(fmaj(), table)
    save_dist(d(), dist)
    charges = dtree.CostMatrix.uniform(d())
    tree = dtree.min_weighted_zero_error(fmaj(), charges, want_tree=True).tree
    leaves = [p.text for p, _ in dtree.tree_to_partition(tree, 4).entries]
    calls = []
    real = subcube.Pattern.members

    def members(self):
        calls.append(self.text)
        return real(self)

    monkeypatch.setattr(subcube.Pattern, "members", members)
    code, out = run(capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist))
    assert (code, lines(out)["witness-replay"]) == (0, "pass")
    assert sorted(calls) == sorted(leaves)


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
    assert lines(out)["half-log2"] == "3.0"
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


def stub_depth_sweep(monkeypatch):
    """Stand in for the depth sweep where a verify test does not judge
    depth-16: the sweep must get the height-2 table, and its depth is 16
    on 30**4 block classes."""

    def depth(table):
        assert table == iterated_table(2)
        return dtree.LatticeResult(16, 2, 30**4)

    monkeypatch.setattr(dtree, "exact_depth", depth)


@pytest.mark.parametrize("height", [1, 2])
def test_verify_separation_validates_once(capsys, monkeypatch, height):
    calls = []
    real = subcube.validate

    def counting(part):
        calls.append(part)
        return real(part)

    monkeypatch.setattr(subcube, "validate", counting)
    argv = ["verify", "separation", "--height", str(height), "--seed", "4"]
    if height == 2:
        stub_depth_sweep(monkeypatch)
        argv += ["--trials", "1000"]
    code, out = run(capsys, *argv)
    key = "canonical-partition" if height == 1 else "composed-partition"
    assert lines(out)[key] == "pass"
    assert len(calls) == 1


def test_dist_commands(capsys):
    code, out = run(capsys, "dist", "mass", "--height", "2", "--input", "0111100010001000")
    assert code == 0
    assert lines(out)["mass"] == "16/3125"
    code, out = run(capsys, "dist", "total", "--height", "1")
    assert code == 0
    got = lines(out)
    assert got["total"] == "1/1" and got["sums-to-1"] == "pass"
    # the law is judged exactly, so there is no sampler audit
    assert exit_code(["dist", "sample", "--height", "1", "--trials", "1"]) == 2
    assert "invalid choice: 'sample'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "embed", "--level", "1"],
        ["simulate", "embed", "--level", "2"],
    ],
    ids=["embed-l1", "embed-l2"],
)
def test_chi_square_audits_pass_a_single_trial(capsys, argv):
    # one trial expects under 5 in every cell, so the counts pool into
    # one cell; unpooled, a children pattern of mass 1/60 alone added 59
    # against a critical value of 34.5 on seeds 9, 16 and 24
    for seed in range(40):
        code, out = run(capsys, *argv, "--trials", "1", "--seed", str(seed))
        assert code == 0, (seed, out)


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


# sha256 of each report's stdout without its elapsed-s line, and its exit
# status, pinned so that no refactor of the evaluator, the bound, the
# hard-law sampler or the J/K functionals changes a report silently
# (measure jk and verify at height 1 exit 1 on the K(1,1) floor); the
# input is recursive_exact_worst(3)'s witness, and FMAJ, CANON and D
# stand for the files of the gadget's table, its canonical partition and
# the hard law
PINNED_REPORTS = [
    pytest.param(
        ("simulate", "r0", "--height", "1", "--trials", "100000", "--seed", "8", "--threads", "1"),
        "6c984004d182da49a54f8179b1b0b221109dc95089ef78b55e5a02e673d24129",
        0,
        id="r0-h1",
    ),
    pytest.param(
        ("simulate", "r0", "--height", "3", "--trials", "5000", "--seed", "10", "--threads", "1"),
        "b8eae88c5adc6778046a4293c08d49945cb06b8d6ce94db57943568cd74a0df0",
        0,
        id="r0-h3",
    ),
    pytest.param(
        ("simulate", "r0", "--height", "8", "--trials", "20", "--seed", "15", "--threads", "1"),
        "101fca8b018c59d235b8f569a44139a49cc7379d9e7a3a502c58cbf7146512b9",
        0,
        id="r0-h8",
    ),
    pytest.param(
        (
            "simulate", "r0", "--height", "3", "--trials", "3000", "--seed", "2", "--threads", "1",
            "--input", "0011001101110111001100110111011100110111011101110011011101110111",
        ),
        "4bfce4c582a394ff980770a56188040b6fc0873f978ed477883aeee981e8a3fa",
        0,
        id="r0-h3-worst-input",
    ),
    pytest.param(
        ("partition", "search-weight", "--table", "FMAJ"),
        "e4e0de83593c506184857fab03a5a89f9b7cb5998745f501780563409b1bfc6f",
        0,
        id="search-weight-fmaj",
    ),
    pytest.param(
        ("measure", "jk"),
        "a71260b542bbc027075afce2152d49abc7cd6418c75d94f3cafdb14a9c0219b4",
        1,
        id="jk",
    ),
    pytest.param(
        ("simulate", "minority", "--trials", "20000", "--seed", "7"),
        "b9505b7de343225f80c52dd47bc970478f8798bebd16637561cde257c1809849",
        0,
        id="minority",
    ),
    pytest.param(
        ("simulate", "embed", "--level", "2", "--trials", "20000", "--seed", "9"),
        "3eebe7d65a351ce08e8a522a7c30db9200375c54e0e14a070b23fa27f0dfd64e",
        0,
        id="embed-l2",
    ),
    pytest.param(
        ("verify", "separation", "--height", "1"),
        "001dcbb73c883449a63e224d3424314187321bc409e8fd8c1834368977ec2fe1",
        1,
        id="verify-h1",
    ),
    pytest.param(
        ("bound", "prt", "--table", "FMAJ", "--eps", "0"),
        "206760b70bcff2f7bdf258f07dc494056130cd415ec63aaaa66d44a57c772b75",
        0,
        id="prt-eps0",
    ),
    pytest.param(
        ("bound", "prt", "--table", "FMAJ", "--eps", "1/3"),
        "766dc9b5f8b62e7a42b88c671a3479bad15dcb07030e192590012cb861ead54b",
        0,
        id="prt-eps1-3",
    ),
    pytest.param(
        ("partition", "check", "--part", "CANON", "--table", "FMAJ"),
        "6e4cd2a1e5b28a7c3cf3efb35c73b8271a7e6089a2df3a35a4901ba57cf050cd",
        0,
        id="check-canonical",
    ),
    pytest.param(
        ("partition", "search-cost", "--table", "FMAJ", "--budget", "2"),
        "8ef418213389de6641508fc4226129cf08d0839ee022991ba55b61396b3b0fd3",
        0,
        id="search-cost-2",
    ),
    pytest.param(
        ("measure", "delta0", "--table", "FMAJ", "--dist", "D"),
        "84726b58a5920247799b666d9e20a6bead62a09f5e5506583cc78bafa96fd3fa",
        0,
        id="delta0",
    ),
    pytest.param(
        ("dist", "mass", "--height", "2", "--input", "0111100010001000"),
        "710313a8b4d5f7e99a2d8ba5cfb2e554932ed08a38c89b85d1306492acce6fb1",
        0,
        id="mass-h2",
    ),
    pytest.param(
        ("fn", "eval", "--table", "FMAJ", "--input", "0111"),
        "513a9cccfec63d8439f6fa82787b0614aa3b7b90f3d20345f22930ea3785f91c",
        0,
        id="fn-eval",
    ),
]


def digest(out):
    """sha256 of a report without its elapsed-s line."""
    kept = "".join(line for line in out.splitlines(True) if not line.startswith("elapsed-s: "))
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("argv, pinned, status", PINNED_REPORTS)
def test_reports_are_byte_identical(tmp_path, capsys, argv, pinned, status):
    files = {"FMAJ": tmp_path / "fmaj.tt", "CANON": tmp_path / "c.part", "D": tmp_path / "d.dist"}
    save_table(fmaj(), files["FMAJ"])
    save_partition(canonical_fmaj_partition(), files["CANON"])
    save_dist(d(), files["D"])
    code, out = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == status
    assert digest(out) == pinned


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


def probe_imports(*argvs):
    # runs each argv through qlab.cli.main in a fresh interpreter, then
    # lists the qlab and scipy modules that process loaded and says
    # whether it loaded concurrent.futures
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, qlab.cli\n"
        "code = 0\n"
        + "".join(f"code |= qlab.cli.main({list(argv)!r})\n" for argv in argvs)
        + "print('qlab:', sorted(m for m in sys.modules if m.startswith('qlab.')))\n"
        "print('scipy:', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('concurrent.futures:', 'concurrent.futures' in sys.modules)\n"
        "sys.exit(code)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return lines(out)


def test_import_loads_no_scipy():
    # scipy is a test dependency only: importing the CLI and running the
    # chi-square audit must load none of it
    got = probe_imports(["simulate", "embed", "--level", "2", "--trials", "100"])
    assert got["scipy"] == "[]"


def test_bound_prt_loads_no_scipy(tmp_path):
    # the LP is solved in-package, so `bound prt` pays no scipy import
    table = tmp_path / "fmaj.tt"
    save_table(fmaj(), table)
    got = probe_imports(["bound", "prt", "--table", str(table), "--eps", "1/3"])
    assert got["value"] == got["dual-value"] == "14/1"
    assert got["certificate"] == "pass"
    assert got["scipy"] == "[]"


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["simulate", "r0", "--height", "2", "--trials", "10"], ("harddist", "randalg")),
        (["dist", "total", "--height", "1"], ("harddist",)),
        (["bound", "prt", "--table", "{table}", "--eps", "1/3"], ("subcube", "lpbound")),
        (["fixtures", "--out-dir", "{dir}"], ("subcube", "harddist")),
    ],
    ids=["simulate-r0", "dist-total", "bound-prt", "fixtures"],
)
def test_command_imports_only_the_modules_it_runs(tmp_path, argv, modules):
    # cli imports each module where a handler runs it, so a fresh process
    # compiles and runs no module its command never calls
    table = tmp_path / "fmaj.tt"
    save_table(fmaj(), table)
    argv = [a.format(table=table, dir=tmp_path / "out") for a in argv]
    want = sorted(f"qlab.{m}" for m in ("cli", "boolfn", *modules))
    assert probe_imports(argv)["qlab"] == str(want)


def test_every_emit_name_has_a_maker(tmp_path, capsys):
    # the parser's --name choices are listed apart from their makers,
    # which load only when a file is written
    for command, (suffix, names) in cli._FIXTURES.items():
        assert sorted(cli._fixture_makers(command)[2]) == sorted(names)
        for name in names:
            out = tmp_path / (name + suffix)
            code, _ = run(capsys, command, "emit", "--name", name, "--out", str(out))
            assert code == 0 and out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_loads_no_executor(threads):
    # Monte Carlo workers are plain threads, the first the calling one, so
    # no run imports concurrent.futures, nor the logging it pulls in
    got = probe_imports(
        ["simulate", "r0", "--height", "1", "--trials", "10", "--threads", threads]
    )
    assert got["zero-error"] == "pass"
    assert got["concurrent.futures"] == "False"


def test_simulate_commands(capsys):
    code, out = run(
        capsys, "simulate", "r0", "--height", "1", "--trials", "50000", "--seed", "2"
    )
    assert code == 0
    got = lines(out)
    assert got["zero-error"] == "pass"
    assert got["within-4-sigma"] == "pass"
    assert got["threads"] == "1"  # the default
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


def test_simulate_embed_judges_every_outcome(capsys, monkeypatch):
    # outcome 0 embeds a 0 as the first child; with siblings 111 the
    # parent is 1, so the embedded child dissents in that outcome alone,
    # and one trial, which misses it with probability 359/360, must fail
    argv = ["simulate", "embed", "--level", "1", "--trials", "1", "--seed", "0"]
    assert lines(run(capsys, *argv)[1])["always-majority"] == "pass"
    assert randalg._EMBED_SLOT[0] == 0 and randalg._EMBED_PAT[0] >> 3 == 0
    pat = randalg._EMBED_PAT.copy()
    pat[0] = 0b0111
    monkeypatch.setattr(randalg, "_EMBED_PAT", pat)
    code, out = run(capsys, *argv)
    assert lines(out)["always-majority"] == "FAIL"
    assert code == 1


def test_simulate_r0_exact_references_at_every_height(capsys):
    argv = ["simulate", "r0", "--height", "4", "--trials", "1500", "--seed", "11"]
    code, one = run(capsys, *argv, "--threads", "1")
    assert code == 0
    got = lines(one)
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
    # the failing verdict prints the values it judges
    assert got["k-1-1"] == "53/20"
    # the exhaustive search's node count certifies no-cost-2-partition
    keys = list(got)
    assert got["cost-2-search-nodes"] == "4"
    assert keys.index("cost-2-search-nodes") + 1 == keys.index("no-cost-2-partition")


@pytest.mark.parametrize("flag", ["--trials", "--threads"])
def test_verify_height_one_refuses_the_sampling_flags(capsys, flag):
    # height 1 samples nothing, so a sampling flag there is a usage error
    assert exit_code(["verify", "separation", "--height", "1", flag, "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    # the lattice-states line follows lattice-sweeps; every other line is
    # the report of the full-lattice sweep, byte for byte
    keys = list(got)
    assert (got["lattice-sweeps"], got["lattice-states"]) == ("2", "810000")
    assert keys.index("lattice-sweeps") + 1 == keys.index("lattice-states")
    rest = "".join(line for line in out.splitlines(True) if not line.startswith("lattice-states: "))
    assert digest(rest) == "6ffd079665765e5c1d476411b40bfc746fdc18bb3ba6e1a6f4f14d9bfe01c776"


def test_verify_height_two_judges_one_trial_by_the_exact_stderr(capsys, monkeypatch):
    stub_depth_sweep(monkeypatch)
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

    monkeypatch.setattr(subcube, "compose_partitions", overlapping)
    stub_depth_sweep(monkeypatch)
    code, out = run(
        capsys, "verify", "separation", "--height", "2", "--trials", "1000", "--seed", "4"
    )
    assert lines(out)["composed-partition"] == "FAIL"
    assert code == 1


# one wrong entry in each table that verify judges exactly: a round
# output on 0000, which the hard law never draws; outcome 0 of the
# embedding (a 0 at slot 0 among siblings 001) moved off the support to
# 0000, where a flip of it does not propagate, or to 0011, which keeps
# its structure but not the children law; the slot law; a value-0 draw
# of the value-1 pattern 0111; and coin 0's pick of 1000's lone
# dissenter moved to slot 1
TABLE_FAULTS = [
    pytest.param(randalg, "_ROUND_OUT", (6, 0b0000), 1, "zero-error", id="round-output"),
    pytest.param(randalg, "_EMBED_PAT", 0, 0b0000, "embedding", id="embed-off-support"),
    pytest.param(randalg, "_EMBED_PAT", 0, 0b0011, "embedding", id="embed-law"),
    pytest.param(randalg, "SLOT_PROBS", 0, Fraction(4, 15), "embedding", id="slot-law"),
    pytest.param(randalg, "_DRAW30", (0, 0), 0b0111, "embedding", id="sibling-draw"),
    pytest.param(harddist, "_DIS_PICK", (0b1000, 0), 1, "minority-frequencies", id="dissent"),
]


@pytest.mark.parametrize("module, name, index, value, verdict", TABLE_FAULTS)
def test_verify_height_two_judges_each_table_whole(
    capsys, monkeypatch, module, name, index, value, verdict
):
    # one trial reads almost none of these tables, so each verdict must
    # judge its table on every entry to fail on a single wrong one
    stub_depth_sweep(monkeypatch)
    table = getattr(module, name)
    wrong = table.copy() if isinstance(table, np.ndarray) else list(table)
    assert wrong[index] != value
    wrong[index] = value
    monkeypatch.setattr(module, name, wrong if isinstance(table, np.ndarray) else tuple(wrong))
    code, out = run(capsys, "verify", "separation", "--height", "2", "--trials", "1")
    assert [k for k, v in lines(out).items() if v == "FAIL"] == [verdict]
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
    zero = tmp_path / "zero.dist"
    zero.write_text("0000 1/0\n")
    code = main(["measure", "delta0", "--table", str(table), "--dist", str(zero)])
    assert code == 2
    assert "zero denominator" in capsys.readouterr().err


def exit_code(argv):
    """main's exit status, counting argparse's exit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "embed", "--level", "1", "--trials", "0"],
        ["simulate", "minority", "--trials", "0"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--threads", "-3"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--threads", "0"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--seed", "-1"],
        ["simulate", "embed", "--level", "1", "--trials", "100", "--alpha", "2"],
        ["simulate", "embed", "--level", "1", "--trials", "100", "--alpha", "0"],
        ["dist", "total", "--height", "-1"],
        # heights past the evaluator's 12, refused before any power of them
        ["simulate", "r0", "--height", "13", "--trials", "1"],
        ["simulate", "r0", "--height", "1000000000", "--trials", "1"],
        # FMAJ names a valid table, so only the budget is out of range
        ["partition", "search-cost", "--table", "FMAJ", "--budget", "-3"],
        ["partition", "emit", "--name", "bogus", "--out", "FMAJ"],
        # dist total's own height check, before any power of the height
        ["dist", "total", "--height", "3"],
        ["dist", "total", "--height", "1000000000"],
    ],
)
def test_exit_two_on_out_of_range_arguments(capsys, tmp_path, argv):
    table = tmp_path / "fmaj.tt"
    save_table(fmaj(), table)
    argv = [str(table) if a == "FMAJ" else a for a in argv]
    assert exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # a one-leaf input mismatches 4**h by its bit count
        ["fn", "iter", "--height", "1000000000", "--input", "0"],
        ["dist", "mass", "--height", "1000000000", "--input", "0"],
        # past the evaluator's tallest tree, height 12
        ["simulate", "r0", "--height", "13", "--trials", "1"],
        ["simulate", "r0", "--height", "1000000000", "--trials", "1"],
    ],
    ids=["fn-iter", "dist-mass", "simulate-r0-h13", "simulate-r0-huge"],
)
def test_huge_height_is_refused_without_building_its_power(capsys, argv):
    # the refusal never builds the 250 MB integer 4**(10**9), nor a tree
    # of 4**13 leaves; numpy allocates about 1 MB once, on the first
    # default_rng of a process, so one is made before tracing
    import tracemalloc

    np.random.default_rng(0)
    tracemalloc.start()
    try:
        code = exit_code(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert peak < 2**20


def test_a_dist_wider_than_any_table_is_refused_before_its_law_is_built(capsys, tmp_path):
    # the loader refuses a 40-bit line before it allocates the law's
    # 2**40 entries, so the command exits 2 with a small traced peak
    import tracemalloc

    table, dist = tmp_path / "f.tt", tmp_path / "wide.dist"
    save_table(fmaj(), table)
    line = "0" * 40 + " 1"
    dist.write_text(line + "\n")
    tracemalloc.start()
    try:
        code = exit_code(["measure", "delta0", "--table", str(table), "--dist", str(dist)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot load distribution {dist}: more than 16 bits on line {line!r}\n"
    assert peak < 2**20


@pytest.mark.parametrize(
    "h, sample",
    [
        (2, lambda n: harddist.minority_level1_counts(n, np.random.default_rng(0))),
        (1, lambda n: randalg.embed_check(1, n, np.random.default_rng(0))),
        (2, lambda n: randalg.embed_check(2, n, np.random.default_rng(0))),
        # a batch on each of the 64 substreams
        (8, lambda n: randalg.mc_mean_cost(8, 64 * n, np.random.default_rng(0))),
    ],
    ids=["minority", "embed-l1", "embed-l2", "mc-h8"],
)
def test_sampler_peak_stays_at_one_batch(capsys, h, sample):
    # trials run in batches of 2**20 // 4**h, so four batches' worth
    # peaks where one does; a sampler drawing every trial at once peaks
    # about four times higher
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            sample(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch = 2**20 // 4**h
    sample(10)
    one, four = peak(batch), peak(4 * batch)
    capsys.readouterr()
    assert four <= 1.25 * one, (one, four)


def test_one_height_twelve_trial_peaks_under_16_mib():
    # one height-12 trial may read 4**11 level-1 nodes, but the evaluator
    # sizes each level's arrays to the frontier it draws: arrays sized up
    # front for the worst case would peak past 200 MiB here
    import tracemalloc

    tracemalloc.start()
    try:
        randalg.mc_mean_cost(12, 1, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_partition_compose_past_sixteen_variables_exits_two(tmp_path, capsys):
    wide = tmp_path / "wide.part"
    wide.write_text("*" * 17 + " 0\n")
    ident = tmp_path / "id.part"
    ident.write_text("0 0\n1 1\n")
    # the 512-part height-2 partition under the gadget's would expand to
    # about 1.3e8 patterns on 64 variables, so the arity is refused first
    canonical = canonical_fmaj_partition()
    canon, height2 = tmp_path / "c.part", tmp_path / "h2.part"
    save_partition(canonical, canon)
    save_partition(compose_partitions(canonical, canonical), height2)
    out = tmp_path / "out.part"
    for outer, inner in ((wide, ident), (height2, canon)):
        argv = ["partition", "compose", "--outer", str(outer), "--inner", str(inner),
                "--out", str(out)]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fn", "emit", "--name", "fmaj", "--out", "{gone}"],
        ["measure", "depth", "--table", "{table}", "--tree-out", "{gone}"],
        ["partition", "emit", "--name", "canonical", "--out", "{gone}"],
        ["partition", "compose", "--outer", "{part}", "--inner", "{part}", "--out", "{gone}"],
        ["partition", "search-cost", "--table", "{table}", "--budget", "3", "--out", "{gone}"],
        ["partition", "search-weight", "--table", "{table}", "--out", "{gone}"],
        ["dist", "emit", "--name", "d", "--out", "{gone}"],
        # a directory cannot be made under a regular file
        ["fixtures", "--out-dir", "{table}/sub"],
    ],
)
def test_exit_two_on_unwritable_output(capsys, tmp_path, argv):
    table = tmp_path / "fmaj.tt"
    save_table(fmaj(), table)
    part = tmp_path / "c.part"
    save_partition(canonical_fmaj_partition(), part)
    paths = dict(table=table, part=part, gone=tmp_path / "missing" / "out")
    argv = [a.format(**paths) for a in argv]
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
        st.just(("simulate", "embed")),
        st.tuples(st.just("--level"), st.integers(0, 3).map(str)),
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


@settings(max_examples=60, deadline=None)
@given(argv=_CHEAP_ARGV)
def test_exit_code_contract_on_generated_arguments(argv):
    # an exception escaping main fails the test with its traceback;
    # capsys does not reset between generated examples, so stdout is
    # captured here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = exit_code(argv)
    assert code in (0, 1, 2)
    if code != 2:
        # exit 1 means exactly that a verdict failed
        failed = any(line.endswith(": FAIL") for line in out.getvalue().splitlines())
        assert (code == 1) == failed


def test_seeded_output_is_deterministic(capsys):
    argv = ["simulate", "r0", "--height", "1", "--trials", "20000", "--seed", "9"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)

    def strip_elapsed(out):
        return [l for l in out.splitlines() if not l.startswith("elapsed-s:")]

    assert strip_elapsed(first) == strip_elapsed(second)
