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
from qlab.boolfn import fmaj, iterated_table, table_from_text, table_to_text
from qlab.cli import main
from qlab.harddist import d, dist_from_text, dist_to_text
from qlab.subcube import (
    LabeledPartition,
    canonical_fmaj_partition,
    compose_partitions,
    partition_from_text,
    partition_to_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def lines(out):
    return dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )


# sha256 of each file the emit commands write, by name
EMITTED = {
    "identity": "5191c3fd28cce81a75979698aaa5b1463c51d17885bcb4cf3345eb835e6f0c36",
    "fmaj": "773524a887763efd0959a33b0af1dfb36779bcbcfe2b83d56966c56cd9b1d5b7",
    "fmaj2": "a1052c5bcf68facd064eb73c4920d9ee112a1599b164d449adbe46b4b71d01e4",
    "canonical": "b776607e938ea397828f470ed7aae524af9fcc57ad4124de62d29c9266e516e0",
    "d0": "da74d34ceb3f866cc29ef5b14dd9acb58dfc6c58de091a86b2b3905438f83f4b",
    "d1": "360ec034e04502970413305bad38b9ed517db58236b0682e484b882b8b28a71a",
    "d": "43676c7840755fd9286e9778ebaae1a8dc906ad554b60909437f8ae2dd1eda44",
    "d2": "74c028d11b230f7b8684f5143d20f1dfcc8621a34fd873c3dff37eb4cef9c1e2",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixtures_round_trip(tmp_path, capsys):
    code, out = run(capsys, "fixtures", "--out-dir", str(tmp_path))
    assert code == 0
    for name, parse, made in (
        ("fmaj.tt", table_from_text, fmaj()),
        ("fmaj2.tt", table_from_text, iterated_table(2)),
        ("canonical.part", partition_from_text, canonical_fmaj_partition()),
        ("d.dist", dist_from_text, d()),
    ):
        path = tmp_path / name
        assert sha256(path) == EMITTED[path.stem]
        assert parse(path.read_text()) == made


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
    table.write_text(table_to_text(iterated_table(2)))
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
    table.write_text(table_to_text(iterated_table(2)))
    code, out = run(capsys, "measure", "delta0", "--table", str(table), "--dist", str(dist))
    assert code == 0
    got = lines(out)
    assert (got["delta0"], got["witness-replay"]) == ("256/25", "pass")
    assert got["lattice-states"] == "810000"


def test_measure_delta0_without_the_block_symmetry(tmp_path, capsys):
    # a law that tells x2 from x3 and x4 takes the full 3**4 lattice;
    # each of its three inputs needs three reads (brute force agrees)
    table, dist = tmp_path / "f.tt", tmp_path / "skew.dist"
    table.write_text(table_to_text(fmaj()))
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
    table.write_text(table_to_text(fmaj()))
    real = cli._save

    def save_flipped(path, text):
        flipped = flip_first_leaf(dtree.tree_from_text(text))
        real(path, dtree.tree_to_text(flipped) + "\n")

    monkeypatch.setattr(cli, "_save", save_flipped)
    code, out = run(capsys, "measure", "depth", "--table", str(table), "--tree-out", str(tree))
    assert lines(out)["witness-replay"] == "FAIL"
    assert code == 1


def test_measure_delta0_replays_its_witness(tmp_path, capsys, monkeypatch):
    # a witness that errs on an input, and one that computes fmaj at a
    # higher cost (the depth-optimal tree costs 10/3 under d), both fail
    table, dist = tmp_path / "f.tt", tmp_path / "d.dist"
    table.write_text(table_to_text(fmaj()))
    dist.write_text(dist_to_text(d()))
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
    # the partition check reads each leaf's member word once: the labels
    # are judged on validate's union of the 1-labeled leaves, and the
    # charges by sending every input down the tree
    table, dist = tmp_path / "f.tt", tmp_path / "d.dist"
    table.write_text(table_to_text(fmaj()))
    dist.write_text(dist_to_text(d()))
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
    assert partition_from_text(best.read_text()).n == 4


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
    good.write_text(partition_to_text(canonical_fmaj_partition()))
    code, out = run(capsys, "partition", "check", "--part", str(good), "--table", str(table))
    assert code == 0
    assert lines(out)["valid"] == "pass" and lines(out)["computes"] == "pass"
    assert len(calls) == 1

    entries = canonical_fmaj_partition().entries
    bad = tmp_path / "bad.part"
    bad.write_text(partition_to_text(LabeledPartition(4, entries[:-1] + entries[:1])))
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
    assert lines(out)["composed-partition"] == "pass"
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
        "b854480182643f9ad9a12a0530122b6b461fd56d9e79c4981c54c652583a548b",
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
    files["FMAJ"].write_text(table_to_text(fmaj()))
    files["CANON"].write_text(partition_to_text(canonical_fmaj_partition()))
    files["D"].write_text(dist_to_text(d()))
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


def run_child(probe, **kwargs):
    """Run the Python source probe in a fresh interpreter that imports
    this qlab, capturing its output as text."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, **kwargs
    )


@pytest.mark.parametrize(
    "eps", ["1e999", "1e99999999", "1" + "0" * 400], ids=["1e999", "1e99999999", "10-to-400"]
)
def test_bound_prt_refuses_a_huge_eps_at_once(tmp_path, eps):
    # an exponent is no accepted form, and an integer is refused by the
    # LP's range check before the eps line floats it; the child process
    # keeps a parser that builds 10**99999999 from hanging the suite
    table = tmp_path / "f.tt"
    table.write_text(table_to_text(fmaj()))
    argv = ["bound", "prt", "--table", str(table), "--eps", eps]
    probe = (
        "import sys, time, qlab.cli\n"
        "start = time.monotonic()\n"
        f"code = qlab.cli.main({argv!r})\n"
        "print('seconds:', time.monotonic() - start)\n"
        "sys.exit(code)\n"
    )
    done = run_child(probe, timeout=30)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert float(lines(done.stdout)["seconds"]) < 1


def probe_imports(*argvs, status=0):
    # runs each argv through qlab.cli.main in a fresh interpreter, then
    # lists the qlab and scipy modules that process loaded and says
    # whether it loaded numpy and concurrent.futures; the statuses
    # or'ed together must be status
    probe = (
        "import sys, qlab.cli\n"
        "code = 0\n"
        + "".join(f"code |= qlab.cli.main({list(argv)!r})\n" for argv in argvs)
        + "print('qlab:', sorted(m for m in sys.modules if m.startswith('qlab.')))\n"
        "print('scipy:', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('numpy:', 'numpy' in sys.modules)\n"
        "print('concurrent.futures:', 'concurrent.futures' in sys.modules)\n"
        "sys.exit(code)"
    )
    done = run_child(probe)
    assert done.returncode == status and "Traceback" not in done.stderr, done.stderr
    return lines(done.stdout)


def test_import_loads_no_scipy():
    # scipy is a test dependency only: importing the CLI and running the
    # chi-square audit must load none of it
    got = probe_imports(["simulate", "embed", "--level", "2", "--trials", "100"])
    assert got["scipy"] == "[]"


def test_bound_prt_loads_no_scipy(tmp_path):
    # the LP is solved in-package in Python ints, so `bound prt` pays no
    # scipy import, nor numpy's
    table = tmp_path / "fmaj.tt"
    table.write_text(table_to_text(fmaj()))
    got = probe_imports(["bound", "prt", "--table", str(table), "--eps", "1/3"])
    assert got["value"] == got["dual-value"] == "14/1"
    assert got["certificate"] == "pass"
    assert got["scipy"] == "[]"
    assert got["numpy"] == "False"


VERIFY_MODULES = ("subcube", "dtree", "harddist", "randalg")


@pytest.mark.parametrize(
    "argv, modules, status",
    [
        (["fn", "eval", "--table", "{table}", "--input", "1100"], (), 0),
        (["fn", "emit", "--name", "fmaj2", "--out", "{out}"], (), 0),
        (["fn", "iter", "--height", "2", "--input", "0111100010001000"], (), 0),
        (["simulate", "r0", "--height", "2", "--trials", "10"], ("harddist", "randalg"), 0),
        (["dist", "total", "--height", "1"], ("harddist",), 0),
        (["dist", "mass", "--height", "1", "--input", "1000"], ("harddist",), 0),
        (["dist", "emit", "--name", "d", "--out", "{out}"], ("harddist",), 0),
        (["dist", "emit", "--name", "d2", "--out", "{out}"], ("harddist",), 0),
        (["bound", "prt", "--table", "{table}", "--eps", "1/3"], ("lpbound",), 0),
        (["partition", "check", "--part", "{part}", "--table", "{table}"], ("subcube",), 0),
        (["fixtures", "--out-dir", "{dir}"], ("subcube", "harddist"), 0),
        # height 1 exits 1 on criterion 7's floor on K(1,1)
        (["verify", "separation", "--height", "1", "--trials", "1"], VERIFY_MODULES, 1),
        (["verify", "separation", "--height", "2", "--trials", "1"], VERIFY_MODULES, 0),
    ],
    ids=[
        "fn-eval", "fn-emit", "fn-iter", "simulate-r0", "dist-total", "dist-mass",
        "dist-emit", "dist-emit-d2", "bound-prt", "partition-check", "fixtures", "verify-h1",
        "verify-h2",
    ],
)
def test_command_imports_only_the_modules_it_runs(tmp_path, argv, modules, status):
    # cli imports each module where a handler runs it, so a fresh process
    # compiles and runs no module its command never calls
    table, part = tmp_path / "fmaj.tt", tmp_path / "canonical.part"
    table.write_text(table_to_text(fmaj()))
    part.write_text(partition_to_text(canonical_fmaj_partition()))
    argv = [
        a.format(table=table, part=part, dir=tmp_path / "out", out=tmp_path / "emitted")
        for a in argv
    ]
    want = sorted(f"qlab.{m}" for m in ("cli", "boolfn", *modules))
    got = probe_imports(argv, status=status)
    assert got["qlab"] == str(want)
    # numpy loads with the array modules: dtree and randalg import it as
    # they load; harddist imports numpy only where it samples, and
    # boolfn, subcube, lpbound and cli are pure Python
    assert got["numpy"] == str(bool({"dtree", "randalg"} & set(modules)))


def test_table_partition_and_seed_law_commands_load_no_numpy(tmp_path):
    # truth tables, subcube partitions and the exact laws are Python
    # ints: writing the fixtures, emitting every table, the canonical
    # partition and d0, d1, d and d2, and every partition command run in
    # one fresh process that never loads numpy
    fixtures = tmp_path / "fixtures"
    table, canonical = fixtures / "fmaj.tt", fixtures / "canonical.part"
    argvs = [["fixtures", "--out-dir", str(fixtures)]]
    argvs += [
        [command, "emit", "--name", name, "--out", str(tmp_path / (name + suffix))]
        for command, (suffix, names) in cli._FIXTURES.items()
        for name in names
    ]
    argvs += [
        ["partition", "check", "--part", str(canonical), "--table", str(table)],
        ["partition", "compose", "--outer", str(canonical), "--inner", str(canonical),
         "--out", str(tmp_path / "composed.part")],
        ["partition", "search-cost", "--table", str(table), "--budget", "3"],
        ["partition", "search-weight", "--table", str(table)],
    ]
    assert len(argvs) == 13
    got = probe_imports(*argvs)
    assert got["qlab"] == str(sorted(["qlab.boolfn", "qlab.cli", "qlab.harddist", "qlab.subcube"]))
    assert got["numpy"] == "False"


# validate's two failures, at n = 4 and at n = 16: the overlap names the
# earlier part holding the lowest shared point (0***, not 1***, which
# comes first), and the gap counts the points the parts cover
def violations(n):
    outer, inner = ("1***", "0***", "*0**"), canonical_fmaj_partition()
    if n == 16:
        outer, inner = [t + "*" * 12 for t in outer], compose_partitions(inner, inner)
    overlap = LabeledPartition(n, tuple((subcube.Pattern(t), 0) for t in outer))
    gap = LabeledPartition(n, inner.entries[:-1])
    return overlap, gap


@pytest.mark.parametrize(
    "n, overlap, gap",
    [
        (4, "0*** and *0** share a point", "parts cover 14 of 16 points"),
        (
            16,
            "0*************** and *0************** share a point",
            "parts cover 65408 of 65536 points",
        ),
    ],
)
def test_validate_violations_read_the_same_at_both_sizes(tmp_path, capsys, n, overlap, gap):
    table = tmp_path / "f.tt"
    table.write_text(table_to_text(fmaj() if n == 4 else iterated_table(2)))
    for part, error, detail in zip(violations(n), ("overlap", "gap"), (overlap, gap)):
        report = subcube.validate(part)
        assert (report.ok, report.error, report.detail) == (False, error, detail)
        path = tmp_path / f"{error}.part"
        path.write_text(partition_to_text(part))
        code, out = run(capsys, "partition", "check", "--part", str(path), "--table", str(table))
        assert code == 1
        assert f"valid: FAIL\nviolation: not a partition ({error}: {detail})\n" in out


def test_every_emit_name_has_a_maker(tmp_path, capsys):
    # the parser's --name choices are listed apart from their makers,
    # which load only when a file is written
    emitted = {}
    for command, (suffix, names) in cli._FIXTURES.items():
        assert sorted(cli._fixture_makers(command)[2]) == sorted(names)
        for name in names:
            out = tmp_path / (name + suffix)
            code, _ = run(capsys, command, "emit", "--name", name, "--out", str(out))
            assert code == 0
            emitted[name] = sha256(out)
    assert emitted == EMITTED


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
    assert failing == ["k-1-1-at-least-3"]
    assert code == 1
    # the failing verdict prints the values it judges
    assert got["k-1-1"] == "53/20"
    # the exhaustive search's node count certifies no-cost-2-partition
    keys = list(got)
    assert got["cost-2-search-nodes"] == "4"
    assert keys.index("cost-2-search-nodes") + 1 == keys.index("no-cost-2-partition")


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
    assert digest(rest) == "6d3278e2bafb04fecfdfa734939158742c0077b1bd4194ee8fa89cd2f54f075d"


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
    pytest.param(harddist, "_DIS_PICK", 0b1000, (1, 0), "minority-frequencies", id="dissent"),
]


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("module, name, index, value, verdict", TABLE_FAULTS)
def test_verify_judges_each_table_whole(
    capsys, monkeypatch, module, name, index, value, verdict, height
):
    # one trial reads almost none of these tables, so each verdict must
    # judge its table on every entry to fail on a single wrong one; at
    # height 1 criterion 7's floor on K(1,1) fails beside it
    if height == 2:
        stub_depth_sweep(monkeypatch)
    table = getattr(module, name)
    wrong = table.copy() if isinstance(table, np.ndarray) else list(table)
    assert wrong[index] != value
    wrong[index] = value
    monkeypatch.setattr(module, name, wrong if isinstance(table, np.ndarray) else tuple(wrong))
    code, out = run(capsys, "verify", "separation", "--height", str(height), "--trials", "1")
    failing = [k for k, v in lines(out).items() if v == "FAIL"]
    assert failing == [verdict] + ["k-1-1-at-least-3"] * (height == 1)
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
        # eps takes ASCII digits, as a .dist mass does
        ["bound", "prt", "--table", "FMAJ", "--eps", "\u0661/\u0663"],
        # and so does every integer option and --alpha; int() and float()
        # would take these as 1, 10, 3, 2, 1 and 0.01
        ["fn", "iter", "--height", "\u0661", "--input", "0110"],
        ["simulate", "r0", "--height", "1", "--trials", "1_0", "--seed", "3"],
        ["simulate", "r0", "--height", "1", "--trials", "10", "--seed", "+3"],
        ["simulate", "embed", "--level", "\u0662", "--trials", "10"],
        ["verify", "separation", "--height", "\u0661", "--trials", "1"],
        ["simulate", "embed", "--level", "1", "--trials", "10", "--alpha", "\u0660.\u0660\u0661"],
        # dist total's own height check, before any power of the height
        ["dist", "total", "--height", "3"],
        ["dist", "total", "--height", "1000000000"],
    ],
)
def test_exit_two_on_out_of_range_arguments(capsys, tmp_path, argv):
    table = tmp_path / "fmaj.tt"
    table.write_text(table_to_text(fmaj()))
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
    table.write_text(table_to_text(fmaj()))
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
    "kind, text",
    [
        ("table", "n=0_1\n2\n"),
        ("table", "n=+1\n2\n"),
        ("table", "n=\u0661\n2\n"),
        ("distribution", "0 \u0661/\u0662\n1 1/2\n"),
        ("distribution", "0 1/2\n1 1/\u0662\n"),
        ("distribution", "0 \uff11/2\n1 1/2\n"),
    ],
    ids=["underscore", "plus", "arabic-indic", "dist-numerator", "dist-denominator", "fullwidth"],
)
def test_loaders_read_ascii_digits_only(capsys, tmp_path, kind, text):
    # int() and \d also read underscores, signs and every Unicode decimal
    # digit; a .tt header and a .dist mass take ASCII digits alone, as the
    # writers emit them, so each file is refused whole (at n = 1 every
    # one would otherwise load as the identity or the uniform law)
    table, dist = tmp_path / "f.tt", tmp_path / "f.dist"
    table.write_text(table_to_text(iterated_table(0)))
    dist.write_text("0 1/2\n1 1/2\n")
    (table if kind == "table" else dist).write_text(text)
    argv = ["measure", "delta0", "--table", str(table), "--dist", str(dist)]
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load {kind} ")


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
    canon.write_text(partition_to_text(canonical))
    height2.write_text(partition_to_text(compose_partitions(canonical, canonical)))
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
    table.write_text(table_to_text(fmaj()))
    part = tmp_path / "c.part"
    part.write_text(partition_to_text(canonical_fmaj_partition()))
    paths = dict(table=table, part=part, gone=tmp_path / "missing" / "out")
    argv = [a.format(**paths) for a in argv]
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# characters int() reads in an integer and every integer option refuses
_NOT_ASCII_INT = "\u0661_+"


def _integer_text(low, high):
    """An integer option's text: an integer in [low, high], as is or with
    one character of _NOT_ASCII_INT put in anywhere."""
    spliced = st.tuples(
        st.integers(low, high).map(str), st.sampled_from(_NOT_ASCII_INT), st.integers(0, 3)
    ).map(lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :])
    return st.one_of(st.integers(low, high).map(str), spliced)


_SEED = st.tuples(st.just("--seed"), _integer_text(-3, 2**31))
_CHEAP_ARGV = st.one_of(
    st.tuples(
        st.just(("fn", "iter")),
        st.tuples(st.just("--height"), _integer_text(-2, 2)),
        st.tuples(st.just("--input"), st.text("01x", min_size=1, max_size=16)),
    ),
    st.tuples(
        st.just(("dist", "mass")),
        st.tuples(st.just("--height"), _integer_text(-2, 2)),
        st.tuples(st.just("--input"), st.text("01", min_size=1, max_size=16)),
    ),
    st.tuples(
        st.just(("simulate", "embed")),
        st.tuples(st.just("--level"), _integer_text(0, 3)),
        st.tuples(st.just("--trials"), _integer_text(-3, 40)),
        st.tuples(
            st.just("--alpha"),
            st.sampled_from(["0", "1e-3", "0.5", "1", "2", "-1", "nan", "x"]),
        ),
        _SEED,
    ),
    st.tuples(
        st.just(("simulate", "minority")),
        st.tuples(st.just("--trials"), _integer_text(-3, 40)),
        _SEED,
    ),
    st.tuples(
        st.just(("simulate", "r0")),
        st.tuples(st.just("--height"), _integer_text(-2, 2)),
        st.tuples(st.just("--trials"), _integer_text(-3, 40)),
        st.tuples(st.just("--threads"), _integer_text(-3, 3)),
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
    if any(set(word) & set(_NOT_ASCII_INT) for word in argv):
        assert code == 2
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
