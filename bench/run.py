"""Benchmark of qlab's certify and Monte Carlo pipelines.

    python3 bench/run.py --workload {certify-h2,mc-deep,mc-shallow,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; qlab is imported from the
checkout's src/.  Each run first times the set-up command (`qlab
fixtures` into an empty directory, SETUP_REPS times), then runs whole
rounds of the workload's commands, one process at a time, until S
seconds have passed.  Every command's report is checked (see
workloads.py).  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, each the median over rounds.
--trace 1 runs one round in this process through qlab.cli.main, first
untraced and then with layer spans (spans.py), and reports the
per-layer metrics; the spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import workloads
from workloads import Command, judge, leaf_reads, parse_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
COMMAND_TIMEOUT_S = 170
IMPORT_PROBE = "import time; t = time.perf_counter(); import qlab.cli; print(time.perf_counter() - t)"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# wall time of some stages of a round, printed in the summary only: each
# exists on one workload, and the JSON line carries metrics every
# workload has
STAGES = {"certify_s": "certify", "lp_s": "lp", "audit_s": "audit"}
SUMMARY_UNITS = {**{name: "s" for name in STAGES}, "mc_reads_per_s": "reads/s"}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched = False
        self.notes: list[str] = []

    def record(self, cmd: Command, rc: object, out: str, err: str) -> dict[str, str]:
        self.attempted += 1
        errors, mismatches = judge(cmd, rc, out, err)
        if errors or mismatches:
            self.failed += 1
            self.mismatched |= bool(mismatches)
            self.notes.append(f"FAILED qlab {' '.join(cmd.args)}: {'; '.join(errors + mismatches)}")
            if errors:
                self.notes.append((err or out)[-2000:])
        return parse_report(out)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], workdir: str) -> tuple[int, str, str, float, float, float]:
    """Run one process to completion: (exit code, stdout, stderr, wall
    seconds, CPU seconds, peak RSS in MB).  A process still running after
    COMMAND_TIMEOUT_S is killed."""
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, out.read(), err.read(), wall, cpu, usage.ru_maxrss / 1024


def run_qlab(cmd: Command, workdir: str) -> tuple[int, str, str, float, float, float]:
    return spawn([sys.executable, "-m", "qlab.cli", *cmd.args], workdir)


def timed_setup(tally: Tally, workdir: str) -> tuple[float, str]:
    """Median wall time of SETUP_REPS fixture runs, and one directory
    they wrote."""
    walls = []
    for i in range(SETUP_REPS):
        cmd = workloads.setup_command(os.path.join(workdir, f"fixtures{i}"))
        rc, out, err, wall, _, _ = run_qlab(cmd, workdir)
        tally.record(cmd, rc, out, err)
        walls.append(wall)
    return statistics.median(walls), os.path.join(workdir, "fixtures0")


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> tuple[Tally, dict, list[str]]:
    tally = Tally()
    setup_s, fixtures = timed_setup(tally, workdir)
    rng = random.Random(f"{workload}:{seed}")
    rounds: list[dict[str, float]] = []
    log = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        stats = {"wall_s": 0.0, "peak_rss_mb": 0.0, "reads": 0.0, "reads_wall": 0.0}
        stats.update({name: 0.0 for name in STAGES})
        for cmd in workloads.round_commands(workload, rng, fixtures):
            rc, out, err, wall, cpu, rss = run_qlab(cmd, workdir)
            report = tally.record(cmd, rc, out, err)
            stats["wall_s"] += wall
            stats["peak_rss_mb"] = max(stats["peak_rss_mb"], rss)
            for name, stage in STAGES.items():
                stats[name] += wall if cmd.stage == stage else 0.0
            reads = leaf_reads(cmd, report)
            if reads:
                stats["reads"] += reads
                stats["reads_wall"] += wall
            log.append(f"  {wall:8.3f} s {cpu:8.3f} cpu-s {rss:7.1f} MB  qlab {' '.join(cmd.args)}")
        rounds.append(stats)
    metrics = {"setup_s": setup_s}
    for name in ("wall_s", "peak_rss_mb", *STAGES):
        if any(r[name] for r in rounds):
            metrics[name] = statistics.median(r[name] for r in rounds)
    if rounds[0]["reads_wall"]:
        metrics["mc_reads_per_s"] = statistics.median(r["reads"] / r["reads_wall"] for r in rounds)
    log.insert(0, f"rounds: {len(rounds)}")
    return tally, metrics, log


def import_seconds(workdir: str) -> float:
    """Median time to import qlab.cli in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        rc, out, err, _, _, _ = spawn([sys.executable, "-c", IMPORT_PROBE], workdir)
        if rc != 0:
            raise RuntimeError(f"importing qlab.cli failed: {err[-2000:]}")
        times.append(float(out))
    return statistics.median(times)


def run_inprocess(cli, cmd: Command) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd.args)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_traced(workload: str, seed: int, workdir: str) -> tuple[Tally, dict, list[str]]:
    import spans

    tally = Tally()
    import_s = import_seconds(workdir)
    modules = spans.load_qlab(SRC)
    cli = modules["cli"]
    rng = random.Random(f"{workload}:{seed}")
    cmds = [workloads.setup_command(os.path.join(workdir, "fixtures"))]
    cmds += workloads.round_commands(workload, rng, os.path.join(workdir, "fixtures"))

    # each command runs untraced and then traced, back to back, so both
    # see the same machine state; the difference is the tracing overhead
    untraced = 0.0
    tracer = spans.Tracer()
    for cmd in cmds:
        t0 = time.perf_counter()
        tally.record(cmd, *run_inprocess(cli, cmd))
        untraced += time.perf_counter() - t0
        restore = tracer.install(modules)
        try:
            tally.record(cmd, *tracer.command(lambda: run_inprocess(cli, cmd)))
        finally:
            restore()
    walls, accounted = tracer.accounting()
    for c, (w, a) in enumerate(zip(walls, accounted)):
        if abs(w - a) > 1e-6 * max(1.0, w):
            tracer.problems.append(f"command {c}: spans account for {a} s of {w} s")
    if tracer.problems:
        tally.mismatched = True
        tally.notes += [f"TRACE: {p}" for p in tracer.problems]
    metrics = tracer.layer_metrics(import_s * len(cmds), sum(walls) - untraced)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{workload}.npz"))
    log = [f"traced wall {sum(walls):.3f} s, untraced {untraced:.3f} s, spans {len(tracer.start)}"]
    log += [f"  {w:8.3f} s  qlab {' '.join(cmd.args)}" for w, cmd in zip(walls, cmds)]
    return tally, metrics, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qlab", "cli.py")):
        print(f"error: no qlab sources under {SRC}", file=sys.stderr)
        return 2

    import spans

    # a terminated run unwinds, so each `spawn` stops its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = {n: u for n, u, _ in spans.PER_LAYER} if args.trace else dict(END_TO_END)
    os.makedirs(OUT, exist_ok=True)
    total = Tally()
    metrics: dict[str, dict] = {}
    for name in names:
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        try:
            if args.trace:
                tally, values, log = run_traced(name, args.seed, workdir)
            else:
                tally, values, log = run_untraced(name, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"== {name} seed {args.seed}: attempted {tally.attempted} failed {tally.failed}")
        print("\n".join(log + tally.notes))
        for key, value in values.items():
            unit = units.get(key) or SUMMARY_UNITS[key]
            print(f"  {key}: {value:.6g} {unit}")
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.mismatched |= tally.mismatched
        for key, unit in units.items():
            label = key if len(names) == 1 else f"{name}/{key}"
            metrics[label] = {"value": values[key], "unit": unit}
    print(json.dumps({
        "correct": not total.mismatched,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
