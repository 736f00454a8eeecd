"""Layer spans for the traced run, recorded from outside qlab.

`install` rebinds the public functions listed in WRAPPED, in every qlab
module that binds them (a `from ... import` makes a second binding), to
wrappers that record one span per call: its layer, start, end, parent
span and command id.  Spans live in flat arrays until the run ends.  A
layer's self time is its span's duration minus the time its child spans
cover; `cli.self_s` is each command's wall time outside every top-level
span, so self times plus `cli.self_s` add up to the commands' wall time.
Counters come from arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

import reference

# (module, attribute, layer group); group None keeps counters only
WRAPPED = (
    ("boolfn", "fmaj", "boolfn.truth_table"),
    ("boolfn", "compose", "boolfn.truth_table"),
    ("boolfn", "IteratedMajority.truth_table", "boolfn.truth_table"),
    ("boolfn", "iter_eval", "boolfn.iter_eval"),
    ("subcube", "compose_partitions", "subcube.compose"),
    ("subcube", "validate", "subcube.validate"),
    ("subcube", "computes", "subcube.computes"),
    ("dtree", "exact_depth", "dtree.exact_depth"),
    ("lpbound", "build_prt_lp", "lpbound.build"),
    ("lpbound", "solve_exact", "lpbound.solve"),
    ("lpbound", "prt_report", None),
    ("harddist", "sample_inputs", "harddist.sample"),
    ("harddist", "dh_support", "harddist.support"),
    ("harddist", "minority_level1_counts", "harddist.minority"),
    ("harddist", "minority_marginals_exact", "harddist.minority"),
    ("randalg", "mc_mean_cost", "randalg.mc"),
    ("randalg", "recursive_exact_mean", "randalg.exact_ref"),
    ("randalg", "recursive_exact_cost", "randalg.exact_ref"),
    ("randalg", "embed_check", "randalg.embed"),
    ("randalg", "chi_square_gof", "randalg.chi2"),
)

PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("boolfn.truth_table_s", "s", "lower"),
    ("boolfn.iter_eval_calls", "count", "lower"),
    ("boolfn.iter_eval_s", "s", "lower"),
    ("subcube.compose_s", "s", "lower"),
    ("subcube.validate_s", "s", "lower"),
    ("subcube.validate_calls", "count", "lower"),
    ("subcube.validations_per_partition", "ratio", "lower"),
    ("subcube.pairs_per_s", "pairs/s", "higher"),
    ("subcube.computes_s", "s", "lower"),
    ("subcube.members_checked", "count", "lower"),
    ("dtree.exact_depth_s", "s", "lower"),
    ("dtree.lattice_states", "count", "lower"),
    ("dtree.states_per_s", "states/s", "higher"),
    ("dtree.peak_rss_mb", "MB", "lower"),
    ("lpbound.build_s", "s", "lower"),
    ("lpbound.solve_s", "s", "lower"),
    ("lpbound.pivots", "count", "lower"),
    ("lpbound.lp_vars", "count", "lower"),
    ("lpbound.lp_constraints", "count", "lower"),
    ("harddist.sample_s", "s", "lower"),
    ("harddist.sampled_inputs", "count", "lower"),
    ("harddist.support_s", "s", "lower"),
    ("harddist.support_points", "count", "lower"),
    ("harddist.minority_s", "s", "lower"),
    ("randalg.mc_s", "s", "lower"),
    ("randalg.mc_trials", "count", "higher"),
    ("randalg.mc_leaf_reads", "count", "higher"),
    ("randalg.mc_reads_per_s", "reads/s", "higher"),
    ("randalg.exact_ref_s", "s", "lower"),
    ("randalg.embed_s", "s", "lower"),
    ("randalg.chi2_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def load_qlab(src: str) -> dict:
    """Import qlab from the directory `src`; its modules by short name."""
    sys.path.insert(0, src)
    import qlab.cli
    from qlab import boolfn, cli, dtree, harddist, lpbound, randalg, subcube

    return {m.__name__.rsplit(".", 1)[-1]: m
            for m in (qlab, boolfn, cli, dtree, harddist, lpbound, randalg, subcube)}


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("H")
        self.main_thread = array("b")
        self.commands: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self.partitions: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()

    def group_id(self, name: str) -> int:
        if name not in self.groups:
            self.groups.append(name)
        return self.groups.index(name)

    def begin(self, gid: int) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            i = len(self.start)
            self.layer.append(gid)
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(len(self.commands))
            self.main_thread.append(threading.get_ident() == self._main)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._local.stack.pop()

    def command(self, run: Callable[[], object]) -> object:
        """Run one command as the next command id, recording its wall
        interval."""
        t0 = time.perf_counter()
        try:
            return run()
        finally:
            self.commands.append((t0, time.perf_counter()))

    def wrap(self, fn: Callable, group: Optional[str], after: Optional[Callable]) -> Callable:
        if group is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, args, result)
                return result

            return counted
        gid = self.group_id(group)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self.begin(gid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.finish(i)
                    self.counts[group + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            self.counts[group + ".calls"] += 1
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # counters taken from arguments and return values

    def _after_validate(self, args, result) -> None:
        if not result.ok:
            return
        k = len(args[0])
        self.counts["subcube.pairs"] += k * (k - 1) // 2
        self.partitions.add(args[0])

    def _after_computes(self, args, result) -> None:
        if result:
            self.counts["subcube.members"] += 1 << args[0].n

    def _after_compose(self, args, result) -> None:
        canonical = set(reference.CANONICAL_PARTITION)
        if any({(p.text, z) for p, z in part.entries} != canonical for part in args[:2]):
            return
        shape = (len(result), {p.fixed_count for p, _ in result.entries})
        want_parts, want_fixed = reference.composed_partition_shape()
        if shape != (want_parts, {want_fixed}):
            self.problems.append(f"composed partition shape {shape}")

    def _after_exact_depth(self, args, result) -> None:
        self.counts["dtree.states"] += 3 ** args[0].n
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.counts["dtree.rss_mb"] = max(self.counts["dtree.rss_mb"], rss)

    def _after_prt(self, args, result) -> None:
        self.counts["lpbound.pivots"] += result.pivots
        self.counts["lpbound.vars"] += result.num_vars
        self.counts["lpbound.constraints"] += result.num_constraints

    def _after_sample(self, args, result) -> None:
        self.counts["harddist.sampled"] += int(result.shape[0])

    def _after_mc(self, args, result) -> None:
        self.counts["randalg.trials"] += result.trials
        self.counts["randalg.reads"] += result.trials * result.mean

    HOOKS = {
        "validate": _after_validate,
        "computes": _after_computes,
        "compose_partitions": _after_compose,
        "exact_depth": _after_exact_depth,
        "prt_report": _after_prt,
        "sample_inputs": _after_sample,
        "mc_mean_cost": _after_mc,
    }

    def install(self, qlab_modules: dict) -> Callable[[], None]:
        """Wrap every entry of WRAPPED wherever qlab binds it; returns a
        function that puts the originals back.  A function qlab no longer
        has is skipped, and its layer reads zero."""
        undo = []
        for mod_name, attr, group in WRAPPED:
            owner = qlab_modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None)
                if original is None:
                    continue
                hook = self.HOOKS.get(meth)
                setattr(cls, meth, self.wrap(original, group, hook))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            hook = self.HOOKS.get(attr)
            wrapper = self.wrap(original, group, hook)
            for mod in qlab_modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        undo.append((mod, name, original))

        def restore() -> None:
            for target, name, original in reversed(undo):
                setattr(target, name, original)

        return restore

    # ------------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layer id, duration, self time) per span.  Parents and
        children always share a thread, so children never overlap."""
        layer = np.array(self.layer, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return layer, dur, dur - covered

    def accounting(self) -> tuple[list[float], list[float]]:
        """Per command: (wall, sum of span self times + cli self time),
        after checking that spans nest inside their parents and their
        command.  Problems found are added to `problems`."""
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        cmd = np.array(self.cmd, dtype=np.int64)
        main = np.array(self.main_thread, dtype=bool)
        _, dur, self_t = self.self_times()
        nested = parent >= 0
        p = parent[nested]
        if np.any(start[nested] < start[p]) or np.any(end[nested] > end[p]):
            self.problems.append("a span outlives its parent")
        walls, accounted = [], []
        for c, (t0, t1) in enumerate(self.commands):
            mine = (cmd == c) & main
            top = mine & ~nested
            if np.any(start[top] < t0) or np.any(end[top] > t1):
                self.problems.append(f"command {c}: a span outlives its command")
            order = np.argsort(start[top])
            s, e = start[top][order], end[top][order]
            if np.any(s[1:] < e[:-1]):
                self.problems.append(f"command {c}: top-level spans overlap")
            cli_self = (t1 - t0) - float(dur[top].sum())
            walls.append(t1 - t0)
            accounted.append(float(self_t[mine].sum()) + cli_self)
            if np.any(self_t[mine] < -1e-9) or cli_self < -1e-9:
                self.problems.append(f"command {c}: negative self time")
        return walls, accounted

    def layer_metrics(self, import_s: float, overhead_s: float) -> dict[str, float]:
        layer, dur, self_t = self.self_times()
        n = len(self.groups)
        self_by = np.bincount(layer, weights=self_t, minlength=n)
        dur_by = np.bincount(layer, weights=dur, minlength=n)

        def own(group: str) -> float:
            return float(self_by[self.groups.index(group)]) if group in self.groups else 0.0

        def inclusive(group: str) -> float:
            return float(dur_by[self.groups.index(group)]) if group in self.groups else 0.0

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        wall = sum(t1 - t0 for t0, t1 in self.commands)
        top = (np.array(self.parent) < 0) & np.array(self.main_thread, dtype=bool)
        validate_calls = c["subcube.validate.calls"]
        return {
            "cli.import_s": import_s,
            "cli.self_s": wall - float(dur[top].sum()),
            "boolfn.truth_table_s": own("boolfn.truth_table"),
            "boolfn.iter_eval_calls": c["boolfn.iter_eval.calls"],
            "boolfn.iter_eval_s": own("boolfn.iter_eval"),
            "subcube.compose_s": own("subcube.compose"),
            "subcube.validate_s": own("subcube.validate"),
            "subcube.validate_calls": validate_calls,
            "subcube.validations_per_partition": rate(validate_calls, len(self.partitions)),
            "subcube.pairs_per_s": rate(c["subcube.pairs"], own("subcube.validate")),
            "subcube.computes_s": own("subcube.computes"),
            "subcube.members_checked": c["subcube.members"],
            "dtree.exact_depth_s": own("dtree.exact_depth"),
            "dtree.lattice_states": c["dtree.states"],
            "dtree.states_per_s": rate(c["dtree.states"], own("dtree.exact_depth")),
            "dtree.peak_rss_mb": c["dtree.rss_mb"],
            "lpbound.build_s": own("lpbound.build"),
            "lpbound.solve_s": own("lpbound.solve"),
            "lpbound.pivots": c["lpbound.pivots"],
            "lpbound.lp_vars": c["lpbound.vars"],
            "lpbound.lp_constraints": c["lpbound.constraints"],
            "harddist.sample_s": own("harddist.sample"),
            "harddist.sampled_inputs": c["harddist.sampled"],
            "harddist.support_s": own("harddist.support"),
            "harddist.support_points": c["harddist.support.items"],
            "harddist.minority_s": own("harddist.minority"),
            "randalg.mc_s": own("randalg.mc"),
            "randalg.mc_trials": c["randalg.trials"],
            "randalg.mc_leaf_reads": float(c["randalg.reads"]),
            "randalg.mc_reads_per_s": rate(float(c["randalg.reads"]), inclusive("randalg.mc")),
            "randalg.exact_ref_s": own("randalg.exact_ref"),
            "randalg.embed_s": own("randalg.embed"),
            "randalg.chi2_s": own("randalg.chi2"),
            "trace.overhead_s": overhead_s,
        }

    def save(self, path: str) -> None:
        """Write every span out: layer names plus one row per span."""
        np.savez_compressed(
            path,
            groups=np.array(self.groups),
            layer=np.array(self.layer),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            command=np.array(self.cmd),
            commands=np.array(self.commands).reshape(-1, 2),
        )
