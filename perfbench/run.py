"""Benchmark of the titeica command line: end-to-end and per-layer metrics.

Run from the repository root (the directory holding ``src/titeica`` and
``BENCHMARK.json``)::

    python3 perfbench/run.py --workload grid-scan --seed 1 --seconds 14 --trace 0

Each workload is a closed loop with one client: the next command starts
when the previous one has finished.  A run repeats whole rounds of the
workload's commands, in a seeded order.  The number of rounds follows
from ``--seconds`` and the workload's reference round time alone (see
:func:`round_count`), so the mix and the tail percentile do not depend on
the speed of the machine or of the code under test.
Every command's exit status and report are checked (see ``workloads.py``).
Times are scaled to a reference machine speed measured by a probe thread
(see :class:`SpeedProbe` and README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs two
traced rounds with a span around every layer boundary, the first paired
op by op with untraced runs, and prints the per-layer metrics.  The spans
are written to ``.perfbench-out/<workload>.spans.json.gz``; a summary of every
run goes to ``.perfbench-out/result-<workload>-trace<0|1>.json``.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"
SETUP_RUNS = 9
TAIL_BEYOND = 10
OP_TIMEOUT_S = 120
KERNEL_LOOPS = 10
KERNEL_REF_S = 0.00024  # kernel_s() on the reference machine when quiet (see README)
PROBE_PERIOD_S = 0.05
PROBE_MARGIN_NS = 100_000_000


class HarnessError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


# --------------------------------------------------------------------------
# Running one operation


class InProcess:
    """Calls ``titeica.cli.main(argv)`` in this interpreter."""

    def __init__(self):
        import titeica.cli

        self.cli = titeica.cli

    def execute(self, op, tracer=None, op_id=-1):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            if tracer is not None:
                tracer.op_id = op_id
                root = tracer.open(tr.ROOT, t0)
            code = self.cli.main(list(op.argv))
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.close(root, t1)
        return code, out.getvalue(), err.getvalue(), t0, t1


class Subprocess:
    """Runs ``python -m titeica.cli argv`` as a fresh process, or, traced,
    the bootstrap in ``child.py`` that wraps the layers first."""

    def __init__(self, src, workdir):
        self.env = {**os.environ, "PYTHONPATH": src}
        self.workdir = workdir

    def execute(self, op, tracer=None, op_id=-1):
        spans = os.path.join(self.workdir, f"spans-{op_id}.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "titeica.cli", *op.argv]
        else:
            cmd = [sys.executable, CHILD, spans, str(op_id), *op.argv]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        t1 = time.perf_counter_ns()
        if tracer is not None:
            try:
                with open(spans) as fh:
                    data = json.load(fh)
                os.unlink(spans)
            except (OSError, ValueError) as exc:
                raise HarnessError(f"traced child for {op.key} left no spans: {exc}; "
                                   f"stderr: {proc.stderr[-500:]}") from exc
            root = tracer.add(tr.ROOT, t0, t1, -1, op_id)
            first = min(span[1] for span in data["spans"])
            tracer.add("setup.interpreter", t0, first, root, op_id)
            tracer.merge(data, root, op_id)
        return proc.returncode, proc.stdout, proc.stderr, t0, t1


class _Cell:
    __slots__ = ("vec", "tag")

    def __init__(self, vec, tag):
        self.vec = vec
        self.tag = tag


_A = np.array([1.0, 2.0, 3.0])
_B = np.array([0.5, -1.0, 2.0])
_CROSS = np.cross  # bound before any tracing wrapper replaces numpy.cross


def kernel_s() -> float:
    """Best of two runs of a fixed kernel shaped like the package's
    per-point work (3-vectors, cross products, small objects and dicts)
    that calls nothing in the package."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter_ns()
        acc = 0.0
        for i in range(KERNEL_LOOPS):
            c = _CROSS(_A, _B)
            cell = _Cell(np.array([c[0] * 2.0, c[1], c[2]]), {"k": i})
            acc += float(cell.vec[0]) + cell.tag["k"]
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e9


class SpeedProbe:
    """A thread that times :func:`kernel_s` every ``PROBE_PERIOD_S`` while
    the benchmark runs: how fast the machine ran during any interval."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (perf_counter_ns, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self.samples.append((time.perf_counter_ns(), kernel_s()))
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append((time.perf_counter_ns(), kernel_s()))

    def scale(self, t0: int, t1: int) -> float:
        """Factor taking a time measured over [t0, t1] to the reference
        machine's speed: ``KERNEL_REF_S`` over the kernel's median time
        from just before t0 to just after t1."""
        samples = self.samples  # appended by the probe thread only
        lo = bisect.bisect_left(samples, t0 - PROBE_MARGIN_NS, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1 + PROBE_MARGIN_NS, key=lambda s: s[0])
        window = [k for _, k in samples[lo:hi]] or [samples[-1][1]]
        return KERNEL_REF_S / statistics.median(window)


class Session:
    """Runs operations, checks each against the oracle and keeps its time."""

    def __init__(self, runner, workdir, digests, speed):
        self.runner = runner
        self.speed = speed
        self.workdir = workdir
        self.digests = digests  # op key -> digest of its first output, shared by a run
        self.times: list[float] = []  # scaled to the reference machine speed
        self.raw_times: list[float] = []  # wall time as measured
        self.by_key: dict[str, list[float]] = {}  # op key -> its scaled times
        self.points = 0
        self.failed = 0
        self.problems: list[str] = []  # failures the oracle cannot explain
        self.defects: list[str] = []  # failures of the documented known defect
        self.outcomes: dict[int, tuple] = {}  # op id -> (op, outcome)
        self.scales: dict[int, float] = {}  # op id -> its speed_scale factor

    def run(self, op, tracer=None, op_id=-1):
        code, out, err, t0, t1 = self.runner.execute(op, tracer, op_id)
        ns = t1 - t0
        scale = self.speed.scale(t0, t1)
        report = out
        if op.output:
            try:
                with open(os.path.join(self.workdir, op.output)) as fh:
                    report = fh.read()
            except OSError:
                report = ""
        outcome = wl.check(op, code, out, err, report)
        digest = hashlib.sha256(f"{code}\0{out}\0{report}".encode()).hexdigest()
        if self.digests.setdefault(op.key, digest) != digest:
            outcome = dataclasses.replace(
                outcome, ok=False, known_defect=False,
                why=f"{op.key}: report bytes differ from an earlier run of the same command")
        self.raw_times.append(ns / 1e9)
        self.times.append(ns / 1e9 * scale)
        self.by_key.setdefault(op.key, []).append(ns / 1e9 * scale)
        self.points += op.points
        self.outcomes[op_id] = (op, outcome)
        self.scales[op_id] = scale
        if not outcome.ok:
            self.failed += 1
            (self.defects if outcome.known_defect else self.problems).append(outcome.why)
        return outcome

    @property
    def attempted(self) -> int:
        return len(self.times)

    def points_per_s(self) -> float:
        return self.points / sum(self.times)


def round_count(workload, seconds) -> int:
    """Rounds that fill ``seconds`` at the workload's reference round time,
    and at least enough for ``4 * TAIL_BEYOND`` operations, which puts the
    tail percentile at p72.5 or above."""
    return max(math.ceil(seconds / workload.round_s),
               math.ceil(4 * TAIL_BEYOND / len(workload.ops)))


def run_rounds(session, workload, rng, rounds, ids) -> None:
    """Whole rounds of the workload's commands, each in a seeded order."""
    for _ in range(rounds):
        order = list(workload.ops)
        rng.shuffle(order)
        for op in order:
            session.run(op, None, next(ids))


# --------------------------------------------------------------------------
# Set-up: fresh interpreters importing the package


def fresh_imports(src, workdir, traced, speed):
    """Median wall time of a fresh ``import titeica`` and, traced, the
    median of each set-up span (interpreter start, numpy, titeica)."""
    env = {**os.environ, "PYTHONPATH": src}
    plain = [sys.executable, "-c", "import titeica"]
    subprocess.run(plain, env=env, cwd=workdir, check=True, capture_output=True, timeout=OP_TIMEOUT_S)
    walls, parts = [], {}
    path = os.path.join(workdir, "spans-setup.json")
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, CHILD, path, "-1"] if traced else plain
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, env=env, cwd=workdir, check=True, capture_output=True, timeout=OP_TIMEOUT_S)
        t1 = time.perf_counter_ns()
        scale = speed.scale(t0, t1) / 1e9
        walls.append((t1 - t0) * scale)
        if traced:
            with open(path) as fh:
                spans = json.load(fh)["spans"]
            first = min(s[1] for s in spans)
            parts.setdefault("setup.interpreter", []).append((first - t0) * scale)
            for name, start, end, *_ in spans:
                parts.setdefault(name, []).append((end - start) * scale)
    return statistics.median(walls), {k: statistics.median(v) for k, v in parts.items()}


# --------------------------------------------------------------------------
# Metrics


def end_to_end(session, setup_s, peak_rss_mb):
    times = sorted(session.times)
    n = len(times)
    if n <= TAIL_BEYOND:
        raise HarnessError(f"{n} operations: the tail needs more than {TAIL_BEYOND}")
    tail_index = n - TAIL_BEYOND - 1
    # Throughput of one round, each command at its median time, so that a
    # burst of contention on one repeat does not carry into the rate.
    points = {op.key: op.points for op, _ in session.outcomes.values()}
    round_s = sum(statistics.median(v) for v in session.by_key.values())
    round_points = sum(points[k] for k in session.by_key)
    raw = statistics.median(session.raw_times)
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[tail_index],
        "points_per_s": round_points / round_s,
        "ops_per_s": len(session.by_key) / round_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters importing titeica",
        "op_p50_s": f"{n} samples; unscaled wall-clock median {raw:.6g} s",
        "op_tail_s": f"p{100.0 * (tail_index + 1) / n:.1f} of {n} samples, {TAIL_BEYOND} beyond it",
        "points_per_s": f"{round_points} grid points per round of {len(points)} commands, {round_s:.4g} s",
        "ops_per_s": f"{len(points)} commands per round of {round_s:.4g} s",
        "peak_rss_mb": "maximum resident set of the process(es) running the operations",
    }
    return values, notes


def self_times(tracer):
    """{op id: {span name: [self ns, calls]}}; self time is a span's
    duration minus the durations of its child spans."""
    n = len(tracer)
    child = [0] * n
    start, end, parent = tracer.start, tracer.end, tracer.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    table: dict[int, dict[str, list]] = {}
    names, name, op = tracer.names, tracer.name, tracer.op
    for i in range(n):
        rec = table.setdefault(op[i], {}).setdefault(names[name[i]], [0, 0])
        rec[0] += end[i] - start[i] - child[i]
        rec[1] += 1
    return table


# metric -> span names whose self time it sums, per grid point
US_PER_POINT = {
    "surfaces.eval_us_per_pt": ("surfaces.eval",),
    "invariants.point_us_per_pt": ("invariants.point",),
    "centroaffine.verify_self_us_per_pt": ("centroaffine.verify",),
    "centroaffine.mapped_eval_us_per_pt": ("centroaffine.mapped_eval",),
    "metrics.pullback_us_per_pt": ("metrics.pullback",),
    "metrics.values_us_per_pt": ("metrics.values",),
    "metrics.agree_self_us_per_pt": ("metrics.agree",),
    "cli.scan_self_us_per_pt": ("cli.scan",),
    "cli.verdict_us_per_pt": ("cli.verdict",),
    "cli.render_us_per_pt": ("cli.render",),
    "cli.dispatch_self_us_per_pt": ("cli.run", "cli.handler"),
}
US_PER_CALL = {
    "invariants.ratio_us_per_call": "invariants.ratio",
    "invariants.volumes_us_per_call": "invariants.volumes",
}
MS_PER_OP = {"cli.parse_ms": "cli.parse", "cli.write_ms": "cli.write"}
SETUP_S = ("setup.interpreter", "setup.numpy_import", "setup.titeica_import")
# Spans whose self time some per-layer metric reports; the rest of an op's
# time (the op span's own, the child bootstrap, installing the wrappers) is
# not attributed to a layer.
ATTRIBUTED = frozenset(n for names in US_PER_POINT.values() for n in names) \
    | frozenset(US_PER_CALL.values()) | frozenset(MS_PER_OP.values()) | frozenset(SETUP_S)


def count_totals(table, outcomes, ids):
    """Work counts over the given ops; two traced rounds must agree exactly."""
    totals = dict.fromkeys(("eval_calls", "eval_points", "cross", "cross_evaluated",
                            "report_bytes", "writes", "evaluated", "attempted"), 0)
    for i in ids:
        spans, counts = table.get(i, {}), outcomes[i][2]
        op, outcome = outcomes[i][0], outcomes[i][1]
        evals = sum(spans.get(n, (0, 0))[1] for n in ("surfaces.eval", "centroaffine.mapped_eval"))
        if evals:
            totals["eval_calls"] += evals
            totals["eval_points"] += op.points
        if counts.get(tr.CROSS):
            totals["cross"] += counts[tr.CROSS]
            totals["cross_evaluated"] += outcome.evaluated or 0
        if "cli.write" in spans:
            totals["report_bytes"] += counts.get(tr.REPORT_BYTES, 0)
            totals["writes"] += 1
        if outcome.attempted is not None:
            totals["evaluated"] += outcome.evaluated
            totals["attempted"] += outcome.attempted
    return totals


def per_layer(table, outcomes, work_ids, probe_ids, setup_parts):
    """Per-layer values and notes from a :func:`self_times` table.  A layer
    the workload's ops never reach is measured on the probe ops instead,
    and the note says so."""
    values, notes = {}, {}

    def ops_with(names):
        for ids, source in ((work_ids, "workload"), (probe_ids, "probe ops")):
            hit = [i for i in ids if any(n in table.get(i, {}) for n in names)]
            if hit:
                return hit, source
        return [], "not reached"

    def self_ns(ids, names):  # scaled like the end-to-end times
        return sum(table[i][n][0] * outcomes[i][3] for i in ids for n in names if n in table[i])

    for metric, names in US_PER_POINT.items():
        ids, source = ops_with(names)
        ids = [i for i in ids if outcomes[i][0].points > 0]
        points = sum(outcomes[i][0].points for i in ids)
        values[metric] = self_ns(ids, names) / 1e3 / points if points else 0.0
        notes[metric] = f"{source}: {len(ids)} ops, {points} points"
    for metric, name in US_PER_CALL.items():
        ids, source = ops_with((name,))
        calls = sum(table[i][name][1] for i in ids)
        values[metric] = self_ns(ids, (name,)) / 1e3 / calls if calls else 0.0
        notes[metric] = f"{source}: {calls} calls"
    for metric, name in MS_PER_OP.items():
        ids, source = ops_with((name,))
        values[metric] = self_ns(ids, (name,)) / 1e6 / len(ids) if ids else 0.0
        notes[metric] = f"{source}: {len(ids)} ops"
    for name in SETUP_S:
        values[f"{name}_s"] = setup_parts.get(name, 0.0)
        notes[f"{name}_s"] = f"median of {SETUP_RUNS} fresh traced interpreters"

    totals = count_totals(table, outcomes, work_ids)
    values["surfaces.eval_calls_per_pt"] = totals["eval_calls"] / max(1, totals["eval_points"])
    values["invariants.cross_per_pt"] = totals["cross"] / max(1, totals["cross_evaluated"])
    values["invariants.evaluated_frac"] = totals["evaluated"] / max(1, totals["attempted"])
    values["cli.report_bytes"] = totals["report_bytes"] / max(1, totals["writes"])
    notes["surfaces.eval_calls_per_pt"] = f"{totals['eval_calls']} calls / {totals['eval_points']} points"
    notes["invariants.cross_per_pt"] = f"{totals['cross']} np.cross / {totals['cross_evaluated']} evaluated points"
    notes["invariants.evaluated_frac"] = f"{totals['evaluated']} / {totals['attempted']} points"
    notes["cli.report_bytes"] = f"mean over {totals['writes']} reports"

    op_ns = sum(r[0] for i in work_ids for r in table[i].values())
    layer_ns = sum(r[0] for i in work_ids for n, r in table[i].items() if n in ATTRIBUTED)
    values["trace.attributed_frac"] = layer_ns / op_ns
    notes["trace.attributed_frac"] = ("self time of the spans the per-layer metrics report / traced op "
                                      "wall time; the rest is harness and interpreter exit")
    return values, notes


# --------------------------------------------------------------------------
# The run


def self_test(new_session):
    """The oracle must pass the probe ops and count an injected wrong
    expectation as a failed operation."""
    session = new_session(InProcess())
    probes = wl.probe_ops()
    for op in probes:
        session.run(op)
    good = probes[0]
    bad = dataclasses.replace(good, key=good.key + ":injected",
                              expect={**good.expect, "titeica": not good.expect["titeica"]})
    session.run(bad)
    frac = session.failed / session.attempted
    if session.failed != 1 or not session.problems[0].startswith(bad.key) or frac <= 0.0:
        raise HarnessError(f"self-test: failed_ops_frac {frac} with problems {session.problems}")


def load_spec(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    return spec


def measure_end_to_end(args, workload, runner, rng, ids, setup_s, new_session):
    session = new_session(runner)
    rounds = round_count(workload, args.seconds)
    run_rounds(session, workload, rng, rounds, ids)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values, notes = end_to_end(session, setup_s, resource.getrusage(usage).ru_maxrss / 1024.0)
    medians = {k: statistics.median(v) for k, v in sorted(session.by_key.items())}
    return [session], [], values, notes, {"rounds": rounds, "command_median_s": medians}


def measure_layers(args, workload, runner, rng, ids, setup_parts, new_session, outdir):
    """Two traced rounds and the probe ops.  In the first round every op
    also runs untraced right beside its traced run, in alternating order,
    so that the tracing overhead compares like with like in time."""
    tracer = tr.Tracer()
    reference = new_session(runner)
    passes = [new_session(runner) for _ in range(2)]
    missing: list = []

    def traced(session, op):
        restore, missing[:] = tr.install(tracer)
        try:
            session.run(op, tracer, next(ids))
        finally:
            restore()

    for n, session in enumerate(passes):
        order = list(workload.ops)
        rng.shuffle(order)
        for k, op in enumerate(order):
            if n == 0 and k % 2 == 0:
                reference.run(op, None, next(ids))
            traced(session, op)
            if n == 0 and k % 2 == 1:
                reference.run(op, None, next(ids))
    probe = new_session(InProcess())
    for op in wl.probe_ops():
        traced(probe, op)
    probe_ids = list(probe.outcomes)

    outcomes = {i: (op, outcome, tracer.counts.get(i, {}), s.scales[i])
                for s in (*passes, probe) for i, (op, outcome) in s.outcomes.items()}
    work_ids = [i for s in passes for i in s.outcomes]
    table = self_times(tracer)
    values, notes = per_layer(table, outcomes, work_ids, probe_ids, setup_parts)
    repeat = [count_totals(table, outcomes, list(s.outcomes)) for s in passes]
    if repeat[0] != repeat[1]:
        probe.problems.append(f"counts differ between the two traced rounds: {repeat}")
    values["trace.overhead_frac"] = reference.points_per_s() / passes[0].points_per_s() - 1.0
    notes["trace.overhead_frac"] = "untraced / traced points_per_s - 1, same ops side by side"
    tracer.dump(os.path.join(outdir, f"{args.workload}.spans.json.gz"))
    extra = {"rounds": 2, "missing_hooks": missing, "count_totals": repeat[0], "spans": len(tracer)}
    return [reference, *passes], [probe], values, notes, extra


def run(args):
    """Measure one workload; returns the result line and a full summary."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "titeica", "__init__.py")):
        raise HarnessError(f"no titeica package under {src}; run from the repository root")
    spec = load_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise HarnessError(f"unknown workload {args.workload!r}")
    sys.path.insert(0, src)

    # One CPU for the harness, its children and the speed probe, so that
    # the probe sees the same contention as the operations.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    load_before = os.getloadavg()
    workdir = os.path.join(root, WORK_DIR, args.workload)
    outdir = os.path.join(root, OUT_DIR)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    os.chdir(workdir)  # in-process reports name their output relative to it
    try:
        speed = SpeedProbe()
        rng = random.Random(args.seed)
        workload = wl.WORKLOADS[args.workload](rng)
        for name, text in workload.files.items():
            with open(name, "w") as fh:
                fh.write(text)
        digests: dict = {}

        def new_session(runner):
            return Session(runner, workdir, digests, speed)

        runner = InProcess() if workload.in_process else Subprocess(src, workdir)
        ids = itertools.count()
        with speed:
            self_test(new_session)
            setup_s, setup_parts = fresh_imports(src, workdir, bool(args.trace), speed)
            if args.trace:
                kind = "per_layer"
                sessions, checks, values, notes, extra = measure_layers(
                    args, workload, runner, rng, ids, setup_parts, new_session, outdir)
            else:
                kind = "end_to_end"
                sessions, checks, values, notes, extra = measure_end_to_end(
                    args, workload, runner, rng, ids, setup_s, new_session)
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    values["failed_ops_frac"] = failed / attempted
    notes["failed_ops_frac"] = f"{failed} of {attempted} operations"
    problems = [p for s in sessions + checks for p in s.problems]
    defects = sorted({d for s in sessions for d in s.defects})

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec[kind]]
    if set(wanted) - set(values) or set(values) - set(units):
        raise HarnessError(f"metric names differ from BENCHMARK.json: missing "
                           f"{sorted(set(wanted) - set(values))}, unknown {sorted(set(values) - set(units))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": len(cpus), "pinned_cpu": min(cpus),
                "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "values": {n: {"value": v, "unit": units[n], "note": notes[n]} for n, v in values.items()},
        "problems": problems, "known_defects": defects, **extra,
    }
    with open(os.path.join(outdir, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return result, summary


def print_summary(summary):
    env = summary["env"]
    print(f"perfbench {summary['workload']} seed={summary['seed']} trace={summary['trace']} "
          f"seconds={summary['seconds']} rounds={summary['rounds']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"loadavg before {' '.join(f'{x:.2f}' for x in env['loadavg_before'])}, "
          f"after {' '.join(f'{x:.2f}' for x in env['loadavg_after'])}")
    for name, v in summary["values"].items():
        print(f"  {name:38s} {v['value']:>14.6g} {v['unit']:6s} {v['note']}")
    for why in summary["known_defects"]:
        print(f"known defect: {why}")
    for why in summary["problems"]:
        print(f"PROBLEM: {why}")
    for hook in summary.get("missing_hooks", []):
        print(f"missing hook: {hook}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary = run(args)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_summary(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
