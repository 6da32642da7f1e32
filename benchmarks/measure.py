"""One run of one workload: set-up, timed passes, report."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import speed as speed_mod
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-ups per run: one before the first pass and the rest spread between
# passes; setup_s is their median.
SETUP_REPEATS = 11
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# Wall seconds per untraced pass on the 2-core x86-64 machine the benchmark
# was defined on, in its slow state (see speed.py); a run makes
# round(seconds / nominal) passes, so every commit does the same work.  It
# stops early only when the next pass would end after TIME_GUARD times the
# run length, which keeps a very slow machine (or commit) within the time
# the runs are given.
NOMINAL_PASS_S = {"cohomology": 3.6, "heat": 2.0, "symbolic": 3.5, "interactive": 1.9}
TIME_GUARD = 1.3
# Shares of each workload's time that slow like the Python and the LAPACK
# kernel of speed.py when the host slows.  Chosen on the defining machine
# as the shares under which the per-job times of a 50-75 s run varied least
# across its speed states.
SPEED_SHARES = {"cohomology": (0.25, 0.25), "heat": (0.0, 0.75),
                "symbolic": (1.0, 0.0), "interactive": (0.55, 0.2)}
# A traced run alternates at most this many untraced/traced pass pairs; the
# per-layer medians need few passes and the span file grows with each one.
TRACE_PAIRS_MAX = 4
MAX_FAILURE_LINES = 20


# -- environment block -------------------------------------------------------------

def _openblas_threads() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
    }


# -- running jobs ------------------------------------------------------------------

class Runner:
    """Runs passes over a job list and checks every output."""

    def __init__(self, jobs, reference: dict):
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run_pass(self, trace=None, speed=None):
        """One pass, traced when a Tracer is given; outputs are checked after
        the tracer is removed.  Returns (pass seconds, job latencies in ms,
        outputs).  With a Speed the pass is calibrated between jobs and the
        times are in reference seconds (see speed.py)."""
        rec = trace.rec if trace is not None else None
        results, points, segment = [], [], []

        def mark():
            t0 = perf_counter()
            factor = speed.sample() if speed is not None else 1.0
            points.append((t0, perf_counter(), factor))
        if trace is not None:
            trace.install()
        try:
            mark()
            for i, job in enumerate(self.jobs):
                if speed is not None and perf_counter() - points[-1][1] > speed_mod.INTERVAL_S:
                    mark()
                segment.append(len(points) - 1)
                if rec is not None:
                    rec.job = i
                    span = rec.open("job")
                t0 = perf_counter()
                try:
                    out, err = job.run(), None
                except Exception:  # a failing job is counted, the run goes on
                    out, err = None, traceback.format_exc()
                t1 = perf_counter()
                if rec is not None:
                    rec.close(span)
                results.append((out, err, t1 - t0))
            mark()
        finally:
            if trace is not None:
                trace.uninstall()
        # the stretch between two calibration points runs at their mean factor
        scales = [0.5 * (a[2] + b[2]) for a, b in zip(points, points[1:])]
        wall = sum((b[0] - a[1]) * f for a, b, f in zip(points, points[1:], scales))
        for job, (out, err, _) in zip(self.jobs, results):
            self._check(job, out, err)
        return (wall, [1000.0 * r[2] * scales[k] for r, k in zip(results, segment)],
                [r[0] for r in results])

    def _check(self, job, out, err) -> None:
        self.attempted += 1
        if err is not None:
            problems = [err]
        else:
            try:
                problems = self._problems(job, out)
            except Exception:  # a check that cannot parse the output fails the job
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            if self.failed <= MAX_FAILURE_LINES:
                print(f"FAILED {job.key}: {problems[0].strip()}", file=sys.stderr)

    def _problems(self, job, out) -> list:
        if isinstance(out, workloads.CliResult) and out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()[-300:]}"]
        problems = []
        if job.frozen is not None:
            want = self.reference.get(job.key)
            if want is None:
                problems.append("no frozen reference for this job")
            elif not workloads.frozen_matches(job.frozen(out), want):
                problems.append("output differs from the frozen reference")
        return problems + job.check(out)


def timed_setup(name: str, seed: int, workdir: Path, speed):
    """Import ncdiff afresh and build the inputs; returns (reference seconds,
    mods, jobs).  Jobs built by an earlier set-up keep working: they hold
    their own module objects.
    """
    for mod in [m for m in sys.modules if m == "ncdiff" or m.startswith("ncdiff.")]:
        del sys.modules[mod]
    gc.collect()
    seconds, (mods, jobs) = speed.timed(lambda: workloads.build(name, seed, workdir))
    return seconds, mods, jobs


# -- statistics --------------------------------------------------------------------

def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it.  When that percentile would not exceed
    the median (fewer than 2 * TAIL_BEYOND + 1 samples) it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- the two kinds of run ----------------------------------------------------------

def untraced_run(runner: Runner, passes: int, seconds: float, start: float,
                 setup_times: list, setup, speed):
    """Timed passes with SETUP_REPEATS - 1 more set-ups spread between them.

    ``start`` is when the run began and ``setup_times`` holds the first
    set-up.  Every time is in reference seconds (see speed.py).  pass_s is
    the median pass; the latency percentiles pool every job sample of every
    pass.
    """
    pass_times, latencies = [], []
    extra = SETUP_REPEATS - 1
    for i in range(passes):
        if pass_times and perf_counter() - start + last_wall > TIME_GUARD * seconds:
            break
        for _ in range((i + 1) * extra // passes - i * extra // passes):
            setup()
        gc.collect()
        t0 = perf_counter()
        wall, lat, _ = runner.run_pass(speed=speed)
        last_wall = perf_counter() - t0
        pass_times.append(wall)
        latencies += lat
    tail_ms, tail_pct, beyond = tail(latencies)
    q1, q3 = quartiles(pass_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "pass_s": (statistics.median(pass_times), "s",
                   f"median of {len(pass_times)} passes, q1 {q1:.4f}, q3 {q3:.4f}"),
        "job_ms.p50": (statistics.median(latencies), "ms",
                       f"median of {len(latencies)} job samples"),
        "job_ms.tail": (tail_ms, "ms",
                        f"p{tail_pct:.1f} of {len(latencies)} job samples, {beyond} beyond"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "high-water RSS of this process"),
    }
    return metrics, [f"  host speed: {speed.summary()}; wall {perf_counter() - start:.1f} s"]


def traced_run(runner: Runner, passes: int, mods, args):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    rec = tracer.SpanRecorder()
    trace = tracer.Tracer(rec, mods)
    plain, traced, per_pass = [], [], []
    for i in range(max(1, min(TRACE_PAIRS_MAX, passes // 2))):
        if plain and sum(plain) + sum(traced) + 2 * plain[-1] > TIME_GUARD * args.seconds:
            break
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            if not traced_turn:
                plain.append(runner.run_pass()[0])
                continue
            first = len(rec.spans)
            rec.counters.clear()
            wall, _, outputs = runner.run_pass(trace)
            traced.append(wall)
            rec.counters["cli.stdout_bytes"] += sum(
                len(o.stdout.encode()) for o in outputs if isinstance(o, workloads.CliResult))
            per_pass.append((rec.self_times(first), rec.calls(first), Counter(rec.counters),
                             wall))

    metrics = {}
    for name, unit, fn in tracer.LAYER_METRICS:
        metrics[name] = (statistics.median(fn(S, C, K) for S, C, K, _ in per_pass), unit, "")
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    metrics["trace.pass_s"] = (traced_s, "s", f"median of {len(traced)} traced passes")
    metrics["trace.untraced_pass_s"] = (plain_s, "s",
                                        f"median of {len(plain)} untraced passes")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s", "traced minus untraced pass_s")
    _write_spans(rec, runner, args)
    return metrics, _self_time_table(per_pass)


def _self_time_table(per_pass) -> list:
    """Lines: median self seconds per span name and its share of the traced pass."""
    names = sorted({n for S, _, _, _ in per_pass for n in S})
    rows = []
    for name in names:
        self_s = statistics.median(S[name] for S, _, _, _ in per_pass)
        calls = statistics.median(C[name] for _, C, _, _ in per_pass)
        rows.append((self_s, name, calls))
    wall = statistics.median(w for _, _, _, w in per_pass)
    lines = [f"  {'span':40s} {'self_s':>10s} {'share':>7s} {'calls':>9s}"]
    for self_s, name, calls in sorted(rows, reverse=True):
        lines.append(f"  {name:40s} {self_s:10.4f} {self_s / wall:7.1%} {calls:9.0f}")
    covered = sum(r[0] for r in rows)
    lines.append(f"  {'sum of self times / traced pass_s':40s} {covered:10.4f} "
                 f"{covered / wall:7.1%}")
    return lines


def _write_spans(rec, runner, args) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"span_fields": ["name", "start_s", "end_s", "parent", "job"],
                   "jobs": [job.key for job in runner.jobs],
                   "spans": rec.spans, "work": rec.work}, fh)
    print(f"spans: {len(rec.spans)} written to {path.relative_to(ROOT)}")


# -- entry -------------------------------------------------------------------------

def run(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    speed = speed_mod.Speed(*SPEED_SHARES[args.workload])
    setup_speed = speed_mod.Speed(1.0, 0.0)  # imports and element building are Python
    setup_times = []

    def setup():
        seconds, mods, jobs = timed_setup(args.workload, args.seed,
                                          workdir / f"setup{len(setup_times)}", setup_speed)
        setup_times.append(seconds)
        return mods, jobs
    try:
        start = perf_counter()
        mods, jobs = setup()
        runner = Runner(jobs, workloads.load_reference())
        if args.trace:
            metrics, table = traced_run(runner, passes, mods, args)
        else:
            metrics, table = untraced_run(runner, passes, args.seconds, start, setup_times,
                                          setup, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    print(f"ncdiff benchmark: workload {args.workload}, seed {args.seed}, "
          f"{passes} passes of {len(jobs)} jobs, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit:6s} {note}")
    error_rate = runner.failed / runner.attempted
    print(f"  {'error_rate':46s} {error_rate:14.6g} {'ratio':6s} "
          f"{runner.failed} of {runner.attempted} jobs failed")
    for line in table or []:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0
