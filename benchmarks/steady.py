"""Steadiness and smoke modes: each run is a separate process.

Steadiness runs every workload RUNS times, one seed per round, in
alternating workload order, and prints each end-to-end metric's median,
quartiles and quartile spread (as a share of the median) next to its
bound.  A spread under a third of the bound is marked ``steady``; a spread
over the bound is ``WIDE`` and fails the mode.  The per-run results are
also written to ``benchmarks/out/``.

Smoke runs one short pass of each workload, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit
and that no job failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result line, or raises RuntimeError."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(args, bench: dict) -> int:
    ok = True
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            try:
                result = run_once(w["name"], 1, 0.1, trace)
            except RuntimeError as exc:
                print(f"FAIL {w['name']} trace {trace}: {exc}")
                ok = False
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"metrics missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"error_rate {result['failed']}/{result['attempted']}")
            ok &= not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {w['name']} trace {trace}: "
                  f"{len(got)} metrics, {result['failed']} of {result['attempted']} "
                  f"jobs failed {'; '.join(problems)}")
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median), quartiles by statistics.quantiles(n=4)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args, bench: dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {n: {m: [] for m in bounds} for n in names}
    jobs = {n: [0, 0] for n in names}  # failed, attempted
    failures = 0
    for r in range(RUNS):
        seed = 1 + r
        for name in (names if r % 2 == 0 else names[::-1]):
            t0 = time.perf_counter()
            try:
                result = run_once(name, seed, args.seconds, 0)
            except RuntimeError as exc:
                print(f"run failed: {exc}")
                failures += 1
                continue
            failures += result["failed"] > 0
            jobs[name][0] += result["failed"]
            jobs[name][1] += result["attempted"]
            for m in bounds:
                values[name][m].append(result["metrics"][m]["value"])
            print(f"run {r + 1}/{RUNS} {name} seed {seed}: "
                  f"{time.perf_counter() - t0:.1f} s wall, "
                  + ", ".join(f"{m} {result['metrics'][m]['value']:.4g}" for m in bounds)
                  + f", error_rate {result['failed'] / result['attempted']:.4g}", flush=True)

    wide = 0
    print(f"\n{'workload':12s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name in names:
        for m, bound in bounds.items():
            if len(values[name][m]) < 2:
                continue
            med, q1, q3, sp = spread(values[name][m])
            verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "WIDE"
            wide += sp > bound
            print(f"{name:12s} {m:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {sp:7.3f} "
                  f"{bound:6.3f} {verdict}")
        failed, attempted = jobs[name]
        if attempted:
            print(f"{name:12s} {'error_rate':12s} {failed / attempted:11.5g}  "
                  f"({failed} of {attempted} jobs failed over all runs)")
    out = BENCH_DIR / "out" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": RUNS, "seconds": args.seconds,
                               "values": values, "jobs_failed_attempted": jobs}, indent=1))
    print(f"values written to {out.relative_to(ROOT)}")
    return 1 if failures or wide else 0


def main(args, bench: dict) -> int:
    return smoke(args, bench) if args.smoke else steadiness(args, bench)
