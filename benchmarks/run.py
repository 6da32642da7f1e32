"""Benchmark of the ncdiff workbench.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --steadiness
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout: it imports ``ncdiff`` from ``src/``
and refuses to run without it.  Workloads are listed in BENCHMARK.json and
defined in ``workloads.py``.

One run builds the workload's inputs (timed, several times over, as
``setup_s``), then makes a fixed number of timed passes over the workload's
job list; the outputs of the first pass get the expensive checks, later
passes must reproduce them.  The pass count is ``--seconds`` divided by the
workload's nominal pass time at the commit that defined the benchmark, so
every commit does the same work and the latency percentiles stay
comparable.  The passes are calibrated against the host's shifting speed
and timed in reference seconds (see ``speed.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the spans (see ``tracer.py``), plus the tracing
overhead, all in plain wall seconds (the traced passes are not
calibrated); the spans are written to ``benchmarks/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, and the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads are fixed (and recorded): one thread instead of two makes the
# cohomology workload about 15 % slower, so the count must not drift.
BLAS_THREADS = 2


def _blas_threads() -> int:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(BLAS_THREADS, nproc))


def _pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    n = str(_blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _check_sources() -> None:
    if not (ROOT / "src" / "ncdiff" / "__init__.py").is_file():
        sys.exit(f"error: no ncdiff sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat every workload in alternating order and report spreads")
    ap.add_argument("--smoke", action="store_true",
                    help="one short run of each workload; check metric names and errors")
    args = ap.parse_args(argv)
    if not (args.steadiness or args.smoke or args.workload):
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _check_sources()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness or args.smoke:
        import steady
        return steady.main(args, bench)
    _pin_blas_threads()
    import measure
    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
