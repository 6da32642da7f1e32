"""Write reference.json: the frozen output of every variant of every job.

    python3 benchmarks/freeze_reference.py

Run it only at the commit whose outputs define "correct"; the benchmark
then fails any job whose output drifts from what is written here.  Jobs
without a frozen part (identities and bounds on seeded library calls) are
not listed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    mods = workloads.load_ncdiff()
    workdir = Path(__file__).resolve().parent / "out" / "freeze"
    frozen = {}
    try:
        for name in workloads.WORKLOADS:
            slots = workloads.slots_for(name, mods, workdir, np.random.default_rng(0))
            for slot in slots:
                for key, make in slot:
                    job = make()
                    if job.frozen is None:
                        continue
                    out = job.run()
                    if isinstance(out, workloads.CliResult) and out.rc != 0:
                        raise SystemExit(f"{key}: exit code {out.rc}\n{out.stderr}")
                    frozen[key] = job.frozen(out)
                    print(f"frozen {key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
