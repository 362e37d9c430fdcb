"""One-shot size ladder: every rung runs once; its time or its failure is recorded.

    python3 bench/ladder.py [--seed N] [--out PATH]

Each rung is one job of a benchmark workload at another size, followed by
that workload's output checks: the homology pipeline on the periodic N x N
block (N = 4, 8, 12, 16); ``magbloch bands`` on G x G grids (G = 32, 64,
128); ``magbloch verify`` on the square lattice at N x N (N = 8, 16, 24, 32);
``magbloch butterfly`` over the Farey fluxes with q <= 16 and q <= 32.  No
rung is gated and none is skipped for being slow or failing: a failing rung
is recorded with its failed operations, its failing gates and its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH, THREAD_VARS

# single-threaded BLAS, as in the benchmark's workers; set before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np

import models
from worker import environment
from workloads import WORKLOADS

RUNGS = (
    [(f"homology {n}x{n}", "topology_12x12", {"n": n}) for n in (4, 8, 12, 16)]
    + [(f"bands {g}x{g}", "bands_128x128", {"grid": g}) for g in (32, 64, 128)]
    + [(f"verify {n}x{n}", "verify_32x32", {"cases": ((models.torus, n),)}) for n in (8, 16, 24, 32)]
    + [(f"butterfly q<={q}", "butterfly_q24", {"qmax": q}) for q in (16, 32)]
)


def run_rung(name: str, workload: str, sizes: dict, rng: np.random.Generator, work: Path) -> dict:
    work.mkdir()
    wl = WORKLOADS[workload](work, rng, **sizes)
    t0 = time.perf_counter()
    out = wl.job(0)
    seconds = time.perf_counter() - t0
    tally = wl.check_job(out)
    tally.problems += wl.check_run()
    rung = {"rung": name, "seconds": seconds, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems}
    if getattr(wl, "failing_gates", None) is not None:
        rung["failing_gates"] = wl.failing_gates
    return rung


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=BENCH / "out" / "ladder.json")
    args = p.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    results = []
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out.parent) as tmp:
        for i, (name, workload, sizes) in enumerate(RUNGS):
            rung = run_rung(name, workload, sizes, rng, Path(tmp) / str(i))
            results.append(rung)
            print(f"{name:18s} {rung['seconds']:9.3f} s  failed {rung['failed']}/{rung['attempted']}  "
                  f"{rung.get('failing_gates', '')}  {rung['problems'] or ''}", flush=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "nproc": os.cpu_count(), "environment": environment(), "rungs": results},
        indent=1,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
