"""One workload process: set up, say "ready", run timed jobs, check outputs.

``run.py`` starts this script in a fresh interpreter and times its set-up
from the spawn to the "ready" line, so set-up covers interpreter start,
``import magbloch`` and writing the seeded model files.  With ``--setup-only``
the process exits right after "ready".  Otherwise it runs jobs until their
total time reaches ``--seconds`` (and at least ``MIN_JOBS`` of them), reads
its own peak resident memory, runs the once-per-run checks and writes a
JSON result to ``--result``.

With ``--trace 1`` traced and untraced jobs alternate, so the difference of
their medians is the tracing overhead; untraced runs install nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from run import THREAD_VARS
from tracing import Tracer, job_summaries
from workloads import WORKLOADS, Tally

MIN_JOBS = 3
MIN_TRACED_JOBS = 2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_jobs(workload, seconds: float, tracer) -> dict:
    """Timed jobs; with a tracer, odd-numbered jobs run traced."""
    times = {False: [], True: []}
    tally, job_seconds = Tally(), {}
    job = 0
    while True:
        traced = tracer is not None and job % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.job = job
            tracer.install()
        t0 = time.perf_counter()
        out = workload.job(job)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.finish_job(first)
            job_seconds[job] = elapsed
        times[traced].append(elapsed)
        tally.add(workload.check_job(out))
        del out  # the next job runs without this one's output alive
        job += 1
        done = sum(times[False]) + sum(times[True]) >= seconds
        if tracer is None:
            if done and job >= MIN_JOBS:
                break
        elif done and len(times[True]) >= MIN_TRACED_JOBS and len(times[True]) == len(times[False]):
            break
    return {"untraced": times[False], "traced": times[True], "tally": tally,
            "job_seconds": job_seconds}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, np.random.default_rng(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    ran = run_jobs(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = ran["tally"]
    tally.problems += workload.check_run()

    result = {
        "environment": environment(),
        "job_s": ran["untraced"],
        "traced_job_s": ran["traced"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mb": peak_rss_mb,
        "failing_gates": getattr(workload, "failing_gates", None),
    }
    if tracer is not None:
        result["jobs"] = job_summaries(tracer.spans, ran["job_seconds"])
        args.spans.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job", "stats"], "spans": tracer.spans}
        ))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
