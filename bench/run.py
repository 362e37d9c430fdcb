"""magbloch benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh worker
processes (``bench/worker.py``) with BLAS and OpenMP pinned to one thread:
``SETUP_RUNS - 1`` that only set up, then one that also runs the jobs.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A full report goes
to ``bench/out/``.  ``--workload all`` runs every workload in turn and ends
with one line whose metric names carry the workload as a prefix.

magbloch is one process with no queues, retries or I/O concurrency, so no
wait-time metric is defined.  The failure share is reported as ``ok_share``
(1 - failed/attempted) because a metric must never read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("topology_12x12", "bands_128x128", "verify_32x32", "butterfly_q24")
SETUP_RUNS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
NO_WAIT_METRICS = "none defined: one process, no queues, retries or I/O concurrency"

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

PER_LAYER = (
    ("homology.homology.self_s", "s"),
    ("homology.homology.calls", "count"),
    ("homology.smith_normal_form.self_s", "s"),
    ("homology.smith_normal_form.calls", "count"),
    ("homology.smith_normal_form.dim_max", "count"),
    ("homology.smith_normal_form.bits_max", "bits"),
    ("homology.cycle_label_invariants.self_s", "s"),
    ("complexes.validate.self_s", "s"),
    ("complexes.build_supercell.self_s", "s"),
    ("bundle.is_quantizable.self_s", "s"),
    ("bundle.synthesize_connection.self_s", "s"),
    ("bundle.twist.self_s", "s"),
    ("bundle.difference_class.self_s", "s"),
    ("operators.assemble_fiber.calls", "count"),
    ("operators.assemble_fiber.self_s", "s"),
    ("operators.spectrum.calls", "count"),
    ("operators.spectrum.self_s", "s"),
    ("operators.spectrum.dim_max", "count"),
    ("operators.spectrum.cubic_work", "count"),
    ("operators.assemble_supercell.self_s", "s"),
    ("bloch.spectrum_union.self_s", "s"),
    ("bloch.band_csv.self_s", "s"),
    ("bloch.verify_block_diagonalization.self_s", "s"),
    ("bloch.bloch_matrix.self_s", "s"),
    ("bloch.bloch_matrix.bytes_computed", "B"),
    ("bloch.character_relations_check.self_s", "s"),
    ("bloch.character_relations_check.residual_max", "1"),
    ("bloch.decomposition_check.self_s", "s"),
    ("bloch.magnetic_supercell.self_s", "s"),
    ("bloch.butterfly.self_s", "s"),
    ("bloch.butterfly.rows_ok_ratio", "ratio"),
    ("model_io.load_model.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

# per-layer metric suffix -> (key in a job summary's function entry, how jobs combine)
_LAYER_KEYS = {
    "self_s": ("self_s", "median"),
    "calls": ("calls", "median"),
    "dim_max": ("dim_max", "max"),
    "bits_max": ("bits_max", "max"),
    "residual_max": ("residual_max", "max"),
    "cubic_work": ("cubic", "median"),
    "bytes_computed": ("bytes", "median"),
}


def tail(times: list[float]) -> tuple[float, float, int]:
    """The run's tail job time as (value, percentile, samples beyond it).

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it.  A run holds a few to a few dozen jobs, and there that rule
    picks a low percentile (with 11 jobs, the minimum), which is no tail.
    So below 10 * TAIL_BEYOND jobs, where the rule would pick p90 or lower,
    the maximum is reported, with 0 samples beyond, and the report says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 10 * TAIL_BEYOND:
        i = n - 1 - TAIL_BEYOND
        return ordered[i], 100.0 * (i + 1) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Run:
    """The worker processes of one run, each waited for before the run ends."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.base = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--workdir", str(workdir)]
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.procs: list[subprocess.Popen] = []

    def start(self, extra: list[str]) -> float:
        """Start a worker; return seconds from spawn to its "ready" line."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + extra, stdout=subprocess.PIPE, env=self.env, text=True)
        self.procs.append(proc)
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
        return setup

    def wait(self) -> None:
        proc = self.procs[-1]
        proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def layer_metrics(result: dict) -> dict:
    """PER_LAYER values of a traced run: per-job medians, or maxima for ``*_max``."""
    jobs = list(result["jobs"].values())

    def combine(values, how):
        return max(values) if how == "max" else statistics.median(values)

    values = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, fn, suffix = name.split(".")
        func = f"{layer}.{fn}"
        if suffix == "rows_ok_ratio":
            rows = sum(j["functions"].get(func, {}).get("rows", 0) for j in jobs)
            ok = sum(j["functions"].get(func, {}).get("rows_ok", 0) for j in jobs)
            values[name] = ok / rows if rows else 0.0
            continue
        key, how = _LAYER_KEYS[suffix]
        values[name] = combine([j["functions"].get(func, {}).get(key, 0) for j in jobs], how)
    traced = statistics.median(result["traced_job_s"])
    values["trace.job_s"] = traced
    values["trace.unattributed_s"] = statistics.median(j["unattributed_s"] for j in jobs)
    values["trace.overhead_s"] = traced - statistics.median(result["job_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def layer_shares(result: dict) -> dict:
    """Share of traced job time spent in each layer's own code, and unattributed."""
    jobs = result["jobs"].values()
    total = sum(j["job_s"] for j in jobs)
    shares = {}
    for j in jobs:
        for func, f in j["functions"].items():
            layer = func.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + f["self_s"] / total
    shares["unattributed"] = sum(j["unattributed_s"] for j in jobs) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its summary and returns the result line."""
    tag = f"{workload}-s{seed}-t{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    result_path = workdir / "result.json"
    spans_path = OUT / f"spans-{tag}.json"
    run = Run(workload, seed, workdir)
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            setups.append(run.start(["--setup-only"]))
            run.wait()
        extra = ["--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path)]
        setups.append(run.start(extra + (["--spans", str(spans_path)] if trace else [])))
        run.wait()
        result = json.loads(result_path.read_text())
    finally:
        run.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    times = result["job_s"]
    tail_s, tail_pct, beyond = tail(times)
    attempted, failed = result["attempted"], result["failed"]
    e2e = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(times),
        "job_s_tail": tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "environment": result["environment"],
        "setup_s_samples": setups,
        "job_s_samples": times,
        "job_s_tail": {"percentile": tail_pct, "samples": len(times), "samples_beyond": beyond},
        "fail_share": {"failed": failed, "attempted": attempted, "share": failed / attempted},
        "failing_gates": result["failing_gates"],
        "problems": result["problems"],
        "wait_metrics": NO_WAIT_METRICS,
        "end_to_end": e2e,
    }
    if trace:
        metrics = layer_metrics(result)
        report["traced_job_s_samples"] = result["traced_job_s"]
        report["layer_shares"] = layer_shares(result)
        report["jobs"] = result["jobs"]
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    report["metrics"] = metrics
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))

    env = result["environment"]
    print(f"workload {workload}  seed {seed}  commit {report['git_commit']}")
    print(f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {report['nproc']}  threads {env['threads']}")
    print(f"jobs: {len(times)} untraced, {len(result['traced_job_s'])} traced; "
          f"job_s_tail is p{tail_pct:.0f} with {beyond} samples beyond")
    print(f"fail_share = {failed}/{attempted} operations; failing gates: {result['failing_gates']}")
    print(f"wait metrics: {NO_WAIT_METRICS}")
    if trace:
        print("traced time by layer: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in report["layer_shares"].items()))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    return {"correct": not result["problems"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "magbloch" / "__init__.py").is_file():
        print(f"error: no magbloch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            lines[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name} run failed: {exc}", file=sys.stderr)
            return 1
    if len(lines) == 1:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items() for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
