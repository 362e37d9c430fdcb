"""Fast tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magbloch
import models
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_arithmetic_on_a_span_nest():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.leaf", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
        span("root", 20.0, 21.0, job=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    jobs = tracing.job_summaries(spans, {0: 12.0, 1: 1.5})
    assert jobs[0]["attributed_s"] == pytest.approx(10.0)
    assert jobs[0]["self_s_sum"] == pytest.approx(10.0)
    assert jobs[0]["unattributed_s"] == pytest.approx(2.0)
    assert jobs[0]["functions"]["a"] == {"self_s": pytest.approx(2.0), "calls": 1}
    assert jobs[1]["functions"]["root"]["calls"] == 1
    assert jobs[1]["unattributed_s"] == pytest.approx(0.5)


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "magbloch" or name.startswith("magbloch.")
        for attr, value in vars(mod).items()
    }


def test_wrappers_are_removed_after_a_traced_run():
    import magbloch.cli  # the cli layer must be loaded before the snapshot

    before = _bindings()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    homology_module = sys.modules["magbloch.homology"]
    assert magbloch.homology is not homology_module  # the package attribute is the function
    assert magbloch.homology is not before[("magbloch", "homology")]
    tracer.job = 0
    cx = magbloch.Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
    magbloch.homology(cx)
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names[0] == "homology.homology"
    assert "homology.smith_normal_form" in names
    assert [rec[tracing.PARENT] for rec in tracer.spans].count(-1) == 1


@pytest.mark.parametrize(
    "doc",
    [
        models.torus(np.random.default_rng(3)),
        models.tri(np.random.default_rng(3)),
        models.periodic_block(np.random.default_rng(3), (12, 12)),
        models.magnetic_cell(np.random.default_rng(3), 3),
    ],
    ids=["torus", "tri", "block12", "cell3"],
)
def test_generated_models_are_valid_and_quantizable(doc):
    m = magbloch.loads_model(json.dumps(doc))
    assert magbloch.validate(m.complex2, m.covering).ok
    assert magbloch.is_quantizable(m.complex2, m.flux).verdict


TINY = {
    "topology_12x12": {"n": 3, "round_trips": 2},
    "bands_128x128": {"grid": 4},
    "verify_32x32": {"cases": ((models.torus, 2), (models.tri, 2))},
    "butterfly_q24": {"qmax": 3, "grid": 2},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, np.random.default_rng(5), **TINY[name])
    tally = workloads.Tally()
    for i in range(2):
        tally.add(wl.check_job(wl.job(i)))
    tally.problems += wl.check_run()
    assert tally.attempted > 0
    assert tally.failed == 0
    assert tally.problems == []


def test_tail_keeps_ten_samples_beyond_or_reports_the_maximum():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 21)]) == (20.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bands_128x128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
