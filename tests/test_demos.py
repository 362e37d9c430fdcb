"""Smoke test: every demo script, and README's library tour, runs to
completion against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, script], cwd=cwd, env=env, capture_output=True, text=True
    )


def library_tour() -> str:
    """The Python block under README's "Library tour" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a copy keeps the demo's outputs (written next to the script) in tmp_path
    script = shutil.copy(demo, tmp_path)
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path):
    tour = library_tour()
    assert "verify_block_diagonalization" in tour and "butterfly" in tour
    script = tmp_path / "library_tour.py"
    script.write_text(tour)
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
