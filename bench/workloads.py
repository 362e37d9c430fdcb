"""The four benchmark workloads: seeded inputs, one timed job, output checks.

A workload object is built once per process; building it writes the seeded
model files.  ``job`` is the timed unit of work and returns its raw output.
``check_job`` counts the job's operations and failures and checks its
output; ``check_run`` makes the checks that run once per run.  Outputs are
not kept past ``check_job``, so peak memory does not grow with the number of
jobs a run fits in.  No check depends on the seed, and none compares bytes
across commits.

An operation is one CLI invocation or one library round trip; for the
butterfly it is one flux of the sweep, because the CLI reports a failed flux
as an error row on stderr and goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import magbloch
from magbloch import cli

import models

TWO_PI = 2.0 * np.pi
ANGLE_TOL = 1e-9
TRACE_TOL = 1e-9


@dataclass
class Tally:
    """Operations attempted and failed, and output checks that did not hold."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _last_error() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def boundary(ends, chain) -> list[int]:
    """d1 of an integer 1-chain, computed from the model's edge list."""
    out = [0] * (1 + max(max(e) for e in ends))
    for (u, v), c in zip(ends, chain):
        c = int(c)
        out[v] += c
        out[u] -= c
    return out


def fiber_traces(potentials, edges, tau, theta, ks) -> np.ndarray:
    """Trace of the fiber operator at each momentum, assembled independently.

    Every edge adds its weight to both end diagonals; a loop also puts
    -2 w cos(theta_e + k.tau_e) on its vertex's diagonal.
    """
    w = np.array([e[2] for e in edges], dtype=float)
    base = float(np.sum(potentials)) + 2.0 * float(np.sum(w))
    loops = [i for i, (u, v, _) in enumerate(edges) if u == v]
    if not loops:
        return np.full(len(ks), base)
    phase = np.asarray(theta, dtype=float)[loops] + np.asarray(ks) @ np.asarray(tau)[loops].T
    return base - 2.0 * (np.cos(phase) * w[loops]).sum(axis=1)


def spectral_bounds(potentials, edges) -> tuple[float, float]:
    """[min potential, max(2 * weighted degree + potential)] (loops count twice)."""
    deg = np.zeros(len(potentials))
    for u, v, w in edges:
        deg[u] += w
        deg[v] += w
    pot = np.asarray(potentials, dtype=float)
    return float(pot.min()), float(np.max(2.0 * deg + pot))


def check_spectra(label, potentials, edges, tau, theta, ks, eigs, intervals=()) -> list[str]:
    """Trace identity at each fiber, and every eigenvalue and interval in bounds."""
    lo, hi = spectral_bounds(potentials, edges)
    tol = TRACE_TOL * max(abs(lo), abs(hi), 1.0)
    problems = []
    dev = np.abs(eigs.sum(axis=1) - fiber_traces(potentials, edges, tau, theta, ks))
    if dev.max() > tol:
        problems.append(f"{label}: eigenvalue sum misses the trace by {dev.max():.3e}")
    values = np.concatenate([eigs.ravel(), np.ravel(intervals)])
    if values.min() < lo - tol or values.max() > hi + tol:
        problems.append(
            f"{label}: spectrum [{values.min()}, {values.max()}] leaves [{lo}, {hi}]"
        )
    return problems


class _SameBytes:
    """Checks that every job of a run writes byte-identical output."""

    def __init__(self):
        self.first: Path | None = None
        self.digest = None

    def check(self, path: Path, label: str) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.first is None:
            self.first, self.digest = path, digest
            return []
        path.unlink()
        return [] if digest == self.digest else [f"{label}: output differs from the first job"]


class Topology:
    """Library pipeline behind ``magbloch homology --json``, plus twist round trips.

    The model is the periodic n x n square-lattice block given as its own
    quotient, with carry labels and a seeded integral flux.  The CLI has no
    twist command, so the round trips go through the library.
    """

    def __init__(self, workdir: Path, rng: np.random.Generator, n: int = 12, round_trips: int = 8):
        self.workdir = workdir
        doc = models.periodic_block(rng, (n, n))
        self.model = models.write(doc, workdir / "block.json")
        self.ends = [(u, v) for u, v, _ in doc["edges"]]
        self.characters = [
            magbloch.Character(rng.uniform(0.0, TWO_PI, size=2), ()) for _ in range(round_trips)
        ]
        self.jsons: list[Path] = []

    def job(self, index: int) -> dict:
        out = {"error": None, "json": self.workdir / f"homology-{index}.json", "trips": []}
        try:
            m = magbloch.load_model(self.model)
            out["valid"] = magbloch.validate(m.complex2, m.covering).ok
            summary = magbloch.homology(m.complex2)
            out["quantizable"] = magbloch.is_quantizable(m.complex2, m.flux, summary).verdict
            theta = magbloch.synthesize_connection(m.complex2, m.flux, summary)
            out["json"].write_text(json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n")
            out["summary"] = summary
        except Exception:  # a failed operation is a measured outcome
            out["error"] = _last_error()
            return out
        for chi in self.characters:
            try:
                twisted = magbloch.twist(m.complex2, summary, theta, chi)
                out["trips"].append((chi, magbloch.difference_class(m.complex2, summary, theta, twisted)))
            except Exception:
                out["trips"].append((chi, _last_error()))
        return out

    def check_job(self, out: dict) -> Tally:
        t = Tally(attempted=1 + len(self.characters))
        if out["error"] is not None:
            t.failed = t.attempted
            t.problems.append(f"pipeline raised: {out['error']}")
            return t
        if not (out["valid"] and out["quantizable"]):
            t.failed += 1
            t.problems.append(f"valid={out['valid']} quantizable={out['quantizable']}")
        self.jsons.append(out["json"])
        summary = out["summary"]
        if summary.betti != (1, 2, 1) or summary.torsion != ((), (), ()):
            t.problems.append(f"betti {summary.betti}, torsion {summary.torsion}")
        gens = list(summary.h1_free_generators) + [g for g, _ in summary.h1_torsion_generators]
        for g in gens:
            if not summary.is_cycle(g) or any(boundary(self.ends, g)):
                t.problems.append("an H1 generator is not a cycle")
        for chi, back in out["trips"]:
            if isinstance(back, str):
                t.failed += 1
                t.problems.append(f"round trip raised: {back}")
            elif back.torsion_indices != chi.torsion_indices or chi.angle_distance(back) > ANGLE_TOL:
                t.failed += 1
                t.problems.append(f"round trip returned {back.angles} for {chi.angles}")
        return t

    def check_run(self) -> list[str]:
        ref = self.workdir / "homology-cli.json"
        code = cli.run(["homology", "--json", "--model", str(self.model), "--out", str(ref)])
        if code != 0:
            return [f"magbloch homology exited {code}"]
        want = ref.read_bytes()
        return [
            f"{path.name} differs from magbloch homology --json"
            for path in self.jsons
            if path.read_bytes() != want
        ]


class Bands:
    """``magbloch bands`` writing CSV on the flux-1/q magnetic cell."""

    def __init__(self, workdir: Path, rng: np.random.Generator, grid: int = 128, q: int = 3):
        self.workdir = workdir
        self.doc = models.magnetic_cell(rng, q)
        self.model = models.write(self.doc, workdir / "cell.json")
        self.grid = grid
        self.same = _SameBytes()

    def job(self, index: int) -> dict:
        csv = self.workdir / f"bands-{index}.csv"
        g = self.grid
        code = cli.run(["bands", "--model", str(self.model), "--grid", f"{g},{g}", "--out", str(csv)])
        return {"code": code, "csv": csv}

    def check_job(self, out: dict) -> Tally:
        if out["code"] != 0:
            return Tally(1, 1, [f"magbloch bands exited {out['code']}"])
        return Tally(1, 0, self.same.check(out["csv"], "bands CSV"))

    def check_run(self) -> list[str]:
        if self.same.first is None:
            return []
        table = np.loadtxt(self.same.first, delimiter=",", skiprows=1, ndmin=2)
        ks, eigs = table[:, :2], table[:, 2:]
        axis = TWO_PI * np.arange(self.grid) / self.grid
        want = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        if ks.shape != want.shape or not np.array_equal(ks, want):
            return ["bands CSV momenta are not the requested grid"]
        m = magbloch.load_model(self.model)
        theta = magbloch.synthesize_connection(m.complex2, m.flux, magbloch.homology(m.complex2))
        edges = [tuple(e) for e in self.doc["edges"]]
        return check_spectra("bands", self.doc["potential"], edges, self.doc["tau"], theta, ks, eigs)


class Verify:
    """``magbloch verify --json`` on each (model, supercell size) case."""

    CASES = ((models.torus, 32), (models.tri, 16))

    def __init__(self, workdir: Path, rng: np.random.Generator, cases=CASES):
        self.workdir = workdir
        self.cases = [
            (models.write(make(rng), workdir / f"{make.__name__}.json"), n) for make, n in cases
        ]
        self.failing_gates: dict[str, list[str]] = {}

    def job(self, index: int) -> list:
        runs = []
        for model, n in self.cases:
            out = self.workdir / f"verify-{index}-{model.stem}.json"
            argv = ["verify", "--json", "--model", str(model), "--supercell", f"{n},{n}", "--out", str(out)]
            runs.append((f"{model.stem} {n}x{n}", cli.run(argv), out))
        return runs

    def check_job(self, runs: list) -> Tally:
        t = Tally(attempted=len(runs))
        for label, code, out in runs:
            if code != 0:
                t.failed += 1
            if code not in (0, cli.EXIT_NUMERIC):
                t.problems.append(f"verify {label} exited {code}")
                continue
            data = json.loads(out.read_text())
            failing = sorted(g for g, r in data["residuals"].items() if r > data["tolerances"][g])
            self.failing_gates[label] = failing
            if data["ok"] != (not failing) or (code == 0) != (not failing):
                t.problems.append(f"verify {label}: exit {code} and ok={data['ok']} disagree with gates {failing}")
        return t

    def check_run(self) -> list[str]:
        return []


class Butterfly:
    """``magbloch butterfly`` on the square lattice over the Farey fluxes q <= qmax."""

    def __init__(self, workdir: Path, rng: np.random.Generator, qmax: int = 24, grid: int = 8):
        self.workdir = workdir
        self.model = models.write(models.torus(rng), workdir / "torus.json")
        self.fluxes = models.farey(qmax)
        self.grid = grid
        self.argv = ["butterfly", "--model", str(self.model), "--grid", f"{grid},{grid}",
                     "--flux", ",".join(str(f) for f in self.fluxes)]
        self.same = _SameBytes()

    def job(self, index: int) -> dict:
        csv = self.workdir / f"butterfly-{index}.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(self.argv + ["--out", str(csv)])
        return {"code": code, "csv": csv, "stderr": err.getvalue()}

    def check_job(self, out: dict) -> Tally:
        n = len(self.fluxes)
        if out["code"] != 0:
            return Tally(n, n, [f"magbloch butterfly exited {out['code']}: {out['stderr'].strip()}"])
        errors = [line for line in out["stderr"].splitlines() if line.startswith("flux ")]
        return Tally(n, len(errors), self.same.check(out["csv"], "butterfly CSV"))

    def check_run(self) -> list[str]:
        if self.same.first is None:
            return []
        m = magbloch.load_model(self.model)
        g = (self.grid, self.grid)
        rows = magbloch.butterfly(m.complex2, m.covering, self.fluxes, g)
        problems = []
        if magbloch.butterfly_csv(rows).encode() != self.same.first.read_bytes():
            problems.append("butterfly CSV differs from the library sweep")
        for row in rows:
            if row.band is None:
                continue
            ms = magbloch.magnetic_supercell(m.complex2, m.covering, Fraction(row.p, row.q))
            theta = magbloch.synthesize_connection(ms.complex2, ms.flux, magbloch.homology(ms.complex2))
            problems += check_spectra(
                f"flux {row.p}/{row.q}", ms.complex2.potentials, ms.complex2.edges,
                ms.covering.tau, theta, row.band.ks, row.band.eigenvalues, row.band.intervals,
            )
        return problems


WORKLOADS = {
    "topology_12x12": Topology,
    "bands_128x128": Bands,
    "verify_32x32": Verify,
    "butterfly_q24": Butterfly,
}
