"""Finite 2-cell complexes with edge weights, covering labels, and supercells.

A complex is a weighted multigraph (vertices, oriented edges) together with
2-cells attached along closed edge walks.  Face boundary words use *signed
1-based edge ids*: ``+k`` traverses edge ``k-1`` forward (source to target),
``-k`` traverses it backward.  The same encoding is used in the JSON model
files, so there is exactly one face convention in the package.

Covering data labels every oriented edge with a vector in Z^d; the label
negates under edge reversal.  The labels present a free abelian covering of
the complex, realized at finite scale by :func:`build_supercell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Complex2",
    "CoveringData",
    "SupercellSpec",
    "SupercellMap",
    "ValidationIssue",
    "ValidationReport",
    "validate",
    "boundary_matrices",
    "build_supercell",
    "face_steps",
    "reorient_edges",
]


def face_steps(word: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a signed 1-based boundary word into (edge_index, sign) pairs."""
    steps = []
    for s in word:
        if s == 0:
            raise ValueError("face words use signed 1-based ids; 0 is not a valid step")
        steps.append((abs(s) - 1, 1 if s > 0 else -1))
    return steps


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Complex2:
    """Finite 2-cell complex with positive edge weights and vertex potentials.

    Parameters
    ----------
    num_vertices : int
        Vertices are ``0 .. num_vertices-1``.
    edges : sequence of (source, target, weight)
        Oriented weighted edges; loops and parallel edges are allowed.
    faces : sequence of boundary words
        Each word is a sequence of signed 1-based edge ids forming a closed
        walk (checked by :func:`validate`, not at construction).
    potentials : sequence of float, optional
        One real value per vertex; defaults to zero.

    Construction is deliberately lenient so that malformed inputs can be
    diagnosed by :func:`validate` instead of raising here.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]
    faces: tuple[tuple[int, ...], ...] = ()
    potentials: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v), float(w)) for u, v, w in self.edges)
        )
        object.__setattr__(
            self, "faces", tuple(tuple(int(s) for s in word) for word in self.faces)
        )
        pot = self.potentials
        if pot is None:
            pot = np.zeros(self.num_vertices)
        object.__setattr__(self, "potentials", _as_readonly(np.asarray(pot, dtype=float)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def sources(self) -> np.ndarray:
        return np.array([e[0] for e in self.edges], dtype=int)

    @property
    def targets(self) -> np.ndarray:
        return np.array([e[1] for e in self.edges], dtype=int)

    @property
    def weights(self) -> np.ndarray:
        return np.array([e[2] for e in self.edges], dtype=float)

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces


@dataclass(frozen=True, eq=False)
class CoveringData:
    """Z^d edge labels presenting a free abelian cover of the complex.

    ``tau[e]`` is the label of edge ``e`` in its stored orientation; the
    reversed edge carries ``-tau[e]``.
    """

    rank: int
    tau: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=int)
        if tau.ndim == 1:
            if self.rank == 1:
                tau = tau.reshape(-1, 1)
            elif tau.size == 0:
                tau = tau.reshape(0, self.rank)
        if tau.ndim != 2 or tau.shape[1] != self.rank:
            raise ValueError(
                f"tau must have shape (num_edges, {self.rank}), got {tau.shape}"
            )
        object.__setattr__(self, "tau", _as_readonly(tau))

    @classmethod
    def trivial(cls, num_edges: int) -> "CoveringData":
        """Rank-0 covering (the complex is its own cover)."""
        return cls(0, np.zeros((num_edges, 0), dtype=int))

    def face_shift(self, word: Sequence[int]) -> np.ndarray:
        """Signed sum of tau along a boundary word."""
        total = np.zeros(self.rank, dtype=int)
        for e, sign in face_steps(word):
            total += sign * self.tau[e]
        return total


@dataclass(frozen=True)
class SupercellSpec:
    """Finite block of the cover: sizes per covering direction plus boundary.

    ``periodic`` identifies opposite sides (quotient by the sublattice
    ``N Z^d``); ``dirichlet`` keeps the block open and drops whatever leaves.
    """

    sizes: tuple[int, ...]
    boundary: str = "periodic"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if any(n < 1 for n in self.sizes):
            raise ValueError(f"supercell sizes must be >= 1, got {self.sizes}")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError(f"boundary must be 'periodic' or 'dirichlet', got {self.boundary!r}")

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.sizes, dtype=int)) if self.sizes else 1


@dataclass(frozen=True, eq=False)
class SupercellMap:
    """Indexing of a supercell: vertex ``(cell, v)`` <-> flat index.

    Cells are ordered lexicographically; the flat index is
    ``cell_rank * base_vertices + v`` (cell-major blocks, which is the block
    structure used by deck translations and the Bloch transform).
    ``edge_origin[j]`` records ``(cell_rank, base_edge)`` for supercell edge
    ``j``; for dirichlet blocks some copies are missing.
    """

    spec: SupercellSpec
    base_vertices: int
    base_edges: int
    edge_origin: tuple[tuple[int, int], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.spec.sizes

    @property
    def num_cells(self) -> int:
        return self.spec.num_cells

    @property
    def num_vertices(self) -> int:
        return self.num_cells * self.base_vertices

    def cells(self) -> np.ndarray:
        """All cells as an array of shape (num_cells, d), lexicographic order."""
        if not self.sizes:
            return np.zeros((1, 0), dtype=int)
        grids = np.meshgrid(*[np.arange(n) for n in self.sizes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def cell_rank(self, cell: Sequence[int]) -> int:
        rank = 0
        for c, n in zip(cell, self.sizes):
            rank = rank * n + int(c) % n
        return rank

    def vertex_index(self, cell: Sequence[int], v: int) -> int:
        return self.cell_rank(cell) * self.base_vertices + v

    def lift(self, index: int) -> tuple[tuple[int, ...], int]:
        """Return (cell, base vertex) for a supercell vertex index."""
        rank, v = divmod(index, self.base_vertices)
        digits = []
        for n in reversed(self.sizes):
            rank, c = divmod(rank, n)
            digits.append(c)
        return tuple(reversed(digits)), v


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    detail: str
    where: tuple = ()


@dataclass
class ValidationReport:
    """Pass/fail per structural invariant, with offending indices."""

    checks: dict
    issues: list

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "issues": [
                {"check": i.check, "detail": i.detail, "where": list(i.where)}
                for i in self.issues
            ],
        }


def validate(complex2: Complex2, covering: CoveringData | None = None) -> ValidationReport:
    """Diagnose a complex (and optionally its covering data); never raises.

    Checks, in order: edge endpoints in range, strictly positive finite
    weights, finite potentials of the right length, face words referencing
    valid edges, face words closing up as walks, tau having one label per
    edge, face boundaries lifting to closed loops (tau sums vanish), and the
    cycle-label map onto Z^d being surjective (the cover is connected).
    """
    checks: dict[str, bool] = {}
    issues: list[ValidationIssue] = []

    def fail(check: str, detail: str, where: tuple = ()):
        checks[check] = False
        issues.append(ValidationIssue(check, detail, where))

    V, E = complex2.num_vertices, complex2.num_edges

    checks["edge_endpoints"] = True
    for e, (u, v, _) in enumerate(complex2.edges):
        if not (0 <= u < V and 0 <= v < V):
            fail("edge_endpoints", f"edge {e} has endpoint outside 0..{V - 1}", (e,))

    checks["edge_weights_positive"] = True
    for e, (_, _, w) in enumerate(complex2.edges):
        if not (np.isfinite(w) and w > 0):
            fail("edge_weights_positive", f"edge {e} has weight {w}", (e,))

    checks["potentials_finite"] = True
    if len(complex2.potentials) != V:
        fail("potentials_finite", f"expected {V} potentials, got {len(complex2.potentials)}")
    elif not np.all(np.isfinite(complex2.potentials)):
        bad = tuple(np.flatnonzero(~np.isfinite(complex2.potentials)))
        fail("potentials_finite", "non-finite potential values", bad)

    checks["face_edge_refs"] = True
    checks["faces_closed"] = True
    for f, word in enumerate(complex2.faces):
        if len(word) == 0:
            fail("face_edge_refs", f"face {f} has empty boundary word", (f,))
            continue
        try:
            steps = face_steps(word)
        except ValueError:
            fail("face_edge_refs", f"face {f} contains a zero step", (f,))
            continue
        if any(not (0 <= e < E) for e, _ in steps):
            bad = tuple(i for i, (e, _) in enumerate(steps) if not (0 <= e < E))
            fail("face_edge_refs", f"face {f} references missing edges", (f,) + bad)
            continue
        if not checks["edge_endpoints"]:
            continue
        ends = []
        for e, sign in steps:
            u, v, _ = complex2.edges[e]
            ends.append((u, v) if sign > 0 else (v, u))
        for i in range(len(ends)):
            j = (i + 1) % len(ends)
            if ends[i][1] != ends[j][0]:
                fail("faces_closed", f"face {f}: not a closed walk at step {j}", (f, j))
                break

    if covering is not None:
        checks["tau_shape"] = True
        if covering.tau.shape[0] != E:
            fail("tau_shape", f"expected {E} tau labels, got {covering.tau.shape[0]}")
        else:
            checks["face_tau_zero"] = True
            if checks["face_edge_refs"]:
                for f, word in enumerate(complex2.faces):
                    shift = covering.face_shift(word)
                    if np.any(shift != 0):
                        fail("face_tau_zero", f"face {f} lifts to shift {shift.tolist()}", (f,))

            checks["tau_surjective"] = True
            if checks["edge_endpoints"] and covering.rank > 0:
                from .homology import cycle_label_invariants

                rank, factors = cycle_label_invariants(complex2, covering)
                if rank < covering.rank:
                    fail(
                        "tau_surjective",
                        f"cycle labels span rank {rank} < d={covering.rank}",
                    )
                elif any(f != 1 for f in factors):
                    fail(
                        "tau_surjective",
                        f"cycle labels generate a proper sublattice (factors {factors})",
                    )

    return ValidationReport(checks, issues)


def boundary_matrices(complex2: Complex2) -> tuple[np.ndarray, np.ndarray]:
    """Integer chain-complex boundaries (d1: V x E, d2: E x F) with d1 @ d2 = 0.

    Column ``e`` of d1 is the target-minus-source indicator; column ``f`` of
    d2 counts signed traversals of each edge along the face boundary.
    """
    V, E, F = complex2.num_vertices, complex2.num_edges, complex2.num_faces
    d1 = np.zeros((V, E), dtype=int)
    for e, (u, v, _) in enumerate(complex2.edges):
        d1[v, e] += 1
        d1[u, e] -= 1
    d2 = np.zeros((E, F), dtype=int)
    for f, word in enumerate(complex2.faces):
        for e, sign in face_steps(word):
            d2[e, f] += sign
    return d1, d2


def build_supercell(
    complex2: Complex2, covering: CoveringData, spec: SupercellSpec
) -> tuple[Complex2, SupercellMap]:
    """Realize a finite block of the cover as a complex of its own.

    Vertices are copies ``(cell, v)``; the copy of edge ``e`` based in
    ``cell`` runs to ``cell + tau[e]``.  With periodic boundary the cell
    coordinates are reduced mod the sizes (deck-group quotient); with
    dirichlet boundary, edges leaving the block are dropped, along with any
    face that would use a dropped copy.  Weights and potentials are copied
    periodically.
    """
    if covering.rank != len(spec.sizes):
        raise ValueError(
            f"supercell sizes have length {len(spec.sizes)} but covering rank is {covering.rank}"
        )
    if covering.tau.shape[0] != complex2.num_edges:
        raise ValueError("covering labels do not match the number of edges")

    V, E = complex2.num_vertices, complex2.num_edges
    sizes = np.array(spec.sizes, dtype=int)
    periodic = spec.boundary == "periodic"

    map_stub = SupercellMap(spec, V, E, ())
    cells = map_stub.cells()
    num_cells = len(cells)

    edges: list[tuple[int, int, float]] = []
    edge_origin: list[tuple[int, int]] = []
    edge_index: dict[tuple[int, int], int] = {}
    for r in range(num_cells):
        cell = cells[r]
        for e, (u, v, w) in enumerate(complex2.edges):
            cell2 = cell + covering.tau[e]
            if not periodic and (np.any(cell2 < 0) or np.any(cell2 >= sizes)):
                continue
            r2 = map_stub.cell_rank(cell2)
            edge_index[(r, e)] = len(edges)
            edges.append((r * V + u, r2 * V + v, w))
            edge_origin.append((r, e))

    faces: list[tuple[int, ...]] = []
    for r in range(num_cells):
        cell = cells[r]
        for word in complex2.faces:
            new_word: list[int] = []
            cur = cell.copy()
            ok = True
            for e, sign in face_steps(word):
                if sign > 0:
                    based = cur
                    nxt = cur + covering.tau[e]
                else:
                    based = cur - covering.tau[e]
                    nxt = based
                idx = edge_index.get((map_stub.cell_rank(based), e))
                if idx is None:
                    ok = False
                    break
                # dirichlet: drop faces whose walk strays outside the block
                if not periodic and (np.any(nxt < 0) or np.any(nxt >= sizes)):
                    ok = False
                    break
                new_word.append(sign * (idx + 1))
                cur = nxt
            if ok:
                faces.append(tuple(new_word))

    potentials = np.tile(complex2.potentials, num_cells)
    sc = Complex2(num_cells * V, tuple(edges), tuple(faces), potentials)
    sc_map = SupercellMap(spec, V, E, tuple(edge_origin))
    return sc, sc_map


def reorient_edges(
    complex2: Complex2,
    edges_to_flip: Iterable[int],
    covering: CoveringData | None = None,
    theta: np.ndarray | None = None,
):
    """Reverse the orientation of the given edges consistently.

    Face words flip the sign of every reference to a flipped edge, covering
    labels negate, and connection angles negate (mod 2pi).  Returns the new
    complex, followed by the new covering and/or connection when given.
    """
    flip = set(int(e) for e in edges_to_flip)
    new_edges = [
        ((v, u, w) if e in flip else (u, v, w)) for e, (u, v, w) in enumerate(complex2.edges)
    ]
    new_faces = []
    for word in complex2.faces:
        new_faces.append(tuple(-s if abs(s) - 1 in flip else s for s in word))
    cx = Complex2(complex2.num_vertices, tuple(new_edges), tuple(new_faces), complex2.potentials)
    out: list = [cx]
    if covering is not None:
        tau = covering.tau.copy()
        for e in flip:
            tau[e] = -tau[e]
        out.append(CoveringData(covering.rank, tau))
    if theta is not None:
        th = np.asarray(theta, dtype=float).copy()
        for e in flip:
            th[e] = np.mod(-th[e], 2 * np.pi)
        out.append(th)
    return out[0] if len(out) == 1 else tuple(out)
