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

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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
    "vertex_boundary",
    "build_supercell",
    "face_steps",
    "face_arrays",
]


def face_steps(word: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a signed 1-based boundary word into (edge_index, sign) pairs."""
    steps = []
    for s in word:
        if s == 0:
            raise ValueError("face words use signed 1-based ids; 0 is not a valid step")
        steps.append((abs(s) - 1, 1 if s > 0 else -1))
    return steps


def _signed_words(faces: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Boundary words as one padded array of signed ids, shape (F, longest
    word), holding 0 past each word's length, and the word lengths (F,)."""
    lengths = np.array([len(word) for word in faces], dtype=int)
    words = np.zeros((len(faces), lengths.max(initial=0)), dtype=int)
    filled = np.arange(words.shape[1]) < lengths[:, None]
    words[filled] = np.fromiter(itertools.chain.from_iterable(faces), dtype=int, count=lengths.sum())
    return words, lengths


def face_arrays(faces: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary words as padded arrays: edge indices and signs, each of shape
    (F, longest word), and word lengths (F,).  Past its length a row holds
    edge -1 and sign 0."""
    words, lengths = _signed_words(faces)
    if np.any(words[np.arange(words.shape[1]) < lengths[:, None]] == 0):
        raise ValueError("face words use signed 1-based ids; 0 is not a valid step")
    return np.abs(words) - 1, np.sign(words), lengths


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
    diagnosed by :func:`validate` instead of raising here.  The array views
    of the edges and faces (``ends``, ``sources``, ``targets``, ``weights``,
    ``face_words``) and the spanning ``forest`` are read-only and built
    once, on first use.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]
    faces: tuple[tuple[int, ...], ...] = ()
    potentials: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v), float(w)) for u, v, w in self.edges)
        )
        object.__setattr__(self, "faces", tuple(tuple(map(int, word)) for word in self.faces))
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

    @cached_property
    def ends(self) -> np.ndarray:
        """(source, target) of every edge, shape (E, 2); read-only, built once."""
        return _as_readonly(np.array([(u, v) for u, v, _ in self.edges], dtype=int).reshape(-1, 2))

    @cached_property
    def sources(self) -> np.ndarray:
        return self.ends[:, 0]  # a view of read-only ends is read-only

    @cached_property
    def targets(self) -> np.ndarray:
        return self.ends[:, 1]

    @cached_property
    def weights(self) -> np.ndarray:
        return _as_readonly(np.array([e[2] for e in self.edges], dtype=float))

    def edge_angles(self, theta: Sequence[float]) -> np.ndarray:
        """A connection on this complex as a float array, one angle per edge;
        any other shape raises ``ValueError``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_edges,):
            raise ValueError(f"connection must have {self.num_edges} angles")
        return theta

    @cached_property
    def face_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`face_arrays` of the faces, read-only and built once."""
        arrays = face_arrays(self.faces)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def forest(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """BFS spanning forest: the vertices in visiting order, each vertex's
        forest edge (-1 at a root, the smallest vertex of its component) and
        the cotree edges.  Vertices and edges are scanned in index order."""
        V = self.num_vertices
        adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
        for e, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        parent = [-1] * V
        seen = [False] * V
        order: list[int] = []
        i = 0
        for root in range(V):
            if seen[root]:
                continue
            seen[root] = True
            order.append(root)
            while i < len(order):
                u = order[i]
                i += 1
                for v, e in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        parent[v] = e
                        order.append(v)
        tree = set(parent)
        cotree = tuple(e for e in range(self.num_edges) if e not in tree)
        return tuple(order), tuple(parent), cotree

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


def _as_size(n) -> int:
    """A size as an int; a float, string or bool is rejected, not truncated."""
    try:
        if not isinstance(n, bool):  # operator.index takes bools
            return operator.index(n)
    except TypeError:
        pass
    raise ValueError(f"sizes must be integers, got {n!r}")


@dataclass(frozen=True)
class SupercellSpec:
    """Sizes of a finite cover: the quotient of the Z^d cover by ``N Z^d``.

    Its deck group Z/N_1 x ... x Z/N_d acts by translations: its elements
    are the cells, and its characters the sampled Bloch momenta.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(map(_as_size, self.sizes)))
        if any(n < 1 for n in self.sizes):
            raise ValueError(f"sizes must be >= 1, got {self.sizes}")

    @property
    def num_cells(self) -> int:
        return math.prod(self.sizes)

    def cells(self) -> np.ndarray:
        """All cells as an array of shape (num_cells, d), lexicographic order."""
        if not self.sizes:
            return np.zeros((1, 0), dtype=int)
        grids = np.meshgrid(*[np.arange(n) for n in self.sizes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def rank(self, points: np.ndarray) -> np.ndarray:
        """Ranks in :meth:`cells` of points (..., d), reduced mod the sizes."""
        strides = [math.prod(self.sizes[j + 1 :]) for j in range(len(self.sizes))]
        return (points % np.array(self.sizes, dtype=int)) @ np.array(strides, dtype=int)


@dataclass(frozen=True, eq=False)
class SupercellMap:
    """Indexing of a supercell: vertex ``(cell, v)`` <-> flat index.

    Cells are ordered lexicographically (:meth:`SupercellSpec.cells`), and a
    cell's rank is its position in that order; the flat index is
    ``rank * base_vertices + v`` (cell-major blocks, which is the block
    structure used by deck translations and the Bloch transform).  Edges
    are numbered the same way: supercell edge ``rank * base_edges + e`` is
    the copy of base edge ``e`` based in that cell.
    """

    spec: SupercellSpec
    base_vertices: int
    base_edges: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.spec.sizes

    @property
    def num_cells(self) -> int:
        return self.spec.num_cells

    @property
    def num_vertices(self) -> int:
        return self.num_cells * self.base_vertices

    @property
    def edge_origin(self) -> np.ndarray:
        """``(rank, base_edge) = divmod(j, base_edges)`` of every supercell
        edge ``j``, shape (num_cells * base_edges, 2); read-only."""
        j = np.arange(self.num_cells * self.base_edges)
        return _as_readonly(np.stack(np.divmod(j, self.base_edges), axis=-1))


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
    w = complex2.weights
    for e in np.flatnonzero(~(np.isfinite(w) & (w > 0))).tolist():
        fail("edge_weights_positive", f"edge {e} has weight {complex2.edges[e][2]}", (e,))

    checks["potentials_finite"] = True
    if len(complex2.potentials) != V:
        fail("potentials_finite", f"expected {V} potentials, got {len(complex2.potentials)}")
    elif not np.all(np.isfinite(complex2.potentials)):
        bad = tuple(np.flatnonzero(~np.isfinite(complex2.potentials)))
        fail("potentials_finite", "non-finite potential values", bad)

    # every face at once: each face reports the first check it fails (empty
    # word, zero step, missing edge, open walk), and faces report in order
    checks["face_edge_refs"] = True
    checks["faces_closed"] = True
    try:
        words, lengths = _signed_words(complex2.faces)
    except OverflowError:  # an id past int64 references a missing edge all the same
        words, lengths = _signed_words(
            [[max(-E - 1, min(s, E + 1)) for s in word] for word in complex2.faces]
        )
    filled = np.arange(words.shape[1]) < lengths[:, None]
    edge, sign = np.abs(words) - 1, np.sign(words)
    zero = (filled & (sign == 0)).any(axis=1)
    missing = filled & (edge >= E)
    refs_ok = (lengths > 0) & ~zero & ~missing.any(axis=1)
    open_at = np.full(len(lengths), -1)
    if checks["edge_endpoints"] and refs_ok.any():
        f = np.flatnonzero(refs_ok)
        e, forward, n = edge[f], sign[f] > 0, lengths[f, None]
        start = np.where(forward, complex2.sources[e], complex2.targets[e])
        end = np.where(forward, complex2.targets[e], complex2.sources[e])
        step = np.arange(words.shape[1])
        after = np.take_along_axis(start, (step + 1) % n, axis=1)
        gap = (step < n) & (end != after)
        open_at[f] = np.where(gap.any(axis=1), (np.argmax(gap, axis=1) + 1) % n[:, 0], -1)
    for f in np.flatnonzero(~refs_ok | (open_at >= 0)).tolist():
        if lengths[f] == 0:
            fail("face_edge_refs", f"face {f} has empty boundary word", (f,))
        elif zero[f]:
            fail("face_edge_refs", f"face {f} contains a zero step", (f,))
        elif not refs_ok[f]:
            bad = tuple(np.flatnonzero(missing[f]).tolist())
            fail("face_edge_refs", f"face {f} references missing edges", (f,) + bad)
        else:
            j = int(open_at[f])
            fail("faces_closed", f"face {f}: not a closed walk at step {j}", (f, j))

    if covering is not None:
        checks["tau_shape"] = True
        if covering.tau.shape[0] != E:
            fail("tau_shape", f"expected {E} tau labels, got {covering.tau.shape[0]}")
        else:
            checks["face_tau_zero"] = True
            if checks["face_edge_refs"]:
                # tau summed along each word; the padding has sign 0
                shifts = np.sum(sign[:, :, None] * covering.tau[edge], axis=1)
                for f in np.flatnonzero(np.any(shifts != 0, axis=1)).tolist():
                    fail("face_tau_zero", f"face {f} lifts to shift {shifts[f].tolist()}", (f,))

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
    np.add.at(d1, (complex2.targets, np.arange(E)), 1)
    np.add.at(d1, (complex2.sources, np.arange(E)), -1)
    d2 = np.zeros((E, F), dtype=int)
    edges, signs, _ = complex2.face_words
    steps = signs != 0
    np.add.at(d2, (edges[steps], np.nonzero(steps)[0]), signs[steps])
    return d1, d2


def vertex_boundary(num_vertices: int, ends, chain) -> list[int]:
    """d1 of an integer 1-chain, exactly, from the (source, target) of each edge.

    A chain entry that is not an integer (0.5, inf, nan) is a ValueError;
    integer-valued floats count as their integers.
    """
    out = [0] * num_vertices
    for (u, v), c in zip(ends, chain):
        if c:
            try:
                k = int(c)
            except (OverflowError, ValueError):
                k = None
            if k is None or k != c:
                raise ValueError(f"chain entries must be integers, got {c!r}")
            out[v] += k
            out[u] -= k
    return out


def build_supercell(
    complex2: Complex2, covering: CoveringData, spec: SupercellSpec
) -> tuple[Complex2, SupercellMap]:
    """Realize the finite cover of ``spec`` as a complex of its own.

    Vertices are copies ``(cell, v)``; the copy of edge ``e`` based in
    ``cell`` runs to ``cell + tau[e]``, with cell coordinates reduced mod the
    sizes (the quotient by the deck group).  Every edge and face has one copy
    per cell, numbered cell-major.  Weights and potentials are copied to
    every cell.
    """
    if covering.rank != len(spec.sizes):
        raise ValueError(
            f"supercell sizes have length {len(spec.sizes)} but covering rank is {covering.rank}"
        )
    if covering.tau.shape[0] != complex2.num_edges:
        raise ValueError("covering labels do not match the number of edges")

    V, E = complex2.num_vertices, complex2.num_edges
    cells = spec.cells()
    tau = covering.tau

    # copy (cell, e) runs from cell to cell + tau[e] and is edge rank * E + e
    cell = np.arange(len(cells))[:, None]
    edges = zip(
        (cell * V + complex2.sources).ravel().tolist(),
        (spec.rank(cells[:, None, :] + tau[None, :, :]) * V + complex2.targets).ravel().tolist(),
        np.tile(complex2.weights, len(cells)).tolist(),
    )

    # every word is walked from every cell at once: step j uses the copy
    # based at cell + based[j]; past a word's end the sign is 0
    edge, sign, lengths = complex2.face_words
    step = sign[..., None] * tau[edge]
    after = np.cumsum(step, axis=1)
    based = np.where(sign[..., None] > 0, after - step, after)
    ids = sign * (spec.rank(cells[:, None, None, :] + based) * E + edge + 1)
    words = ids.reshape(len(cells) * len(lengths), edge.shape[1]).tolist()
    faces = [tuple(w[:n]) for w, n in zip(words, np.tile(lengths, len(cells)).tolist())]

    potentials = np.tile(complex2.potentials, len(cells))
    sc = Complex2(len(cells) * V, tuple(edges), tuple(faces), potentials)
    return sc, SupercellMap(spec, V, E)
