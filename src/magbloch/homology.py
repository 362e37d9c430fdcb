"""Exact integer homology of 2-cell complexes and its character group.

Everything here runs over arbitrary-precision Python ints; no intermediate
result is ever truncated to a machine word.  The Smith normal form uses a
deterministic pivot rule (smallest nonzero absolute value, row-major index
tie-break) so generator bases are reproducible across platforms.

There is one cycle basis: the fundamental cycles of the cotree edges of a
deterministic BFS spanning forest (:func:`spanning_forest`).  A 1-cycle's
coordinates in it are just its cotree entries, so H1 is presented by the
cotree rows of d2 and needs one Smith form.  The H1 generators computed
once per complex in that basis are reused by every downstream consumer
(characters, holonomy pairings, flat twists) so that angle coordinates stay
globally consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .complexes import Complex2, CoveringData, boundary_matrices, face_steps

__all__ = [
    "SmithDecomposition",
    "smith_normal_form",
    "HomologySummary",
    "spanning_forest",
    "homology",
    "Character",
    "evaluate_character",
    "CharacterGroup",
    "character_group",
    "cycle_label_invariants",
]

MAX_SNF_DIM = 4096

TWO_PI = 2.0 * np.pi


def _int_rows(A) -> list[list[int]]:
    """Copy a matrix into nested lists of Python ints; reject non-integers."""
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if not np.all(arr == np.round(arr)):
            raise ValueError("matrix entries must be integers")
    rows = []
    for row in arr.tolist():
        rows.append([int(x) for x in row])
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _obj_array(rows: list[list[int]], shape: tuple[int, int]) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    for i in range(shape[0]):
        for j in range(shape[1]):
            out[i, j] = rows[i][j]
    return out


def imat_vec(A: np.ndarray, x: Sequence[int]) -> list[int]:
    """Exact matrix-vector product over the integers."""
    m, n = A.shape
    xs = [int(v) for v in x]
    if len(xs) != n:
        raise ValueError("shape mismatch")
    return [sum(int(A[i, j]) * xs[j] for j in range(n)) for i in range(m)]


def int_det(A) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    M = _int_rows(A)
    n = len(M)
    if n == 0:
        return 1
    if any(len(r) != n for r in M):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """Exact decomposition A = U @ D @ V with unimodular U, V.

    D is (rectangular) diagonal with nonnegative entries satisfying the
    divisibility chain d_i | d_{i+1}.  ``u_inv`` and ``v_inv`` are carried
    along so that integer systems A x = b can be solved without re-inverting.
    All six matrices have dtype=object holding Python ints.
    """

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.D.shape

    @property
    def diagonal(self) -> list[int]:
        m, n = self.D.shape
        return [int(self.D[i, i]) for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def kernel_basis(self) -> np.ndarray:
        """Columns form a basis of the integer kernel of A (a direct summand)."""
        n = self.D.shape[1]
        r = self.rank
        return self.v_inv[:, r:n]

    def kernel_coordinates(self, x: Sequence[int]) -> list[int]:
        """Coordinates of a kernel vector in the :meth:`kernel_basis` columns."""
        y = imat_vec(self.V, x)
        r = self.rank
        if any(v != 0 for v in y[:r]):
            raise ValueError("vector is not in the kernel")
        return y[r:]

    def solve(self, b: Sequence[int]) -> list[int] | None:
        """One integer solution of A x = b, or None if none exists."""
        m, n = self.D.shape
        y = imat_vec(self.u_inv, b)
        diag = self.diagonal
        z = [0] * n
        for i in range(m):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if y[i] != 0:
                    return None
            else:
                q, rem = divmod(y[i], d)
                if rem != 0:
                    return None
                z[i] = q
        return imat_vec(self.v_inv, z)


def _pivot(M: list[list[int]], s: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(s, len(M)):
        row = M[i]
        for j in range(s, len(row)):
            a = row[j]
            if a != 0:
                v = abs(a)
                if best_val is None or v < best_val:
                    best, best_val = (i, j), v
    return best


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form over Z with deterministic pivoting.

    Returns U, D, V with A = U D V exactly, |det U| = |det V| = 1, and
    diagonal D obeying the divisibility chain.  Pivots are chosen as the
    smallest nonzero absolute value in the working submatrix, ties broken by
    row-major position, which makes the output reproducible.
    """
    m, n = np.asarray(A).shape
    D = _int_rows(A)
    if max(m, n, 1) > MAX_SNF_DIM:
        raise ValueError(f"matrix dimensions exceed the configured bound {MAX_SNF_DIM}")

    U = _identity(m)
    Ui = _identity(m)
    V = _identity(n)
    Vi = _identity(n)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        Ui[i], Ui[j] = Ui[j], Ui[i]
        for r in range(m):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def row_add(i, j, k):
        # D_new = E D with E adding k * row j to row i
        Di, Dj = D[i], D[j]
        for c in range(n):
            Di[c] += k * Dj[c]
        Uii, Uij = Ui[i], Ui[j]
        for c in range(m):
            Uii[c] += k * Uij[c]
        for r in range(m):
            U[r][j] -= k * U[r][i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        Ui[i] = [-x for x in Ui[i]]
        for r in range(m):
            U[r][i] = -U[r][i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        V[i], V[j] = V[j], V[i]
        for r in range(n):
            Vi[r][i], Vi[r][j] = Vi[r][j], Vi[r][i]

    def col_add(i, j, k):
        # D_new = D F with F adding k * column j to column i
        for r in range(m):
            D[r][i] += k * D[r][j]
        Vj, Vii = V[j], V[i]
        for c in range(n):
            Vj[c] -= k * Vii[c]
        for r in range(n):
            Vi[r][i] += k * Vi[r][j]

    s = 0
    while s < min(m, n):
        piv = _pivot(D, s)
        if piv is None:
            break
        i, j = piv
        if i != s:
            row_swap(s, i)
        if j != s:
            col_swap(s, j)

        dirty = False
        for r in range(s + 1, m):
            if D[r][s] != 0:
                q = D[r][s] // D[s][s]
                row_add(r, s, -q)
                if D[r][s] != 0:
                    dirty = True
        for c in range(s + 1, n):
            if D[s][c] != 0:
                q = D[s][c] // D[s][s]
                col_add(c, s, -q)
                if D[s][c] != 0:
                    dirty = True
        if dirty:
            continue

        # pivot now divides its row and column; enforce divisibility globally
        pivot_val = D[s][s]
        swallow = None
        for r in range(s + 1, m):
            for c in range(s + 1, n):
                if D[r][c] % pivot_val != 0:
                    swallow = r
                    break
            if swallow is not None:
                break
        if swallow is not None:
            row_add(s, swallow, 1)
            continue
        if pivot_val < 0:
            row_negate(s)
        s += 1

    return SmithDecomposition(
        U=_obj_array(U, (m, m)),
        D=_obj_array(D, (m, n)),
        V=_obj_array(V, (n, n)),
        u_inv=_obj_array(Ui, (m, m)),
        v_inv=_obj_array(Vi, (n, n)),
    )


@dataclass(frozen=True, eq=False)
class Character:
    """Point of the character group Hom(H1, S^1).

    ``angles`` holds one angle in [0, 2pi) per free H1 generator;
    ``torsion_indices`` holds k_i with 0 <= k_i < m_i per torsion factor
    Z/m_i, meaning the generator is sent to exp(2 pi i k_i / m_i).
    """

    angles: np.ndarray
    torsion_indices: tuple[int, ...] = ()

    def __post_init__(self):
        ang = np.mod(np.asarray(self.angles, dtype=float), TWO_PI)
        ang.flags.writeable = False
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "torsion_indices", tuple(int(k) for k in self.torsion_indices))

    @classmethod
    def trivial(cls, free_rank: int, torsion: Sequence[int] = ()) -> "Character":
        return cls(np.zeros(free_rank), tuple(0 for _ in torsion))

    @classmethod
    def from_turns(cls, turns: Sequence[float], torsion_indices: Sequence[int] = ()) -> "Character":
        """Build from angles measured in turns, i.e. value exp(2 pi i t)."""
        return cls(TWO_PI * np.asarray(turns, dtype=float), torsion_indices)

    @property
    def component(self) -> tuple[int, ...]:
        """Connected component of the character group this point lies in.

        The component is labeled by the torsion indices; the angles move
        within one component.  For connections with equal curvature, sharing
        a component means sharing the underlying bundle class.
        """
        return self.torsion_indices

    def reduce_torsion(self, orders: Sequence[int]) -> "Character":
        if len(orders) != len(self.torsion_indices):
            raise ValueError("torsion index count does not match the group")
        idx = tuple(k % m for k, m in zip(self.torsion_indices, orders))
        return Character(self.angles, idx)

    def __mul__(self, other: "Character") -> "Character":
        if len(self.angles) != len(other.angles) or len(self.torsion_indices) != len(
            other.torsion_indices
        ):
            raise ValueError("characters live on different groups")
        return Character(
            np.mod(self.angles + other.angles, TWO_PI),
            tuple(a + b for a, b in zip(self.torsion_indices, other.torsion_indices)),
        )

    def inverse(self) -> "Character":
        return Character(np.mod(-self.angles, TWO_PI), tuple(-k for k in self.torsion_indices))

    def angle_distance(self, other: "Character") -> float:
        """Largest circular distance between corresponding angles."""
        if len(self.angles) != len(other.angles):
            raise ValueError("characters live on different groups")
        if len(self.angles) == 0:
            return 0.0
        diff = np.mod(self.angles - other.angles, TWO_PI)
        return float(np.max(np.minimum(diff, TWO_PI - diff)))

    def isclose(self, other: "Character", tol: float = 1e-9) -> bool:
        """Equality with angles compared mod 2pi within tol; torsion exact."""
        return (
            self.torsion_indices == other.torsion_indices
            and self.angle_distance(other) <= tol
        )


@dataclass(frozen=True, eq=False)
class HomologySummary:
    """Betti numbers, torsion invariants, and explicit generator chains.

    ``h1_free_generators`` and ``h1_torsion_generators`` are integer
    1-chains (length E); ``h2_cycles`` is a basis of the 2-cycle lattice
    ker d2 (integer F-vectors).  H1 is computed in the basis of fundamental
    cycles of the cotree edges of :func:`spanning_forest`: a 1-cycle's
    coordinates there are its cotree entries, and the private Smith data of
    the cotree face matrix turns those into coefficients on the stored
    generators, exactly.
    """

    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    h1_free_generators: tuple[np.ndarray, ...]
    h1_torsion_generators: tuple[tuple[np.ndarray, int], ...]
    h2_cycles: tuple[np.ndarray, ...]
    num_vertices: int
    num_edges: int
    num_faces: int
    _edge_ends: tuple[tuple[int, int], ...] = field(repr=False)
    _cotree: tuple[int, ...] = field(repr=False)
    _uprime_inv: np.ndarray = field(repr=False)
    _free_slots: tuple[int, ...] = field(repr=False)
    _torsion_slots: tuple[int, ...] = field(repr=False)

    @property
    def h1_torsion_orders(self) -> tuple[int, ...]:
        return self.torsion[1]

    def euler_characteristic(self) -> int:
        b0, b1, b2 = self.betti
        return b0 - b1 + b2

    def is_cycle(self, chain: Sequence[int]) -> bool:
        chain = np.asarray(chain, dtype=object)
        if chain.shape != (self.num_edges,):
            raise ValueError(f"1-chain must have length {self.num_edges}")
        return not any(_vertex_boundary(self.num_vertices, self._edge_ends, chain))

    def cycle_coordinates(self, cycle: Sequence[int]) -> tuple[list[int], list[int]]:
        """Coefficients of a 1-cycle on the stored (free, torsion) generators.

        Free coefficients are exact integers; torsion coefficients are
        returned before reduction mod the factor orders.
        """
        cyc = [int(v) for v in np.asarray(cycle).tolist()]
        if len(cyc) != self.num_edges:
            raise ValueError(f"1-chain must have length {self.num_edges}")
        if not self.is_cycle(cyc):
            raise ValueError("not a cycle: boundary is nonzero")
        y = imat_vec(self._uprime_inv, [cyc[e] for e in self._cotree])
        free = [y[i] for i in self._free_slots]
        tors = [y[i] for i in self._torsion_slots]
        return free, tors

    def flat_values(self, chi: Character) -> np.ndarray:
        """Edge angles of a flat cocycle with holonomy character ``chi``.

        Zero on the spanning forest; on the cotree ``(U'^-1)^T w``, where
        ``w`` holds the character angles on the free slots, 2 pi k/m on the
        torsion slots and 0 on the killed ones.  Face sums lie in 2 pi Z.
        """
        if len(chi.angles) != self.betti[1] or len(chi.torsion_indices) != len(
            self.h1_torsion_orders
        ):
            raise ValueError("character does not match the homology of this complex")
        w = np.zeros(len(self._cotree))
        w[list(self._free_slots)] = chi.angles
        for slot, k_i, m_i in zip(
            self._torsion_slots, chi.torsion_indices, self.h1_torsion_orders
        ):
            w[slot] = TWO_PI * (k_i % m_i) / m_i
        values = np.zeros(self.num_edges)
        values[list(self._cotree)] = self._uprime_inv.astype(float).T @ w
        return values

    def to_dict(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "euler_characteristic": self.euler_characteristic(),
            "cells": [self.num_vertices, self.num_edges, self.num_faces],
            "h1_free_generators": [
                [int(x) for x in g] for g in self.h1_free_generators
            ],
            "h1_torsion_generators": [
                {"chain": [int(x) for x in g], "order": m}
                for g, m in self.h1_torsion_generators
            ],
            "h2_cycles": [[int(x) for x in z] for z in self.h2_cycles],
        }


def _vertex_boundary(num_vertices: int, ends, chain) -> list[int]:
    """d1 of an integer 1-chain, from the edge endpoints."""
    out = [0] * num_vertices
    for (u, v), c in zip(ends, chain):
        if c:
            out[v] += int(c)
            out[u] -= int(c)
    return out


def _bfs_forest(complex2: Complex2) -> tuple[list[int], list[int], tuple[int, ...]]:
    """BFS visiting order of the vertices, each vertex's forest edge, and the
    cotree edges in index order.

    Roots are the smallest vertex of each component and have edge -1.
    Vertices are visited in index order and edges scanned in index order.
    """
    V = complex2.num_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for e, (u, v, _) in enumerate(complex2.edges):
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
    return order, parent, tuple(e for e in range(complex2.num_edges) if e not in tree)


def spanning_forest(complex2: Complex2) -> list[int]:
    """Edges of a BFS spanning forest, rooted at the smallest vertex of each
    component.  Deterministic: vertices are visited in index order and edges
    scanned in index order, so the gauge it induces is reproducible."""
    return sorted(e for e in _bfs_forest(complex2)[1] if e >= 0)


def homology(complex2: Complex2) -> HomologySummary:
    """Compute H0, H1, H2 with generators, in the spanning-forest cycle basis.

    The fundamental cycles of the cotree edges are a basis of ker d1, and a
    face boundary's coordinates in it are its cotree rows, so H1 is the
    cokernel of X = d2[cotree, :].  One Smith form of X gives the torsion
    orders (invariant factors), the generator chains (U columns set on the
    cotree and completed to cycles up the forest), and H2 = ker d2 = ker X
    (there are no 3-cells), returned as a lattice basis.
    """
    _, d2 = boundary_matrices(complex2)
    V, E, F = complex2.num_vertices, complex2.num_edges, complex2.num_faces
    ends = tuple((u, v) for u, v, _ in complex2.edges)
    for word in complex2.faces:
        steps = face_steps(word)
        if any(_vertex_boundary(V, [ends[e] for e, _ in steps], [s for _, s in steps])):
            raise AssertionError("face boundary is not a 1-cycle; complex is invalid")

    order, parent, cotree = _bfs_forest(complex2)
    k = len(cotree)

    snfX = smith_normal_form(d2[list(cotree), :])
    rX = snfX.rank
    dX = snfX.diagonal

    free_slots = tuple(range(rX, k))
    torsion_slots = tuple(i for i in range(rX) if dX[i] > 1)
    h1_torsion = tuple(dX[i] for i in torsion_slots)

    def chain_for_slot(i: int) -> np.ndarray:
        chain = [0] * E
        for r, e in enumerate(cotree):
            chain[e] = int(snfX.U[r, i])
        # push each vertex's excess up its forest edge, leaves first
        excess = _vertex_boundary(V, ends, chain)
        for x in reversed(order):
            e = parent[x]
            if e >= 0:
                u, v = ends[e]
                chain[e] = excess[x] if u == x else -excess[x]
                excess[u if v == x else v] += excess[x]
        return np.array(chain, dtype=object)

    Z = snfX.kernel_basis()  # F x b2
    return HomologySummary(
        betti=(parent.count(-1), len(free_slots), Z.shape[1]),
        torsion=((), h1_torsion, ()),
        h1_free_generators=tuple(chain_for_slot(i) for i in free_slots),
        h1_torsion_generators=tuple((chain_for_slot(i), dX[i]) for i in torsion_slots),
        h2_cycles=tuple(
            np.array([int(Z[r, j]) for r in range(F)], dtype=object) for j in range(Z.shape[1])
        ),
        num_vertices=V,
        num_edges=E,
        num_faces=F,
        _edge_ends=ends,
        _cotree=cotree,
        _uprime_inv=snfX.u_inv,
        _free_slots=free_slots,
        _torsion_slots=torsion_slots,
    )


def evaluate_character(
    chi: Character, summary: HomologySummary, cycle: Sequence[int]
) -> complex:
    """Value of a character on an integer 1-cycle.

    The cycle is re-expressed in the stored generator basis by an exact
    integer solve, so homologous cycles evaluate identically; the result is
    exp(i sum angles * coeffs) times the torsion roots of unity.
    """
    free, tors = summary.cycle_coordinates(cycle)
    if len(chi.angles) != len(free) or len(chi.torsion_indices) != len(tors):
        raise ValueError("character does not match the homology of this complex")
    phase = 0.0
    for a, c in zip(chi.angles, free):
        phase = np.mod(phase + a * c, TWO_PI)
    for k_i, m_i, c in zip(chi.torsion_indices, summary.h1_torsion_orders, tors):
        phase = np.mod(phase + TWO_PI * (k_i * (c % m_i)) / m_i, TWO_PI)
    return complex(np.exp(1j * phase))


@dataclass(frozen=True)
class CharacterGroup:
    """Descriptor of Hom(H1, S^1): a b1-torus times a finite torsion part."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def num_components(self) -> int:
        out = 1
        for m in self.torsion:
            out *= m
        return out

    def enumerate_torsion(self) -> Iterator[Character]:
        """All characters of the finite part (angles zero), one per component."""
        for combo in itertools.product(*[range(m) for m in self.torsion]):
            yield Character(np.zeros(self.free_rank), combo)

    def grid(self, n: int) -> Iterator[Character]:
        """Characters with angles on the uniform n-grid per torus direction."""
        if n < 1:
            raise ValueError("grid size must be >= 1")
        steps = [TWO_PI * m / n for m in range(n)]
        for torsion in self.enumerate_torsion():
            for combo in itertools.product(steps, repeat=self.free_rank):
                yield Character(np.array(combo), torsion.torsion_indices)

    def sample(self, rng: np.random.Generator, include_torsion: bool = True) -> Character:
        """One uniform random character."""
        angles = rng.uniform(0.0, TWO_PI, size=self.free_rank)
        torsion = tuple(
            int(rng.integers(m)) if include_torsion else 0 for m in self.torsion
        )
        return Character(angles, torsion)


def character_group(summary: HomologySummary) -> CharacterGroup:
    """The character group of H1, from a homology summary."""
    return CharacterGroup(summary.betti[1], summary.h1_torsion_orders)


def cycle_label_invariants(
    complex2: Complex2, covering: CoveringData
) -> tuple[int, list[int]]:
    """Rank and invariant factors of the cycle-label map H1 -> Z^d.

    A 1-cycle z maps to tau^T z; surjectivity (all d factors equal to 1)
    means the labels present a connected cover.  On the fundamental cycle
    of cotree edge c the map is tau_c + p(source_c) - p(target_c), where the
    forest potential p(x) sums tau along the forest path from the root to x.
    """
    order, parent, cotree = _bfs_forest(complex2)
    tau = covering.tau.tolist()
    p = [[0] * covering.rank for _ in range(complex2.num_vertices)]
    for x in order:
        e = parent[x]
        if e >= 0:
            u, v, _ = complex2.edges[e]
            if v == x:
                p[x] = [a + t for a, t in zip(p[u], tau[e])]
            else:
                p[x] = [a - t for a, t in zip(p[v], tau[e])]
    L = np.zeros((covering.rank, len(cotree)), dtype=object)
    for j, c in enumerate(cotree):
        u, v, _ = complex2.edges[c]
        L[:, j] = [t + a - b for t, a, b in zip(tau[c], p[u], p[v])]
    snfL = smith_normal_form(L)
    return snfL.rank, snfL.invariant_factors()
