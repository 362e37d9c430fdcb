"""Exact integer homology of 2-cell complexes and its character group.

Everything here runs over arbitrary-precision Python ints; no intermediate
result is ever truncated to a machine word.  Exact integer matrices are
numpy arrays of dtype=object holding Python ints.  The Smith normal form
eliminates on sparse rows of Python ints, with a deterministic pivot rule
(smallest nonzero absolute value, row-major index tie-break, floor
quotients), so generator bases are reproducible across platforms; its dense
matrices are filled only when a caller reads them, and homology reads the
sparse rows.

There is one cycle basis: the fundamental cycles of the cotree edges of a
deterministic BFS spanning forest (:func:`spanning_forest`).  A 1-cycle's
coordinates in it are just its cotree entries, so H1 is presented by the
cotree rows of d2 and needs one Smith form.  The H1 generators computed
once per complex in that basis are reused by every downstream consumer
(characters, holonomy pairings, flat twists, connection synthesis) so that
angle coordinates stay globally consistent.  Connections are read off two
dense float matrices filled from that Smith data, once per complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .complexes import Complex2, CoveringData, vertex_boundary
from .operators import NumericError

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


def _checked(A) -> np.ndarray:
    """A as a 2-d array; reject entries that are not finite integers, of any
    dtype."""
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.dtype.kind in "biu":
        return arr
    if arr.dtype.kind == "f":
        integral = np.all(np.isfinite(arr) & (arr == np.round(arr)))
    else:
        integral = all(_is_integer(x) for x in arr.flat)
    if not integral:
        raise ValueError("matrix entries must be integers")
    return arr


def _is_integer(x) -> bool:
    """Whether ``x == int(x)``; an infinite, NaN or complex entry is not."""
    if isinstance(x, (complex, np.complexfloating)):
        return False
    try:
        return bool(x == int(x))
    except (TypeError, ValueError, OverflowError):
        return False


def _axpy(dst: dict, k: int, src: dict) -> None:
    """dst += k * src on sparse vectors, dropping entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, 0) + k * x
        if y:
            dst[i] = y
        else:
            dst.pop(i, None)


def _add(rows: list[dict], in_col: list[set], r: int, c: int, x: int) -> None:
    """rows[r][c] += x, keeping the column-to-rows index in step."""
    row = rows[r]
    y = row.get(c, 0) + x
    if y:
        if c not in row:
            in_col[c].add(r)
        row[c] = y
    elif c in row:
        del row[c]
        in_col[c].discard(r)


def _dense(
    shape: tuple[int, int], vectors: list[dict], columns: bool = False, dtype=object
) -> np.ndarray:
    """Array whose rows (or columns) are the sparse ``vectors``, in order:
    the Python ints themselves, or cast to ``dtype`` as ``astype`` casts an
    object array."""
    out = np.zeros(shape, dtype=dtype)
    counts = [len(vec) for vec in vectors]
    at = np.repeat(np.arange(len(vectors)), counts)
    index = np.fromiter(itertools.chain.from_iterable(vectors), dtype=int, count=len(at))
    values = itertools.chain.from_iterable(vec.values() for vec in vectors)
    values = np.array(list(values), dtype=object)
    out[(index, at) if columns else (at, index)] = values.astype(dtype)
    return out


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """Exact decomposition A = U @ D @ V with unimodular U, V.

    D is (rectangular) diagonal with nonnegative entries satisfying the
    divisibility chain d_i | d_{i+1}.  ``u_inv`` and ``v_inv`` are carried
    along so that callers can map back to the original bases without
    re-inverting.
    All five matrices have dtype=object holding Python ints.
    :func:`smith_normal_form` keeps the sparse rows and columns it
    eliminates on and fills each dense matrix from them on first access.
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
        return self.v_inv[:, self.rank :]


def _require_snf_shape(shape: tuple[int, int]) -> None:
    """Raise :class:`NumericError` if a matrix of this shape has a side
    longer than ``MAX_SNF_DIM``; callers check before they allocate it."""
    if max(shape) > MAX_SNF_DIM:
        raise NumericError(
            f"Smith normal form: matrix shape {shape} exceeds the configured bound {MAX_SNF_DIM}"
        )


class _SparseSmith(SmithDecomposition):
    """A :class:`SmithDecomposition` as the elimination leaves it: the
    invariant factors and, by position, the columns of U and V^-1 and the
    rows of U^-1 and V, each a ``{original index: int}`` dict.  A dense
    matrix is filled from them on first access, once."""

    def __init__(self, shape, pivots, u_cols, u_inv_rows, v_rows, v_inv_cols):
        for name, value in [
            ("_shape", shape),
            ("_pivots", pivots),
            ("_u_cols", u_cols),
            ("_u_inv_rows", u_inv_rows),
            ("_v_rows", v_rows),
            ("_v_inv_cols", v_inv_cols),
        ]:
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def diagonal(self) -> list[int]:
        return self._pivots + [0] * (min(self._shape) - len(self._pivots))

    @cached_property
    def U(self) -> np.ndarray:
        m = self._shape[0]
        return _dense((m, m), self._u_cols, columns=True)

    @cached_property
    def D(self) -> np.ndarray:
        return _dense(self._shape, [{p: d} for p, d in enumerate(self._pivots)])

    @cached_property
    def V(self) -> np.ndarray:
        n = self._shape[1]
        return _dense((n, n), self._v_rows)

    @cached_property
    def u_inv(self) -> np.ndarray:
        m = self._shape[0]
        return _dense((m, m), self._u_inv_rows)

    @cached_property
    def v_inv(self) -> np.ndarray:
        n = self._shape[1]
        return _dense((n, n), self._v_inv_cols, columns=True)


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form over Z with deterministic pivoting.

    Returns U, D, V with A = U D V exactly, |det U| = |det V| = 1, and
    diagonal D obeying the divisibility chain.  Pivots are chosen as the
    smallest nonzero absolute value in the working submatrix, ties broken by
    row-major position, which makes the output reproducible.

    The elimination runs on sparse rows: D's rows are ``{column: int}``
    dicts with a column-to-rows index; the rows of U^-1 and the columns of U
    go with D's rows, the columns of V^-1 and the rows of V with its
    columns, all as dicts keyed by original index.  A row or column keeps
    its key through swaps, which only permute positions, so the pivot rule
    reads positions while every operation reads keys.  The pivot search
    walks the rows in position order and stops at the first one holding a
    unit.  The dense matrices are filled from the sparse rows when first
    read.
    """
    A = np.asarray(A)
    if A.ndim == 2:
        _require_snf_shape(A.shape)
    A = _checked(A)
    m, n = A.shape
    rows: list[dict] = [{} for _ in range(m)]
    in_col: list[set] = [set() for _ in range(n)]
    nz_i, nz_j = np.nonzero(A)
    for i, j, x in zip(nz_i.tolist(), nz_j.tolist(), A[nz_i, nz_j].tolist()):
        x = int(x)
        if x:
            rows[i][j] = x
            in_col[j].add(i)

    U = [{i: 1} for i in range(m)]  # column of U, by row key
    U_inv = [{i: 1} for i in range(m)]  # row of U^-1, by row key
    V = [{j: 1} for j in range(n)]  # row of V, by column key
    V_inv = [{j: 1} for j in range(n)]  # column of V^-1, by column key
    row_at, col_at = list(range(m)), list(range(n))  # key at each position
    col_pos = list(range(n))  # position of each column key
    pivots: list[int] = []

    s = 0
    while s < min(m, n):
        best = None
        for p in range(s, m):
            row = rows[row_at[p]]
            if row:
                a, _, c = min((abs(x), col_pos[c], c) for c, x in row.items())
                if best is None or a < best[0]:
                    best = (a, p, c)
                    if a == 1:  # nothing is smaller, and later rows lose ties
                        break
        if best is None:
            break
        _, i, C = best
        R, j = row_at[i], col_pos[C]
        if i != s:
            row_at[s], row_at[i] = R, row_at[s]
        if j != s:
            col_at[s], col_at[j] = C, col_at[s]
            col_pos[C], col_pos[col_at[j]] = s, j

        # subtract q_r times row R from each other row r with an entry in C
        piv_row = rows[R]
        pivot = piv_row[C]
        for r in [r for r in in_col[C] if r != R]:
            q = rows[r][C] // pivot
            for c, x in piv_row.items():
                _add(rows, in_col, r, c, -q * x)
            _axpy(U_inv[r], -q, U_inv[R])
            _axpy(U[R], q, U[r])
        # subtract q_c times column C from each other column c with an entry in R
        for c, x in [(c, x) for c, x in piv_row.items() if c != C]:
            q = x // pivot
            for r in in_col[C]:
                _add(rows, in_col, r, c, -q * rows[r][C])
            _axpy(V_inv[c], -q, V_inv[C])
            _axpy(V[C], q, V[c])
        if len(in_col[C]) > 1 or len(piv_row) > 1:
            continue

        # pivot now divides its row and column; enforce divisibility globally
        # (a unit divides everything)
        if abs(pivot) != 1:
            bad = next(
                (r for r in row_at[s + 1 :] if any(x % pivot for x in rows[r].values())), None
            )
            if bad is not None:
                for c, x in rows[bad].items():
                    _add(rows, in_col, R, c, x)
                _axpy(U_inv[R], 1, U_inv[bad])
                _axpy(U[bad], -1, U[R])
                continue
        if pivot < 0:
            U_inv[R] = {j: -x for j, x in U_inv[R].items()}
            U[R] = {i: -x for i, x in U[R].items()}
        pivots.append(abs(pivot))
        rows[R] = {}
        in_col[C].clear()
        s += 1

    return _SparseSmith(
        (m, n),
        pivots,
        [U[r] for r in row_at],
        [U_inv[r] for r in row_at],
        [V[c] for c in col_at],
        [V_inv[c] for c in col_at],
    )


@dataclass(frozen=True, eq=False)
class Character:
    """Point of the character group Hom(H1, S^1).

    ``angles`` holds one angle in [0, 2pi) per free H1 generator;
    ``torsion_indices`` holds k_i with 0 <= k_i < m_i per torsion factor
    Z/m_i, meaning the generator is sent to exp(2 pi i k_i / m_i).  The
    torsion indices label the connected component of the character group;
    the angles move within one component.  For connections with equal
    curvature, sharing a component means sharing the underlying bundle class.
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
    coordinates there are its cotree entries, and the sparse exact rows of
    U'^-1 kept here (U' from the Smith form of the cotree face matrix) turn
    those into coefficients on the stored generators.  Two dense float
    matrices filled from the Smith data give the flat cocycles and
    connections.
    """

    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    h1_free_generators: tuple[np.ndarray, ...]
    h1_torsion_generators: tuple[tuple[np.ndarray, int], ...]
    h2_cycles: tuple[np.ndarray, ...]
    num_vertices: int
    num_edges: int
    num_faces: int
    _ends: np.ndarray = field(repr=False)
    _cotree: tuple[int, ...] = field(repr=False)
    # rows of U'^-1 at the free, then the torsion slots: {cotree position: int}
    _coordinate_rows: tuple[dict, ...] = field(repr=False)
    _uprime_inv_float: np.ndarray = field(repr=False)
    _image_coords_float: np.ndarray = field(repr=False)
    _image_factors: tuple[int, ...] = field(repr=False)
    _h2_dual_rowsum: int = field(repr=False)
    _free_slots: tuple[int, ...] = field(repr=False)
    _torsion_slots: tuple[int, ...] = field(repr=False)

    @property
    def h1_torsion_orders(self) -> tuple[int, ...]:
        return self.torsion[1]

    def euler_characteristic(self) -> int:
        b0, b1, b2 = self.betti
        return b0 - b1 + b2

    def is_cycle(self, chain: Sequence[int]) -> bool:
        """Whether an integer 1-chain has zero boundary; a non-integer entry
        is a ValueError."""
        chain = np.asarray(chain, dtype=object)
        if chain.shape != (self.num_edges,):
            raise ValueError(f"1-chain must have length {self.num_edges}")
        on = np.flatnonzero(chain)
        return not any(vertex_boundary(self.num_vertices, self._ends[on].tolist(), chain[on]))

    def cycle_coordinates(self, cycle: Sequence[int]) -> tuple[list[int], list[int]]:
        """Coefficients of a 1-cycle on the stored (free, torsion) generators.

        Free coefficients are exact integers; torsion coefficients are
        returned before reduction mod the factor orders.  A chain with a
        non-integer entry is a ValueError, as is one that is not a cycle.
        """
        if not self.is_cycle(cycle):
            raise ValueError("not a cycle: boundary is nonzero")
        cyc = [int(v) for v in np.asarray(cycle)[list(self._cotree)].tolist()]
        y = [sum(x * cyc[j] for j, x in row.items()) for row in self._coordinate_rows]
        return y[: self.betti[1]], y[self.betti[1] :]

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
        values[list(self._cotree)] = self._uprime_inv_float.T @ w
        return values

    def connection_values(self, flux: Sequence[float]) -> np.ndarray:
        """Edge angles, zero on the spanning forest and with trivial holonomy
        on the free generators, whose face sums are ``flux`` mod 2 pi when its
        pairings with ``h2_cycles`` are whole quanta.

        With X = d2[cotree, :] = U D V the face sums are X^T theta[cotree];
        for y = V^-T flux, theta[cotree] = (U^-1)^T s with s_i = y_i / d_i on
        the rank slots and 0 on the rest.  The dropped y[rank:] are 2 pi times
        the pairings p, so a face misses flux by 2 pi V[rank:, :]^T (p - round p)
        mod 2 pi: see :meth:`connection_defect_bound`.
        """
        s = np.divide(self._image_coords_float @ flux, self._image_factors)
        values = np.zeros(self.num_edges)
        values[list(self._cotree)] = self._uprime_inv_float[: len(s)].T @ s
        return values

    def connection_defect_bound(self, residue: float) -> float:
        """Largest face miss of :meth:`connection_values` for a flux whose
        pairings are within ``residue`` quanta of integers: 2 pi ``residue``
        times the largest row sum of |V[rank:, :]^T|, in exact arithmetic."""
        return TWO_PI * residue * self._h2_dual_rowsum

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


def spanning_forest(complex2: Complex2) -> list[int]:
    """Edges of a BFS spanning forest, rooted at the smallest vertex of each
    component.  Deterministic: vertices are visited in index order and edges
    scanned in index order, so the gauge it induces is reproducible."""
    return sorted(e for e in complex2.forest[1] if e >= 0)


def homology(complex2: Complex2) -> HomologySummary:
    """Compute H0, H1, H2 with generators, in the spanning-forest cycle basis.

    The fundamental cycles of the cotree edges are a basis of ker d1, and a
    face boundary's coordinates in it are its cotree rows, so H1 is the
    cokernel of X = d2[cotree, :].  One Smith form of X gives the torsion
    orders (invariant factors), the generator chains (U columns set on the
    cotree and completed to cycles up the forest), and H2 = ker d2 = ker X
    (there are no 3-cells), returned as a lattice basis.
    """
    V, E, F = complex2.num_vertices, complex2.num_edges, complex2.num_faces
    words, signs, _ = complex2.face_words
    f, step = np.nonzero(signs)
    e, c = words[f, step], signs[f, step]
    # d1 d2 = 0 face by face: sum the signed ends of the face steps per
    # (vertex, face) pair, without forming d1, d2 or their product
    pairs = np.concatenate([complex2.targets[e], complex2.sources[e]]) * F + np.tile(f, 2)
    _, which = np.unique(pairs, return_inverse=True)
    if np.any(np.bincount(which, weights=np.concatenate([c, -c]))):
        raise AssertionError("face boundary is not a 1-cycle; complex is invalid")

    order, parent, cotree = complex2.forest
    k = len(cotree)
    _require_snf_shape((k, F))  # before X, which holds k * F integers

    # X = d2[cotree, :], summed from the steps along cotree edges
    row = np.full(E, -1)
    row[list(cotree)] = np.arange(k)
    on = row[e] >= 0
    X = np.zeros((k, F), dtype=int)
    np.add.at(X, (row[e[on]], f[on]), c[on])
    snfX = smith_normal_form(X)
    rX = snfX.rank
    dX = snfX.diagonal

    free_slots = tuple(range(rX, k))
    torsion_slots = tuple(i for i in range(rX) if dX[i] > 1)
    ends = complex2.ends.tolist()

    def chain_for_slot(i: int) -> np.ndarray:
        # U's column i on the cotree, completed to a cycle up the forest
        column = snfX._u_cols[i]
        chain = np.zeros(E, dtype=object)
        chain[[cotree[p] for p in column]] = np.array(list(column.values()), dtype=object)
        excess = vertex_boundary(V, [ends[cotree[p]] for p in column], column.values())
        # push each vertex's excess up its forest edge, leaves first
        for x in reversed(order):
            e = parent[x]
            if e >= 0:
                u, v = ends[e]
                chain[e] = excess[x] if u == x else -excess[x]
                excess[u if v == x else v] += excess[x]
        return chain

    Z = _dense((F, F - rX), snfX._v_inv_cols[rX:], columns=True)  # ker X, F x b2
    h2_dual = _dense((F - rX, F), snfX._v_rows[rX:])  # V[rX:, :]
    return HomologySummary(
        betti=(parent.count(-1), len(free_slots), Z.shape[1]),
        torsion=((), tuple(dX[i] for i in torsion_slots), ()),
        h1_free_generators=tuple(chain_for_slot(i) for i in free_slots),
        h1_torsion_generators=tuple((chain_for_slot(i), dX[i]) for i in torsion_slots),
        h2_cycles=tuple(z.copy() for z in Z.T),
        num_vertices=V,
        num_edges=E,
        num_faces=F,
        _ends=complex2.ends,
        _cotree=cotree,
        _coordinate_rows=tuple(snfX._u_inv_rows[i] for i in free_slots + torsion_slots),
        _uprime_inv_float=_dense((k, k), snfX._u_inv_rows, dtype=float),
        # (F, rX) in memory, read as its (rX, F) transpose
        _image_coords_float=_dense((F, rX), snfX._v_inv_cols[:rX], columns=True, dtype=float).T,
        _image_factors=tuple(dX[:rX]),
        _h2_dual_rowsum=int(np.max(np.sum(np.abs(h2_dual), axis=0), initial=0)),
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

    def sample(self, rng: np.random.Generator) -> Character:
        """One uniform random character."""
        angles = rng.uniform(0.0, TWO_PI, size=self.free_rank)
        torsion = tuple(int(rng.integers(m)) for m in self.torsion)
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
    The Smith form runs on the distinct nonzero labels, sorted.
    """
    order, parent, cotree = complex2.forest
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
    columns = set()
    for c in cotree:
        u, v, _ = complex2.edges[c]
        columns.add(tuple(t + a - b for t, a, b in zip(tau[c], p[u], p[v])))
    # rank and invariant factors depend only on the lattice the columns span
    columns.discard((0,) * covering.rank)
    L = np.zeros((covering.rank, len(columns)), dtype=object)
    for j, col in enumerate(sorted(columns)):
        L[:, j] = col
    snfL = smith_normal_form(L)
    return snfL.rank, snfL.invariant_factors()
