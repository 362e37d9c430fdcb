"""Magnetic Bochner-Laplacian matrices on quotients, fibers, and supercells.

The operator at a vertex v is

    (H psi)(v) = sum_{edges e at v} w_e (psi(v) - exp(i theta_{e->v}) psi(other))
                 + potential(v) psi(v)

where ``theta_{e->v}`` is the transport phase *into* v: +theta_e when v is
the edge's target, -theta_e when v is its source.  This fixes Hermiticity by
construction and matches the +k.tau fiber twist of the Bloch module.
Matrices are dense; a configurable threshold rejects oversized requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import Complex2, CoveringData, SupercellMap, SupercellSpec

__all__ = [
    "MagneticOperator",
    "Spectrum",
    "NumericError",
    "DENSE_THRESHOLD",
    "assemble_quotient",
    "assemble_fiber",
    "assemble_supercell",
    "spectrum",
    "translate",
    "translation_matrix",
]

DENSE_THRESHOLD = 2048

HERMITICITY_TOL = 1e-10


class NumericError(RuntimeError):
    """Raised when a numerical contract is violated (non-Hermitian input,
    oversized dense solve, excessive eigenpair residual)."""


@dataclass(frozen=True, eq=False)
class MagneticOperator:
    """Dense Hermitian matrix with a provenance tag.

    ``provenance`` records how the operator was assembled: "quotient",
    "fiber(k=...)", or "supercell(N=..., boundary)".
    """

    matrix: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        if self.dimension == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def norm(self) -> float:
        """Max-row-sum bound on the operator norm (cheap, solver-free)."""
        if self.dimension == 0:
            return 0.0
        return float(np.max(np.sum(np.abs(self.matrix), axis=1)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with the worst eigenpair residual of the solve."""

    eigenvalues: np.ndarray
    residual: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _edge_phases(
    complex2: Complex2, theta: Sequence[float] | None
) -> np.ndarray:
    if theta is None:
        return np.zeros(complex2.num_edges)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (complex2.num_edges,):
        raise ValueError(f"connection must have {complex2.num_edges} angles")
    return theta


def _assemble(
    complex2: Complex2, phases: np.ndarray, provenance: str
) -> MagneticOperator:
    n = complex2.num_vertices
    H = np.zeros((n, n), dtype=complex)
    diag = np.zeros(n)
    for e, (u, v, w) in enumerate(complex2.edges):
        diag[u] += w
        diag[v] += w
        z = w * np.exp(1j * phases[e])
        H[v, u] -= z
        H[u, v] -= z.conjugate()
    diag += complex2.potentials
    H[np.diag_indices(n)] += diag
    return MagneticOperator(H, provenance)


def assemble_quotient(
    complex2: Complex2, theta: Sequence[float] | None = None
) -> MagneticOperator:
    """Bochner Laplacian plus potential on the quotient complex."""
    return _assemble(complex2, _edge_phases(complex2, theta), "quotient")


def assemble_fiber(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    k: Sequence[float],
) -> MagneticOperator:
    """Fiber operator at momentum k: every edge phase shifted by k . tau(e)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (covering.rank,):
        raise ValueError(f"momentum must have length {covering.rank}, got {k.shape}")
    phases = _edge_phases(complex2, theta)
    if covering.tau.shape[0] != complex2.num_edges:
        raise ValueError("covering labels do not match the number of edges")
    twist = covering.tau.astype(float) @ k if covering.rank else np.zeros(len(phases))
    ktxt = ",".join(f"{v:.6g}" for v in k)
    return _assemble(complex2, phases + twist, f"fiber(k=[{ktxt}])")


def assemble_supercell(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    spec: SupercellSpec,
) -> MagneticOperator:
    """Periodic copies of the quotient operator on a finite block of the cover.

    With periodic boundary the hopping wraps around without extra twist and
    the result equals the quotient assembly of :func:`build_supercell`'s
    complex.  With dirichlet boundary the operator is the compression of the
    periodic one onto the block: diagonal entries keep every incident cover
    edge while hoppings that leave the block are dropped.
    """
    if covering.rank != len(spec.sizes):
        raise ValueError(
            f"supercell sizes have length {len(spec.sizes)} but covering rank is {covering.rank}"
        )
    phases = _edge_phases(complex2, theta)
    V = complex2.num_vertices
    sizes = np.array(spec.sizes, dtype=int)
    periodic = spec.boundary == "periodic"
    sc_map = SupercellMap(spec, V, complex2.num_edges, ())
    cells = sc_map.cells()
    n = len(cells) * V
    H = np.zeros((n, n), dtype=complex)
    diag = np.zeros(n)
    for r in range(len(cells)):
        cell = cells[r]
        base = r * V
        for e, (u, v, w) in enumerate(complex2.edges):
            # every incident cover edge contributes to the diagonal
            diag[base + u] += w
            diag[base + v] += w
            cell2 = cell + covering.tau[e]
            if periodic:
                r2 = sc_map.cell_rank(cell2)
            else:
                if np.any(cell2 < 0) or np.any(cell2 >= sizes):
                    continue
                r2 = sc_map.cell_rank(cell2)
            i = base + u
            j = r2 * V + v
            z = w * np.exp(1j * phases[e])
            H[j, i] -= z
            H[i, j] -= z.conjugate()
        diag[base : base + V] += complex2.potentials
    H[np.diag_indices(n)] += diag
    tag = f"supercell(N={spec.sizes}, {spec.boundary})"
    return MagneticOperator(H, tag)


def spectrum(op: MagneticOperator, dense_threshold: int = DENSE_THRESHOLD) -> Spectrum:
    """Full Hermitian eigendecomposition, with residual verification.

    Rejects matrices larger than ``dense_threshold`` (reduce the supercell
    size or grid instead) and matrices whose Hermiticity defect exceeds
    1e-10.  The returned residual is max_i ||H v_i - lam_i v_i||_2.
    """
    n = op.dimension
    if n > dense_threshold:
        raise NumericError(
            f"matrix dimension {n} exceeds the dense solver threshold {dense_threshold}; "
            "reduce the supercell size or grid"
        )
    defect = op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise NumericError(f"not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_TOL}")
    if n == 0:
        return Spectrum(np.zeros(0), 0.0)
    H = 0.5 * (op.matrix + op.matrix.conj().T)
    vals, vecs = np.linalg.eigh(H)
    residual = float(np.max(np.linalg.norm(H @ vecs - vecs * vals, axis=0)))
    scale = max(op.norm(), 1.0)
    if residual > 1e-8 * scale:
        raise NumericError(f"eigenpair residual {residual:.3e} exceeds 1e-8 * {scale:.3e}")
    return Spectrum(np.sort(vals), residual)


def translate(
    s: Sequence[complex], gamma: Sequence[int], sc_map: SupercellMap
) -> np.ndarray:
    """Deck translation on supercell vectors: (T_gamma s)(cell, v) = s(cell - gamma, v).

    Requires a periodic supercell; the map permutes cell blocks, is unitary,
    and satisfies T_gamma T_delta = T_{gamma+delta}.
    """
    if sc_map.spec.boundary != "periodic":
        raise ValueError("deck translations require a periodic supercell")
    s = np.asarray(s)
    if s.shape[0] != sc_map.num_vertices:
        raise ValueError(f"vector must have length {sc_map.num_vertices}")
    gamma = np.asarray(gamma, dtype=int)
    if gamma.shape != (len(sc_map.sizes),):
        raise ValueError(f"translation must have length {len(sc_map.sizes)}")
    cells = sc_map.cells()
    V = sc_map.base_vertices
    out = np.empty_like(s)
    for r in range(len(cells)):
        r_src = sc_map.cell_rank(cells[r] - gamma)
        out[r * V : (r + 1) * V] = s[r_src * V : (r_src + 1) * V]
    return out


def translation_matrix(sc_map: SupercellMap, gamma: Sequence[int]) -> np.ndarray:
    """Dense permutation matrix of :func:`translate` (for commutator checks)."""
    n = sc_map.num_vertices
    T = np.zeros((n, n))
    eye = np.eye(n)
    for col in range(n):
        T[:, col] = translate(eye[:, col], gamma, sc_map).real
    return T
