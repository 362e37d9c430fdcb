"""Discrete U(1) connections: flux, quantizability, gauge, holonomy, twists.

Conventions used throughout the package:

* a connection is a float array ``theta`` with one angle per oriented edge,
  stored reduced to [0, 2pi); traversing an edge backward contributes
  ``-theta[e]``;
* a flux form is a float array with one angle (radians) per face;
* curvature of a connection is the signed sum of theta around each face
  boundary, reduced to (-pi, pi];
* parallel transport along an oriented edge multiplies by exp(+i theta_e)
  into the edge's target (the operator modules rely on this sign).

Angle arithmetic is done in double precision with explicit mod-2pi
reduction after accumulation; comparisons use 1e-9 tolerances unless stated
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import Complex2, boundary_matrices, face_steps
from .homology import (
    Character,
    HomologySummary,
    TWO_PI,
    homology,
    smith_normal_form,
    spanning_forest,
)

__all__ = [
    "QuantizabilityCertificate",
    "FlatCocycle",
    "NotQuantizableError",
    "zero_connection",
    "reduce_angles",
    "wrap_angle",
    "curvature",
    "is_quantizable",
    "spanning_forest",
    "synthesize_connection",
    "gauge_transform",
    "holonomy",
    "difference_class",
    "flat_cocycle",
    "twist",
]


class NotQuantizableError(ValueError):
    """Raised when a flux form admits no connection with that curvature."""


def zero_connection(complex2: Complex2) -> np.ndarray:
    return np.zeros(complex2.num_edges)


def reduce_angles(theta: np.ndarray) -> np.ndarray:
    """Reduce edge angles to the stored representative range [0, 2pi)."""
    return np.mod(np.asarray(theta, dtype=float), TWO_PI)


def wrap_angle(x: np.ndarray | float):
    """Reduce angles to (-pi, pi]."""
    y = np.mod(np.asarray(x, dtype=float), TWO_PI)
    y = np.where(y > np.pi, y - TWO_PI, y)
    if np.ndim(x) == 0:
        return float(y)
    return y


def curvature(complex2: Complex2, theta: Sequence[float]) -> np.ndarray:
    """Face holonomies of a connection, one angle in (-pi, pi] per face."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (complex2.num_edges,):
        raise ValueError(f"connection must have {complex2.num_edges} angles")
    out = np.zeros(complex2.num_faces)
    for f, word in enumerate(complex2.faces):
        total = 0.0
        for e, sign in face_steps(word):
            total = np.mod(total + sign * theta[e], TWO_PI)
        out[f] = wrap_angle(total)
    return out


@dataclass(frozen=True)
class QuantizabilityCertificate:
    """Pairings of flux/2pi against the 2-cycle basis, with integrality gaps.

    ``verdict`` is true iff every residue (distance of a pairing to the
    nearest integer) is within ``tol``.  Complexes without 2-cycles are
    quantizable for every flux (the pairing list is empty).
    """

    pairings: tuple[float, ...]
    residues: tuple[float, ...]
    verdict: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "pairings": list(self.pairings),
            "residues": list(self.residues),
            "verdict": self.verdict,
            "tol": self.tol,
        }


def is_quantizable(
    complex2: Complex2,
    flux: Sequence[float],
    summary: HomologySummary | None = None,
    tol: float = 1e-9,
) -> QuantizabilityCertificate:
    """Test integrality of flux/2pi against every basis 2-cycle."""
    flux = np.asarray(flux, dtype=float)
    if flux.shape != (complex2.num_faces,):
        raise ValueError(f"flux must have {complex2.num_faces} entries")
    if summary is None:
        summary = homology(complex2)
    pairings = []
    residues = []
    for z in summary.h2_cycles:
        p = float(np.dot(flux, np.asarray(z, dtype=float))) / TWO_PI
        pairings.append(p)
        residues.append(abs(p - round(p)))
    verdict = all(r <= tol for r in residues)
    return QuantizabilityCertificate(tuple(pairings), tuple(residues), verdict, tol)


def synthesize_connection(
    complex2: Complex2,
    flux: Sequence[float],
    summary: HomologySummary | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Construct a connection whose curvature is the given flux mod 2pi.

    The gauge is fixed by theta = 0 on a deterministic BFS spanning forest.
    Raises :class:`NotQuantizableError` when the flux fails the integrality
    certificate; raises RuntimeError if the linear solve degenerates (which
    cannot happen for valid inputs).
    """
    flux = np.asarray(flux, dtype=float)
    if summary is None:
        summary = homology(complex2)
    cert = is_quantizable(complex2, flux, summary, tol=tol)
    if not cert.verdict:
        raise NotQuantizableError(
            f"flux is not quantizable: residues {cert.residues} exceed {cert.tol}"
        )

    E, F = complex2.num_edges, complex2.num_faces
    theta = np.zeros(E)
    if F == 0:
        return theta

    # Remove the 2-cycle component of the flux by an exact 2*pi*n shift.
    target = flux.copy()
    b2 = len(summary.h2_cycles)
    if b2 > 0:
        Zt = np.array(
            [[int(z[i]) for i in range(F)] for z in summary.h2_cycles], dtype=object
        )
        p = [int(round(v)) for v in cert.pairings]
        n = smith_normal_form(Zt).solve(p)
        if n is None:
            raise RuntimeError("singular system: 2-cycle pairing lattice is degenerate")
        target = target - TWO_PI * np.array([float(v) for v in n])

    _, d2 = boundary_matrices(complex2)
    C = d2.T.astype(float)  # F x E, theta -> face sums
    tree = set(spanning_forest(complex2))
    cotree = [e for e in range(E) if e not in tree]
    if cotree:
        sol, *_ = np.linalg.lstsq(C[:, cotree], target, rcond=None)
        theta[cotree] = sol
    residual = np.max(np.abs(wrap_angle(C @ theta - flux))) if F else 0.0
    if residual > tol:
        raise RuntimeError(f"singular system: curvature residual {residual:.3e}")
    return reduce_angles(theta)


def gauge_transform(
    complex2: Complex2, theta: Sequence[float], g: Sequence[float]
) -> np.ndarray:
    """Shift a connection by the differential of a vertex function.

    theta'(e) = theta(e) + g(target) - g(source); curvature and all cycle
    holonomies are unchanged.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != (complex2.num_vertices,):
        raise ValueError(f"gauge function must have {complex2.num_vertices} values")
    src, tgt = complex2.sources, complex2.targets
    return reduce_angles(theta + g[tgt] - g[src])


def holonomy(complex2: Complex2, theta: Sequence[float], cycle: Sequence[int]) -> float:
    """Signed angle sum of a connection along an integer 1-cycle, in (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    d1, _ = boundary_matrices(complex2)
    cyc = np.asarray(cycle)
    if cyc.shape != (complex2.num_edges,):
        raise ValueError(f"1-chain must have length {complex2.num_edges}")
    if np.any(d1 @ cyc.astype(object) != 0):
        raise ValueError("not a cycle: boundary is nonzero")
    total = 0.0
    for e in np.flatnonzero(cyc):
        total = np.mod(total + float(cyc[e]) * theta[e], TWO_PI)
    return wrap_angle(total)


def difference_class(
    complex2: Complex2,
    summary: HomologySummary,
    theta1: Sequence[float],
    theta2: Sequence[float],
    tol: float = 1e-9,
) -> Character:
    """Character of the flat cocycle theta2 - theta1, on the stored H1 basis.

    Requires equal curvatures mod 2pi (checked within ``tol``); the result is
    trivial exactly when the two connections are equivalent up to gauge.
    Free generators contribute angles; torsion generators contribute the
    nearest root-of-unity index (exact for genuinely flat differences).
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    mismatch = np.abs(wrap_angle(curvature(complex2, theta2) - curvature(complex2, theta1)))
    if complex2.num_faces and np.max(mismatch) > tol:
        raise ValueError(
            f"curvature mismatch: max face deviation {np.max(mismatch):.3e} exceeds {tol}"
        )
    delta = theta2 - theta1
    angles = [
        np.mod(holonomy(complex2, delta, g), TWO_PI) for g in summary.h1_free_generators
    ]
    indices = []
    for g, m in summary.h1_torsion_generators:
        h = np.mod(holonomy(complex2, delta, g), TWO_PI)
        k = int(round(m * h / TWO_PI)) % m
        if abs(wrap_angle(h - TWO_PI * k / m)) > max(tol, 1e-7):
            raise ValueError(
                f"difference is not flat on a torsion generator (holonomy {h:.6f}, order {m})"
            )
        indices.append(k)
    return Character(np.array(angles), tuple(indices))


@dataclass(frozen=True, eq=False)
class FlatCocycle:
    """Edge angles with face sums in 2*pi*Z, representing a character.

    ``values`` is a real edge vector (not reduced; zero on the spanning
    forest), and ``character`` records the holonomy character it represents
    on the shared H1 generator basis.
    """

    values: np.ndarray
    character: Character

    def max_face_defect(self, complex2: Complex2) -> float:
        """Largest distance of a face sum from 2*pi*Z."""
        if complex2.num_faces == 0:
            return 0.0
        sums = boundary_matrices(complex2)[1].T.astype(float) @ self.values
        return float(np.max(np.abs(wrap_angle(sums))))


def flat_cocycle(
    complex2: Complex2, summary: HomologySummary, chi: Character
) -> FlatCocycle:
    """Flat edge cocycle with prescribed holonomy character.

    The values come from :meth:`HomologySummary.flat_values`: zero on the
    deterministic spanning forest, and on the cotree the exact generator
    coordinates of the character (killed generators get 0, torsion factors
    get 2 pi k/m, free factors get the character angles).
    """
    return FlatCocycle(summary.flat_values(chi), chi)


def twist(
    complex2: Complex2,
    summary: HomologySummary,
    theta: Sequence[float],
    chi: Character,
) -> np.ndarray:
    """Shift a connection by a flat cocycle representing the character.

    Curvature is unchanged mod 2pi and ``difference_class(theta, result)``
    recovers ``chi``; this realizes tensoring the quantization with the flat
    bundle of the character.
    """
    lam = flat_cocycle(complex2, summary, chi)
    return reduce_angles(np.asarray(theta, dtype=float) + lam.values)
