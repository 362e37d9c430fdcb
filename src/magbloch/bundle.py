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

from .complexes import Complex2, vertex_boundary
from .homology import Character, HomologySummary, TWO_PI, homology
from .operators import NumericError

__all__ = [
    "QuantizabilityCertificate",
    "NotQuantizableError",
    "reduce_angles",
    "wrap_angle",
    "curvature",
    "is_quantizable",
    "synthesize_connection",
    "gauge_transform",
    "holonomy",
    "difference_class",
    "twist",
]


# curvature mismatch, in radians, that difference_class accepts between its
# two connections
CURVATURE_TOL = 1e-9


class NotQuantizableError(ValueError):
    """Raised when a flux form admits no connection with that curvature."""


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
    return _curvatures(complex2, complex2.edge_angles(theta))


def _curvatures(complex2: Complex2, thetas: np.ndarray) -> np.ndarray:
    """:func:`curvature` of a stack of connections, shape (..., E) -> (..., F)."""
    # step by step over all faces at once: each face sees the same sequence
    # of reductions a loop over its own word would make.  Padding reads edge
    # -1, the appended exact 0, so a finished face's total in [0, 2pi) passes
    # through np.mod unchanged (2pi becomes 0, which wrap_angle also maps to 0)
    edge, sign, _ = complex2.face_words
    padded = np.concatenate([thetas, np.zeros(thetas.shape[:-1] + (1,))], axis=-1)
    steps = sign * padded[..., edge]
    total = np.zeros(steps.shape[:-1])
    for j in range(edge.shape[1]):
        total = np.mod(total + steps[..., j], TWO_PI)
    return wrap_angle(total)


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
    """The canonical connection whose curvature is the given flux mod 2pi.

    It is :meth:`HomologySummary.connection_values`: zero on the spanning
    forest and with trivial holonomy on every stored free H1 generator, so
    :func:`difference_class` from it to any ``theta`` with this curvature is
    the absolute class of ``theta``.  Raises :class:`NotQuantizableError` when
    the flux fails the integrality certificate, and
    :class:`~magbloch.operators.NumericError` when the curvature misses the
    flux by more than the certificate allows plus ``tol`` radians of
    rounding.
    """
    flux = np.asarray(flux, dtype=float)
    if summary is None:
        summary = homology(complex2)
    cert = is_quantizable(complex2, flux, summary, tol=tol)
    if not cert.verdict:
        raise NotQuantizableError(
            f"flux is not quantizable: residues {cert.residues} exceed {cert.tol}"
        )
    theta = summary.connection_values(flux)
    residual = float(np.max(np.abs(wrap_angle(curvature(complex2, theta) - flux)), initial=0.0))
    bound = tol + summary.connection_defect_bound(tol)
    if residual > bound:
        raise NumericError(
            f"synthesized connection misses the flux by {residual:.3e} (bound {bound:.3e})"
        )
    return reduce_angles(theta)


def gauge_transform(
    complex2: Complex2, theta: Sequence[float], g: Sequence[float]
) -> np.ndarray:
    """Shift a connection by the differential of a vertex function.

    theta'(e) = theta(e) + g(target) - g(source); curvature and all cycle
    holonomies are unchanged.
    """
    theta = complex2.edge_angles(theta)
    g = np.asarray(g, dtype=float)
    if g.shape != (complex2.num_vertices,):
        raise ValueError(f"gauge function must have {complex2.num_vertices} values")
    src, tgt = complex2.sources, complex2.targets
    return reduce_angles(theta + g[tgt] - g[src])


def holonomy(complex2: Complex2, theta: Sequence[float], cycle: Sequence[int]) -> float:
    """Signed angle sum of a connection along an integer 1-cycle, in (-pi, pi]."""
    theta = complex2.edge_angles(theta)
    cyc = np.asarray(cycle)
    if cyc.shape != (complex2.num_edges,):
        raise ValueError(f"1-chain must have length {complex2.num_edges}")
    on = np.flatnonzero(cyc)
    steps = cyc[on].tolist()
    if any(vertex_boundary(complex2.num_vertices, complex2.ends[on].tolist(), steps)):
        raise ValueError("not a cycle: boundary is nonzero")
    total = 0.0
    for c, t in zip(steps, theta[on]):
        total = np.mod(total + float(c) * t, TWO_PI)
    return wrap_angle(total)


def difference_class(
    complex2: Complex2,
    summary: HomologySummary,
    theta1: Sequence[float],
    theta2: Sequence[float],
) -> Character:
    """Character of the flat cocycle theta2 - theta1, on the stored H1 basis.

    Requires equal curvatures mod 2pi (checked within ``CURVATURE_TOL``);
    the result is trivial exactly when the two connections are equivalent up
    to gauge.
    Free generators contribute angles; torsion generators contribute the
    nearest root-of-unity index (exact for genuinely flat differences).
    """
    theta1, theta2 = complex2.edge_angles(theta1), complex2.edge_angles(theta2)
    curv1, curv2 = _curvatures(complex2, np.stack([theta1, theta2]))
    mismatch = np.abs(wrap_angle(curv2 - curv1))
    if complex2.num_faces and np.max(mismatch) > CURVATURE_TOL:
        raise ValueError(
            f"curvature mismatch: max face deviation {np.max(mismatch):.3e} exceeds {CURVATURE_TOL}"
        )
    delta = theta2 - theta1
    angles = [
        np.mod(holonomy(complex2, delta, g), TWO_PI) for g in summary.h1_free_generators
    ]
    indices = []
    for g, m in summary.h1_torsion_generators:
        h = np.mod(holonomy(complex2, delta, g), TWO_PI)
        k = int(round(m * h / TWO_PI)) % m
        if abs(wrap_angle(h - TWO_PI * k / m)) > 1e-7:
            raise ValueError(
                f"difference is not flat on a torsion generator (holonomy {h:.6f}, order {m})"
            )
        indices.append(k)
    return Character(np.array(angles), tuple(indices))


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
    return reduce_angles(complex2.edge_angles(theta) + summary.flat_values(chi))
