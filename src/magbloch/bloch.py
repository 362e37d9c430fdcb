"""Finite Bloch transform, block-diagonalization checks, bands, butterflies.

Sign conventions (fixed once, verified by the chain example in the tests):

* sampled momentum grid: k_j = 2 pi m_j / N_j, multi-indices m in
  lexicographic order (matching the supercell cell order);
* Bloch transform: s_hat_k(v) = (prod N)^(-1/2) sum_gamma e^{+i k.gamma} s(gamma, v);
* fiber twist: edge phase theta_e + k . tau(e);
* deck translation: (T_gamma s)(cell, v) = s(cell - gamma, v), which the
  transform diagonalizes as e^{+i k.gamma};
* multiplier with coefficients fhat on the deck group: M_f = sum_gamma
  fhat(gamma) T_gamma, diagonalized with entries sum_gamma fhat(gamma) e^{+i k.gamma}.

With these choices the Bloch conjugate of the periodic supercell operator is
block diagonal with blocks exactly equal to the fiber operators at the
sampled momenta, which is the finite-scale decomposition the package exists
to verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bundle import synthesize_connection
from .complexes import (
    Complex2,
    CoveringData,
    SupercellMap,
    SupercellSpec,
    build_supercell,
)
from .homology import TWO_PI, Character, HomologySummary, homology
from .operators import (
    NumericError,
    assemble_fiber,
    assemble_supercell,
    spectrum,
    translate,
)

__all__ = [
    "BlochBasis",
    "BandData",
    "bloch_matrix",
    "bloch_transform",
    "character_relations_check",
    "CharacterRelationsReport",
    "verify_block_diagonalization",
    "BlockDiagonalizationReport",
    "decomposition_check",
    "DecompositionReport",
    "multiplier_action",
    "momentum_character",
    "lipschitz_bound",
    "spectrum_union",
    "magnetic_supercell",
    "MagneticSupercell",
    "butterfly",
    "ButterflyRow",
    "band_csv",
    "butterfly_csv",
    "butterfly_svg",
]


@dataclass(frozen=True, eq=False)
class BlochBasis:
    """Sampled character grid of a periodic supercell, canonically ordered."""

    sizes: tuple[int, ...]
    ks: np.ndarray

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BlochBasis":
        sizes = tuple(int(n) for n in sizes)
        if any(n < 1 for n in sizes):
            raise ValueError("sizes must be >= 1")
        if sizes:
            grids = np.meshgrid(
                *[TWO_PI * np.arange(n) / n for n in sizes], indexing="ij"
            )
            ks = np.stack([g.ravel() for g in grids], axis=-1)
        else:
            ks = np.zeros((1, 0))
        return cls(sizes, ks)

    @property
    def num_characters(self) -> int:
        return self.ks.shape[0]


def _cell_phase_matrix(basis: BlochBasis, sc_map: SupercellMap) -> np.ndarray:
    """W[k_index, cell_rank] = exp(+i k . gamma)."""
    if basis.sizes != sc_map.sizes:
        raise ValueError("Bloch basis and supercell have different sizes")
    cells = sc_map.cells().astype(float)
    return np.exp(1j * basis.ks @ cells.T)


def bloch_matrix(basis: BlochBasis, sc_map: SupercellMap) -> np.ndarray:
    """The unitary finite Bloch transform as a dense matrix.

    Rows are (momentum, base vertex), columns are (cell, base vertex);
    the normalization (prod N)^(-1/2) makes it a plain unitary.
    """
    W = _cell_phase_matrix(basis, sc_map)
    return np.kron(W, np.eye(sc_map.base_vertices)) / math.sqrt(sc_map.num_cells)


def bloch_transform(
    s: Sequence[complex], basis: BlochBasis, sc_map: SupercellMap
) -> np.ndarray:
    """Transform a supercell vector into per-momentum quotient vectors.

    Returns an array of shape (num characters, base vertices) whose row i is
    the fiber component at ``basis.ks[i]``; stacking rows reproduces
    ``bloch_matrix @ s``.  The map is unitary: norms are preserved.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (sc_map.num_vertices,):
        raise ValueError(f"vector must have length {sc_map.num_vertices}")
    W = _cell_phase_matrix(basis, sc_map)
    blocks = s.reshape(sc_map.num_cells, sc_map.base_vertices)
    return (W @ blocks) / math.sqrt(sc_map.num_cells)


@dataclass(frozen=True)
class CharacterRelationsReport:
    """Residuals of the two finite character relations."""

    delta_residual: float
    orthogonality_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.delta_residual, self.orthogonality_residual)

    def to_dict(self) -> dict:
        return {
            "delta_residual": self.delta_residual,
            "orthogonality_residual": self.orthogonality_residual,
            "max_residual": self.max_residual,
        }


def character_relations_check(sizes: Sequence[int]) -> CharacterRelationsReport:
    """Verify the finite character relations on the group prod Z/N_j.

    Checks (prod N)^(-1) sum_chi chi(gamma) = [gamma = 0] over all gamma,
    and sum_gamma conj(chi(gamma)) chi'(gamma) = prod N * [chi = chi'] over
    all sampled character pairs; returns the worst deviations.
    """
    basis = BlochBasis.from_sizes(sizes)
    sc_map = SupercellMap(SupercellSpec(tuple(basis.sizes)), 1, 0, ())
    W = _cell_phase_matrix(basis, sc_map)
    C = basis.num_characters
    col_means = W.mean(axis=0)
    indicator = np.zeros(C)
    indicator[0] = 1.0
    delta_res = float(np.max(np.abs(col_means - indicator)))
    gram = W.conj() @ W.T
    ortho_res = float(np.max(np.abs(gram - C * np.eye(C))))
    return CharacterRelationsReport(delta_res, ortho_res)


@dataclass(frozen=True)
class BlockDiagonalizationReport:
    """Residuals of conjugating the periodic operator into Bloch blocks."""

    unitarity_defect: float
    off_diagonal: float
    fiber_deviation: float

    def to_dict(self) -> dict:
        return {
            "unitarity_defect": self.unitarity_defect,
            "off_diagonal": self.off_diagonal,
            "fiber_deviation": self.fiber_deviation,
        }


def verify_block_diagonalization(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    sizes: Sequence[int],
) -> BlockDiagonalizationReport:
    """Conjugate the periodic supercell operator by the Bloch unitary.

    Reports the unitarity defect ||Phi^dagger Phi - I||_max, the largest
    off-diagonal block entry of Phi H Phi^dagger, and the largest entrywise
    deviation of the diagonal blocks from the fiber operators at the sampled
    momenta.  Diagnostic only; never raises on large residuals.
    """
    spec = SupercellSpec(tuple(int(n) for n in sizes))
    _, sc_map = build_supercell(complex2, covering, spec)
    basis = BlochBasis.from_sizes(spec.sizes)
    Phi = bloch_matrix(basis, sc_map)
    unit = float(np.max(np.abs(Phi.conj().T @ Phi - np.eye(Phi.shape[0]))))

    H = assemble_supercell(complex2, covering, theta, spec).matrix
    B = Phi @ H @ Phi.conj().T
    V = complex2.num_vertices
    off = 0.0
    fiber_dev = 0.0
    for i in range(basis.num_characters):
        block = B[i * V : (i + 1) * V, i * V : (i + 1) * V]
        fiber = assemble_fiber(complex2, covering, theta, basis.ks[i]).matrix
        fiber_dev = max(fiber_dev, float(np.max(np.abs(block - fiber))) if V else 0.0)
    mask = np.ones_like(B, dtype=bool)
    for i in range(basis.num_characters):
        mask[i * V : (i + 1) * V, i * V : (i + 1) * V] = False
    if mask.any():
        off = float(np.max(np.abs(B[mask])))
    return BlockDiagonalizationReport(unit, off, fiber_dev)


@dataclass(frozen=True)
class DecompositionReport:
    """Sorted supercell spectrum against the union of fiber spectra."""

    max_deviation: float
    operator_norm: float

    @property
    def relative_deviation(self) -> float:
        return self.max_deviation / max(self.operator_norm, 1.0)

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "operator_norm": self.operator_norm,
            "relative_deviation": self.relative_deviation,
        }


def decomposition_check(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    sizes: Sequence[int],
) -> DecompositionReport:
    """Finite-scale spectral decomposition: supercell = union of fibers.

    Compares the sorted eigenvalues of the periodic supercell operator with
    the sorted concatenation of fiber eigenvalues over the sampled momentum
    grid, elementwise.
    """
    spec = SupercellSpec(tuple(int(n) for n in sizes))
    basis = BlochBasis.from_sizes(spec.sizes)
    op = assemble_supercell(complex2, covering, theta, spec)
    super_eigs = spectrum(op).eigenvalues
    fiber_eigs = np.concatenate(
        [
            spectrum(assemble_fiber(complex2, covering, theta, k)).eigenvalues
            for k in basis.ks
        ]
    )
    dev = float(np.max(np.abs(super_eigs - np.sort(fiber_eigs)))) if len(super_eigs) else 0.0
    return DecompositionReport(dev, max(abs(e) for e in super_eigs) if len(super_eigs) else 0.0)


def multiplier_action(
    fhat: Sequence[complex], s: Sequence[complex], sc_map: SupercellMap
) -> np.ndarray:
    """Apply M_f = sum_gamma fhat(gamma) T_gamma to a supercell vector.

    ``fhat`` is indexed by cell rank (lexicographic deck-group order).  The
    Bloch transform diagonalizes M_f with entry sum_gamma fhat(gamma)
    e^{+i k.gamma} at momentum k.
    """
    fhat = np.asarray(fhat, dtype=complex)
    if fhat.shape != (sc_map.num_cells,):
        raise ValueError(f"fhat must have length {sc_map.num_cells}")
    s = np.asarray(s, dtype=complex)
    out = np.zeros_like(s)
    cells = sc_map.cells()
    for r in range(sc_map.num_cells):
        if fhat[r] != 0:
            out = out + fhat[r] * translate(s, cells[r], sc_map)
    return out


def momentum_character(
    summary: HomologySummary, covering: CoveringData, k: Sequence[float]
) -> Character:
    """Pull a deck-group momentum back to a character of H1.

    The free generator g picks up the angle k . tau(g); torsion generators
    map to zero in Z^d, so their indices vanish.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (covering.rank,):
        raise ValueError(f"momentum must have length {covering.rank}")

    def label(chain) -> np.ndarray:
        return np.array(
            [
                sum(int(covering.tau[e, j]) * int(chain[e]) for e in range(len(chain)))
                for j in range(covering.rank)
            ],
            dtype=float,
        )

    angles = [float(np.mod(k @ label(g), TWO_PI)) for g in summary.h1_free_generators]
    for g, m in summary.h1_torsion_generators:
        if np.any(label(g) != 0):
            raise ValueError("torsion generator has a nonzero deck label; covering is invalid")
    return Character(np.array(angles), tuple(0 for _ in summary.h1_torsion_orders))


def lipschitz_bound(complex2: Complex2, covering: CoveringData) -> float:
    """Bound on the momentum-derivative of any fiber eigenvalue:
    2 * sum_e w_e * |tau(e)|_1."""
    if covering.rank == 0 or complex2.num_edges == 0:
        return 0.0
    return float(
        2.0 * np.sum(complex2.weights * np.sum(np.abs(covering.tau), axis=1))
    )


@dataclass(frozen=True, eq=False)
class BandData:
    """Fiber spectra over a momentum grid plus merged band intervals."""

    ks: np.ndarray
    eigenvalues: np.ndarray
    intervals: tuple[tuple[float, float], ...]
    grid: tuple[int, ...]

    @property
    def num_bands(self) -> int:
        return self.eigenvalues.shape[1]


def _merge_intervals(values: np.ndarray, join_tol: float) -> tuple[tuple[float, float], ...]:
    if values.size == 0:
        return ()
    vals = np.sort(values.ravel())
    out = []
    lo = hi = float(vals[0])
    for v in vals[1:]:
        v = float(v)
        if v - hi <= join_tol:
            hi = v
        else:
            out.append((lo, hi))
            lo = hi = v
    out.append((lo, hi))
    return tuple(out)


def spectrum_union(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    grid: Sequence[int],
) -> BandData:
    """Fiber spectra over the uniform momentum grid, with band intervals.

    Two eigenvalue samples are merged into one interval when their gap is at
    most 2 * (Lipschitz bound) * (grid step), which keeps coarse grids from
    reporting spurious gaps.
    """
    grid = tuple(int(n) for n in grid)
    if len(grid) != covering.rank:
        raise ValueError(f"grid must have length {covering.rank}")
    if any(n < 1 for n in grid):
        raise ValueError("grid sizes must be >= 1")
    ks = BlochBasis.from_sizes(grid).ks
    eigs = np.array(
        [
            spectrum(assemble_fiber(complex2, covering, theta, k)).eigenvalues
            for k in ks
        ]
    )
    step = max((TWO_PI / n for n in grid), default=0.0)
    join_tol = 2.0 * lipschitz_bound(complex2, covering) * step
    return BandData(ks, eigs, _merge_intervals(eigs, join_tol), grid)


def _as_fraction(x, tol: float = 1e-12) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"flux {x!r} has a zero denominator") from None
    if not math.isfinite(float(x)):
        raise ValueError(f"flux must be finite, got {x!r}")
    # denominators are bounded well below 1/sqrt(tol), so a float that no
    # small rational matches within tol is treated as irrational
    frac = Fraction(float(x)).limit_denominator(4096)
    if abs(float(frac) - float(x)) > tol:
        raise ValueError(f"irrational flux: {x!r} is not rational within {tol}")
    return frac


@dataclass(frozen=True, eq=False)
class MagneticSupercell:
    """Enlarged quotient restoring integral total flux for a rational field."""

    complex2: Complex2
    covering: CoveringData
    flux: np.ndarray
    sc_map: SupercellMap
    fractions: tuple[Fraction, ...]


def magnetic_supercell(
    complex2: Complex2,
    covering: CoveringData,
    flux,
    axis: int = 0,
) -> MagneticSupercell:
    """Enlarge the unit cell so a rational flux becomes integral in total.

    ``flux`` is a rational number of flux quanta per face (p/q meaning face
    flux 2 pi p/q), either a single value broadcast to every face or one per
    face.  The cell is enlarged q-fold along ``axis`` (q the least common
    denominator), the covering labels pick up the carry of the cell
    coordinate, and every face copy keeps its fractional flux, so each new
    cell carries an integral number of quanta in total.
    """
    if covering.rank < 1:
        raise ValueError("magnetic supercells need a covering of rank >= 1")
    if not (0 <= axis < covering.rank):
        raise ValueError(f"axis out of range: {axis} not in 0..{covering.rank - 1}")
    F = complex2.num_faces
    if isinstance(flux, (list, tuple, np.ndarray)):
        fracs = tuple(_as_fraction(x) for x in flux)
        if len(fracs) != F:
            raise ValueError(f"expected {F} flux values, got {len(fracs)}")
    else:
        fracs = tuple(_as_fraction(flux) for _ in range(F))
    q = 1
    for fr in fracs:
        q = q * fr.denominator // math.gcd(q, fr.denominator)

    sizes = [1] * covering.rank
    sizes[axis] = q
    spec = SupercellSpec(tuple(sizes))
    sc, sc_map = build_supercell(complex2, covering, spec)

    cells = sc_map.cells()
    sizes_arr = np.array(spec.sizes, dtype=int)
    new_tau = np.zeros((sc.num_edges, covering.rank), dtype=int)
    for j, (r, e) in enumerate(sc_map.edge_origin):
        new_tau[j] = (cells[r] + covering.tau[e]) // sizes_arr
    new_cov = CoveringData(covering.rank, new_tau)

    new_flux = np.array(
        [TWO_PI * float(fracs[f]) for _ in range(sc_map.num_cells) for f in range(F)]
    )
    return MagneticSupercell(sc, new_cov, new_flux, sc_map, fracs)


@dataclass(frozen=True, eq=False)
class ButterflyRow:
    """Band data for one rational flux, or the error that prevented it."""

    p: int
    q: int
    band: BandData | None = None
    error: str | None = None


def butterfly(
    complex2: Complex2,
    covering: CoveringData,
    fluxes: Sequence,
    grid: Sequence[int],
    axis: int = 0,
    max_denominator: int = 64,
) -> list[ButterflyRow]:
    """Band intervals over a list of rational fluxes (Hofstadter-type sweep).

    Each flux is run through the magnetic supercell construction, a
    synthesized connection, and a band sweep; failures are collected per
    entry instead of aborting the sweep.  Only domain errors (``ValueError``,
    which includes :class:`NotQuantizableError`, and :class:`NumericError`)
    become error rows; any other exception is a bug and propagates.
    """
    rows: list[ButterflyRow] = []
    for raw in fluxes:
        try:
            fr = _as_fraction(raw)
            if fr.denominator > max_denominator:
                raise ValueError(
                    f"flux denominator {fr.denominator} exceeds bound {max_denominator}"
                )
            ms = magnetic_supercell(complex2, covering, fr, axis=axis)
            summary = homology(ms.complex2)
            conn = synthesize_connection(ms.complex2, ms.flux, summary)
            band = spectrum_union(ms.complex2, ms.covering, conn, grid)
            rows.append(ButterflyRow(fr.numerator, fr.denominator, band=band))
        except (ValueError, NumericError) as exc:  # per-entry errors are data
            try:
                fr = _as_fraction(raw)
                p, q = fr.numerator, fr.denominator
            except ValueError:
                p, q = 0, 0
            rows.append(ButterflyRow(p, q, error=str(exc)))
    return rows


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def band_csv(band: BandData) -> str:
    """CSV rows `k1,...,kd,e1,...,en` for a band sweep."""
    d = band.ks.shape[1]
    n = band.num_bands
    header = ",".join([f"k{j + 1}" for j in range(d)] + [f"e{j + 1}" for j in range(n)])
    lines = [header]
    for i in range(band.ks.shape[0]):
        vals = [_fmt(v) for v in band.ks[i]] + [_fmt(v) for v in band.eigenvalues[i]]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def butterfly_csv(rows: Sequence[ButterflyRow]) -> str:
    """CSV rows `p,q,interval_lo,interval_hi`, one line per band interval."""
    lines = ["p,q,interval_lo,interval_hi"]
    for row in rows:
        if row.band is None:
            continue
        for lo, hi in row.band.intervals:
            lines.append(f"{row.p},{row.q},{_fmt(lo)},{_fmt(hi)}")
    return "\n".join(lines) + "\n"


def butterfly_svg(
    rows: Sequence[ButterflyRow], width: int = 640, height: int = 480
) -> str:
    """Standalone SVG scatter of band intervals against flux (no renderer).

    One vertical segment per interval at x = p/q; rows with errors are
    skipped.  Output is deterministic markup.
    """
    pts = [
        (row.p / row.q, row.band.intervals)
        for row in rows
        if row.band is not None and row.q != 0
    ]
    margin = 40.0
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if pts:
        xs = [x for x, _ in pts]
        los = [lo for _, ivs in pts for lo, _ in ivs]
        his = [hi for _, ivs in pts for _, hi in ivs]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(los), max(his)
        xspan = (x1 - x0) or 1.0
        yspan = (y1 - y0) or 1.0

        def sx(x: float) -> float:
            return margin + (x - x0) / xspan * (width - 2 * margin)

        def sy(y: float) -> float:
            return height - margin - (y - y0) / yspan * (height - 2 * margin)

        for x, ivs in pts:
            for lo, hi in ivs:
                body.append(
                    f'<line x1="{sx(x):.2f}" y1="{sy(lo):.2f}" '
                    f'x2="{sx(x):.2f}" y2="{sy(hi):.2f}" '
                    'stroke="black" stroke-width="1.5"/>'
                )
        body.append(
            f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
            'font-size="12">flux per face (quanta)</text>'
        )
        body.append(
            f'<text x="12" y="{height / 2:.0f}" font-size="12" '
            f'transform="rotate(-90 12 {height / 2:.0f})" text-anchor="middle">energy</text>'
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"
