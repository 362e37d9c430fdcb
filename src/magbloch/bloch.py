"""Finite Bloch transform, block-diagonalization checks, bands, butterflies.

Sign conventions (fixed once, verified by the chain example in the tests):

* sampled momentum grid: k_j = 2 pi m_j / N_j, multi-indices m in
  lexicographic order (matching the supercell cell order);
* Bloch transform: s_hat_k(v) = (prod N)^(-1/2) sum_gamma e^{+i k.gamma} s(gamma, v),
  which is numpy's orthonormal inverse FFT over the cell axes;
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
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bundle import difference_class, synthesize_connection
from .complexes import (
    Complex2,
    CoveringData,
    SupercellMap,
    SupercellSpec,
    build_supercell,
)
from .homology import (
    TWO_PI,
    Character,
    HomologySummary,
    SmithDecomposition,
    homology,
    smith_normal_form,
)
from .operators import (
    NumericError,
    _eigh_checked,
    _eigh_gated,
    _format_k,
    _hermitian_part,
    _one_blas_thread,
    _require_cell_count,
    _supercell_stack,
    assemble_fibers,
    fiber_spectra,
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
    "multiplier_action",
    "momentum_character",
    "lipschitz_bound",
    "require_sweep_size",
    "spectrum_union",
    "magnetic_supercell",
    "MagneticSupercell",
    "butterfly",
    "ButterflyRow",
    "band_csv",
    "butterfly_csv",
    "butterfly_svg",
]

# largest flux denominator a butterfly sweep accepts: a p/q flux solves a
# q-fold magnetic cell at every grid momentum
MAX_DENOMINATOR = 64

# a float flux farther than this from every fraction of denominator at most
# 4096 is irrational
RATIONAL_TOL = 1e-12

# largest number of eigenvalues (grid momenta times vertices) a band sweep
# computes: its momenta, eigenvalues and CSV text all grow with this count,
# and the bound is the 2048 x 2048 sweep of a one-vertex quotient
MAX_BAND_EIGENVALUES = 1 << 22

# largest cost of a band sweep's fiber solves, in units of K * V^3 (grid
# momenta times the cube of the vertex count): one unit takes about 1.7e-9 s
# of dense eigensolve on a 2-vCPU machine, so the bound is about 2 minutes
MAX_BAND_WORK = 1 << 36

# distance from the nearest multiple of 1/q turns within which a class of
# a q-fold magnetic cell is read as that multiple: its true turns are
# multiples of 1/q, so a float class off the lattice by more is not taken
CLASS_TOL = 1e-9

SVG_WIDTH, SVG_HEIGHT = 640, 480


@dataclass(frozen=True, eq=False)
class BlochBasis:
    """Sampled character grid of a periodic supercell, canonically ordered."""

    sizes: tuple[int, ...]
    ks: np.ndarray

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BlochBasis":
        """Momenta k = 2 pi m / N of the deck group's cells m, in cell order."""
        spec = SupercellSpec(sizes)
        return cls(spec.sizes, TWO_PI * spec.cells() / np.array(spec.sizes))

    @property
    def num_characters(self) -> int:
        return self.ks.shape[0]


def bloch_matrix(basis: BlochBasis, sc_map: SupercellMap) -> np.ndarray:
    """The unitary finite Bloch transform as a dense matrix.

    Rows are (momentum, base vertex), columns are (cell, base vertex);
    the normalization (prod N)^(-1/2) makes it a plain unitary.  This is the
    dense reference for :func:`bloch_transform`; no check builds it.
    """
    _check_sizes(basis, sc_map)
    W = np.exp(1j * basis.ks @ sc_map.spec.cells().astype(float).T)
    return np.kron(W, np.eye(sc_map.base_vertices)) / math.sqrt(sc_map.num_cells)


def _check_sizes(basis: BlochBasis, sc_map: SupercellMap) -> None:
    if basis.sizes != sc_map.sizes:
        raise ValueError("Bloch basis and supercell have different sizes")


def _transform(x: np.ndarray, axes: tuple[int, ...], adjoint: bool = False) -> np.ndarray:
    """Bloch transform (or its adjoint) of x in place over the cell ``axes``;
    returns x.

    Under the sign table in the module docstring the transform is numpy's
    orthonormal inverse FFT over the cell axes, and its adjoint the
    orthonormal forward FFT; ``out=x`` makes numpy write the result into x.
    """
    fftn = np.fft.fftn if adjoint else np.fft.ifftn
    return fftn(x, axes=axes, norm="ortho", out=x)


def bloch_transform(
    s: Sequence[complex], basis: BlochBasis, sc_map: SupercellMap
) -> np.ndarray:
    """Transform a supercell vector into per-momentum quotient vectors.

    Returns an array of shape (num characters, base vertices) whose row i is
    the fiber component at ``basis.ks[i]``; stacking rows reproduces
    ``bloch_matrix @ s``.  The map is unitary: norms are preserved.  It is
    applied as the orthonormal inverse FFT over the cell axes.
    """
    _check_sizes(basis, sc_map)
    s = np.array(s, dtype=complex)
    if s.shape != (sc_map.num_vertices,):
        raise ValueError(f"vector must have length {sc_map.num_vertices}")
    cells = s.reshape(sc_map.sizes + (sc_map.base_vertices,))
    out = _transform(cells, tuple(range(len(sc_map.sizes))))
    return out.reshape(sc_map.num_cells, sc_map.base_vertices)


@dataclass(frozen=True)
class CharacterRelationsReport:
    """Residuals of the two finite character relations."""

    delta_residual: float
    orthogonality_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.delta_residual, self.orthogonality_residual)


def _character_tables(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Column means and first Gram row of the character table of prod Z/N_j.

    Returns ``means[gamma] = (prod N)^(-1) sum_chi chi(gamma)`` and
    ``row[chi] = sum_gamma chi(gamma)``, the trivial character's row of the
    Gram matrix gram[chi, chi'] = sum_gamma conj(chi(gamma)) chi'(gamma),
    both in lexicographic order.  A character of the product group is the
    product of per-axis characters exp(2 pi i (m_j gamma_j mod N_j) / N_j),
    so both factor into per-axis vectors combined with ``kron``.  On one
    axis both are read off the N sums S(r) = sum_gamma exp(2 pi i (r gamma
    mod N) / N): the means are S / N, and the Gram matrix is circulant,
    gram[a, b] = S((b - a) mod N), with first row S.  So every entry of the
    full Gram matrix is the entry of ``row`` at chi' - chi, the same
    products in the same order.  Each S(r) is summed with ``math.fsum`` on
    its real and imaginary parts, so its error stays at the rounding of the
    phases, not of N additions.  The terms of S(r) are the phases at the
    multiples of gcd(r, N), each gcd(r, N) times, and ``fsum`` is correctly
    rounded whatever the order, so S(r) = S(gcd(r, N)) bitwise: one sum per
    divisor of N gives them all.
    """
    means = np.ones(1, dtype=complex)
    row = np.ones(1, dtype=complex)
    for n in sizes:
        m = np.arange(n)
        w = np.exp(1j * TWO_PI * (m / n))
        g = np.gcd(m, n)
        by_divisor = np.empty(n + 1, dtype=complex)
        for d in np.unique(g):
            terms = w[d * m % n]
            by_divisor[d] = complex(math.fsum(terms.real), math.fsum(terms.imag))
        S = by_divisor[g]
        means = np.kron(means, S / n)
        row = np.kron(row, S)
    return means, row


def character_relations_check(sizes: Sequence[int]) -> CharacterRelationsReport:
    """Verify the finite character relations on the group prod Z/N_j.

    Checks (prod N)^(-1) sum_chi chi(gamma) = [gamma = 0] over all gamma,
    and sum_gamma conj(chi(gamma)) chi'(gamma) = prod N * [chi = chi'] over
    all sampled character pairs; returns the worst deviations.  The second
    is read off the first Gram row, which holds every Gram entry.
    """
    means, row = _character_tables(SupercellSpec(sizes).sizes)
    indicator = np.zeros(len(means))
    indicator[0] = 1.0
    delta_res = float(np.max(np.abs(means - indicator)))
    row[0] -= len(row)
    return CharacterRelationsReport(delta_res, float(np.max(np.abs(row))))


@dataclass(frozen=True)
class BlockDiagonalizationReport:
    """Residuals of the finite Bloch decomposition of the periodic operator.

    The first three measure the conjugation Phi H Phi^dagger: the unitarity
    defect of the transform, the largest off-diagonal block entry, and the
    largest deviation of a diagonal block from its fiber operator.  The
    rest compare spectra: ``max_deviation`` between the sorted supercell
    eigenvalues and the sorted union of fiber eigenvalues, ``operator_norm``
    the largest supercell |eigenvalue|, and ``supercell_residual`` and
    ``fiber_residual`` the worst eigenpair residuals
    max_i ||H v_i - lam_i v_i||_2 of the supercell solve and of all fiber
    solves.
    """

    unitarity_defect: float
    off_diagonal: float
    fiber_deviation: float
    max_deviation: float
    operator_norm: float
    supercell_residual: float
    fiber_residual: float

    @property
    def relative_deviation(self) -> float:
        return self.max_deviation / max(self.operator_norm, 1.0)


def verify_block_diagonalization(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    sizes: Sequence[int],
) -> BlockDiagonalizationReport:
    """Check the finite Bloch decomposition of the periodic supercell operator.

    Compares the periodic supercell operator H with its fibers at the
    sampled momenta, holding one dense n x n copy of the operator at a
    time besides the symmetrized S.  In order:

    1. assemble H and run the Hermiticity gate of :func:`spectrum` on it,
       which also writes S = (H + H^dagger) / 2;
    2. conjugate H by the Bloch unitary Phi in place: numpy's in-place
       ``ifftn`` over its row cell axes, then ``fftn`` over its column
       cell axes;
    3. assemble the fiber operators, each once, read the largest
       entrywise deviation of the diagonal blocks of Phi H Phi^dagger from
       them and its largest off-diagonal block entry, then free the buffer;
    4. solve S under the eigenpair residual gate of :func:`spectrum`;
    5. solve the fiber stack of step 3 whole (C V^2 entries, at most n^2)
       under the gates of :func:`spectrum` and compare the sorted supercell
       eigenvalues with the sorted union of fiber eigenvalues;
    6. measure the unitarity defect ||Phi^dagger Phi - I||_max of the
       transform as applied.

    Large residuals are reported, not raised; an oversized supercell,
    rejected before anything is built, and the solves raise
    :class:`NumericError`.
    """
    spec = SupercellSpec(sizes)
    H, tag = _supercell_stack(complex2, covering, theta, spec)
    S, scale = _hermitian_part(H, lambda i: tag)
    basis = BlochBasis.from_sizes(spec.sizes)
    V, C, d = complex2.num_vertices, basis.num_characters, len(spec.sizes)

    shape = spec.sizes + (V,)
    B = H.reshape(shape + shape)
    del H
    _transform(B, tuple(range(d)))
    _transform(B, tuple(range(d + 1, 2 * d + 1)), adjoint=True)
    B = B.reshape(C, V, C, V)
    diagonal = np.arange(C)
    blocks = B[diagonal, :, diagonal, :]
    fiber_ops = assemble_fibers(complex2, covering, theta, basis.ks)
    fiber_dev = float(np.max(np.abs(blocks - fiber_ops), initial=0.0))
    B[diagonal, :, diagonal, :] = 0.0
    off = float(np.max(np.abs(B), initial=0.0))
    del B

    vals, residual = _eigh_gated(S, scale, lambda i: tag)
    del S
    eigs = vals[0]
    fiber_vals, fiber_res = _eigh_checked(
        fiber_ops, lambda i: f"fiber at k=[{_format_k(basis.ks[i])}]"
    )
    max_dev = float(np.max(np.abs(eigs - np.sort(fiber_vals.ravel())), initial=0.0))
    norm = float(np.max(np.abs(eigs), initial=0.0))
    return BlockDiagonalizationReport(
        _unitarity_defect(spec.sizes) if V else 0.0,
        off,
        fiber_dev,
        max_dev,
        norm,
        float(residual[0]),
        float(fiber_res.max()),
    )


def _unitarity_defect(sizes: tuple[int, ...]) -> float:
    """||Phi^dagger Phi - I||_max of the transform as applied: the transform
    and then its adjoint on every unit vector of the cell axes, run in
    place on one C x C identity.  Phi is kron(W, I_V), the same cell
    transform on every base vertex, so the C x C round trip measures the
    defect of the whole transform."""
    C = math.prod(sizes)
    back = np.eye(C, dtype=complex)
    axes = tuple(range(1, len(sizes) + 1))
    _transform(_transform(back.reshape((C,) + sizes), axes), axes, adjoint=True)
    back[np.diag_indices(C)] -= 1.0
    return float(np.max(np.abs(back)))


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
    cells = sc_map.spec.cells()
    for r in np.flatnonzero(fhat):
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
    tau_t = covering.tau.T.astype(object)
    angles = [
        float(np.mod(k @ (tau_t @ g).astype(float), TWO_PI)) for g in summary.h1_free_generators
    ]
    for g, m in summary.h1_torsion_generators:
        if np.count_nonzero(tau_t @ g):
            raise ValueError("torsion generator has a nonzero deck label; covering is invalid")
    return Character(np.array(angles), tuple(0 for _ in summary.h1_torsion_orders))


def lipschitz_bound(complex2: Complex2, covering: CoveringData) -> float:
    """Bound on the momentum-derivative of any fiber eigenvalue:
    2 * sum_e w_e * |tau(e)|_1."""
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
    # an interval ends wherever the gap to the next sample exceeds join_tol
    breaks = np.flatnonzero(np.diff(vals) > join_tol)
    los = vals[np.concatenate(([0], breaks + 1))]
    his = vals[np.concatenate((breaks, [vals.size - 1]))]
    return tuple(zip(los.tolist(), his.tolist()))


def require_sweep_size(num_momenta: int, num_vertices: int, where: str, remedy: str) -> None:
    """Raise :class:`NumericError` if fiber solves at ``num_momenta`` momenta
    of ``num_vertices`` vertices exceed ``MAX_BAND_EIGENVALUES`` eigenvalues
    or ``MAX_BAND_WORK`` units of K * V^3; the message names ``where`` and
    ends with ``remedy``."""
    count = num_momenta * num_vertices
    if count > MAX_BAND_EIGENVALUES:
        raise NumericError(
            f"band sweep of {count} eigenvalues {where} exceeds bound "
            f"{MAX_BAND_EIGENVALUES}; {remedy}"
        )
    work = num_momenta * num_vertices**3
    if work > MAX_BAND_WORK:
        raise NumericError(
            f"band sweep of {work} units of K*V^3 {where} exceeds bound "
            f"{MAX_BAND_WORK}; {remedy}"
        )


def _sweep_grid(complex2: Complex2, covering: CoveringData, grid: Sequence[int]) -> SupercellSpec:
    """The momentum grid of a band sweep on ``complex2``, once its guards
    pass: the grid's rank is the covering's, and the whole grid is within
    ``MAX_BAND_EIGENVALUES`` and ``MAX_BAND_WORK`` (:class:`NumericError`
    otherwise), checked before any array of the grid's size is built."""
    spec = SupercellSpec(grid)
    grid = spec.sizes
    if len(grid) != covering.rank:
        raise ValueError(f"grid must have length {covering.rank}")
    V = complex2.num_vertices
    where = f"(grid {'x'.join(map(str, grid))}, V={V})"
    require_sweep_size(spec.num_cells, V, where, "reduce the grid")
    return spec


def _band(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    basis: BlochBasis,
    owner: np.ndarray | None = None,
) -> BandData:
    """The one band sweep over an accepted grid: the fibers at the momenta
    that own their orbit are solved, and row m is read from the row of
    ``owner[m]``; no ``owner`` is the identity, every momentum solved."""
    ks = basis.ks
    solved, fill = (slice(None),) * 2 if owner is None else np.unique(owner, return_inverse=True)
    eigs = fiber_spectra(complex2, covering, theta, ks[solved]).eigenvalues[fill]
    step = max((TWO_PI / n for n in basis.sizes), default=0.0)
    join_tol = 2.0 * lipschitz_bound(complex2, covering) * step
    return BandData(ks, eigs, _merge_intervals(eigs, join_tol), basis.sizes)


def spectrum_union(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    grid: Sequence[int],
) -> BandData:
    """Fiber spectra over the uniform momentum grid, with band intervals.

    Two eigenvalue samples are merged into one interval when their gap is at
    most 2 * (Lipschitz bound) * (grid step), which keeps coarse grids from
    reporting spurious gaps.  A sweep of more than ``MAX_BAND_EIGENVALUES``
    eigenvalues, or of more than ``MAX_BAND_WORK`` units K * V^3 of fiber
    solves, raises :class:`NumericError` before any grid is built.
    """
    spec = _sweep_grid(complex2, covering, grid)
    return _band(complex2, covering, theta, BlochBasis.from_sizes(spec.sizes))


def _as_fraction(x) -> Fraction:
    if isinstance(x, (bool, np.bool_)):  # Fraction and float take bools as 1 and 0
        raise ValueError(f"flux must be a number, got {x!r}")
    if isinstance(x, (Fraction, int, str)):
        try:
            frac = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"flux {x!r} has a zero denominator") from None
        try:
            float(frac)
        except OverflowError:
            raise ValueError(f"flux {x!r} overflows a float") from None
        return frac
    if not math.isfinite(float(x)):
        raise ValueError(f"flux must be finite, got {x!r}")
    # denominators are bounded well below 1/sqrt(RATIONAL_TOL), so a float
    # that no small rational matches within it is treated as irrational
    frac = Fraction(float(x)).limit_denominator(4096)
    if abs(float(frac) - float(x)) > RATIONAL_TOL:
        raise ValueError(f"irrational flux: {x!r} is not rational within {RATIONAL_TOL}")
    return frac


@dataclass(frozen=True, eq=False)
class MagneticSupercell:
    """Enlarged quotient restoring integral total flux for a rational field."""

    complex2: Complex2
    covering: CoveringData
    flux: np.ndarray


def magnetic_supercell(
    complex2: Complex2,
    covering: CoveringData,
    flux,
) -> MagneticSupercell:
    """Enlarge the unit cell so a rational flux becomes integral in total.

    ``flux`` is a rational number p/q of flux quanta per face, meaning face
    flux 2 pi p/q on every face.  The cell is enlarged q-fold along the
    first covering axis, the covering labels pick up the carry of the cell
    coordinate, and every face copy keeps its fractional flux, so each new
    cell carries an integral number of quanta in total.  A q above
    ``DENSE_THRESHOLD`` raises :class:`NumericError` before the cell is built.
    """
    fr = _as_fraction(flux)
    sc, new_cov = _magnetic_cell(complex2, covering, _cell_size(complex2, fr))
    return MagneticSupercell(sc, new_cov, _face_flux(sc, fr))


def _cell_size(complex2: Complex2, fr: Fraction) -> int:
    """The magnetic cell's size for a flux on every face: its denominator,
    or 1 when there is no face to carry it."""
    return fr.denominator if complex2.num_faces else 1


def _magnetic_cell(
    complex2: Complex2, covering: CoveringData, q: int
) -> tuple[Complex2, CoveringData]:
    """The q-fold cell along covering axis 0, whose covering labels carry
    the cell coordinate; it depends on the flux only through q."""
    if covering.rank < 1:
        raise ValueError("magnetic supercells need a covering of rank >= 1")
    spec = SupercellSpec((q,) + (1,) * (covering.rank - 1))
    _require_cell_count(spec, f"magnetic supercell(q={q})")
    sc, _ = build_supercell(complex2, covering, spec)
    # edge copy (cell, e) carries (cell + tau[e]) // sizes, in cell-major order
    carry = (spec.cells()[:, None, :] + covering.tau) // np.array(spec.sizes)
    return sc, CoveringData(covering.rank, carry.reshape(-1, covering.rank))


def _face_flux(sc: Complex2, fr: Fraction) -> np.ndarray:
    """Face fluxes 2 pi p/q of the magnetic cell, the same on every face."""
    return np.full(sc.num_faces, TWO_PI * float(fr))


@dataclass(frozen=True, eq=False)
class ButterflyRow:
    """Band data for one rational flux, or the error that prevented it."""

    p: int
    q: int
    band: BandData | None = None
    error: str | None = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _representative(fr: Fraction, size: int, summary: HomologySummary) -> tuple[Fraction, bool]:
    """The flux whose spectra a flux's row is read from, and whether they are
    read at opposite momenta.

    With p = the flux's numerator mod ``size``, the representative is
    min(p, size - p) / size, read at -k when p > size / 2.  This is exact
    on a magnetic cell without H1 torsion: every invariant factor of its
    cotree matrix is 1, so the canonical connection is an integer
    combination of the face fluxes, and fluxes x and m +- x give connections
    equal or opposite mod 2 pi.  Weights and potentials are real, so
    H_{m - x}(k) = conj(H_x(-k)) has the spectrum of H_x at -k, and the grid
    is closed under k -> -k.  The representative's own sweep solves one
    momentum per orbit of its magnetic translation
    (:func:`_translation_step`), so a mirrored row reads, at -k, the first
    momentum of the orbit of -k.  On a cell with torsion a flux is its own
    representative, swept over the whole grid.
    """
    if summary.h1_torsion_orders:
        return fr, False
    p = fr.numerator % size
    return Fraction(min(p, size - p), size), 2 * p > size


def _at_opposite_momenta(band: BandData) -> BandData:
    """A band read at -k: row m holds the eigenvalues of the cell -m mod N,
    and the merged intervals stay.  Per axis, -m mod N is a flip followed
    by a shift of one, so this only indexes a band a sweep has accepted."""
    axes = tuple(range(len(band.grid)))
    e = band.eigenvalues.reshape(band.grid + (band.num_bands,))
    e = np.roll(np.flip(e, axes), 1, axes)
    return replace(band, eigenvalues=e.reshape(band.eigenvalues.shape))


def _label_smith(covering: CoveringData, summary: HomologySummary) -> SmithDecomposition | None:
    """Smith form of a cell's label map on its free H1 generators (rows
    tau^T g), which turns a character into a momentum; None on a cell with
    H1 torsion, whose classes a momentum does not cover."""
    if summary.h1_torsion_orders:
        return None
    tau_t = covering.tau.T.astype(object)
    labels = [tau_t @ g for g in summary.h1_free_generators]
    return smith_normal_form(np.array(labels, dtype=object).reshape(len(labels), covering.rank))


def _translation_step(
    sc: Complex2,
    summary: HomologySummary,
    labels: SmithDecomposition | None,
    theta: np.ndarray,
    size: int,
    sizes: tuple[int, ...],
) -> list[int] | None:
    """The grid step of the magnetic translation of a ``size``-fold cell
    with connection ``theta``, or None when its orbits are single momenta.

    T0 moves the cell by one base copy, the edge permutation e -> e + E/q
    mod E.  It is a symmetry of the complex, so H_theta(k) is unitarily
    equivalent to H_{theta o T0}(k) (the labels' carries change by a
    coboundary).  A momentum delta with chi(g) = delta . tau^T g on every
    free generator g, chi the class of theta o T0 - theta, makes theta o T0
    gauge equivalent to theta + delta . tau, so the fiber spectra at k and
    k + delta agree.  On a cell without H1 torsion the canonical connection
    is an integer combination of the face fluxes p/q, so the turns of chi
    are multiples of 1/q exactly; q times a turn is read as the nearest
    integer when it lies within ``CLASS_TOL`` of it, and everything after is
    integer arithmetic.  delta solves A delta = chi mod 1 through the Smith
    form A = U D V of the labels, and the step is j delta N for the
    smallest j that makes it an integer vector.  None when ``labels`` is
    None (H1 torsion), when the class is off the 1/q lattice or has no
    momentum solution, and when the step is 0 mod N.
    """
    if labels is None:
        return None
    try:
        chi = difference_class(sc, summary, theta, np.roll(theta, -(sc.num_edges // size)))
    except ValueError:  # curvatures apart by more than difference_class accepts
        return None
    turns = chi.angles * (size / TWO_PI)
    near = np.rint(turns)
    if np.any(np.abs(turns - near) > CLASS_TOL):
        return None
    t = [int(x) for x in near]
    # D (V delta) = U^-1 t / q mod 1: row i solves y_i = b_i / (q d_i), and
    # a zero row of D needs b_i = 0 mod q
    b = [sum(x * t[k] for k, x in row.items()) for row in labels.u_inv_rows]
    if any(bi % size for bi in b[labels.rank :]):
        return None
    delta = [Fraction(0)] * len(sizes)
    for bi, d, col in zip(b, labels.pivots, labels.v_inv_cols):
        for a, x in col.items():
            delta[a] += Fraction(x * bi, size * d)
    shift = [dj * n for dj, n in zip(delta, sizes)]
    j = math.lcm(*(sj.denominator for sj in shift))
    step = [int(j * sj) % n for sj, n in zip(shift, sizes)]
    return step if any(step) else None


def _orbit_owners(sizes: tuple[int, ...], step: Sequence[int]) -> np.ndarray:
    """owner[m]: the first cell, in rank order, of the orbit of cell m under
    m -> m + step mod the sizes.  Rolling the rank array by -step puts the
    rank of m + step at m, so the orbit closes when rank 0 comes back."""
    ranks = np.arange(math.prod(sizes)).reshape(sizes)
    owner = shifted = ranks
    back, axes = tuple(-s for s in step), tuple(range(len(sizes)))
    while True:
        shifted = np.roll(shifted, back, axes)
        if shifted.flat[0] == 0:
            return owner.ravel()
        owner = np.minimum(owner, shifted)


def butterfly(
    complex2: Complex2,
    covering: CoveringData,
    fluxes: Sequence,
    grid: Sequence[int],
) -> list[ButterflyRow]:
    """Band intervals over a list of rational fluxes (Hofstadter-type sweep).

    Each flux is run through the magnetic supercell construction, a
    synthesized connection, and a band sweep; a denominator above
    ``MAX_DENOMINATOR`` is an error.  The magnetic cell and its homology
    depend only on the denominator, so each is built once per distinct
    denominator, in order.  Fluxes with the same representative (see
    :func:`_representative`: p/q, q - p/q and their integer shifts on a
    cell without H1 torsion) share one band sweep, that of the
    representative, whether or not it is in the list; each flux still
    synthesizes its own connection, whose certificate and curvature gate
    decide its error, and a flux whose representative fails is solved on
    its own.  So a row depends only on its flux.

    Each band sweep solves one momentum per orbit of the grid under the
    cell's magnetic translation and fills the rest of the orbit by index:
    shifting the q-fold cell by one base copy is a symmetry of the
    pushed-down operator that moves the momentum by a fixed delta (Zak's
    magnetic translation), so every momentum of an orbit has the same
    spectrum.  The representative's own task reads delta off the class of
    its connection under that shift, exactly, and steps the grid by the
    first multiple of delta on it (see :func:`_translation_step`); the
    first momentum of each orbit, in rank order, is solved, so that row is
    the whole-grid solve's bit for bit.  The sweep solves the whole grid on
    a cell with H1 torsion, when the class has no momentum, and when no
    multiple of delta but 0 lands on the grid.  The grid's size guards run
    on the whole grid before any orbit is formed, and its momenta are built
    once per call.  The representatives run
    concurrently on a thread pool as large as the number of CPUs the
    process may use, with OpenBLAS held to one thread until the pool is
    joined, and the rows come back in input order.  Every flux goes through
    the same arithmetic whatever thread runs it, so the rows are identical
    for any CPU count.  Failures are collected per entry instead of
    aborting the sweep.  Only domain errors (``ValueError``, which includes
    :class:`NotQuantizableError`, and :class:`NumericError`) become error
    rows, and a cell or homology failure becomes the row of every flux with
    that denominator; any other exception is a bug and propagates, with the
    representatives not yet started cancelled.
    """
    # imported here: concurrent.futures imports logging, which every
    # `import magbloch` would otherwise pay for
    from concurrent.futures import ThreadPoolExecutor

    rows: list[ButterflyRow | None] = []
    cells: dict[int, tuple | Exception] = {}  # by cell size, built in order
    # (cell size, representative) -> [(row index, flux, read at -k)]
    classes: dict[tuple[int, Fraction], list] = {}
    for raw in fluxes:
        try:
            fr = _as_fraction(raw)
        except ValueError as exc:
            rows.append(ButterflyRow(0, 0, error=str(exc)))
            continue
        p, q = fr.numerator, fr.denominator
        if q > MAX_DENOMINATOR:
            error = f"flux denominator {q} exceeds bound {MAX_DENOMINATOR}"
            rows.append(ButterflyRow(p, q, error=error))
            continue
        size = _cell_size(complex2, fr)
        if size not in cells:
            try:
                sc, cov = _magnetic_cell(complex2, covering, size)
                summary = homology(sc)
                cells[size] = (sc, cov, summary, _label_smith(cov, summary))
            except (ValueError, NumericError) as exc:
                cells[size] = exc
        if isinstance(cells[size], Exception):
            rows.append(ButterflyRow(p, q, error=str(cells[size])))
        else:
            rep, mirrored = _representative(fr, size, cells[size][2])
            classes.setdefault((size, rep), []).append((len(rows), fr, mirrored))
            rows.append(None)

    # the momenta, built once when the first cell passes the guards, which
    # every solve below runs again before it reads them
    basis = None
    for cell in cells.values():
        if not isinstance(cell, Exception):
            try:
                basis = BlochBasis.from_sizes(_sweep_grid(cell[0], cell[1], grid).sizes)
                break
            except (ValueError, NumericError):
                pass

    def solve(key) -> list[tuple[int, ButterflyRow]]:
        size, rep = key
        sc, cov, summary, labels = cells[size]

        # one flux's row: its own connection and gates, then its own band
        # sweep over one momentum per orbit, or the representative's band
        # when that one succeeded
        def row(fr: Fraction, shared: BandData | None = None, mirrored: bool = False):
            try:
                conn = synthesize_connection(sc, _face_flux(sc, fr), summary)
                if shared is None:
                    _sweep_grid(sc, cov, grid)
                    step = _translation_step(sc, summary, labels, conn, size, basis.sizes)
                    owner = None if step is None else _orbit_owners(basis.sizes, step)
                    band = _band(sc, cov, conn, basis, owner)
                elif mirrored:
                    band = _at_opposite_momenta(shared)
                else:
                    band = shared
            except (ValueError, NumericError) as exc:  # per-entry errors are data
                return ButterflyRow(fr.numerator, fr.denominator, error=str(exc))
            return ButterflyRow(fr.numerator, fr.denominator, band=band)

        first = row(rep)
        return [
            (i, first if fr == rep else row(fr, first.band, mirrored))
            for i, fr, mirrored in classes[key]
        ]

    # the pool is the parallelism: a threaded BLAS inside each of its solves
    # would compete with it for the same CPUs
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(classes))))
        try:
            for solved in pool.map(solve, classes):
                for i, r in solved:
                    rows[i] = r
        finally:
            pool.shutdown(cancel_futures=True)
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


def butterfly_svg(rows: Sequence[ButterflyRow]) -> str:
    """Standalone SVG scatter of band intervals against flux (no renderer).

    One vertical segment per interval at x = p/q on a ``SVG_WIDTH`` x
    ``SVG_HEIGHT`` canvas; rows with errors are skipped.  Output is
    deterministic markup.
    """
    width, height = SVG_WIDTH, SVG_HEIGHT
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
