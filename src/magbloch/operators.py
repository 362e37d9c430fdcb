"""Magnetic Bochner-Laplacian matrices on quotients, fibers, and supercells.

The operator at a vertex v is

    (H psi)(v) = sum_{edges e at v} w_e (psi(v) - exp(i theta_{e->v}) psi(other))
                 + potential(v) psi(v)

where ``theta_{e->v}`` is the transport phase *into* v: +theta_e when v is
the edge's target, -theta_e when v is its source.  This fixes Hermiticity by
construction and matches the +k.tau fiber twist of the Bloch module.
Matrices are dense; ``DENSE_THRESHOLD`` rejects oversized requests.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .complexes import Complex2, CoveringData, SupercellMap, SupercellSpec, build_supercell

__all__ = [
    "MagneticOperator",
    "Spectrum",
    "NumericError",
    "DENSE_THRESHOLD",
    "require_dense_size",
    "assemble_quotient",
    "assemble_fiber",
    "assemble_fibers",
    "assemble_supercell",
    "spectrum",
    "fiber_spectra",
    "translate",
]

DENSE_THRESHOLD = 2048

HERMITICITY_TOL = 1e-10

# Byte budget of one fiber stack: batches of K fibers keep each (K, V, V)
# complex temporary near this size.  It bounds memory, never a result.  The
# momenta and eigenvalues of a sweep still grow with the number of momenta.
STACK_BYTES = 1 << 17

# Byte budget of one block of rows or columns: the gates below walk a large
# matrix a block at a time, so their temporaries stay near this size.  Fiber
# stacks fit in one block.
_BLOCK_BYTES = 1 << 20


class NumericError(RuntimeError):
    """Raised when a numerical contract is violated (non-Hermitian input,
    oversized dense solve, excessive eigenpair residual)."""


def require_dense_size(n: int, where: str) -> None:
    """Raise :class:`NumericError` if an n x n dense solve exceeds ``DENSE_THRESHOLD``."""
    if n > DENSE_THRESHOLD:
        raise NumericError(
            f"{where}: matrix dimension {n} exceeds the dense solver threshold "
            f"{DENSE_THRESHOLD}; reduce the supercell size or grid"
        )


def _require_cell_count(spec: SupercellSpec, where: str) -> None:
    """Raise :class:`NumericError` if the supercell ``spec`` has more cells
    than ``DENSE_THRESHOLD``, before :func:`build_supercell` enumerates
    them, which it does whatever the vertex count."""
    if spec.num_cells > DENSE_THRESHOLD:
        raise NumericError(
            f"{where}: {spec.num_cells} cells exceed the dense solver threshold "
            f"{DENSE_THRESHOLD}; reduce the supercell size"
        )


@dataclass(frozen=True, eq=False)
class MagneticOperator:
    """Dense Hermitian matrix with a provenance tag.

    ``provenance`` records how the operator was assembled: "quotient",
    "fiber(k=...)", or "supercell(N=..., periodic)".
    """

    matrix: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with the worst eigenpair residual of the solve.

    From :func:`fiber_spectra` the eigenvalues have one ascending row per
    momentum.
    """

    eigenvalues: np.ndarray
    residual: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _blocks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)`` of about ``_BLOCK_BYTES`` each,
    for items of ``item_bytes`` bytes; at least one item per slice."""
    step = max(1, _BLOCK_BYTES // max(item_bytes, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def _edge_phases(
    complex2: Complex2, theta: Sequence[float] | None
) -> np.ndarray:
    if theta is None:
        return np.zeros(complex2.num_edges)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (complex2.num_edges,):
        raise ValueError(f"connection must have {complex2.num_edges} angles")
    return theta


def _assemble(complex2: Complex2, phases: np.ndarray) -> np.ndarray:
    """Operator matrices for a stack of edge phases, shape (K, E) -> (K, V, V).

    Each edge subtracts w exp(i phase) at (target, source) and then its
    conjugate at (source, target); ``np.subtract.at`` applies these in edge
    order, so every entry is accumulated exactly as a loop over the edges
    would.  The degree-plus-potential diagonal is added last.
    """
    n = complex2.num_vertices
    H = np.zeros((phases.shape[0], n, n), dtype=complex)
    ends = complex2.ends
    z = complex2.weights * np.exp(1j * phases)
    hops = np.stack([z, z.conj()], axis=2).reshape(len(H), 2 * len(ends))
    np.subtract.at(H, (slice(None), ends[:, ::-1].ravel(), ends.ravel()), hops)
    idx = np.arange(n)
    H[:, idx, idx] += _degree(complex2) + complex2.potentials
    return H


def _degree(complex2: Complex2) -> np.ndarray:
    """Weighted degree, summed in edge order (source, then target; loops count twice)."""
    deg = np.zeros(complex2.num_vertices)
    np.add.at(deg, complex2.ends.ravel(), np.repeat(complex2.weights, 2))
    return deg


def assemble_quotient(
    complex2: Complex2, theta: Sequence[float] | None = None
) -> MagneticOperator:
    """Bochner Laplacian plus potential on the quotient complex."""
    H = _assemble(complex2, _edge_phases(complex2, theta)[None])[0]
    return MagneticOperator(H, "quotient")


def _fiber_data(
    complex2: Complex2, covering: CoveringData, theta, ks
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated momenta (K, d), connection (E,) and float labels tau^T (d, E)."""
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 2 or ks.shape[1] != covering.rank:
        raise ValueError(f"momenta must have shape (K, {covering.rank}), got {ks.shape}")
    phases = _edge_phases(complex2, theta)
    if covering.tau.shape[0] != complex2.num_edges:
        raise ValueError("covering labels do not match the number of edges")
    return ks, phases, covering.tau.T.astype(float)


def assemble_fibers(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    ks: np.ndarray,
) -> np.ndarray:
    """Fiber operators at the momenta ``ks`` (shape (K, d)) as a (K, V, V) stack.

    Row i is the operator at ``ks[i]``: every edge phase shifted by
    ``ks[i] . tau(e)``.
    """
    ks, phases, tau_t = _fiber_data(complex2, covering, theta, ks)
    return _assemble(complex2, phases + ks @ tau_t)


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
    H = assemble_fibers(complex2, covering, theta, k[None])[0]
    return MagneticOperator(H, f"fiber(k=[{_format_k(k)}])")


def _format_k(k: np.ndarray) -> str:
    return ",".join(f"{v:.6g}" for v in k)


def assemble_supercell(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    spec: SupercellSpec,
) -> MagneticOperator:
    """Copies of the quotient operator on the finite cover of ``spec``.

    The hopping wraps around without extra twist, and the result equals the
    quotient assembly of :func:`build_supercell`'s complex with the
    connection copied to every cell.  A supercell whose dimension or cell
    count exceeds ``DENSE_THRESHOLD`` raises :class:`NumericError` before
    anything is built.
    """
    H, tag = _supercell_stack(complex2, covering, theta, spec)
    return MagneticOperator(H[0], tag)


def _supercell_stack(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    spec: SupercellSpec,
) -> tuple[np.ndarray, str]:
    """The matrix of :func:`assemble_supercell` as a writable (1, n, n)
    stack, with its provenance tag."""
    tag = f"supercell(N={spec.sizes}, periodic)"
    require_dense_size(complex2.num_vertices * spec.num_cells, tag)
    _require_cell_count(spec, tag)
    sc, _ = build_supercell(complex2, covering, spec)
    phases = np.tile(_edge_phases(complex2, theta), spec.num_cells)
    return _assemble(sc, phases[None]), tag


def _hermitian_part(
    H: np.ndarray, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """Gate 1 of the eigensolve: the dense threshold and the Hermiticity gate.

    One pass over blocks of rows of the (K, n, n) stack computes each
    matrix's Hermiticity defect max |H - H^dagger| and row-sum norm, and
    writes the symmetrized S = (H + H^dagger) / 2, with the same arithmetic
    on every entry as the whole-matrix expressions; the other n x n
    temporaries of those expressions are never made.  When H has no
    imaginary entry neither has S, which is then written as its real part.
    Returns S and each matrix's residual scale, its row-sum norm and at
    least 1.  A failure raises :class:`NumericError` naming ``where(i)`` of
    the first failing matrix.
    """
    K, n = H.shape[0], H.shape[1]
    if K:
        require_dense_size(n, where(0))
    real = not H.imag.any()
    S = np.empty(H.shape, dtype=float if real else complex)
    defect, rowsum = np.zeros(K), np.zeros(K)
    for rows in _blocks(n, 16 * K * n):
        block = H[:, rows, :]
        adjoint = H[:, :, rows].conj().transpose(0, 2, 1)
        defect = np.maximum(defect, np.max(np.abs(block - adjoint), axis=(1, 2)))
        rowsum = np.maximum(rowsum, np.max(np.sum(np.abs(block), axis=2), axis=1))
        half_sum = 0.5 * (block + adjoint)
        S[:, rows, :] = half_sum.real if real else half_sum
    # gates read "not (value <= bound)", so a NaN fails them
    bad = np.flatnonzero(~(defect <= HERMITICITY_TOL))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"{where(i)}: not Hermitian: defect {defect[i]:.3e} exceeds {HERMITICITY_TOL}"
        )
    return S, np.maximum(rowsum, 1.0)


def _eigh_gated(
    S: np.ndarray, scale: np.ndarray, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """Gate 2 of the eigensolve: ``eigh`` of the symmetrized (K, n, n) stack
    S and the eigenpair residual gate, 1e-8 times ``scale`` per matrix.

    Each matrix with no nonzero imaginary entry is solved, and its residual
    computed, in real arithmetic, so its results depend on it alone.  A
    stack of one kind goes to LAPACK whole, as S or its real view, and a
    mixed one as two copies, one after the other: the first part's copy,
    eigenvectors and product are freed before the second part is copied.
    The product S V is one matmul, so BLAS
    rounds every column as for the whole product; the residual is then
    finished in place and reduced a block of columns at a time.  Returns
    the ascending eigenvalues (K, n) and each matrix's residual
    max_i ||S v_i - lam_i v_i||_2; a failure raises :class:`NumericError`
    naming ``where(i)`` of the first failing matrix.
    """
    K, n = S.shape[0], S.shape[1]
    real = np.ones(K, dtype=bool) if S.dtype == float else ~S.imag.any(axis=(1, 2))
    vals, residual = np.zeros((K, n)), np.zeros(K)
    for pick, part in ((real, S.real), (~real, S)):
        if pick.any():
            vals[pick], residual[pick] = _eigh_residual(part if pick.all() else part[pick])
    bad = np.flatnonzero(~(residual <= 1e-8 * scale))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"{where(i)}: eigenpair residual {residual[i]:.3e} exceeds 1e-8 * {scale[i]:.3e}"
        )
    return np.sort(vals, axis=1), residual


def _eigh_residual(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a (K, n, n) stack of one kind, and each matrix's residual.

    Its eigenvectors and product are freed on return, before a mixed stack's
    other part is copied and solved.
    """
    n = S.shape[1]
    w, vecs = np.linalg.eigh(S)
    R = S @ vecs
    res = np.zeros(len(S))
    for cols in _blocks(n, 16 * len(S) * n):
        block = R[:, :, cols]
        block -= vecs[:, :, cols] * w[:, None, cols]
        res = np.maximum(res, np.max(np.linalg.norm(block, axis=1), axis=1))
    return w, res


def _eigh_checked(H: np.ndarray, where: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Gated Hermitian eigensolve of a (K, n, n) stack: gate 1
    (:func:`_hermitian_part`) on H, then gate 2 (:func:`_eigh_gated`) on its
    symmetrized part.

    Applies to each matrix the dense threshold, the Hermiticity gate, the
    symmetrized ``eigh`` and the eigenpair residual gate (1e-8 times that
    matrix's row-sum norm, at least 1e-8).  Returns the ascending
    eigenvalues (K, n) and each matrix's residual; a failure raises
    :class:`NumericError` naming ``where(i)`` of the first failing matrix.
    """
    S, scale = _hermitian_part(H, where)
    return _eigh_gated(S, scale, where)


def spectrum(op: MagneticOperator) -> Spectrum:
    """Full Hermitian eigendecomposition, with residual verification.

    Rejects matrices larger than ``DENSE_THRESHOLD`` (reduce the supercell
    size or grid instead) and matrices whose Hermiticity defect exceeds
    1e-10.  The returned residual is max_i ||H v_i - lam_i v_i||_2.
    """
    vals, residual = _eigh_checked(op.matrix[None], lambda i: op.provenance)
    return Spectrum(vals[0], float(residual[0]))


def fiber_spectra(
    complex2: Complex2,
    covering: CoveringData,
    theta: Sequence[float] | None,
    ks: np.ndarray,
) -> Spectrum:
    """Spectra of the fiber operators at the momenta ``ks`` (shape (K, d)).

    Returns a :class:`Spectrum` whose eigenvalues have shape (K, V), row i
    ascending at ``ks[i]``, and whose residual is the worst over all fibers.
    The fibers are assembled and solved in batches of at most
    ``STACK_BYTES`` per matrix stack, each fiber under the gates of
    :func:`spectrum`; a failure names its momentum.  Row i depends on
    ``ks[i]`` alone, not on the other momenta or the batch size.
    """
    ks, phases, tau_t = _fiber_data(complex2, covering, theta, ks)
    V = complex2.num_vertices
    batch = max(1, STACK_BYTES // (16 * max(V, 1) ** 2))
    eigs = np.empty((len(ks), V))
    worst = 0.0
    for start in range(0, len(ks), batch):
        chunk = ks[start : start + batch]
        H = _assemble(complex2, phases + chunk @ tau_t)
        vals, residual = _eigh_checked(H, lambda i: f"fiber at k=[{_format_k(chunk[i])}]")
        eigs[start : start + len(chunk)] = vals
        worst = max(worst, float(residual.max()))
    return Spectrum(eigs, worst)


def translate(
    s: Sequence[complex], gamma: Sequence[int], sc_map: SupercellMap
) -> np.ndarray:
    """Deck translation on supercell vectors: (T_gamma s)(cell, v) = s(cell - gamma, v).

    The map permutes cell blocks, is unitary, and satisfies
    T_gamma T_delta = T_{gamma+delta}.
    """
    s = np.asarray(s)
    if s.shape[0] != sc_map.num_vertices:
        raise ValueError(f"vector must have length {sc_map.num_vertices}")
    gamma = np.asarray(gamma, dtype=int)
    if gamma.shape != (len(sc_map.sizes),):
        raise ValueError(f"translation must have length {len(sc_map.sizes)}")
    d = len(sc_map.sizes)
    blocks = s.reshape(sc_map.sizes + (sc_map.base_vertices,) + s.shape[1:])
    return np.roll(blocks, tuple(gamma), axis=tuple(range(d))).reshape(s.shape)


# (get, set) thread-count functions of OpenBLAS: the prefixed symbols of
# the scipy_openblas builds in numpy's wheels (64-bit and 32-bit integer
# interface), then a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_control():
    """OpenBLAS's (get, set) thread-count functions as numpy's linear
    algebra sees them, or None when it is linked against no OpenBLAS;
    looked up once per process.

    They are looked up through numpy's ``_umath_linalg`` extension, whose
    library dependencies include the BLAS numpy was built with.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# bodies of _one_blas_thread running now, and the thread count before them
_pin_lock = threading.Lock()
_pinned_sweeps = 0
_unpinned_threads = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS limited to one thread, then restore its
    thread count, also when an exception propagates.  The count is
    process-wide, so overlapping bodies share one pin, which the last one
    out restores.  Without OpenBLAS the body runs unchanged."""
    global _pinned_sweeps, _unpinned_threads
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _pin_lock:
        if _pinned_sweeps == 0:
            _unpinned_threads = get()
            set_(1)
        _pinned_sweeps += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pinned_sweeps -= 1
            if _pinned_sweeps == 0:
                set_(_unpinned_threads)
