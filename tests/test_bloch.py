import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from magbloch import (
    BandData,
    Complex2,
    CoveringData,
    NotQuantizableError,
    SupercellSpec,
    assemble_fiber,
    assemble_fibers,
    assemble_quotient,
    assemble_supercell,
    band_csv,
    bloch_matrix,
    bloch_transform,
    build_supercell,
    butterfly,
    butterfly_csv,
    butterfly_svg,
    character_relations_check,
    curvature,
    difference_class,
    fiber_spectra,
    homology,
    is_quantizable,
    magnetic_supercell,
    momentum_character,
    multiplier_action,
    spectrum,
    spectrum_union,
    synthesize_connection,
    translate,
    twist,
    verify_block_diagonalization,
)

from magbloch import operators
from magbloch.bloch import (
    MAX_DENOMINATOR,
    BlockDiagonalizationReport,
    ButterflyRow,
    _as_fraction,
    _character_tables,
    _label_smith,
    _merge_intervals,
    _representative,
    _transform,
    _translation_step,
    _unitarity_defect,
    lipschitz_bound,
)
from magbloch.homology import TWO_PI
from magbloch.operators import NumericError

from conftest import cell_rank, make_random3, reference_eigh_checked


class TestBlochBasis:
    """The Bloch momenta of a supercell: ``SupercellSpec.momenta``, one per
    character of the deck group, in cell order."""

    def test_counts_and_order(self):
        ks = SupercellSpec((2, 3)).momenta
        assert ks.shape == (6, 2)
        # lexicographic in the integer multi-index
        expect0 = [0.0, 0.0]
        expect1 = [0.0, 2 * np.pi / 3]
        assert ks[0] == pytest.approx(expect0)
        assert ks[1] == pytest.approx(expect1)
        assert ks[3] == pytest.approx([np.pi, 0.0])

    def test_rank_zero(self):
        assert SupercellSpec(()).momenta.shape == (1, 0)

    @pytest.mark.parametrize("sizes", [(), (1,), (7,), (3, 4), (2, 3, 5)])
    def test_grid_is_per_axis_meshgrid(self, sizes):
        # an independent reference, the per-axis grids 2 pi m_j / N_j: the
        # momenta derived from the cells are the same floats, bit for bit
        if sizes:
            axes = np.meshgrid(*[TWO_PI * np.arange(n) / n for n in sizes], indexing="ij")
            expect = np.stack([g.ravel() for g in axes], axis=-1)
        else:
            expect = np.zeros((1, 0))
        spec = SupercellSpec(sizes)
        ks = spec.momenta
        assert ks.dtype == expect.dtype and np.array_equal(ks, expect)
        # read-only, and built once per spec
        assert not ks.flags.writeable and spec.momenta is ks
        with pytest.raises(ValueError, match="read-only"):
            ks[...] = 0.0

    def test_zero_size_rejected_once(self, chain):
        cx, cov = chain
        for call in (
            lambda: SupercellSpec((2, 0)).momenta,
            lambda: character_relations_check((2, 0)),
            lambda: spectrum_union(cx, cov, None, (0,)),
        ):
            with pytest.raises(ValueError, match=r"^sizes must be >= 1, got \("):
                call()

    def test_non_integer_size_rejected(self, chain):
        cx, cov = chain
        for call in (
            lambda: SupercellSpec((2.9,)).momenta,
            lambda: character_relations_check((2.9,)),
            lambda: spectrum_union(cx, cov, None, (2.9,)),
            lambda: verify_block_diagonalization(cx, cov, None, (2.9,)),
        ):
            with pytest.raises(ValueError, match=r"^sizes must be integers, got 2.9$"):
                call()
        [row] = butterfly(cx, cov, ["1/2"], (2.9,))
        assert row.band is None and row.error == "sizes must be integers, got 2.9"


class TestBlochTransform:
    def test_two_cell_hand_sum(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2,)))
        out = bloch_transform([1.0, 0.0], sc_map)
        # hand sum: (1/sqrt 2) * (e^{ik*0} * 1 + e^{ik*1} * 0) = 1/sqrt 2 at both k
        assert out == pytest.approx(np.full((2, 1), 1 / np.sqrt(2)))

    def test_constant_vector_hits_only_trivial_character(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        out = bloch_transform(np.ones(4), sc_map)
        assert abs(out[0, 0]) == pytest.approx(2.0)
        assert np.max(np.abs(out[1:])) <= 1e-12

    def test_unitarity(self, torus):
        cx, cov = torus
        for sizes in [(2, 2), (3, 2)]:
            _, sc_map = build_supercell(cx, cov, SupercellSpec(sizes))
            Phi = bloch_matrix(sc_map)
            n = Phi.shape[0]
            assert np.max(np.abs(Phi.conj().T @ Phi - np.eye(n))) <= 1e-12
            rng = np.random.default_rng(1)
            s = rng.normal(size=n) + 1j * rng.normal(size=n)
            out = bloch_transform(s, sc_map)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(s), abs=1e-12)

    def test_matches_matrix(self, torus):
        cx, cov = torus
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2, 3)))
        rng = np.random.default_rng(7)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        stacked = bloch_transform(s, sc_map).ravel()
        assert stacked == pytest.approx(bloch_matrix(sc_map) @ s)
        # three base vertices per cell: the vertex axis stays out of the FFT
        cx3, cov3, _ = make_random3(rng)
        _, sc_map = build_supercell(cx3, cov3, SupercellSpec((4, 3)))
        s = rng.normal(size=36) + 1j * rng.normal(size=36)
        stacked = bloch_transform(s, sc_map).ravel()
        assert np.max(np.abs(stacked - bloch_matrix(sc_map) @ s)) <= 1e-12

    @pytest.mark.parametrize("sizes", [(1,), (7,), (2048,), (3, 682), (7, 292), (2, 3, 4)], ids=str)
    def test_equals_numpy_ifftn(self, sizes):
        # five base vertices, one loop per covering axis: the transform is
        # numpy's orthonormal inverse FFT over the cell axes, bit for bit
        d, V = len(sizes), 5
        cx = Complex2(V, [(0, 0, 1.0)] * d)
        _, sc_map = build_supercell(cx, CoveringData(d, np.eye(d, dtype=int)), SupercellSpec(sizes))
        rng = np.random.default_rng(11)
        s = rng.normal(size=sc_map.num_vertices) + 1j * rng.normal(size=sc_map.num_vertices)
        want = np.fft.ifftn(s.reshape(sizes + (V,)), axes=tuple(range(d)), norm="ortho")
        got = bloch_transform(s, sc_map)
        assert np.array_equal(got, want.reshape(-1, V))

    def test_diagonalizes_translation(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        rng = np.random.default_rng(3)
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = bloch_transform(translate(s, [1], sc_map), sc_map)
        rhs = np.exp(1j * sc_map.spec.momenta[:, 0])[:, None] * bloch_transform(s, sc_map)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


SIZES_UP_TO_64 = [(n,) for n in range(1, 65)] + [
    (a, b) for a in range(2, 33) for b in range(2, 33) if a * b <= 64
]


def reference_character_tables(sizes):
    """Column means and full Gram matrix from per-axis N x N phase tables
    and circulant Gram matrices combined with ``kron``: the computation the
    first-row check replaced, kept as its reference."""
    means = np.ones(1, dtype=complex)
    gram = np.ones((1, 1), dtype=complex)
    for n in sizes:
        m = np.arange(n)
        table = np.exp(1j * TWO_PI * (np.outer(m, m) % n / n))
        S = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in table])
        means = np.kron(means, S / n)
        gram = np.kron(gram, S[(m[None, :] - m[:, None]) % n])
    return means, gram


def reference_character_relations(sizes):
    """(delta, orthogonality) residuals read off the full Gram matrix."""
    means, gram = reference_character_tables(sizes)
    C = len(means)
    indicator = np.zeros(C)
    indicator[0] = 1.0
    return float(np.max(np.abs(means - indicator))), float(np.max(np.abs(gram - C * np.eye(C))))


def loop_character_tables(sizes):
    """Column means and first Gram row with one ``fsum`` pair per residue r,
    the loop the per-divisor sums replaced, kept as their reference."""
    means = np.ones(1, dtype=complex)
    row = np.ones(1, dtype=complex)
    for n in sizes:
        m = np.arange(n)
        w = np.exp(1j * TWO_PI * (m / n))
        S = np.empty(n, dtype=complex)
        for r in range(n):
            terms = w[r * m % n]
            S[r] = complex(math.fsum(terms.real), math.fsum(terms.imag))
        means = np.kron(means, S / n)
        row = np.kron(row, S)
    return means, row


def gram_from_first_row(row, sizes):
    """The Gram matrix gram[a, b] = row[(b - a) mod sizes] of a first row."""
    cells = np.indices(sizes).reshape(len(sizes), -1)
    shift = (cells[:, None, :] - cells[:, :, None]) % np.array(sizes)[:, None, None]
    return row[np.ravel_multi_index(tuple(shift), sizes)]


def dense_character_tables(sizes):
    """Column means and Gram matrix of the dense table W[k, gamma] = exp(i k.gamma),
    the unfactorized computation kept as the reference."""
    spec = SupercellSpec(sizes)
    W = np.exp(1j * spec.momenta @ spec.cells().astype(float).T)
    return W.mean(axis=0), W.conj() @ W.T


class TestCharacterRelations:
    def test_cube_roots_cancel(self):
        report = character_relations_check((3,))
        assert report.delta_residual <= 1e-13  # 1 + w + w^2 = 0 numerically

    def test_identity_element_exact(self):
        # at gamma = 0 every character contributes 1; the mean is exactly 1
        assert character_relations_check((5,)).delta_residual <= 1e-13

    def test_4x4_grid(self):
        report = character_relations_check((4, 4))
        assert report.max_residual <= 1e-12

    def test_all_products_up_to_64(self):
        for sizes in SIZES_UP_TO_64:
            assert character_relations_check(sizes).max_residual <= 1e-12

    def test_24x24_and_32x32(self):
        assert character_relations_check((24, 24)).max_residual <= 1e-12
        assert character_relations_check((32, 32)).max_residual <= 1e-12

    @pytest.mark.parametrize("sizes", [(984,), (2009,), (3, 682), (7, 292)])
    def test_gate_holds_above_1000_characters(self, sizes):
        # plain float sums of N unit phases missed the gate at these sizes
        assert character_relations_check(sizes).max_residual <= 1e-12

    def test_factorized_tables_match_dense_reference(self):
        for sizes in SIZES_UP_TO_64:
            means, row = _character_tables(sizes)
            gram = gram_from_first_row(row, sizes)
            ref_means, ref_gram = dense_character_tables(sizes)
            assert np.max(np.abs(means - ref_means)) <= 1e-12
            assert np.max(np.abs(gram - ref_gram)) <= 1e-12

    @pytest.mark.parametrize(
        "sizes",
        [
            (1,), (2,), (7,), (1, 1), (1, 5), (3, 3), (4, 4), (6, 2), (5, 7), (2, 3, 4),
            (16, 16), (32, 32), (45, 45), (984,), (2009,), (2048,), (3, 682), (7, 292),
            (2, 1024), (11, 186),
        ],
    )
    def test_first_row_equals_full_gram_reference(self, sizes):
        # every entry of gram - C I is an entry of row - C e0, bitwise
        report = character_relations_check(sizes)
        assert (report.delta_residual, report.orthogonality_residual) == (
            reference_character_relations(sizes)
        )

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (984,), (2009,), (2048,), (3, 682), (7, 292), (32, 32), (45, 45), (2, 1024)],
    )
    def test_divisor_sums_equal_per_residue_loop(self, sizes):
        # S(r) = S(gcd(r, N)): the same multiset of terms, and fsum is
        # correctly rounded, so the tables agree exactly
        for got, want in zip(_character_tables(sizes), loop_character_tables(sizes)):
            assert got.shape == want.shape and np.all(got == want)


def full_unitarity_defect(sizes, V, rows=256):
    """||Phi^dagger Phi - I||_max from the round trip of every unit vector of
    all n = prod N * V supercell coordinates, the reference for the cell-only
    round trip.  Unit vectors go through in blocks of ``rows``; each is
    transformed on its own, so the blocks do not change the result."""
    n = math.prod(sizes) * V
    axes = tuple(range(1, len(sizes) + 1))
    worst = 0.0
    for start in range(0, n, rows):
        m = min(rows, n - start)
        eye = np.zeros((m, n), dtype=complex)
        eye[np.arange(m), np.arange(start, start + m)] = 1.0
        eye = eye.reshape((m,) + sizes + (V,))
        back = np.fft.fftn(np.fft.ifftn(eye, axes=axes, norm="ortho"), axes=axes, norm="ortho")
        back -= eye
        worst = max(worst, float(np.max(np.abs(back))))
    return worst


def reference_verify(cx, cov, theta, sizes):
    """verify_block_diagonalization with whole-matrix expressions: the gated
    supercell and fiber solves first, then the conjugation of the assembled
    operator by ``ifftn`` and ``fftn`` over its cell axes, and the round
    trip of a separate identity.  Returns the seven report fields; the
    staged, blocked verify must agree with it bit for bit."""
    spec = SupercellSpec(sizes)
    op = assemble_supercell(cx, cov, theta, spec)
    V, C, d = cx.num_vertices, spec.num_cells, len(spec.sizes)
    vals, residual = reference_eigh_checked(op.matrix[None], lambda i: op.provenance)
    eigs = vals[0]
    # each fiber on its own: verify's solver picks real or complex LAPACK
    # per matrix, whatever shares its stack
    fibers = assemble_fibers(cx, cov, theta, spec.momenta)
    fiber_eigs, fiber_residual = [], 0.0
    for i in range(C):
        v, r = reference_eigh_checked(fibers[i : i + 1], str)
        fiber_eigs.append(v)
        fiber_residual = max(fiber_residual, float(r.max()))
    fiber_eigs = np.concatenate(fiber_eigs)
    max_dev = float(np.max(np.abs(eigs - np.sort(fiber_eigs.ravel())))) if V else 0.0
    norm = float(np.max(np.abs(eigs))) if V else 0.0

    shape = spec.sizes + (V,)
    B = np.fft.ifftn(op.matrix.reshape(shape + shape), axes=tuple(range(d)), norm="ortho")
    B = np.fft.fftn(B, axes=tuple(range(d + 1, 2 * d + 1)), norm="ortho").reshape(C, V, C, V)
    diagonal = np.arange(C)
    blocks = B[diagonal, :, diagonal, :]
    fiber_dev = float(np.max(np.abs(blocks - fibers))) if V else 0.0
    off = 0.0
    if C > 1 and V:
        B[diagonal, :, diagonal, :] = 0.0
        off = float(np.max(np.abs(B)))
    axes = tuple(range(1, d + 1))
    eye = np.eye(C, dtype=complex).reshape((C,) + spec.sizes)
    back = np.fft.fftn(np.fft.ifftn(eye, axes=axes, norm="ortho"), axes=axes, norm="ortho")
    unitarity = float(np.max(np.abs(back - eye))) if V else 0.0
    return (unitarity, off, fiber_dev, max_dev, norm, float(residual[0]), fiber_residual)


VERIFY_MODELS = ["torus", "tri", "magnetic_cell(3)", "block(5,3)", "random3"]


def verify_model(name):
    """(complex, covering, connection) of a named verify model: the torus and
    the 3-vertex quotient without connection (real operators), the flux-1/3
    magnetic cell and the periodic 5x3 block as its own quotient with their
    flux connections, and a random quotient with a random connection."""
    torus = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
    torus_cov = CoveringData(2, [[1, 0], [0, 1]])
    if name == "torus":
        return torus, torus_cov, None
    if name == "tri":
        edges = [(0, 1, 1.3), (1, 2, 0.7), (2, 0, 1.1), (0, 0, 0.9)]
        cx = Complex2(3, edges, [(1, 2, 3, 4, -3, -2, -1, -4)], [0.2, -0.5, 0.1])
        return cx, CoveringData(2, [[0, 0], [0, 0], [1, 0], [0, 1]]), None
    if name == "magnetic_cell(3)":
        ms = magnetic_supercell(torus, torus_cov, Fraction(1, 3))
        return ms.complex2, ms.covering, synthesize_connection(ms.complex2, ms.flux)
    if name == "block(5,3)":
        # the deck labels of the block are the carries of its cells
        spec = SupercellSpec((5, 3))
        sc, sc_map = build_supercell(torus, torus_cov, spec)
        r, e = np.array(sc_map.edge_origin).T
        tau = (spec.cells()[r] + torus_cov.tau[e]) // np.array(spec.sizes)
        theta = synthesize_connection(sc, np.full(sc.num_faces, TWO_PI / sc.num_faces))
        return sc, CoveringData(2, tau), theta
    rng = np.random.default_rng(31)
    cx, cov, _ = make_random3(rng)
    return cx, cov, rng.uniform(0, TWO_PI, size=cx.num_edges)


class TestBlockDiagonalization:
    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (3, 2), (2, 3, 4), (16, 16), (32, 32)], ids=str)
    @pytest.mark.parametrize("model", VERIFY_MODELS)
    def test_equals_whole_matrix_reference(self, model, sizes):
        cx, cov, theta = verify_model(model)

        def outcome(verify):
            try:
                return verify(cx, cov, theta, sizes)
            except (ValueError, NumericError) as exc:
                return type(exc), str(exc)

        got = outcome(verify_block_diagonalization)
        if isinstance(got, BlockDiagonalizationReport):
            got = dataclasses.astuple(got)
        assert got == outcome(reference_verify)
        # the rank-2 models reject other ranks, and the dense threshold
        # rejects 16x16 and 32x32 cells of 15 vertices and 32x32 of 3
        if len(sizes) != 2:
            assert got[0] is ValueError
        elif cx.num_vertices * math.prod(sizes) > 2048:
            assert got[0] is NumericError
        else:
            assert len(got) == 7

    def test_torus_32x32_holds_one_dense_copy(self, torus):
        # H and the real S while the gate runs, then H transformed in place
        # next to S, then S, its eigenvectors and their product: 2.0 x 16 n^2
        # bytes (the whole-matrix version peaked at 4.0)
        cx, cov = torus
        n = 32 * 32
        verify_block_diagonalization(cx, cov, None, (2, 2))
        tracemalloc.start()
        try:
            verify_block_diagonalization(cx, cov, None, (32, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 16 * n * n

    @pytest.mark.parametrize("sizes, V", [((32, 32), 1), ((16, 16), 3)], ids=str)
    def test_conjugation_runs_in_place(self, sizes, V):
        # the passes of verify on its operator buffer: numpy writes each
        # transform into the buffer and allocates no n x n temporary
        d, n = len(sizes), math.prod(sizes) * V
        rng = np.random.default_rng(5)
        B = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))).reshape(2 * (sizes + (V,)))
        want = np.fft.ifftn(B, axes=tuple(range(d)), norm="ortho")
        want = np.fft.fftn(want, axes=tuple(range(d + 1, 2 * d + 1)), norm="ortho")
        tracemalloc.start()
        try:
            _transform(B, tuple(range(d)))
            _transform(B, tuple(range(d + 1, 2 * d + 1)), adjoint=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert np.array_equal(B, want)

    def test_non_hermitian_supercell_raises_before_any_fft(self, torus, monkeypatch):
        cx, cov = torus
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn"):
            real = getattr(np.fft, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        with pytest.raises(NumericError, match=r"^supercell\(N=\(4, 4\), periodic\): not Hermitian"):
            verify_block_diagonalization(cx, cov, [0.0, np.nan], (4, 4))
        assert calls == []
        verify_block_diagonalization(cx, cov, [0.0, 0.1], (4, 4))
        assert calls

    def test_zero_vertex_supercell_rejected_by_its_cell_count(self):
        # the dense dimension V * prod N is 0, but the cells would be built
        cx, cov = Complex2(0, []), CoveringData(2, np.zeros((0, 2)))
        start = time.perf_counter()
        with pytest.raises(NumericError, match="10000000000 cells exceed the dense solver threshold"):
            verify_block_diagonalization(cx, cov, None, (100000, 100000))
        assert time.perf_counter() - start < 0.1
        report = verify_block_diagonalization(cx, cov, None, (32, 64))
        assert dataclasses.astuple(report) == (0.0,) * 7

    @pytest.mark.parametrize("sizes", [(400, 400), (2**32, 2**32)])
    def test_oversized_rejected_before_building(self, torus, sizes):
        cx, cov = torus
        start = time.perf_counter()
        with pytest.raises(NumericError, match="exceeds the dense solver threshold"):
            verify_block_diagonalization(cx, cov, None, sizes)
        assert time.perf_counter() - start < 1.0

    def test_chain_blocks_are_dispersion_values(self, chain):
        cx, cov = chain
        report = verify_block_diagonalization(cx, cov, None, (2,))
        assert report.unitarity_defect <= 1e-12
        assert report.off_diagonal <= 1e-12
        assert report.fiber_deviation <= 1e-12
        # fiber values at k in {0, pi} are 0 and 4
        assert report.max_deviation <= 1e-12

    def test_torus_2x2_zero_flux(self, torus):
        cx, cov = torus
        report = verify_block_diagonalization(cx, cov, None, (2, 2))
        assert report.off_diagonal <= 1e-10 and report.fiber_deviation <= 1e-10
        sup = spectrum(assemble_supercell(cx, cov, None, SupercellSpec((2, 2))))
        assert sup.eigenvalues == pytest.approx([0.0, 4.0, 4.0, 8.0])

    def test_random_connection_3x3(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(13)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        report = verify_block_diagonalization(cx, cov, theta, (3, 3))
        assert report.unitarity_defect <= 1e-12
        assert report.off_diagonal <= 1e-10
        assert report.fiber_deviation <= 1e-10

    def test_decomposition_random3(self):
        rng = np.random.default_rng(29)
        cx, cov, flux = make_random3(rng)
        s = homology(cx)
        theta = synthesize_connection(cx, flux, s)
        report = verify_block_diagonalization(cx, cov, theta, (2, 3))
        assert report.relative_deviation <= 1e-8

    def test_decomposition_keeps_solve_residuals(self):
        rng = np.random.default_rng(30)
        cx, cov, _ = make_random3(rng)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        report = verify_block_diagonalization(cx, cov, theta, (2, 3))
        sup = spectrum(assemble_supercell(cx, cov, theta, SupercellSpec((2, 3))))
        fib = fiber_spectra(cx, cov, theta, SupercellSpec((2, 3)).momenta)
        assert report.supercell_residual == sup.residual
        assert report.fiber_residual == fib.residual
        assert 0 < report.supercell_residual <= 1e-8 * max(1.0, report.operator_norm)

    @pytest.mark.parametrize(
        "sizes, V",
        [
            ((16, 16), 3),
            ((5, 7), 4),
            ((2, 3, 4), 2),
            ((32, 32), 1),
            ((3, 682), 1),
            ((24, 24), 3),
            ((6, 2), 3),
            ((3,), 1),
            ((1,), 2),
        ],
    )
    def test_unitarity_defect_equals_full_round_trip(self, sizes, V):
        assert _unitarity_defect(sizes) == full_unitarity_defect(sizes, V)


class TestMultiplier:
    def test_delta_at_zero_is_identity(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        fhat = np.zeros(4, complex)
        fhat[0] = 1.0
        s = np.arange(4, dtype=complex)
        assert np.array_equal(multiplier_action(fhat, s, sc_map), s)

    def test_delta_is_translation(self, torus):
        cx, cov = torus
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2, 2)))
        rng = np.random.default_rng(0)
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        cells = sc_map.spec.cells()
        for r in range(4):
            fhat = np.zeros(4, complex)
            fhat[r] = 1.0
            assert np.array_equal(
                multiplier_action(fhat, s, sc_map), translate(s, cells[r], sc_map)
            )

    def test_bloch_diagonalizes_multiplier(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        Phi = bloch_matrix(sc_map)
        rng = np.random.default_rng(11)
        fhat = rng.normal(size=4) + 1j * rng.normal(size=4)
        M = np.column_stack(
            [multiplier_action(fhat, np.eye(4, dtype=complex)[:, i], sc_map) for i in range(4)]
        )
        D = Phi @ M @ Phi.conj().T
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) <= 1e-12
        cells = sc_map.spec.cells().astype(float)
        expect = np.array([np.sum(fhat * np.exp(1j * (k @ cells.T))) for k in sc_map.spec.momenta])
        assert np.diag(D) == pytest.approx(expect)

    def test_multiplier_commutes_with_periodic_operator(self, chain):
        cx, cov = chain
        spec = SupercellSpec((4,))
        _, sc_map = build_supercell(cx, cov, spec)
        H = assemble_supercell(cx, cov, None, spec).matrix
        rng = np.random.default_rng(4)
        fhat = rng.normal(size=4) + 1j * rng.normal(size=4)
        M = np.column_stack(
            [multiplier_action(fhat, np.eye(4, dtype=complex)[:, i], sc_map) for i in range(4)]
        )
        assert np.max(np.abs(M @ H - H @ M)) <= 1e-10

    def test_broken_periodicity_fails_both_ways(self, chain):
        # commuting with every multiplier and having vanishing off-diagonal
        # Bloch blocks are the same condition; break periodicity and watch
        # both fail together
        cx, cov = chain
        spec = SupercellSpec((4,))
        _, sc_map = build_supercell(cx, cov, spec)
        Phi = bloch_matrix(sc_map)
        H = assemble_supercell(cx, cov, None, spec).matrix.copy()
        H[0, 0] += 1.0  # impurity at one cell
        fhat = np.zeros(4, complex)
        fhat[1] = 1.0
        M = np.column_stack(
            [multiplier_action(fhat, np.eye(4, dtype=complex)[:, i], sc_map) for i in range(4)]
        )
        B = Phi @ H @ Phi.conj().T
        off = B - np.diag(np.diag(B))
        assert np.max(np.abs(M @ H - H @ M)) > 0.1
        assert np.max(np.abs(off)) > 0.1


class TestMomentumCharacter:
    def test_fiber_equals_twisted_quotient(self, torus):
        cx, cov = torus
        s = homology(cx)
        rng = np.random.default_rng(15)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        for _ in range(6):
            k = rng.uniform(0, 2 * np.pi, size=2)
            chi = momentum_character(s, cov, k)
            fib = spectrum(assemble_fiber(cx, cov, theta, k)).eigenvalues
            quo = spectrum(assemble_quotient(cx, twist(cx, s, theta, chi))).eigenvalues
            assert np.max(np.abs(fib - quo)) <= 1e-9

    def test_random3_consistency(self):
        rng = np.random.default_rng(16)
        cx, cov, flux = make_random3(rng)
        s = homology(cx)
        theta = synthesize_connection(cx, flux, s)
        for _ in range(4):
            k = rng.uniform(0, 2 * np.pi, size=2)
            chi = momentum_character(s, cov, k)
            fib = spectrum(assemble_fiber(cx, cov, theta, k)).eigenvalues
            quo = spectrum(assemble_quotient(cx, twist(cx, s, theta, chi))).eigenvalues
            assert np.max(np.abs(fib - quo)) <= 1e-9


class TestSpectrumUnion:
    def test_square_lattice_range(self, torus):
        cx, cov = torus
        band = spectrum_union(cx, cov, None, (16, 16))
        vals = band.eigenvalues.ravel()
        assert np.all((vals >= -1e-12) & (vals <= 8.0 + 1e-12))
        assert vals.min() == pytest.approx(0.0, abs=1e-12)
        assert vals.max() == pytest.approx(8.0, abs=1e-12)
        assert band.intervals[0][0] == pytest.approx(0.0, abs=1e-12)
        assert band.intervals[-1][1] == pytest.approx(8.0, abs=1e-12)

    def test_chain_endpoints(self, chain):
        cx, cov = chain
        band = spectrum_union(cx, cov, None, (8,))
        vals = band.eigenvalues.ravel()
        assert vals.min() == pytest.approx(0.0, abs=1e-12)
        assert vals.max() == pytest.approx(4.0, abs=1e-12)  # attained at k = pi

    def test_isolated_vertex(self):
        cx = Complex2(1, [], potentials=[2.5])
        cov = CoveringData.trivial(0)
        band = spectrum_union(cx, cov, None, ())
        assert band.eigenvalues.shape == (1, 1)
        assert band.intervals == ((2.5, 2.5),)

    def test_refinement_keeps_attained_values(self, torus):
        cx, cov = torus
        coarse = spectrum_union(cx, cov, None, (4, 4)).eigenvalues.ravel()
        fine = spectrum_union(cx, cov, None, (8, 8)).eigenvalues.ravel()
        for v in coarse:
            assert np.min(np.abs(fine - v)) <= 1e-9

    def test_intervals_sorted_and_disjoint(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(42)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        band = spectrum_union(cx, cov, theta, (9, 9))
        for (lo, hi), (lo2, hi2) in zip(band.intervals, band.intervals[1:]):
            assert lo <= hi and hi < lo2
        assert band.eigenvalues.shape == (81, 1)

    def test_merge_matches_sequential_scan(self):
        def scan(values, join_tol):
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

        rng = np.random.default_rng(17)
        for _ in range(50):
            values = np.round(rng.uniform(-3, 3, size=(int(rng.integers(1, 40)), 3)), 1)
            for join_tol in (0.0, 0.1, 0.25, 1.0):
                assert _merge_intervals(values, join_tol) == scan(values, join_tol)
        assert _merge_intervals(np.zeros((0, 2)), 1.0) == ()

    def test_eigenvalue_bound(self, torus, monkeypatch):
        monkeypatch.setattr(sys.modules["magbloch.bloch"], "MAX_BAND_EIGENVALUES", 16)
        cx, cov = torus
        assert spectrum_union(cx, cov, None, (4, 4)).eigenvalues.shape == (16, 1)
        with pytest.raises(NumericError, match="20 eigenvalues"):
            spectrum_union(cx, cov, None, (4, 5))
        # a magnetic cell of q vertices needs q eigenvalues per momentum
        rows = butterfly(cx, cov, ["0", "1/2"], (4, 4))
        assert rows[0].error is None
        assert (rows[1].p, rows[1].q) == (1, 2) and "32 eigenvalues" in rows[1].error

    def test_work_bound(self, torus, monkeypatch):
        monkeypatch.setattr(sys.modules["magbloch.bloch"], "MAX_BAND_WORK", 16)
        cx, cov = torus
        assert spectrum_union(cx, cov, None, (4, 4)).eigenvalues.shape == (16, 1)
        with pytest.raises(NumericError, match=r"20 units of K\*V\^3 \(grid 4x5, V=1\)"):
            spectrum_union(cx, cov, None, (4, 5))
        # the flux-1/2 cell has 2 vertices: 16 momenta cost 16 * 2^3 units
        rows = butterfly(cx, cov, ["0", "1/2"], (4, 4))
        assert rows[0].error is None
        assert (rows[1].p, rows[1].q) == (1, 2) and "128 units" in rows[1].error

    def test_work_bound_default(self, chain, monkeypatch):
        # 300 momenta on a 2048-vertex quotient is about 75 minutes of solves;
        # it is rejected before any fiber is assembled
        _, cov = chain
        cx = Complex2(2048, [(0, 0, 1.0)])

        def refuse(*args, **kwargs):
            raise AssertionError("solved a sweep over the work bound")

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "fiber_spectra", refuse)
        with pytest.raises(NumericError, match="exceeds bound 68719476736"):
            spectrum_union(cx, cov, None, (300,))


class TestMagneticSupercell:
    def test_unit_fraction_is_identity(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(1, 1))
        assert ms.complex2.num_vertices == cx.num_vertices
        assert ms.complex2.num_edges == cx.num_edges
        assert is_quantizable(ms.complex2, ms.flux).verdict

    def test_half_flux(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(1, 2))
        assert ms.complex2.num_faces == 2
        assert ms.flux == pytest.approx([np.pi, np.pi])
        assert sum(ms.flux) == pytest.approx(2 * np.pi)
        assert is_quantizable(ms.complex2, ms.flux).verdict

    def test_two_thirds(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(2, 3))
        assert ms.complex2.num_faces == 3
        assert sum(ms.flux) == pytest.approx(4 * np.pi)
        assert is_quantizable(ms.complex2, ms.flux).verdict

    def test_irrational_rejected(self, torus):
        cx, cov = torus
        with pytest.raises(ValueError, match="irrational"):
            magnetic_supercell(cx, cov, np.pi / 7)

    def test_rank_zero_covering_rejected(self, torus):
        cx, _ = torus
        with pytest.raises(ValueError, match="covering of rank >= 1"):
            magnetic_supercell(cx, CoveringData.trivial(2), Fraction(1, 2))

    def test_float_input_accepted(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, 0.5)
        assert np.array_equal(ms.flux, magnetic_supercell(cx, cov, Fraction(1, 2)).flux)

    @pytest.mark.parametrize(
        "flux",
        ["1e400", "-1e400", 10**400, Fraction(10**400, 3)],
        ids=["str", "negative-str", "int", "fraction"],
    )
    def test_flux_overflowing_a_float_rejected(self, torus, flux):
        cx, cov = torus
        with pytest.raises(ValueError, match="overflows a float"):
            magnetic_supercell(cx, cov, flux)

    def test_cell_count_above_the_dense_threshold_rejected(self, torus, monkeypatch):
        cx, cov = torus

        def refuse(*args, **kwargs):
            raise AssertionError("built an oversized magnetic cell")

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "build_supercell", refuse)
        start = time.perf_counter()
        with pytest.raises(NumericError, match=r"^magnetic supercell\(q=1000000\): 1000000 cells exceed"):
            magnetic_supercell(cx, cov, "1/1000000")
        assert time.perf_counter() - start < 0.1


def half_flux_fiber_oracle(ms, theta, k):
    """Independent 2x2 assembly for the doubled square-lattice cell.

    Written directly from the vertex stencil: diagonal collects w*(1 - ...)
    over incident edges, hopping enters the target row with phase
    exp(i (theta_e + k . tau_e)).
    """
    H = np.zeros((2, 2), dtype=complex)
    for j, (u, v, w) in enumerate(ms.complex2.edges):
        phase = theta[j] + float(ms.covering.tau[j].astype(float) @ k)
        z = w * np.exp(1j * phase)
        H[u, u] += w
        H[v, v] += w
        H[v, u] -= z
        H[u, v] -= np.conj(z)
    return np.linalg.eigvalsh(H)


class TestButterfly:
    def test_zero_flux_full_band(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, [0], (12, 12))
        assert rows[0].error is None
        assert rows[0].band.intervals[0] == pytest.approx((0.0, 8.0), abs=1e-12)

    def test_half_flux_against_oracle(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(1, 2))
        s = homology(ms.complex2)
        theta = synthesize_connection(ms.complex2, ms.flux, s)
        rng = np.random.default_rng(2)
        for _ in range(12):
            k = rng.uniform(0, 2 * np.pi, size=2)
            lib = spectrum(assemble_fiber(ms.complex2, ms.covering, theta, k)).eigenvalues
            ora = half_flux_fiber_oracle(ms, theta, k)
            assert np.max(np.abs(lib - ora)) <= 1e-10

    def test_integral_flux_matches_zero_flux(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, [0, 1], (8, 8))
        e0 = rows[0].band.eigenvalues
        e1 = rows[1].band.eigenvalues
        assert np.max(np.abs(np.sort(e0.ravel()) - np.sort(e1.ravel()))) <= 1e-9

    def test_rows_share_one_momenta_array(self, torus):
        # the grid's momenta are built once per call: own sweeps, shared
        # representatives and mirrored rows all hold that one array
        cx, cov = torus
        rows = butterfly(cx, cov, ["0", "1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "1"], (8, 8))
        assert all(row.error is None for row in rows)
        ks = rows[0].band.ks
        assert all(row.band.ks is ks for row in rows)
        assert np.array_equal(ks, SupercellSpec((8, 8)).momenta)

    def test_errors_collected_not_fatal(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, [Fraction(1, 2), Fraction(1, 97)], (4, 4))
        assert rows[0].error is None
        assert rows[1].error is not None and "denominator" in rows[1].error

    def test_zero_denominator_and_infinite_flux_are_error_rows(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, ["1/0", float("inf"), "1/2"], (4, 4))
        assert [(r.p, r.q) for r in rows[:2]] == [(0, 0), (0, 0)]
        assert "zero denominator" in rows[0].error
        assert "finite" in rows[1].error
        assert rows[2].error is None

    def test_flux_overflowing_a_float_is_an_error_row(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, ["1/2", "1e400"], (2, 2))
        assert rows[0].error is None
        assert (rows[1].p, rows[1].q) == (0, 0) and "overflows a float" in rows[1].error

    @pytest.mark.parametrize("flux", [True, False, np.True_, np.False_])
    def test_bool_flux_is_an_error_row(self, torus, flux):
        # Fraction and float read a bool as 1 or 0; a flux must be a number
        cx, cov = torus
        with pytest.raises(ValueError, match="flux must be a number"):
            _as_fraction(flux)
        rows = butterfly(cx, cov, ["1/2", flux], (2, 2))
        assert rows[0].error is None
        assert (rows[1].p, rows[1].q, rows[1].band) == (0, 0, None)
        assert rows[1].error == f"flux must be a number, got {flux!r}"

    def test_programming_errors_propagate(self, torus, monkeypatch):
        import magbloch.bloch

        def broken(*args, **kwargs):
            raise TypeError("broken fiber_spectra")

        # every band sweep, one momentum per orbit or the whole grid, solves
        # through fiber_spectra
        monkeypatch.setattr(magbloch.bloch, "fiber_spectra", broken)
        cx, cov = torus
        threads = threading.active_count()
        with pytest.raises(TypeError, match="broken fiber_spectra"):
            butterfly(cx, cov, ["1/2"], (4, 4))
        with pytest.raises(TypeError, match="broken fiber_spectra"):
            butterfly(cx, cov, [Fraction(p, 7) for p in range(7)], (4, 4))
        # the pool is shut down and joined before the exception leaves
        assert threading.active_count() == threads

    def test_threads_joined_after_the_sweep(self, torus):
        cx, cov = torus
        threads = threading.active_count()
        rows = butterfly(cx, cov, ["1/2", "1/3", "2/3", "1/4"], (4, 4))
        assert all(row.error is None for row in rows)
        assert threading.active_count() == threads

    def test_blas_held_to_one_thread_and_restored(self, torus, monkeypatch):
        control = operators._openblas_thread_control()
        if control is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, set_ = control
        cx, cov = torus
        seen = []
        real = fiber_spectra

        def spy(*args):
            seen.append(get())
            return real(*args)

        def broken(*args):
            raise TypeError("broken fiber_spectra")

        original = get()
        set_(2)
        expect = get()
        try:
            monkeypatch.setattr(sys.modules["magbloch.bloch"], "fiber_spectra", spy)
            butterfly(cx, cov, ["1/2", "1/3", "1/4"], (4, 4))
            assert seen == [1, 1, 1] and get() == expect
            monkeypatch.setattr(sys.modules["magbloch.bloch"], "fiber_spectra", broken)
            with pytest.raises(TypeError, match="broken fiber_spectra"):
                butterfly(cx, cov, ["1/2", "1/3"], (4, 4))
            assert get() == expect
        finally:
            set_(original)

    def test_two_sweeps_look_openblas_up_once(self, torus, monkeypatch):
        import ctypes

        opened = []
        cdll = ctypes.CDLL

        def counted(*args, **kwargs):
            opened.append(args)
            return cdll(*args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", counted)
        operators._openblas_thread_control.cache_clear()
        cx, cov = torus
        for _ in range(2):
            rows = butterfly(cx, cov, ["1/2", "1/3"], (4, 4))
            assert all(row.error is None for row in rows)
        assert len(opened) == 1

    def test_overlapping_sweeps_share_one_pin(self, monkeypatch):
        # a fake OpenBLAS at 2 threads; the second sweep enters while the
        # first holds the pin and leaves after it
        threads = [2]
        monkeypatch.setattr(
            operators,
            "_openblas_thread_control",
            lambda: (lambda: threads[0], lambda n: threads.__setitem__(0, n)),
        )
        first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with operators._one_blas_thread():
                first_in.set()
                second_in.wait(10)
                seen["first"] = threads[0]
            first_out.set()

        def second():
            first_in.wait(10)
            with operators._one_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["second"] = threads[0]

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(10)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == {"first": 1, "second": 1}
        assert threads == [2]

    def test_sweep_without_openblas_is_unchanged(self, torus, monkeypatch):
        cx, cov = torus
        expect = butterfly(cx, cov, SWEEP_FLUXES, (4, 4))
        monkeypatch.setattr(operators, "_openblas_thread_control", lambda: None)
        rows = butterfly(cx, cov, SWEEP_FLUXES, (4, 4))
        assert butterfly_csv(rows).encode() == butterfly_csv(expect).encode()
        assert butterfly_svg(rows).encode() == butterfly_svg(expect).encode()

    def test_csv_equals_a_pinned_run(self, torus, tmp_path):
        # the CLI with BLAS pinned from the environment writes the bytes the
        # in-process sweep does
        cx, cov = torus
        fluxes = ["0", "1/2", "1/3", "2/3", "1/4", "3/5"]
        model = tmp_path / "torus.json"
        doc = {"vertices": 1, "edges": [[0, 0, 1.0], [0, 0, 1.0]], "faces": [[1, 2, -1, -2]],
               "tau": [[1, 0], [0, 1]]}
        model.write_text(json.dumps(doc))
        out = tmp_path / "b.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "magbloch", "butterfly", "--model", str(model),
             "--flux", ",".join(fluxes), "--grid", "6,6", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = butterfly(cx, cov, fluxes, (6, 6))
        assert out.read_bytes() == butterfly_csv(rows).encode()

    def test_rank_zero_covering_is_an_error_row(self, torus):
        cx, _ = torus
        rows = butterfly(cx, CoveringData.trivial(2), ["1/2", "abc"], ())
        assert (rows[0].p, rows[0].q, rows[0].band) == (1, 2, None)
        assert rows[0].error == "magnetic supercells need a covering of rank >= 1"
        assert (rows[1].p, rows[1].q) == (0, 0) and "abc" in rows[1].error

    def test_empty_flux_list(self, torus):
        cx, cov = torus
        assert butterfly(cx, cov, [], (4, 4)) == []

    @pytest.mark.parametrize("snf_bound", [None, 4], ids=["all-cells", "large-q-fail"])
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_sweep_equals_serial_reference(self, torus, monkeypatch, cpus, snf_bound):
        # the q-fold torus cell has a (q + 1) x q cotree matrix, so a bound
        # of 4 fails the cells and homology of q >= 4 in the shared stage
        if snf_bound is not None:
            monkeypatch.setattr(sys.modules["magbloch.homology"], "MAX_SNF_DIM", snf_bound)
        cx, cov = torus
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        # unequal axes check the mirrored rows' flip against the reference's
        # permutation of cell ranks
        for grid in [(4, 4), (4, 3)]:
            expect = serial_butterfly(cx, cov, SWEEP_FLUXES, grid)
            # switch threads as often as possible, so a race on shared state
            # (the summaries' float views, filled on first use) shows
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                rows = butterfly(cx, cov, SWEEP_FLUXES, grid)
            finally:
                sys.setswitchinterval(interval)
            assert_same_rows(rows, expect)
            failed = {row.q for row in expect if row.error and "Smith normal form" in row.error}
            assert failed == (set() if snf_bound is None else {4, 6})

    def test_sweep_without_affinity_masks(self, torus, monkeypatch):
        cx, cov = torus
        expect = butterfly(cx, cov, SWEEP_FLUXES, (4, 4))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        rows = butterfly(cx, cov, SWEEP_FLUXES, (4, 4))
        assert butterfly_csv(rows).encode() == butterfly_csv(expect).encode()
        assert butterfly_svg(rows).encode() == butterfly_svg(expect).encode()

    def test_import_leaves_concurrent_futures_unloaded(self):
        # the executor is imported inside butterfly: concurrent.futures pulls
        # in logging, which every CLI start would otherwise pay for
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import magbloch, sys; print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


# duplicates, several fluxes per denominator, integral fluxes and every kind
# of parse or bound error
SWEEP_FLUXES = [
    0, 1, "1/2", Fraction(1, 2), 0.5, "1/3", "2/3", "-1/3", "1/4", "3/4", "1/2",
    "1/0", float("inf"), "1e400", Fraction(1, 97), "1/6", "5/6", 2, "7/4",
]


def serial_butterfly(cx, cov, fluxes, grid):
    """One flux after another, each building its own cell and homology.

    A flux p/q whose cell has no H1 torsion reads the band of its canonical
    representative r/q, r = min(p mod q, -p mod q), built and solved anew
    at one momentum per translation orbit (:func:`orbit_band`), at the
    opposite momenta when p mod q > q/2; its own connection is still
    synthesized first, and a failed representative sends it to its own
    orbit solve.  Every other flux is solved directly on the whole grid."""
    rows = []
    for raw in fluxes:
        try:
            fr = _as_fraction(raw)
            if fr.denominator > MAX_DENOMINATOR:
                raise ValueError(
                    f"flux denominator {fr.denominator} exceeds bound {MAX_DENOMINATOR}"
                )
            ms = magnetic_supercell(cx, cov, fr)
            summary = homology(ms.complex2)
            conn = synthesize_connection(ms.complex2, ms.flux, summary)
            band = None
            if not summary.h1_torsion_orders:
                q = fr.denominator if cx.num_faces else 1
                p = fr.numerator % q
                band = representative_band(cx, cov, Fraction(min(p, q - p), q), grid)
                if band is not None and 2 * p > q:
                    sizes = band.grid
                    cells = SupercellSpec(sizes).cells()
                    opposite = [cell_rank(sizes, -c) for c in cells]
                    band = dataclasses.replace(band, eigenvalues=band.eigenvalues[opposite])
            if band is None:
                band = orbit_band(cx, cov, fr, grid)
            rows.append(ButterflyRow(fr.numerator, fr.denominator, band=band))
        except (ValueError, NumericError) as exc:
            try:
                fr = _as_fraction(raw)
                p, q = fr.numerator, fr.denominator
            except ValueError:
                p, q = 0, 0
            rows.append(ButterflyRow(p, q, error=str(exc)))
    return rows


def direct_band(cx, cov, flux, grid):
    """The band of one flux from its own cell, homology and connection."""
    ms = magnetic_supercell(cx, cov, flux)
    conn = synthesize_connection(ms.complex2, ms.flux, homology(ms.complex2))
    return spectrum_union(ms.complex2, ms.covering, conn, grid)


def representative_band(cx, cov, rep, grid):
    """The orbit band of a representative flux, or None when it fails."""
    try:
        return orbit_band(cx, cov, rep, grid)
    except (ValueError, NumericError):
        return None


def orbit_owners(cx, ms, summary, theta, grid):
    """owner[m]: the first grid momentum, in rank order, whose momentum
    character differs from that of momentum m by a power of the class of
    theta o T0 - theta, T0 the shift of the q-fold cell by one base copy.

    The grid momenta are compared pairwise through momentum_character, with
    no shift solved for, so this checks the sweep's Smith-form solve and its
    integer steps.  On these models the label map of the cell is
    unimodular, so two momenta have the same character only if they are
    equal mod 2 pi."""
    E = cx.num_edges
    q = ms.complex2.num_edges // E
    chi = difference_class(ms.complex2, summary, theta, np.roll(theta, -E))
    ks = SupercellSpec(grid).momenta
    chars = np.array([momentum_character(summary, ms.covering, k).angles for k in ks])
    powers = np.outer(np.arange(q), chi.angles)
    gap = chars[None, :, None, :] - chars[:, None, None, :] - powers
    same = np.all(np.abs(np.mod(gap + np.pi, TWO_PI) - np.pi) < 1e-9, axis=-1).any(axis=-1)
    return np.argmax(same, axis=1)


def orbit_band(cx, cov, flux, grid):
    """The band of one flux from its own cell, homology and connection,
    solved at the first momentum of each translation orbit and read there
    for the others; a cell with H1 torsion solves the whole grid."""
    ms = magnetic_supercell(cx, cov, flux)
    summary = homology(ms.complex2)
    theta = synthesize_connection(ms.complex2, ms.flux, summary)
    if summary.h1_torsion_orders:
        return spectrum_union(ms.complex2, ms.covering, theta, grid)
    sizes = SupercellSpec(grid).sizes
    ks = SupercellSpec(sizes).momenta
    owner = orbit_owners(cx, ms, summary, theta, sizes)
    eigs = np.empty((len(ks), ms.complex2.num_vertices))
    solved = np.unique(owner)
    eigs[solved] = fiber_spectra(ms.complex2, ms.covering, theta, ks[solved]).eigenvalues
    eigs = eigs[owner]
    join = 2.0 * lipschitz_bound(ms.complex2, ms.covering) * max(TWO_PI / n for n in sizes)
    return BandData(ks, eigs, _merge_intervals(eigs, join), sizes)


def assert_same_rows(rows, expect):
    assert butterfly_csv(rows) == butterfly_csv(expect)
    assert butterfly_svg(rows) == butterfly_svg(expect)
    assert [(r.p, r.q, r.error) for r in rows] == [(r.p, r.q, r.error) for r in expect]
    for row, ref in zip(rows, expect):
        assert (row.band is None) == (ref.band is None)
        if ref.band is not None:
            assert np.array_equal(row.band.eigenvalues, ref.band.eigenvalues)
            assert row.band.intervals == ref.band.intervals


def torsion_base():
    """One vertex, a loop a with label 1 and a loop b with label 0 bounding
    the face b b: every magnetic cell of it has H1 torsion Z/2 per copy of b,
    and fluxes x and 1 - x put opposite-sign cosines on b's copies."""
    cx = Complex2(1, [(0, 0, 1.0), (0, 0, 0.7)], [(2, 2)], [0.3])
    return cx, CoveringData(1, [[1], [0]])


# the block's canonical connections give it different spectra at k and -k,
# so it is the model on which a missing k -> -k permutation shows
MIRROR_MODELS = ["torus", "tri", "magnetic_cell(3)", "block(5,3)"]


def seeded_fluxes(seed, count=6, qmax=12):
    """Reduced fractions p/q with 2 <= q <= qmax and p mod q above q/2 (so
    each is read at opposite momenta), p drawn from [-q, 2q)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.integers(2, qmax + 1))
        p = int(rng.integers(-q, 2 * q))
        if math.gcd(p, q) == 1 and 2 * (p % q) > q:
            out.append(Fraction(p, q))
    return out


@pytest.mark.parametrize("model", ["torus", "tri"])
def test_butterfly_rows_do_not_depend_on_the_stack_size(monkeypatch, model):
    # one matrix per stack against the default stacks, which hold a whole
    # 4 x 4 grid: the CSV bytes are the same
    cx, cov, _ = verify_model(model)
    fluxes = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})
    default = butterfly_csv(butterfly(cx, cov, fluxes, (4, 4)))
    monkeypatch.setattr(operators, "STACK_BYTES", 1)
    assert butterfly_csv(butterfly(cx, cov, fluxes, (4, 4))) == default
    assert default.count("\n") > len(fluxes)


class TestMirror:
    @pytest.mark.parametrize("p, q, rep, mirrored", [
        (0, 1, Fraction(0), False), (1, 1, Fraction(0), False), (1, 2, Fraction(1, 2), False),
        (1, 4, Fraction(1, 4), False), (3, 4, Fraction(1, 4), True), (5, 4, Fraction(1, 4), False),
        (-1, 4, Fraction(1, 4), True), (-3, 4, Fraction(1, 4), False), (5, 3, Fraction(1, 3), True),
    ])
    def test_representative(self, torus, p, q, rep, mirrored):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(p, q))
        assert _representative(Fraction(p, q), q, homology(ms.complex2)) == (rep, mirrored)

    @pytest.mark.parametrize("grid", [(4, 3), (5, 2)])
    @pytest.mark.parametrize("model", MIRROR_MODELS)
    def test_mirrored_rows_match_direct_solves(self, model, grid):
        cx, cov, _ = verify_model(model)
        fluxes = seeded_fluxes(MIRROR_MODELS.index(model) + 7 * grid[0])
        rows = butterfly(cx, cov, fluxes, grid)
        for flux, row in zip(fluxes, rows):
            assert row.error is None and Fraction(row.p, row.q) == flux
            direct = direct_band(cx, cov, flux, grid)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(direct.eigenvalues))))
            assert np.array_equal(row.band.ks, direct.ks)
            assert np.max(np.abs(row.band.eigenvalues - direct.eigenvalues)) <= tol
            assert len(row.band.intervals) == len(direct.intervals)
            assert np.max(np.abs(np.subtract(row.band.intervals, direct.intervals))) <= tol
            # and the intervals are the representative's, bit for bit
            p = flux.numerator % flux.denominator
            rep = Fraction(flux.denominator - p, flux.denominator)
            [rep_row] = butterfly(cx, cov, [rep], grid)
            assert row.band.intervals == rep_row.band.intervals

    @pytest.mark.parametrize("flux, others", [
        ("3/4", ["1/4"]), ("3/4", ["1/4", "-1/4", "5/4"]), ("1/4", ["3/4"]),
        ("7/5", ["2/5", "3/5"]), ("1/2", ["3/2", "-1/2"]),
    ])
    def test_row_bytes_do_not_depend_on_its_twins(self, torus, flux, others):
        cx, cov = torus
        [alone] = butterfly(cx, cov, [flux], (4, 4))
        together = butterfly(cx, cov, others + [flux] + others, (4, 4))
        assert_same_rows([together[len(others)]], [alone])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_torsion_cells_are_solved_per_flux(self, monkeypatch, cpus):
        cx, cov = torsion_base()
        ms = magnetic_supercell(cx, cov, Fraction(1, 3))
        assert homology(ms.complex2).h1_torsion_orders == (2, 2, 2)
        fluxes = ["1/3", "2/3", "4/3", "-1/3", "1/4", "3/4", "1/2", "1/4"]
        expect = serial_butterfly(cx, cov, fluxes, (6,))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        rows = butterfly(cx, cov, fluxes, (6,))
        assert_same_rows(rows, expect)
        # here the mirror would be wrong: 1/3 and 2/3 have different spectra
        one, two = rows[0].band.eigenvalues, rows[1].band.eigenvalues
        assert np.max(np.abs(np.sort(one.ravel()) - np.sort(two.ravel()))) > 0.1

    def test_oversized_grid_gives_error_rows_before_building_cells(self, torus):
        # 2/3 is read at the opposite momenta of 1/3, whose sweep is refused
        cx, cov = torus
        start = time.perf_counter()
        rows = butterfly(cx, cov, ["1/3", "2/3"], (100000, 100000))
        assert time.perf_counter() - start < 1.0
        assert [row.band for row in rows] == [None, None]
        for row in rows:
            assert row.error.startswith("band sweep of 30000000000 eigenvalues (grid 100000x100000")
            assert row.error.endswith("; reduce the grid")

    def test_each_representative_is_solved_once(self, torus, monkeypatch):
        calls = []
        real = fiber_spectra

        def spy(*args):
            calls.append((args[0].num_vertices, len(args[3])))
            return real(*args)

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "fiber_spectra", spy)
        cx, cov = torus
        fluxes = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})
        rows = butterfly(cx, cov, fluxes, (4, 4))
        assert all(row.error is None for row in rows)
        # 0 and 1; 1/2; 1/3 and 2/3; 1/4 and 3/4; 1/5 to 4/5 in two pairs; 1/6 and 5/6,
        # each at one momentum per orbit of size gcd(q, 4) of the 4 x 4 grid
        assert sorted(calls) == [(1, 16), (2, 8), (3, 16), (4, 4), (5, 16), (5, 16), (6, 8)]

    def test_unquantizable_twin_gets_its_own_error_row(self, torus, monkeypatch):
        real = synthesize_connection

        def refuse_three_quarters(sc, flux, summary):
            if np.allclose(flux, TWO_PI * 0.75):
                raise NotQuantizableError("flux is not quantizable: three quarters")
            return real(sc, flux, summary)

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "synthesize_connection",
                            refuse_three_quarters)
        cx, cov = torus
        rows = butterfly(cx, cov, ["1/4", "3/4", "-1/4"], (4, 4))
        assert rows[0].error is None
        assert rows[1].band is None and rows[1].error == "flux is not quantizable: three quarters"
        assert rows[2].error is None

    def test_failed_representative_sends_the_flux_to_its_own_solve(self, torus, monkeypatch):
        # its own solve is one momentum per orbit too, read off its own class
        cx, cov = torus
        expect = orbit_band(cx, cov, Fraction(3, 4), (4, 4))
        direct = direct_band(cx, cov, Fraction(3, 4), (4, 4))
        assert np.max(np.abs(expect.eigenvalues - direct.eigenvalues)) <= 1e-12
        real = synthesize_connection

        def refuse_one_quarter(sc, flux, summary):
            if np.allclose(flux, TWO_PI * 0.25):
                raise NumericError("one quarter misses its flux")
            return real(sc, flux, summary)

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "synthesize_connection",
                            refuse_one_quarter)
        rows = butterfly(cx, cov, ["1/4", "3/4"], (4, 4))
        assert rows[0].error == "one quarter misses its flux"
        assert np.array_equal(rows[1].band.eigenvalues, expect.eigenvalues)
        assert rows[1].band.intervals == expect.intervals


def farey(qmax):
    return sorted({Fraction(p, q) for q in range(1, qmax + 1) for p in range(q + 1)})


def full_grid_bands(cx, cov, fluxes, grid):
    """Each flux's band from every grid momentum of its own cell, one cell
    and homology per denominator."""
    cells, out = {}, []
    for fr in fluxes:
        if fr.denominator not in cells:
            ms = magnetic_supercell(cx, cov, fr)
            cells[fr.denominator] = (ms.complex2, ms.covering, homology(ms.complex2))
        sc, cov_q, summary = cells[fr.denominator]
        theta = synthesize_connection(sc, np.full(sc.num_faces, TWO_PI * float(fr)), summary)
        out.append(spectrum_union(sc, cov_q, theta, grid))
    return out


def worst_deviation(rows, bands):
    """Largest |row eigenvalue - full-grid eigenvalue| / max(1, |lambda|)."""
    return max(
        float(np.max(np.abs(row.band.eigenvalues - band.eigenvalues)))
        / max(1.0, float(np.max(np.abs(band.eigenvalues))))
        for row, band in zip(rows, bands)
    )


ORBIT_GRIDS = [(8, 8), (4, 6), (6, 4), (5, 12)]

# the q-fold cells of the periodic 5x3 block have 15q vertices, so its
# sweep stops at a smaller denominator
ORBIT_QMAX = {"torus": 12, "tri": 12, "magnetic_cell(3)": 12, "block(5,3)": 4}


def count_fibers(monkeypatch):
    """Install a spy on the sweep's fiber_spectra; the list it returns
    receives the number of momenta of each call."""
    counts = []
    real = fiber_spectra

    def spy(*args):
        counts.append(len(args[3]))
        return real(*args)

    monkeypatch.setattr(sys.modules["magbloch.bloch"], "fiber_spectra", spy)
    return counts


class TestTranslationOrbits:
    @pytest.mark.parametrize("grid", ORBIT_GRIDS)
    @pytest.mark.parametrize("model", MIRROR_MODELS)
    def test_rows_match_full_grid_solves(self, model, grid):
        cx, cov, _ = verify_model(model)
        fluxes = farey(ORBIT_QMAX[model])
        rows = butterfly(cx, cov, fluxes, grid)
        bands = full_grid_bands(cx, cov, fluxes, grid)
        assert all(row.error is None for row in rows)
        assert all(np.array_equal(row.band.ks, band.ks) for row, band in zip(rows, bands))
        assert worst_deviation(rows, bands) <= 1e-12
        assert [len(row.band.intervals) for row in rows] == [len(b.intervals) for b in bands]

    @pytest.mark.parametrize("flux, momenta", [
        ("1/8", 8), ("3/8", 8), ("5/8", 8), ("1/4", 16), ("3/4", 16), ("1/2", 32),
        ("1/6", 32), ("1/3", 64), ("2/5", 64), ("3/7", 64), ("0", 64), ("2", 64),
    ])
    def test_one_momentum_per_orbit_on_the_torus(self, torus, monkeypatch, flux, momenta):
        # the orbit of a flux p/q on the N x N grid has gcd(q, N) momenta
        counts = count_fibers(monkeypatch)
        cx, cov = torus
        [row] = butterfly(cx, cov, [flux], (8, 8))
        assert row.error is None and counts == [momenta]

    @pytest.mark.parametrize("grid", [(4, 6), (5, 12)])
    @pytest.mark.parametrize("model", ["torus", "tri", "magnetic_cell(3)"])
    def test_fiber_count_is_the_orbit_count(self, model, grid, monkeypatch):
        # the reference orbits compare momentum characters pairwise
        cx, cov, _ = verify_model(model)
        fluxes = [f for f in farey(8) if 2 * (f.numerator % f.denominator) <= f.denominator]
        expect = []
        for fr in fluxes:
            ms = magnetic_supercell(cx, cov, fr)
            summary = homology(ms.complex2)
            theta = synthesize_connection(ms.complex2, ms.flux, summary)
            expect.append(len(np.unique(orbit_owners(cx, ms, summary, theta, grid))))
        counts = count_fibers(monkeypatch)
        # one representative per flux here: 0 and 1 share the band of 0
        butterfly(cx, cov, fluxes[:-1], grid)
        assert sorted(counts) == sorted(expect[:-1])

    def test_the_bench_sweep_solves_4448_fibers(self, torus, monkeypatch):
        # the 181 Farey fluxes with q <= 24 on the 8 x 8 grid: 91 mirror
        # classes, which solved 64 momenta each (5824 fibers) on the whole grid
        counts = count_fibers(monkeypatch)
        cx, cov = torus
        rows = butterfly(cx, cov, farey(24), (8, 8))
        assert len(rows) == 181 and all(row.error is None for row in rows)
        assert (len(counts), sum(counts)) == (91, 4448)

    @pytest.mark.parametrize("flux, grid, step", [
        ("1/8", (8, 8), [0, 1]), ("3/8", (8, 8), [0, 3]), ("1/4", (8, 8), [0, 2]),
        ("1/6", (8, 8), [0, 4]), ("1/6", (4, 6), [0, 1]), ("5/12", (5, 12), [0, 5]),
        ("1/3", (8, 8), None), ("1/1", (8, 8), None),
    ])
    def test_torus_step_is_the_flux_per_cell(self, torus, flux, grid, step):
        # Zak: one base copy moves the momentum by 2 pi p/q along axis 1,
        # and the step is the first multiple of that on the grid
        cx, cov = torus
        fr = Fraction(flux)
        ms = magnetic_supercell(cx, cov, fr)
        summary = homology(ms.complex2)
        theta = synthesize_connection(ms.complex2, ms.flux, summary)
        labels = _label_smith(ms.covering, summary)
        assert _translation_step(ms.complex2, summary, labels, theta, fr.denominator, grid) == step

    def test_shift_off_by_one_is_caught(self, torus, monkeypatch):
        cx, cov = torus
        fluxes = farey(8)
        bands = full_grid_bands(cx, cov, fluxes, (8, 8))
        assert worst_deviation(butterfly(cx, cov, fluxes, (8, 8)), bands) <= 1e-12
        real = _translation_step

        def off_by_one(sc, summary, labels, theta, size, sizes):
            step = real(sc, summary, labels, theta, size, sizes) or [0] * len(sizes)
            step[-1] = (step[-1] + 1) % sizes[-1]
            return step if any(step) else None

        monkeypatch.setattr(sys.modules["magbloch.bloch"], "_translation_step", off_by_one)
        assert worst_deviation(butterfly(cx, cov, fluxes, (8, 8)), bands) > 1e-3

    @pytest.mark.parametrize("model, caught", [("torus", False), ("magnetic_cell(3)", True)])
    def test_shift_by_the_flux_per_face_is_caught(self, monkeypatch, model, caught):
        # the flux per face p/q is the flux per base cell only on a base with
        # one face; magnetic_cell(3) has three, so its shift is 3p/q.  With
        # equal weights its cover is the square lattice, where p/q is a true
        # shift too, so the weights and potentials are drawn at random
        def per_face(sc, summary, labels, theta, size, sizes):
            p = round(float(curvature(sc, theta)[0]) * size / TWO_PI) % size
            shift = Fraction(p * sizes[-1], size)
            step = [0] * (len(sizes) - 1) + [shift.denominator * shift % sizes[-1]]
            return [int(x) for x in step] if any(step) else None

        cx, cov, _ = verify_model(model)
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 2.0, size=cx.num_edges)
        edges = [(s, t, float(w)) for (s, t, _), w in zip(cx.edges, weights)]
        cx = Complex2(cx.num_vertices, edges, cx.faces, rng.uniform(-1.0, 1.0, cx.num_vertices))
        fluxes = farey(6)
        bands = full_grid_bands(cx, cov, fluxes, (4, 6))
        assert worst_deviation(butterfly(cx, cov, fluxes, (4, 6)), bands) <= 1e-12
        monkeypatch.setattr(sys.modules["magbloch.bloch"], "_translation_step", per_face)
        deviation = worst_deviation(butterfly(cx, cov, fluxes, (4, 6)), bands)
        assert (deviation > 1e-3) if caught else (deviation <= 1e-12)

    def test_torsion_base_is_the_full_grid_solve(self, monkeypatch):
        cx, cov = torsion_base()
        fluxes = ["1/3", "2/3", "1/4", "3/4", "1/2", "1/6"]
        counts = count_fibers(monkeypatch)
        rows = butterfly(cx, cov, fluxes, (6,))
        assert counts == [6] * len(fluxes)
        for flux, row in zip(fluxes, rows):
            direct = direct_band(cx, cov, Fraction(flux), (6,))
            assert np.array_equal(row.band.eigenvalues, direct.eigenvalues)
            assert row.band.intervals == direct.intervals


class TestEmitters:
    def test_band_csv_shape(self, chain):
        cx, cov = chain
        band = spectrum_union(cx, cov, None, (4,))
        text = band_csv(band)
        lines = text.strip().split("\n")
        assert lines[0] == "k1,e1"
        assert len(lines) == 5

    def test_butterfly_csv_and_svg(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, [0, Fraction(1, 2)], (4, 4))
        text = butterfly_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "p,q,interval_lo,interval_hi"
        assert all(line.split(",")[0] in {"0", "1"} for line in lines[1:])
        svg = butterfly_svg(rows)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<line" in svg

    def test_csv_deterministic(self, torus):
        cx, cov = torus
        a = band_csv(spectrum_union(cx, cov, None, (5, 3)))
        b = band_csv(spectrum_union(cx, cov, None, (5, 3)))
        assert a == b
