from fractions import Fraction

import numpy as np
import pytest

from magbloch import (
    BlochBasis,
    Complex2,
    CoveringData,
    SupercellSpec,
    assemble_fiber,
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
    decomposition_check,
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

from conftest import make_random3


class TestBlochBasis:
    def test_counts_and_order(self):
        basis = BlochBasis.from_sizes((2, 3))
        assert basis.num_characters == 6
        # lexicographic in the integer multi-index
        expect0 = [0.0, 0.0]
        expect1 = [0.0, 2 * np.pi / 3]
        assert basis.ks[0] == pytest.approx(expect0)
        assert basis.ks[1] == pytest.approx(expect1)
        assert basis.ks[3] == pytest.approx([np.pi, 0.0])

    def test_rank_zero(self):
        basis = BlochBasis.from_sizes(())
        assert basis.num_characters == 1 and basis.ks.shape == (1, 0)


class TestBlochTransform:
    def test_two_cell_hand_sum(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2,)))
        basis = BlochBasis.from_sizes((2,))
        out = bloch_transform([1.0, 0.0], basis, sc_map)
        # hand sum: (1/sqrt 2) * (e^{ik*0} * 1 + e^{ik*1} * 0) = 1/sqrt 2 at both k
        assert out == pytest.approx(np.full((2, 1), 1 / np.sqrt(2)))

    def test_constant_vector_hits_only_trivial_character(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        basis = BlochBasis.from_sizes((4,))
        out = bloch_transform(np.ones(4), basis, sc_map)
        assert abs(out[0, 0]) == pytest.approx(2.0)
        assert np.max(np.abs(out[1:])) <= 1e-12

    def test_unitarity(self, torus):
        cx, cov = torus
        for sizes in [(2, 2), (3, 2)]:
            _, sc_map = build_supercell(cx, cov, SupercellSpec(sizes))
            basis = BlochBasis.from_sizes(sizes)
            Phi = bloch_matrix(basis, sc_map)
            n = Phi.shape[0]
            assert np.max(np.abs(Phi.conj().T @ Phi - np.eye(n))) <= 1e-12
            rng = np.random.default_rng(1)
            s = rng.normal(size=n) + 1j * rng.normal(size=n)
            out = bloch_transform(s, basis, sc_map)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(s), abs=1e-12)

    def test_matches_matrix(self, torus):
        cx, cov = torus
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2, 3)))
        basis = BlochBasis.from_sizes((2, 3))
        rng = np.random.default_rng(7)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        stacked = bloch_transform(s, basis, sc_map).ravel()
        assert stacked == pytest.approx(bloch_matrix(basis, sc_map) @ s)

    def test_diagonalizes_translation(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        basis = BlochBasis.from_sizes((4,))
        rng = np.random.default_rng(3)
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = bloch_transform(translate(s, [1], sc_map), basis, sc_map)
        rhs = np.exp(1j * basis.ks[:, 0])[:, None] * bloch_transform(s, basis, sc_map)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestCharacterRelations:
    def test_cube_roots_cancel(self):
        report = character_relations_check((3,))
        assert report.delta_residual <= 1e-13  # 1 + w + w^2 = 0 numerically

    def test_identity_element_exact(self):
        basis = BlochBasis.from_sizes((5,))
        # at gamma = 0 every character contributes 1; the mean is exactly 1
        assert character_relations_check((5,)).delta_residual <= 1e-13

    def test_4x4_grid(self):
        report = character_relations_check((4, 4))
        assert report.max_residual <= 1e-12

    def test_all_products_up_to_64(self):
        sizes_list = [(n,) for n in range(1, 65)]
        sizes_list += [(a, b) for a in range(2, 33) for b in range(2, 33) if a * b <= 64]
        for sizes in sizes_list:
            assert character_relations_check(sizes).max_residual <= 1e-12


class TestBlockDiagonalization:
    def test_chain_blocks_are_dispersion_values(self, chain):
        cx, cov = chain
        report = verify_block_diagonalization(cx, cov, None, (2,))
        assert report.unitarity_defect <= 1e-12
        assert report.off_diagonal <= 1e-12
        assert report.fiber_deviation <= 1e-12
        # fiber values at k in {0, pi} are 0 and 4
        evs = decomposition_check(cx, cov, None, (2,))
        assert evs.max_deviation <= 1e-12

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
        report = decomposition_check(cx, cov, theta, (2, 3))
        assert report.relative_deviation <= 1e-8


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
        cells = sc_map.cells()
        for r in range(4):
            fhat = np.zeros(4, complex)
            fhat[r] = 1.0
            assert np.array_equal(
                multiplier_action(fhat, s, sc_map), translate(s, cells[r], sc_map)
            )

    def test_bloch_diagonalizes_multiplier(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((4,)))
        basis = BlochBasis.from_sizes((4,))
        Phi = bloch_matrix(basis, sc_map)
        rng = np.random.default_rng(11)
        fhat = rng.normal(size=4) + 1j * rng.normal(size=4)
        M = np.column_stack(
            [multiplier_action(fhat, np.eye(4, dtype=complex)[:, i], sc_map) for i in range(4)]
        )
        D = Phi @ M @ Phi.conj().T
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) <= 1e-12
        cells = sc_map.cells().astype(float)
        expect = np.array([np.sum(fhat * np.exp(1j * (k @ cells.T))) for k in basis.ks])
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
        basis = BlochBasis.from_sizes((4,))
        Phi = bloch_matrix(basis, sc_map)
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

    def test_axis_choice(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, Fraction(1, 2), axis=1)
        assert ms.sc_map.sizes == (1, 2)
        assert is_quantizable(ms.complex2, ms.flux).verdict

    def test_irrational_rejected(self, torus):
        cx, cov = torus
        with pytest.raises(ValueError, match="irrational"):
            magnetic_supercell(cx, cov, np.pi / 7)

    def test_axis_out_of_range(self, torus):
        cx, cov = torus
        with pytest.raises(ValueError, match="axis out of range"):
            magnetic_supercell(cx, cov, Fraction(1, 2), axis=5)

    def test_float_input_accepted(self, torus):
        cx, cov = torus
        ms = magnetic_supercell(cx, cov, 0.5)
        assert ms.fractions == (Fraction(1, 2),)


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

    def test_errors_collected_not_fatal(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, [Fraction(1, 2), Fraction(1, 97)], (4, 4), max_denominator=8)
        assert rows[0].error is None
        assert rows[1].error is not None and "denominator" in rows[1].error

    def test_zero_denominator_and_infinite_flux_are_error_rows(self, torus):
        cx, cov = torus
        rows = butterfly(cx, cov, ["1/0", float("inf"), "1/2"], (4, 4))
        assert [(r.p, r.q) for r in rows[:2]] == [(0, 0), (0, 0)]
        assert "zero denominator" in rows[0].error
        assert "finite" in rows[1].error
        assert rows[2].error is None

    def test_programming_errors_propagate(self, torus, monkeypatch):
        import magbloch.bloch

        def broken(*args, **kwargs):
            raise TypeError("broken spectrum_union")

        monkeypatch.setattr(magbloch.bloch, "spectrum_union", broken)
        cx, cov = torus
        with pytest.raises(TypeError, match="broken spectrum_union"):
            butterfly(cx, cov, ["1/2"], (4, 4))


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
