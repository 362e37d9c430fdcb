import time
from fractions import Fraction

import numpy as np
import pytest

from magbloch import (
    Complex2,
    CoveringData,
    MagneticOperator,
    NumericError,
    SupercellSpec,
    assemble_fiber,
    assemble_fibers,
    assemble_quotient,
    assemble_supercell,
    build_supercell,
    fiber_spectra,
    gauge_transform,
    magnetic_supercell,
    spectrum,
    synthesize_connection,
    translate,
)
from magbloch import operators
from magbloch.bloch import lipschitz_bound
from magbloch.operators import STACK_BYTES

from conftest import cell_rank, make_random3, reference_eigh_checked


def translation_matrix(sc_map, gamma):
    """Dense permutation matrix of :func:`translate`, column by column."""
    n = sc_map.num_vertices
    T = np.zeros((n, n))
    eye = np.eye(n)
    for col in range(n):
        T[:, col] = translate(eye[:, col], gamma, sc_map).real
    return T


def hermiticity_defect(op):
    return float(np.max(np.abs(op.matrix - op.matrix.conj().T)))


class TestAssembleQuotient:
    def test_isolated_vertex_with_potential(self):
        cx = Complex2(1, [], potentials=[5.0])
        op = assemble_quotient(cx)
        assert np.array_equal(op.matrix, [[5.0]])
        assert np.array_equal(spectrum(op).eigenvalues, [5.0])

    def test_path_matrix_and_spectrum(self, path2):
        op = assemble_quotient(path2)
        assert np.array_equal(op.matrix.real, [[1, -1], [-1, 1]])
        assert spectrum(op).eigenvalues == pytest.approx([0.0, 2.0])

    def test_tree_phase_is_gauge_trivial(self, path2):
        # oracle: conjugation by diag(1, e^{i phi}) maps theta=0 to theta=phi
        for phi in [0.1, 1.7, 3.9, 5.5]:
            op = assemble_quotient(path2, [phi])
            U = np.diag([1.0, np.exp(1j * phi)])
            ref = U @ assemble_quotient(path2).matrix @ U.conj().T
            assert np.max(np.abs(op.matrix - ref)) <= 1e-14
            assert spectrum(op).eigenvalues == pytest.approx([0.0, 2.0])

    def test_hermitian_and_real_diagonal(self, torus):
        cx, _ = torus
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, size=2)
            op = assemble_quotient(cx, theta)
            assert hermiticity_defect(op) <= 1e-12
            assert np.all(op.matrix.diagonal().imag == 0)

    def test_positivity_without_potential(self, square_disk):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        evs = spectrum(assemble_quotient(square_disk, theta)).eigenvalues
        assert evs[0] >= -1e-9

    def test_constant_kernel_vector(self, square_disk):
        H = assemble_quotient(square_disk).matrix
        ones = np.ones(4)
        assert np.max(np.abs(H @ ones)) <= 1e-12


class TestAssembleFiber:
    def test_square_lattice_scalar_formula(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = rng.uniform(0, 2 * np.pi, size=2)
            H = assemble_fiber(cx, cov, None, k).matrix
            expect = 4.0 - 2.0 * np.cos(k[0]) - 2.0 * np.cos(k[1])
            assert H[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_zero_momentum_equals_quotient(self, torus):
        cx, cov = torus
        theta = np.array([0.4, 1.9])
        fib = assemble_fiber(cx, cov, theta, np.zeros(2))
        quo = assemble_quotient(cx, theta)
        assert np.array_equal(fib.matrix, quo.matrix)

    def test_chain_at_pi(self, chain):
        cx, cov = chain
        H = assemble_fiber(cx, cov, None, [np.pi]).matrix
        assert H[0, 0] == pytest.approx(4.0)

    def test_rejects_bad_momentum_length(self, torus):
        cx, cov = torus
        with pytest.raises(ValueError):
            assemble_fiber(cx, cov, None, [0.1])

    def test_eigenvalue_lipschitz_in_k(self, torus):
        cx, cov = torus
        L = lipschitz_bound(cx, cov)
        rng = np.random.default_rng(9)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        n = 24
        ks = 2 * np.pi * np.arange(n) / n
        evs = np.array(
            [spectrum(assemble_fiber(cx, cov, theta, [k, 0.3])).eigenvalues for k in ks]
        )
        step = 2 * np.pi / n
        diffs = np.abs(np.diff(evs, axis=0)) / step
        assert np.max(diffs) <= L + 1e-9


class TestAssembleSupercell:
    def test_chain_two_periodic(self, chain):
        cx, cov = chain
        op = assemble_supercell(cx, cov, None, SupercellSpec((2,)))
        assert np.array_equal(op.matrix.real, [[2, -2], [-2, 2]])
        assert spectrum(op).eigenvalues == pytest.approx([0.0, 4.0])

    def test_torus_2x2_spectrum(self, torus):
        cx, cov = torus
        op = assemble_supercell(cx, cov, None, SupercellSpec((2, 2)))
        # oracle: fiber values 4 - 2cos k1 - 2cos k2 at k in {0, pi};
        expect = sorted(
            4.0 - 2.0 * np.cos(k1) - 2.0 * np.cos(k2)
            for k1 in (0.0, np.pi)
            for k2 in (0.0, np.pi)
        )
        assert spectrum(op).eigenvalues == pytest.approx(expect)

    def test_periodic_matches_built_complex(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(14)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        spec = SupercellSpec((2, 2))
        direct = assemble_supercell(cx, cov, theta, spec)
        sc, sc_map = build_supercell(cx, cov, spec)
        copied = np.array([theta[e] for _, e in sc_map.edge_origin])
        via_quotient = assemble_quotient(sc, copied)
        assert np.max(np.abs(direct.matrix - via_quotient.matrix)) == 0.0

    def test_random3_supercell_hermitian(self):
        rng = np.random.default_rng(23)
        cx, cov, _ = make_random3(rng)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        op = assemble_supercell(cx, cov, theta, SupercellSpec((3, 2)))
        assert op.matrix.shape == (18, 18)
        assert hermiticity_defect(op) <= 1e-12

    @pytest.mark.parametrize("sizes, n", [((400, 400), 160000), ((2**32, 2**32), 2**64)])
    def test_oversized_rejected_before_building(self, torus, sizes, n):
        cx, cov = torus
        start = time.perf_counter()
        with pytest.raises(NumericError) as err:
            assemble_supercell(cx, cov, None, SupercellSpec(sizes))
        assert time.perf_counter() - start < 1.0
        assert str(err.value).startswith(
            f"supercell(N={sizes}, periodic): matrix dimension {n} exceeds"
        )


class TestSpectrum:
    def test_closed_forms(self):
        assert spectrum(MagneticOperator([[1, -1], [-1, 1]], "t")).eigenvalues == pytest.approx(
            [0.0, 2.0]
        )
        assert spectrum(MagneticOperator([[5.0]], "t")).eigenvalues == pytest.approx([5.0])
        assert spectrum(MagneticOperator([[2, -2], [-2, 2]], "t")).eigenvalues == pytest.approx(
            [0.0, 4.0]
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericError, match="not Hermitian"):
            spectrum(MagneticOperator([[0, 1], [0, 0]], "t"))

    def test_rejects_oversized(self, monkeypatch):
        op = MagneticOperator(np.eye(5), "t")
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", 4)
        with pytest.raises(NumericError, match="threshold"):
            spectrum(op)

    def test_sorted_with_residual(self, torus):
        cx, cov = torus
        sp = spectrum(assemble_supercell(cx, cov, None, SupercellSpec((3, 3))))
        assert np.all(np.diff(sp.eigenvalues) >= 0)
        assert sp.residual <= 1e-10


class TestGaugeCovariance:
    def test_spectra_invariant(self, torus):
        cx, _ = torus
        rng = np.random.default_rng(31)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        base = spectrum(assemble_quotient(cx, theta)).eigenvalues
        for _ in range(20):
            g = rng.normal(size=1)
            evs = spectrum(assemble_quotient(cx, gauge_transform(cx, theta, g))).eigenvalues
            assert np.max(np.abs(evs - base)) <= 1e-9

    def test_spectra_invariant_multivertex(self):
        rng = np.random.default_rng(32)
        cx, cov, _ = make_random3(rng)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        base = spectrum(assemble_quotient(cx, theta)).eigenvalues
        for _ in range(20):
            g = rng.normal(size=3)
            evs = spectrum(assemble_quotient(cx, gauge_transform(cx, theta, g))).eigenvalues
            assert np.max(np.abs(evs - base)) <= 1e-9


class TestTranslate:
    def test_zero_is_identity(self, torus):
        cx, cov = torus
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2, 2)))
        s = np.arange(4, dtype=complex)
        assert np.array_equal(translate(s, [0, 0], sc_map), s)

    def test_swap_on_two_cells(self, chain):
        cx, cov = chain
        _, sc_map = build_supercell(cx, cov, SupercellSpec((2,)))
        assert np.array_equal(translate(np.array([1.0, 2.0]), [1], sc_map), [2.0, 1.0])

    def test_group_law_and_unitarity(self, torus):
        cx, cov = torus
        _, sc_map = build_supercell(cx, cov, SupercellSpec((3, 2)))
        rng = np.random.default_rng(2)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        for _ in range(10):
            g1 = rng.integers(0, 3, size=2)
            g2 = rng.integers(0, 3, size=2)
            lhs = translate(translate(s, g1, sc_map), g2, sc_map)
            rhs = translate(s, g1 + g2, sc_map)
            assert np.array_equal(lhs, rhs)
        T = translation_matrix(sc_map, [1, 1])
        assert np.max(np.abs(T.T @ T - np.eye(6))) == 0.0

    def test_commutes_with_periodic_operator(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        spec = SupercellSpec((3, 3))
        H = assemble_supercell(cx, cov, theta, spec).matrix
        _, sc_map = build_supercell(cx, cov, spec)
        for _ in range(5):
            gamma = rng.integers(0, 3, size=2)
            T = translation_matrix(sc_map, gamma)
            assert np.max(np.abs(T @ H - H @ T)) <= 1e-12


def reference_assemble(complex2, phases):
    """The per-edge loop the stack assembler replaces, kept as its reference."""
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
    return H


def reference_fibers(complex2, covering, theta, ks):
    """Per-momentum loop: one reference assembly and one ``eigh`` per k."""
    E = complex2.num_edges
    phases = np.zeros(E) if theta is None else np.asarray(theta, dtype=float)
    mats, eigs = [], []
    for k in ks:
        twist = covering.tau.astype(float) @ k if covering.rank else np.zeros(E)
        H = reference_assemble(complex2, phases + twist)
        mats.append(H)
        eigs.append(np.sort(np.linalg.eigh(0.5 * (H + H.conj().T))[0]))
    V = complex2.num_vertices
    return np.array(mats).reshape(len(ks), V, V), np.array(eigs).reshape(len(ks), V)


# float64 eigensolvers are backward stable: each eigenvalue is exact for a
# matrix within a few n eps ||H|| of the input, fixed here before any run
def eig_tol(H):
    n = max(H.shape[-1], 1)
    return 16 * n * np.finfo(float).eps * max(1.0, np.max(np.sum(np.abs(H), axis=-1), initial=0))


def batch_size(V):
    return max(1, STACK_BYTES // (16 * max(V, 1) ** 2))


def loops_and_parallels():
    """Two vertices, parallel edges both ways, and loops on each vertex."""
    edges = [(0, 1, 0.7), (1, 0, 1.3), (0, 1, 0.4), (1, 1, 2.1), (0, 0, 0.9), (1, 1, 0.6)]
    cov = CoveringData(2, [[1, 0], [0, 0], [-1, 2], [0, 1], [1, -1], [-2, 0]])
    return Complex2(2, edges, potentials=[0.3, -0.8]), cov


class TestFiberStack:
    def check_against_loop(self, cx, cov, theta, ks):
        mats, eigs = reference_fibers(cx, cov, theta, ks)
        stack = assemble_fibers(cx, cov, theta, ks)
        assert stack.shape == mats.shape and np.array_equal(stack, mats)
        sp = fiber_spectra(cx, cov, theta, ks)
        assert sp.eigenvalues.shape == eigs.shape
        if eigs.size:
            assert np.max(np.abs(sp.eigenvalues - eigs)) <= eig_tol(mats)
        for k, H in zip(ks, mats):
            assert np.array_equal(assemble_fiber(cx, cov, theta, k).matrix, H)

    def test_random3_across_batches(self):
        rng = np.random.default_rng(40)
        cx, cov, _ = make_random3(rng)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        K = 2 * batch_size(3) + 5
        self.check_against_loop(cx, cov, theta, rng.uniform(-7, 7, size=(K, 2)))

    def test_loops_and_parallel_edges(self):
        cx, cov = loops_and_parallels()
        rng = np.random.default_rng(41)
        theta = rng.uniform(0, 2 * np.pi, size=6)
        self.check_against_loop(cx, cov, theta, rng.uniform(-7, 7, size=(37, 2)))
        self.check_against_loop(cx, cov, None, rng.uniform(-7, 7, size=(5, 2)))

    def test_torus_grid(self, torus):
        cx, cov = torus
        ks = 2 * np.pi * np.stack(np.meshgrid(np.arange(9) / 9, np.arange(7) / 7), -1)
        self.check_against_loop(cx, cov, [0.4, 1.9], ks.reshape(-1, 2))

    def test_edgeless(self):
        cx = Complex2(2, [], potentials=[5.0, -1.0])
        self.check_against_loop(cx, CoveringData(1, np.zeros((0, 1))), None, np.ones((3, 1)))
        self.check_against_loop(cx, CoveringData.trivial(0), None, np.zeros((1, 0)))

    def test_no_vertices(self):
        cx = Complex2(0, [])
        sp = fiber_spectra(cx, CoveringData(2, np.zeros((0, 2))), None, np.ones((4, 2)))
        assert sp.eigenvalues.shape == (4, 0) and sp.residual == 0.0

    def test_rank_zero_covering(self, torus):
        cx, _ = torus
        self.check_against_loop(cx, CoveringData.trivial(2), [0.4, 1.9], np.zeros((3, 0)))

    def test_no_momenta(self):
        cx, cov = loops_and_parallels()
        sp = fiber_spectra(cx, cov, None, np.zeros((0, 2)))
        assert sp.eigenvalues.shape == (0, 2) and sp.residual == 0.0
        assert assemble_fibers(cx, cov, None, np.zeros((0, 2))).shape == (0, 2, 2)

    def test_rejects_bad_momenta(self, torus):
        cx, cov = torus
        with pytest.raises(ValueError, match="momenta"):
            fiber_spectra(cx, cov, None, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="connection"):
            fiber_spectra(cx, cov, [0.1], np.zeros((3, 2)))


def bad_fiber_setup():
    """A batched sweep and the momentum of one fiber inside its second batch."""
    rng = np.random.default_rng(42)
    cx, cov, _ = make_random3(rng)
    theta = rng.uniform(0, 2 * np.pi, size=4)
    ks = rng.uniform(-3, 3, size=(2 * batch_size(3) + 3, 2))
    bad = batch_size(3) + 7
    name = "k=[" + ",".join(f"{v:.6g}" for v in ks[bad]) + "]"
    return cx, cov, theta, ks, bad, name


class TestFiberStackGates:
    def test_non_hermitian_fiber_is_named(self, monkeypatch):
        cx, cov, theta, ks, bad, name = bad_fiber_setup()
        real = operators._assemble

        def corrupt(complex2, phases):
            H = real(complex2, phases)
            target = theta + ks[bad] @ cov.tau.T
            hit = np.flatnonzero(np.all(np.abs(phases - target) <= 1e-12, axis=1))
            H[hit, 0, 1] += 1e-9
            return H

        monkeypatch.setattr(operators, "_assemble", corrupt)
        with pytest.raises(NumericError, match="not Hermitian") as err:
            fiber_spectra(cx, cov, theta, ks)
        assert name in str(err.value)

    def test_residual_failure_is_named(self, monkeypatch):
        cx, cov, theta, ks, bad, name = bad_fiber_setup()
        real = np.linalg.eigh
        target = assemble_fibers(cx, cov, theta, ks[bad : bad + 1])[0]

        def corrupt(S):
            vals, vecs = real(S)
            hit = np.flatnonzero(np.all(np.abs(S - target) <= 1e-12, axis=(1, 2)))
            vecs[hit] = np.roll(vecs[hit], 1, axis=-1)
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupt)
        with pytest.raises(NumericError, match="eigenpair residual") as err:
            fiber_spectra(cx, cov, theta, ks)
        assert name in str(err.value)

    def test_dense_threshold_names_first_momentum(self, monkeypatch):
        cx, cov, theta, ks, _, _ = bad_fiber_setup()
        name = "k=[" + ",".join(f"{v:.6g}" for v in ks[0]) + "]"
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", 3)
        assert fiber_spectra(cx, cov, theta, ks).eigenvalues.shape == (len(ks), 3)
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", 2)
        with pytest.raises(NumericError, match="threshold") as err:
            fiber_spectra(cx, cov, theta, ks)
        assert name in str(err.value)

    def test_nan_momentum_fails_hermiticity(self, torus):
        # a NaN defect never exceeds the tolerance; the gate must still fail
        cx, cov = torus
        ks = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(NumericError, match=r"fiber at k=\[nan,0\]: not Hermitian"):
            fiber_spectra(cx, cov, None, ks)

    def test_nan_residual_fails(self, monkeypatch):
        cx, cov, theta, ks, _, _ = bad_fiber_setup()
        real = np.linalg.eigh

        def nan_vectors(S):
            vals, vecs = real(S)
            return vals, np.full_like(vecs, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
        name = "k=[" + ",".join(f"{v:.6g}" for v in ks[0]) + "]"
        with pytest.raises(NumericError, match="eigenpair residual nan") as err:
            fiber_spectra(cx, cov, theta, ks)
        assert name in str(err.value)


class TestTranslateReference:
    def test_matches_cell_loop(self):
        rng = np.random.default_rng(43)
        cx, cov, _ = make_random3(rng)
        _, sc_map = build_supercell(cx, cov, SupercellSpec((3, 2)))
        cells, V = sc_map.spec.cells(), 3
        s = rng.normal(size=18) + 1j * rng.normal(size=18)
        for _ in range(10):
            gamma = rng.integers(-4, 5, size=2)
            ref = np.empty_like(s)
            for r in range(len(cells)):
                src = cell_rank(sc_map.sizes, cells[r] - gamma)
                ref[r * V : (r + 1) * V] = s[src * V : (src + 1) * V]
            assert np.array_equal(translate(s, gamma, sc_map), ref)


def reference_supercell(complex2, covering, theta, spec):
    """The cell-by-cell supercell loop that assemble_supercell replaces."""
    V = complex2.num_vertices
    cells = spec.cells()
    n = len(cells) * V
    H = np.zeros((n, n), dtype=complex)
    diag = np.zeros(n)
    for r, cell in enumerate(cells):
        for e, (u, v, w) in enumerate(complex2.edges):
            diag[r * V + u] += w
            diag[r * V + v] += w
            i, j = r * V + u, cell_rank(spec.sizes, cell + covering.tau[e]) * V + v
            z = w * np.exp(1j * theta[e])
            H[j, i] -= z
            H[i, j] -= z.conjugate()
        diag[r * V : (r + 1) * V] += complex2.potentials
    H[np.diag_indices(n)] += diag
    return H


class TestSupercellReference:
    def test_matches_cell_loop(self):
        # the diagonal sums the same weights in another order: a few ulps
        rng = np.random.default_rng(44)
        cx, cov, _ = make_random3(rng)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        for sizes in [(3, 2), (1, 4), (2, 2)]:
            spec = SupercellSpec(sizes)
            ref = reference_supercell(cx, cov, theta, spec)
            H = assemble_supercell(cx, cov, theta, spec).matrix
            tol = 8 * np.finfo(float).eps * np.max(np.abs(ref))
            assert np.max(np.abs(H - ref)) <= tol
            assert np.array_equal(H - np.diag(H.diagonal()), ref - np.diag(ref.diagonal()))


def spy_eigh_dtypes(monkeypatch, corrupt=False):
    """Record the dtype of every stack handed to ``np.linalg.eigh``; with
    ``corrupt`` the returned eigenvectors are rolled out of place."""
    seen = []
    real = np.linalg.eigh

    def spy(S):
        seen.append(S.dtype)
        vals, vecs = real(S)
        return vals, (np.roll(vecs, 1, axis=-1) if corrupt else vecs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


def complex_eigvalsh(H):
    """Eigenvalues of the symmetrized matrix by complex LAPACK (the reference)."""
    return np.linalg.eigvalsh(0.5 * (H + H.conj().swapaxes(-1, -2)).astype(complex))


def zero_flux_models():
    """The torus and the 3-vertex quotient with their canonical integral-flux connections."""
    rng = np.random.default_rng(45)
    tri, tri_cov, tri_flux = make_random3(rng)
    torus = Complex2(1, [(0, 0, 1.3), (0, 0, 0.8)], [(1, 2, -1, -2)], [0.25])
    torus_cov = CoveringData(2, [[1, 0], [0, 1]])
    models = []
    for cx, cov, flux in [(torus, torus_cov, [-4 * np.pi]), (tri, tri_cov, tri_flux)]:
        theta = synthesize_connection(cx, flux)
        assert not theta.any()
        models.append((cx, cov, theta))
    return models


class TestRealPath:
    def test_zero_flux_supercells(self, monkeypatch):
        for cx, cov, theta in zero_flux_models():
            op = assemble_supercell(cx, cov, theta, SupercellSpec((4, 3)))
            ref = complex_eigvalsh(op.matrix)
            seen = spy_eigh_dtypes(monkeypatch)
            sp = spectrum(op)
            assert seen == [np.float64]
            assert np.max(np.abs(sp.eigenvalues - ref)) <= eig_tol(op.matrix)
            row_sum_norm = np.max(np.sum(np.abs(op.matrix), axis=1))
            assert sp.residual <= 1e-8 * max(1.0, row_sum_norm)

    def test_quotient_without_connection(self, monkeypatch):
        cx, _, _ = make_random3(np.random.default_rng(46))
        op = assemble_quotient(cx)
        ref = complex_eigvalsh(op.matrix)
        seen = spy_eigh_dtypes(monkeypatch)
        assert np.max(np.abs(spectrum(op).eigenvalues - ref)) <= eig_tol(op.matrix)
        assert seen == [np.float64]

    def test_lone_zero_momentum_fiber(self, monkeypatch):
        for cx, cov, theta in zero_flux_models():
            ks = np.zeros((1, 2))
            H = assemble_fibers(cx, cov, theta, ks)
            ref = complex_eigvalsh(H)
            seen = spy_eigh_dtypes(monkeypatch)
            sp = fiber_spectra(cx, cov, theta, ks)
            assert seen == [np.float64]
            assert np.max(np.abs(sp.eigenvalues - ref)) <= eig_tol(H)

    def test_magnetic_supercell_stays_complex(self, monkeypatch):
        cx, cov, _ = make_random3(np.random.default_rng(47))
        theta = synthesize_connection(cx, [2 * np.pi])
        op = assemble_supercell(cx, cov, theta + [0, 0, 0.3, 0], SupercellSpec((3, 2)))
        seen = spy_eigh_dtypes(monkeypatch)
        spectrum(op)
        assert seen == [np.complex128]

    def test_one_imaginary_entry_sends_only_its_matrix_to_complex(self, monkeypatch):
        rng = np.random.default_rng(48)
        A = rng.normal(size=(3, 4, 4))
        H = (A + A.transpose(0, 2, 1)).astype(complex)
        seen = spy_eigh_dtypes(monkeypatch)
        before, before_residual = operators._eigh_checked(H, str)
        H[1, 2, 3] += 1e-13j
        vals, residual = operators._eigh_checked(H, str)
        # the whole real stack, then its two real matrices, then the perturbed one
        assert seen == [np.float64, np.float64, np.complex128]
        assert np.array_equal(vals[[0, 2]], before[[0, 2]])
        assert np.array_equal(residual[[0, 2]], before_residual[[0, 2]])
        assert np.max(np.abs(vals - complex_eigvalsh(H))) <= eig_tol(H)

    def test_tiny_symmetric_imaginary_part_stays_real(self, monkeypatch):
        # H is non-Hermitian by 2e-13, within the gate, and its imaginary
        # parts cancel in S: S has no nonzero imaginary entry, so the real
        # solver runs, as for the whole-stack reference
        rng = np.random.default_rng(49)
        A = rng.normal(size=(2, 5, 5))
        H = (A + A.transpose(0, 2, 1)).astype(complex)
        H[:, 1, 3] += 1e-13j
        H[:, 3, 1] += 1e-13j
        assert 2e-13 <= operators.HERMITICITY_TOL
        seen = spy_eigh_dtypes(monkeypatch)
        vals, residual = operators._eigh_checked(H, str)
        assert seen == [np.float64]
        ref_vals, ref_residual = reference_eigh_checked(H, str)
        assert seen == [np.float64, np.float64]
        assert np.array_equal(vals, ref_vals) and np.array_equal(residual, ref_residual)

    def test_real_non_symmetric_fails_hermiticity(self, monkeypatch):
        seen = spy_eigh_dtypes(monkeypatch)
        with pytest.raises(NumericError, match="probe: not Hermitian"):
            spectrum(MagneticOperator(np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]), "probe"))
        cx, cov, theta = zero_flux_models()[1]
        real = operators._assemble

        def skew(complex2, phases):
            H = real(complex2, phases)
            H[:, 0, 1] += 1e-9
            return H

        monkeypatch.setattr(operators, "_assemble", skew)
        with pytest.raises(NumericError, match=r"fiber at k=\[0,0\]: not Hermitian"):
            fiber_spectra(cx, cov, theta, np.zeros((1, 2)))
        assert seen == []

    def test_corrupted_eigenvector_fails_residual(self, monkeypatch):
        cx, cov, theta = zero_flux_models()[1]
        seen = spy_eigh_dtypes(monkeypatch, corrupt=True)
        with pytest.raises(NumericError, match=r"fiber at k=\[0,0\]: eigenpair residual"):
            fiber_spectra(cx, cov, theta, np.zeros((1, 2)))
        with pytest.raises(NumericError, match=r"supercell\(N=\(2, 2\), periodic\): eigenpair"):
            spectrum(assemble_supercell(cx, cov, theta, SupercellSpec((2, 2))))
        assert seen == [np.float64, np.float64]


def flux_third_cell():
    """The flux-1/3 magnetic cell of a weighted square lattice with its
    canonical connection, and momenta of which every fourth has k1 = 0:
    those fibers are exactly real, the others complex."""
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, size=2)
    torus = Complex2(1, [(0, 0, float(w[0])), (0, 0, float(w[1]))], [(1, 2, -1, -2)], [0.3])
    ms = magnetic_supercell(torus, CoveringData(2, [[1, 0], [0, 1]]), Fraction(1, 3))
    theta = synthesize_connection(ms.complex2, ms.flux)
    ks = rng.uniform(-np.pi, np.pi, size=(60, 2))
    ks[::4, 0] = 0.0
    return ms.complex2, ms.covering, theta, ks


class TestPerMatrixRule:
    """A matrix goes to real or complex LAPACK by its own entries alone, so
    a fiber's eigenvalues do not depend on the rest of its stack."""

    @pytest.mark.parametrize(
        "stack_bytes, calls", [(STACK_BYTES, 1), (1, 60), (5 * 16 * 3**2, 12)]
    )
    def test_fiber_eigenvalues_do_not_depend_on_the_batch(self, monkeypatch, stack_bytes, calls):
        cx, cov, theta, ks = flux_third_cell()
        alone = [fiber_spectra(cx, cov, theta, k[None]).eigenvalues[0] for k in ks]
        monkeypatch.setattr(operators, "STACK_BYTES", stack_bytes)
        solves = []
        solve = operators._eigh_checked

        def counted(H, where):
            solves.append(len(H))
            return solve(H, where)

        monkeypatch.setattr(operators, "_eigh_checked", counted)
        batched = fiber_spectra(cx, cov, theta, ks).eigenvalues
        assert len(solves) == calls
        assert np.array_equal(batched, np.array(alone))

    def test_each_matrix_of_a_mixed_stack_equals_its_lone_reference(self):
        cx, cov, theta, ks = flux_third_cell()
        H = assemble_fibers(cx, cov, theta, ks)
        real = ~H.imag.any(axis=(1, 2))
        assert real[::4].all() and real.sum() == len(H) // 4
        vals, residual = operators._eigh_checked(H, str)
        for i in range(len(H)):
            ref_vals, ref_residual = reference_eigh_checked(H[i : i + 1], str)
            assert np.array_equal(vals[i], ref_vals[0])
            assert np.array_equal(residual[i], ref_residual[0])


def test_mixed_stack_frees_its_first_part_before_the_second(monkeypatch):
    # 4 real and 4 complex 64 x 64 matrices: the real part's copy,
    # eigenvectors and product (3 x 128 KiB) are gone when the complex
    # part's solve starts, which holds its own copy (256 KiB) and little else
    import tracemalloc

    K, n = 8, 64
    rng = np.random.default_rng(53)
    A = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
    A[:4] = A[:4].real
    S = 0.5 * (A + A.conj().transpose(0, 2, 1))
    held = []
    eigh = np.linalg.eigh

    def probed(sub):
        held.append((sub.dtype, tracemalloc.get_traced_memory()[0]))
        return eigh(sub)

    monkeypatch.setattr(np.linalg, "eigh", probed)
    tracemalloc.start()
    try:
        vals, residual = operators._eigh_gated(S, np.full(K, 1e3), str)
    finally:
        tracemalloc.stop()
    assert [dtype for dtype, _ in held] == [float, complex]
    complex_copy = 16 * 4 * n * n
    assert held[1][1] <= complex_copy + 16 * 1024
    for i in range(K):
        alone = operators._eigh_gated(S[i : i + 1], np.full(1, 1e3), str)
        assert np.array_equal(vals[i], alone[0][0]) and residual[i] == alone[1][0]


class TestBlockedGates:
    """The gates walk a large stack in row and column blocks; every result
    equals the whole-stack reference bit for bit."""

    @pytest.mark.parametrize("K, n", [(1, 300), (1, 301), (3, 200), (2, 1), (1, 0), (0, 4)])
    @pytest.mark.parametrize("kind", ["real", "complex", "symmetrized-real"])
    def test_equals_whole_stack_reference(self, K, n, kind):
        rng = np.random.default_rng(50 + n)
        A = rng.normal(size=(K, n, n))
        if kind == "complex":
            A = A + 1j * rng.normal(size=(K, n, n))
        H = A + A.conj().transpose(0, 2, 1)
        if kind == "symmetrized-real":
            # complex entries whose imaginary parts cancel in S
            H = H + 1e-14j * (A + A.transpose(0, 2, 1))
        H = H.astype(complex)
        vals, residual = operators._eigh_checked(H, str)
        ref_vals, ref_residual = reference_eigh_checked(H, str)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(residual, ref_residual)

    def test_several_blocks(self):
        # the larger sizes above are walked in more than one block
        for K, n in [(1, 300), (3, 200)]:
            assert len(list(operators._blocks(n, 16 * K * n))) > 1

    @pytest.mark.parametrize("defect", [1e-9, np.nan])
    def test_late_block_fails_hermiticity(self, defect):
        rng = np.random.default_rng(51)
        A = rng.normal(size=(2, 300, 300))
        H = (A + A.transpose(0, 2, 1)).astype(complex)
        H[1, 299, 0] += defect
        with pytest.raises(NumericError, match="matrix 1: not Hermitian"):
            operators._eigh_checked(H, lambda i: f"matrix {i}")

    def test_hermitian_part_holds_one_extra_copy(self):
        import tracemalloc

        n = 512
        rng = np.random.default_rng(52)
        H = (rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n))).astype(complex)
        H = H + H.conj().transpose(0, 2, 1)
        tracemalloc.start()
        try:
            S, _ = operators._hermitian_part(H, str)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # S itself plus temporaries of a few blocks
        assert peak <= S.nbytes + 8 * operators._BLOCK_BYTES
