"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from magbloch import (
    Complex2,
    CoveringData,
    SupercellSpec,
    assemble_fiber,
    assemble_quotient,
    assemble_supercell,
    bloch_matrix,
    build_supercell,
    character_group,
    character_relations_check,
    difference_class,
    gauge_transform,
    homology,
    is_quantizable,
    magnetic_supercell,
    momentum_character,
    smith_normal_form,
    spectrum,
    synthesize_connection,
    twist,
    verify_block_diagonalization,
)
from magbloch.bloch import BlochBasis
from magbloch.homology import TWO_PI

from conftest import make_random3
from test_homology import int_det


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _torus():
    cx = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
    return cx, CoveringData(2, [[1, 0], [0, 1]])


def _chain():
    return Complex2(1, [(0, 0, 1.0)]), CoveringData(1, [[1]])


def _torsion():
    return Complex2(1, [(0, 0, 1.0)], [(1, 1)])


def _instances(rng):
    """The decomposition test set: chain, torus, random 3-vertex quotient."""
    out = []
    chain_cx, chain_cov = _chain()
    for n in (2, 4, 8):
        out.append((chain_cx, chain_cov, rng.uniform(0, TWO_PI, 1), (n,)))
    torus_cx, torus_cov = _torus()
    for sizes in ((2, 2), (3, 3), (4, 4)):
        out.append((torus_cx, torus_cov, rng.uniform(0, TWO_PI, 2), sizes))
    cx, cov, flux = make_random3(rng)
    s = homology(cx)
    theta = synthesize_connection(cx, flux, s)
    theta = twist(cx, s, theta, character_group(s).sample(rng))
    out.append((cx, cov, theta, (2, 2)))
    out.append((cx, cov, theta, (3, 3)))
    return out


def test_criterion_1_finite_bloch_decomposition():
    rng = np.random.default_rng(101)
    with criterion(1, "exact finite Bloch decomposition on chain/torus/random quotient"):
        start = time.monotonic()
        for cx, cov, theta, sizes in _instances(rng):
            op = assemble_supercell(cx, cov, theta, SupercellSpec(sizes))
            sup = spectrum(op).eigenvalues
            basis = BlochBasis.from_sizes(sizes)
            fib = np.sort(
                np.concatenate(
                    [
                        spectrum(assemble_fiber(cx, cov, theta, k)).eigenvalues
                        for k in basis.ks
                    ]
                )
            )
            scale = max(np.max(np.abs(sup)), 1.0)
            assert np.max(np.abs(sup - fib)) <= 1e-8 * scale
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"decomposition suite took {elapsed:.2f}s"


def test_criterion_2_unitarity_and_intertwining():
    rng = np.random.default_rng(102)
    with criterion(2, "Bloch unitarity, off-diagonal blocks, fiber block match"):
        for cx, cov, theta, sizes in _instances(rng):
            _, sc_map = build_supercell(cx, cov, SupercellSpec(sizes))
            basis = BlochBasis.from_sizes(sizes)
            Phi = bloch_matrix(basis, sc_map)
            n = Phi.shape[0]
            assert np.max(np.abs(Phi.conj().T @ Phi - np.eye(n))) <= 1e-12
            report = verify_block_diagonalization(cx, cov, theta, sizes)
            assert report.off_diagonal <= 1e-10
            assert report.fiber_deviation <= 1e-10


def test_criterion_3_character_relations():
    with criterion(3, "character relations for all N with prod N <= 64"):
        sizes_list = [(n,) for n in range(1, 65)]
        sizes_list += [
            (a, b) for a in range(2, 33) for b in range(2, 33) if a * b <= 64
        ]
        sizes_list += [
            (a, b, c)
            for a in range(2, 17)
            for b in range(2, 17)
            for c in range(2, 17)
            if a * b * c <= 64
        ]
        for sizes in sizes_list:
            assert character_relations_check(sizes).max_residual <= 1e-12


def test_criterion_4_quantizability_exact():
    with criterion(4, "flux integrality: torus 2*pi*n passes, pi fails, torsion always"):
        torus_cx, _ = _torus()
        s = homology(torus_cx)
        for n in range(-2, 3):
            cert = is_quantizable(torus_cx, [TWO_PI * n], s)
            assert cert.verdict
            assert cert.residues == (0.0,)
            assert cert.pairings == (float(n),)
        cert = is_quantizable(torus_cx, [np.pi], s)
        assert not cert.verdict
        assert cert.residues == (0.5,)
        torsion = _torsion()
        st = homology(torsion)
        for flux in (0.123, -9.87, np.pi, 1e6):
            cert = is_quantizable(torsion, [flux], st)
            assert cert.verdict and cert.pairings == ()


def test_criterion_5_quantization_classes():
    rng = np.random.default_rng(105)
    with criterion(5, "difference_class inverts twist: torus x100, Z/2 exactly"):
        torus_cx, _ = _torus()
        s = homology(torus_cx)
        group = character_group(s)
        theta = rng.uniform(0, TWO_PI, 2)
        for _ in range(100):
            chi = group.sample(rng)
            back = difference_class(torus_cx, s, theta, twist(torus_cx, s, theta, chi))
            assert back.angle_distance(chi) <= 1e-9
            assert back.torsion_indices == chi.torsion_indices
        torsion = _torsion()
        st = homology(torsion)
        classes = list(character_group(st).enumerate_torsion())
        assert len(classes) == 2
        theta_t = rng.uniform(0, TWO_PI, 1)
        recovered = set()
        for chi in classes:
            back = difference_class(
                torsion, st, theta_t, twist(torsion, st, theta_t, chi)
            )
            assert back.torsion_indices == chi.torsion_indices
            recovered.add(back.torsion_indices)
        assert recovered == {(0,), (1,)}


def test_criterion_6_gauge_invariance():
    rng = np.random.default_rng(106)
    with criterion(6, "spectra invariant under 100 random gauge transforms"):
        cx, cov, flux = make_random3(rng)
        s = homology(cx)
        theta = synthesize_connection(cx, flux, s)
        base = spectrum(assemble_quotient(cx, theta)).eigenvalues
        for _ in range(100):
            g = rng.normal(scale=3.0, size=cx.num_vertices)
            evs = spectrum(
                assemble_quotient(cx, gauge_transform(cx, theta, g))
            ).eigenvalues
            assert np.max(np.abs(evs - base)) <= 1e-9


def test_criterion_7_fiber_as_quantization():
    rng = np.random.default_rng(107)
    with criterion(7, "fiber spectra equal twisted-quotient spectra on a 16-point grid"):
        cx, cov = _torus()
        s = homology(cx)
        theta = rng.uniform(0, TWO_PI, 2)
        basis = BlochBasis.from_sizes((4, 4))
        assert basis.num_characters == 16
        for k in basis.ks:
            chi = momentum_character(s, cov, k)
            fib = spectrum(assemble_fiber(cx, cov, theta, k)).eigenvalues
            quo = spectrum(assemble_quotient(cx, twist(cx, s, theta, chi))).eigenvalues
            assert np.max(np.abs(fib - quo)) <= 1e-9


def test_criterion_8_half_flux_oracle():
    with criterion(8, "half-flux fibers match independent 2x2 oracle and closed form"):
        cx, cov = _torus()
        ms = magnetic_supercell(cx, cov, "1/2")
        s = homology(ms.complex2)
        theta = synthesize_connection(ms.complex2, ms.flux, s)

        def oracle(k):
            # independent assembly, straight from the vertex stencil
            H = np.zeros((2, 2), dtype=complex)
            for j, (u, v, w) in enumerate(ms.complex2.edges):
                phase = theta[j] + float(ms.covering.tau[j].astype(float) @ k)
                z = w * np.exp(1j * phase)
                H[u, u] += w
                H[v, v] += w
                H[v, u] -= z
                H[u, v] -= np.conj(z)
            return np.linalg.eigvalsh(H)

        n = 32
        lib_all = []
        for i in range(n):
            for j in range(n):
                k = np.array([TWO_PI * i / n, TWO_PI * j / n])
                lib = spectrum(assemble_fiber(ms.complex2, ms.covering, theta, k)).eigenvalues
                assert np.max(np.abs(lib - oracle(k))) <= 1e-10
                lib_all.append(lib)
        # closed form, adopted as fixture after the oracle agreement above:
        # eigenvalues 4 -/+ 2 sqrt(cos^2 t1 + cos^2 t2) with t1 = k1/2, t2 = k2
        closed = []
        for i in range(n):
            for j in range(n):
                t1 = np.pi * i / n
                t2 = TWO_PI * j / n
                r = 2.0 * math.sqrt(math.cos(t1) ** 2 + math.cos(t2) ** 2)
                closed += [4.0 - r, 4.0 + r]
        lib_sorted = np.sort(np.concatenate(lib_all))
        assert np.max(np.abs(lib_sorted - np.sort(closed))) <= 1e-8


def test_criterion_9_homology_and_snf():
    rng = np.random.default_rng(109)
    with criterion(9, "Euler identity on all test complexes; SNF roundtrip x500"):
        torus_cx, _ = _torus()
        chain_cx, _ = _chain()
        complexes = [
            torus_cx,
            chain_cx,
            _torsion(),
            Complex2(1, [(0, 0, 1.0)] * 3),
            Complex2(2, [(0, 1, 1.0)]),
            Complex2(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)], [(1, 2, 3, 4)]),
            make_random3(rng)[0],
            build_supercell(*_torus(), SupercellSpec((2, 2)))[0],
        ]
        for cx in complexes:
            b0, b1, b2 = homology(cx).betti
            assert cx.euler_characteristic() == b0 - b1 + b2
        for _ in range(500):
            m, n = rng.integers(1, 7, size=2)
            A = rng.integers(-9, 10, size=(m, n))
            snf = smith_normal_form(A)
            assert np.all((snf.U @ snf.D @ snf.V) == np.asarray(A, dtype=object))
            assert abs(int_det(snf.U)) == 1 and abs(int_det(snf.V)) == 1
            diag = snf.diagonal
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or b % a == 0
