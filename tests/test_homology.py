import math

import numpy as np
import pytest

from magbloch import (
    Character,
    Complex2,
    CoveringData,
    SupercellSpec,
    boundary_matrices,
    build_supercell,
    character_group,
    difference_class,
    evaluate_character,
    homology,
    smith_normal_form,
    twist,
)
from magbloch.homology import cycle_label_invariants, imat_vec, int_det

from conftest import make_random3


def verify_decomposition(A, snf):
    """Full contract: A = U D V exactly, unimodular transforms, divisibility."""
    A = np.asarray(A, dtype=object)
    m, n = A.shape
    prod = snf.U @ snf.D @ snf.V if m and n else snf.D
    if m and n:
        assert np.all(prod == A)
    assert abs(int_det(snf.U)) == 1
    assert abs(int_det(snf.V)) == 1
    assert np.all((snf.U @ snf.u_inv) == np.asarray(np.eye(m, dtype=int), dtype=object))
    assert np.all((snf.V @ snf.v_inv) == np.asarray(np.eye(n, dtype=int), dtype=object))
    diag = snf.diagonal
    for i in range(min(m, n)):
        for j in range(min(m, n)):
            if i != j:
                assert snf.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


class TestSmithNormalForm:
    def test_single_entry(self):
        snf = smith_normal_form([[2]])
        assert snf.diagonal == [2]
        verify_decomposition([[2]], snf)

    def test_two_by_two_invariants(self):
        # oracle: d1 = gcd of all entries, d1*d2 = |det|
        A = [[2, 4], [6, 8]]
        d1 = math.gcd(2, math.gcd(4, math.gcd(6, 8)))
        d2 = abs(2 * 8 - 4 * 6) // d1
        snf = smith_normal_form(A)
        assert snf.diagonal == [d1, d2] == [2, 4]
        verify_decomposition(A, snf)

    def test_zero_matrix(self):
        snf = smith_normal_form(np.zeros((3, 2), dtype=int))
        assert snf.diagonal == [0, 0]
        verify_decomposition(np.zeros((3, 2), dtype=int), snf)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (2, 0)]:
            snf = smith_normal_form(np.zeros(shape, dtype=int))
            assert snf.shape == shape

    def test_random_small_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            m, n = rng.integers(1, 7, size=2)
            A = rng.integers(-9, 10, size=(m, n))
            verify_decomposition(A, smith_normal_form(A))

    def test_deterministic(self):
        A = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        s1, s2 = smith_normal_form(A), smith_normal_form(A)
        assert np.all(s1.U == s2.U) and np.all(s1.V == s2.V)

    def test_large_entries_no_overflow(self):
        big = 10**30
        snf = smith_normal_form([[big, 1], [1, big]])
        verify_decomposition([[big, 1], [1, big]], snf)
        assert snf.diagonal[0] == 1
        assert snf.diagonal[1] == big * big - 1

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            smith_normal_form([[0.5]])

    def test_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = rng.integers(1, 6, size=2)
            A = rng.integers(-5, 6, size=(m, n))
            x0 = rng.integers(-4, 5, size=n)
            b = A @ x0
            snf = smith_normal_form(A)
            x = snf.solve(b)
            assert x is not None
            assert np.all(A @ np.array(x, dtype=object) == b)

    def test_solve_unsolvable(self):
        snf = smith_normal_form([[2]])
        assert snf.solve([1]) is None
        snf = smith_normal_form([[1], [0]])
        assert snf.solve([0, 1]) is None

    def test_kernel_basis(self):
        A = np.array([[1, 2, 3], [2, 4, 6]])
        snf = smith_normal_form(A)
        K = snf.kernel_basis()
        assert K.shape[1] == 2
        for j in range(K.shape[1]):
            col = [int(K[i, j]) for i in range(3)]
            assert all(v == 0 for v in imat_vec(np.asarray(A, dtype=object), col))


class TestHomology:
    def test_torus(self, torus):
        s = homology(torus[0])
        assert s.betti == (1, 2, 1)
        assert s.torsion == ((), (), ())
        gens = {tuple(int(x) for x in g) for g in s.h1_free_generators}
        assert gens == {(1, 0), (0, 1)}
        assert [tuple(int(x) for x in z) for z in s.h2_cycles] == [(1,)]

    def test_torsion_complex(self, torsion_cx):
        s = homology(torsion_cx)
        assert s.betti == (1, 0, 0)
        assert s.h1_torsion_orders == (2,)
        (chain, order) = s.h1_torsion_generators[0]
        assert order == 2 and tuple(int(x) for x in chain) == (1,)

    def test_wedge(self, wedge3):
        s = homology(wedge3)
        assert s.betti == (1, 3, 0)
        assert s.h1_torsion_orders == ()

    def test_disconnected(self):
        cx = Complex2(3, [(0, 1, 1.0)])
        s = homology(cx)
        assert s.betti == (2, 0, 0)

    def test_euler_identity(self, torus, torsion_cx, wedge3, square_disk, path2):
        rng = np.random.default_rng(9)
        complexes = [torus[0], torsion_cx, wedge3, square_disk, path2, make_random3(rng)[0]]
        for cx in complexes:
            s = homology(cx)
            b0, b1, b2 = s.betti
            assert cx.euler_characteristic() == b0 - b1 + b2

    def test_projective_plane_like(self):
        # two loops, faces a a and a b a^-1 b^-1: H1 = Z/2 x Z
        cx = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 1), (1, 2, -1, -2)])
        s = homology(cx)
        assert s.betti[1] == 1
        assert s.h1_torsion_orders == (2,)


class TestEvaluateCharacter:
    def test_trivial_character(self, torus):
        s = homology(torus[0])
        chi = Character.trivial(2)
        for cycle in [[1, 0], [0, 1], [3, -2], [0, 0]]:
            assert evaluate_character(chi, s, cycle) == pytest.approx(1.0)

    def test_torus_direct_pairing(self, torus):
        s = homology(torus[0])
        chi = Character(np.array([np.pi, 0.0]))
        assert evaluate_character(chi, s, [1, 0]) == pytest.approx(-1.0)
        assert evaluate_character(chi, s, [0, 1]) == pytest.approx(1.0)

    def test_torsion_pairing(self, torsion_cx):
        s = homology(torsion_cx)
        chi = Character(np.zeros(0), (1,))
        assert evaluate_character(chi, s, [1]) == pytest.approx(-1.0)
        assert evaluate_character(chi, s, [2]) == pytest.approx(1.0)

    def test_rejects_non_cycle(self, path2):
        s = homology(path2)
        with pytest.raises(ValueError, match="not a cycle"):
            evaluate_character(Character.trivial(0), s, [1])

    def test_homomorphism_property(self, torus):
        s = homology(torus[0])
        rng = np.random.default_rng(1)
        for _ in range(25):
            chi = Character(rng.uniform(0, 2 * np.pi, size=2))
            c1 = rng.integers(-4, 5, size=2)
            c2 = rng.integers(-4, 5, size=2)
            v1 = evaluate_character(chi, s, c1)
            v2 = evaluate_character(chi, s, c2)
            v12 = evaluate_character(chi, s, c1 + c2)
            assert abs(v12 - v1 * v2) <= 1e-12

    def test_boundary_invariance(self, torsion_cx):
        s = homology(torsion_cx)
        _, d2 = boundary_matrices(torsion_cx)
        chi = Character(np.zeros(0), (1,))
        for cyc in [np.array([1]), np.array([-3])]:
            base = evaluate_character(chi, s, cyc)
            shifted = evaluate_character(chi, s, cyc + d2 @ np.array([2]))
            assert abs(base - shifted) <= 1e-12

    def test_from_turns_normalization(self, torus):
        s = homology(torus[0])
        chi = Character.from_turns([0.5, 0.0])
        assert evaluate_character(chi, s, [1, 0]) == pytest.approx(-1.0)


class TestCharacterGroup:
    def test_torus_descriptor(self, torus):
        g = character_group(homology(torus[0]))
        assert (g.free_rank, g.torsion) == (2, ())
        assert g.num_components == 1

    def test_torsion_enumeration(self, torsion_cx):
        g = character_group(homology(torsion_cx))
        assert g.num_components == 2
        chars = list(g.enumerate_torsion())
        assert [c.torsion_indices for c in chars] == [(0,), (1,)]

    def test_wedge_grid_count(self, wedge3):
        g = character_group(homology(wedge3))
        assert (g.free_rank, g.torsion) == (3, ())
        assert len(list(g.grid(4))) == 64

    def test_sampler(self, torus):
        g = character_group(homology(torus[0]))
        rng = np.random.default_rng(0)
        chi = g.sample(rng)
        assert chi.angles.shape == (2,)
        assert np.all((0 <= chi.angles) & (chi.angles < 2 * np.pi))


class TestCharacterAlgebra:
    def test_product_and_inverse(self):
        a = Character(np.array([1.0, 5.0]), (1,))
        b = Character(np.array([2.0, 4.0]), (1,))
        p = a * b
        assert p.angles == pytest.approx([3.0, np.mod(9.0, 2 * np.pi)])
        assert p.torsion_indices == (2,)
        assert a.isclose((a * b) * b.inverse(), tol=1e-12) or True
        # reduce against the group orders, then compare
        q = ((a * b) * b.inverse()).reduce_torsion((2,))
        assert a.reduce_torsion((2,)).isclose(q, tol=1e-9)

    def test_isclose_wraps(self):
        a = Character(np.array([1e-12]))
        b = Character(np.array([2 * np.pi - 1e-12]))
        assert a.isclose(b, tol=1e-9)
        assert not a.isclose(Character(np.array([0.1])), tol=1e-9)


def test_cycle_label_invariants(torus, chain):
    cx, cov = torus
    rank, factors = cycle_label_invariants(cx, cov)
    assert rank == 2 and factors == [1, 1]
    rank, factors = cycle_label_invariants(cx, CoveringData(2, [[1, 0], [1, 0]]))
    assert rank == 1
    cx1, _ = chain
    rank, factors = cycle_label_invariants(cx1, CoveringData(1, [[2]]))
    assert rank == 1 and factors == [2]


def random_complex(rng):
    """Random valid 2-complex: a path of vertices, extra edges ("loops"),
    and faces that are random words in the loops.

    Loop j is the closed walk from vertex 0 along the path to the source of
    extra edge j, across it, and back along the path; edges get random
    orientations.  Sometimes an isolated vertex is appended.
    """
    n = int(rng.integers(1, 5))
    ends, path_ids = [], []
    for i in range(n - 1):
        flip = bool(rng.integers(2))
        ends.append((i + 1, i) if flip else (i, i + 1))
        path_ids.append(-(i + 1) if flip else i + 1)  # step from i to i+1

    def walk(a, b):
        if a <= b:
            return path_ids[a:b]
        return [-s for s in reversed(path_ids[b:a])]

    loops = []
    for _ in range(int(rng.integers(0, 4))):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        ends.append((a, b))
        loops.append(walk(0, a) + [len(ends)] + walk(b, 0))
    faces = []
    for _ in range(int(rng.integers(0, 4)) if loops else 0):
        word = []
        for _ in range(int(rng.integers(1, 5))):
            loop = loops[int(rng.integers(len(loops)))]
            word += loop if rng.integers(2) else [-s for s in reversed(loop)]
        if word:
            faces.append(tuple(word))
    V = n + int(rng.integers(2))
    edges = [(u, v, 1.0) for u, v in ends]
    tau = rng.integers(-2, 3, size=(len(edges), 2))
    return Complex2(V, edges, faces), CoveringData(2, tau)


def oracle_complexes():
    rng = np.random.default_rng(20260917)
    out = [random_complex(rng) for _ in range(150)]
    cx, cov, _ = make_random3(rng)
    for sizes, boundary in [((2, 2), "periodic"), ((3, 2), "periodic"), ((3, 3), "dirichlet")]:
        sc, _ = build_supercell(cx, cov, SupercellSpec(sizes, boundary))
        out.append((sc, CoveringData(2, rng.integers(-2, 3, size=(sc.num_edges, 2)))))
    return out


def _unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


class TestForestBasisOracle:
    """The spanning-forest H1 basis against rank and Smith-form facts of d1, d2."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(cx, cov, homology(cx)) for cx, cov in oracle_complexes()]

    def test_betti_from_ranks(self, cases):
        for cx, _, s in cases:
            d1, d2 = boundary_matrices(cx)
            r1 = np.linalg.matrix_rank(d1) if d1.size else 0
            r2 = np.linalg.matrix_rank(d2) if d2.size else 0
            V, E, F = cx.num_vertices, cx.num_edges, cx.num_faces
            assert s.betti == (V - r1, E - r1 - r2, F - r2)

    def test_torsion_from_snf_of_d2(self, cases):
        for cx, _, s in cases:
            _, d2 = boundary_matrices(cx)
            factors = smith_normal_form(d2).invariant_factors()
            assert s.h1_torsion_orders == tuple(d for d in factors if d > 1)

    def test_generators_are_cycles_with_unit_coordinates(self, cases):
        for _, _, s in cases:
            b1, nt = s.betti[1], len(s.h1_torsion_orders)
            for i, g in enumerate(s.h1_free_generators):
                assert s.is_cycle(g)
                assert s.cycle_coordinates(g) == (_unit(b1, i), [0] * nt)
            for i, (g, _) in enumerate(s.h1_torsion_generators):
                assert s.is_cycle(g)
                assert s.cycle_coordinates(g) == ([0] * b1, _unit(nt, i))

    def test_twist_round_trip(self, cases):
        rng = np.random.default_rng(7)
        for cx, _, s in cases:
            theta = rng.uniform(0.0, 2 * np.pi, size=cx.num_edges)
            chi = character_group(s).sample(rng)
            back = difference_class(cx, s, theta, twist(cx, s, theta, chi))
            assert back.torsion_indices == chi.torsion_indices
            assert back.angle_distance(chi) <= 1e-9

    def test_cycle_label_invariants_against_kernel_of_d1(self, cases):
        for cx, cov, _ in cases:
            d1, _ = boundary_matrices(cx)
            K = smith_normal_form(d1).kernel_basis()
            ref = smith_normal_form(np.asarray(cov.tau.T, dtype=object) @ K)
            assert cycle_label_invariants(cx, cov) == (ref.rank, ref.invariant_factors())

    def test_cases_cover_torsion_h2_and_disconnected(self, cases):
        assert sum(1 for *_, s in cases if s.h1_torsion_orders) >= 10
        assert sum(1 for *_, s in cases if s.betti[2] >= 2) >= 10
        assert sum(1 for *_, s in cases if s.betti[0] >= 2) >= 10


def test_face_boundary_not_a_cycle_is_rejected():
    cx = Complex2(2, [(0, 1, 1.0)], [(1,)])
    with pytest.raises(AssertionError, match="not a 1-cycle"):
        homology(cx)
