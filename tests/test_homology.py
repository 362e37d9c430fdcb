import collections
import hashlib
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbloch import (
    Character,
    Complex2,
    CoveringData,
    NumericError,
    SupercellSpec,
    boundary_matrices,
    build_supercell,
    character_group,
    curvature,
    difference_class,
    evaluate_character,
    holonomy,
    homology,
    smith_normal_form,
    synthesize_connection,
    twist,
    validate,
)
from magbloch.bloch import magnetic_supercell
from magbloch.complexes import vertex_boundary
from magbloch.homology import (
    MAX_SNF_DIM,
    TWO_PI,
    _checked,
    cycle_label_invariants,
    spanning_forest,
)

from conftest import face_steps, make_random3


def _int_rows(A) -> list[list[int]]:
    """Copy a matrix into nested lists of Python ints; reject non-integers."""
    return [[int(x) for x in row] for row in _checked(A).tolist()]


def int_det(A) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    M = _int_rows(A)
    n = len(M)
    if n == 0:
        return 1
    if any(len(r) != n for r in M):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1.5])
    def test_rejects_non_finite_and_fractional_floats(self, bad):
        for routine in (smith_normal_form, int_det):
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                routine([[bad]])
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                routine([[1.0, 2.0], [bad, 4.0]])

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, 1], [1, 2.5]],
            [[0.5]],
            [[Fraction(1, 2), 1], [1, 3]],
            [[1 + 1j, 1], [1, 3]],
            [[1 + 0j]],
            [[np.inf, 1], [1, 3]],
            [[np.nan]],
        ],
        ids=["floats", "half", "fractions", "complex", "real-complex", "inf", "nan"],
    )
    @pytest.mark.parametrize("dtype", [object, None], ids=["object", "native"])
    def test_rejects_non_integers_of_every_dtype(self, bad, dtype):
        # an entry is accepted only if it is finite and equals int(entry)
        A = np.array(bad, dtype=dtype)
        for routine in (smith_normal_form, int_det):
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                routine(A)

    def test_integral_entries_of_any_type_accepted(self):
        A = np.array([[Fraction(4, 2), 10**30], [3, 2.0]], dtype=object)
        assert int_det(A) == 4 - 3 * 10**30
        verify_decomposition(A, smith_normal_form(A))

    def test_size_bound_checked_before_conversion(self, monkeypatch):
        # non-integer entries are a ValueError only once the shape is admitted
        monkeypatch.setattr(sys.modules["magbloch.homology"], "MAX_SNF_DIM", 3)
        with pytest.raises(NumericError, match=r"shape \(4, 2\) exceeds the configured bound 3"):
            smith_normal_form(np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="integers"):
            smith_normal_form(np.full((3, 2), 0.5))

    def test_size_bound_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="configured bound"):
            smith_normal_form(np.zeros((1, MAX_SNF_DIM + 1), dtype=np.int8))

    def test_kernel_basis(self):
        A = np.array([[1, 2, 3], [2, 4, 6]])
        snf = smith_normal_form(A)
        K = snf.kernel_basis()
        assert K.shape[1] == 2
        for j in range(K.shape[1]):
            col = [int(K[i, j]) for i in range(3)]
            assert all(v == 0 for v in np.asarray(A, dtype=object) @ col)


# The nested-list Smith normal form, its helpers included, as it stood before
# smith_normal_form moved to whole-row and whole-column operations on object
# ndarrays.  The ndarray routine must reproduce all five matrices exactly.


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _obj_array(rows: list[list[int]], shape: tuple[int, int]) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    for i in range(shape[0]):
        for j in range(shape[1]):
            out[i, j] = rows[i][j]
    return out


def _pivot(M: list[list[int]], s: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(s, len(M)):
        row = M[i]
        for j in range(s, len(row)):
            a = row[j]
            if a != 0:
                v = abs(a)
                if best_val is None or v < best_val:
                    best, best_val = (i, j), v
    return best


def reference_smith_normal_form(A) -> SimpleNamespace:
    """Smith normal form over Z with deterministic pivoting, on nested lists
    of Python ints: the entry-by-entry routine the ndarray one replaced,
    kept as its bit-for-bit reference.

    Returns U, D, V with A = U D V exactly, |det U| = |det V| = 1, and
    diagonal D obeying the divisibility chain.  Pivots are chosen as the
    smallest nonzero absolute value in the working submatrix, ties broken by
    row-major position, which makes the output reproducible.
    """
    A = np.asarray(A)
    if A.ndim == 2 and max(A.shape) > MAX_SNF_DIM:
        raise NumericError(
            f"Smith normal form: matrix shape {A.shape} exceeds the configured bound {MAX_SNF_DIM}"
        )
    D = _int_rows(A)
    m, n = A.shape

    U = _identity(m)
    Ui = _identity(m)
    V = _identity(n)
    Vi = _identity(n)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        Ui[i], Ui[j] = Ui[j], Ui[i]
        for r in range(m):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def row_add(i, j, k):
        # D_new = E D with E adding k * row j to row i
        Di, Dj = D[i], D[j]
        for c in range(n):
            Di[c] += k * Dj[c]
        Uii, Uij = Ui[i], Ui[j]
        for c in range(m):
            Uii[c] += k * Uij[c]
        for r in range(m):
            U[r][j] -= k * U[r][i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        Ui[i] = [-x for x in Ui[i]]
        for r in range(m):
            U[r][i] = -U[r][i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        V[i], V[j] = V[j], V[i]
        for r in range(n):
            Vi[r][i], Vi[r][j] = Vi[r][j], Vi[r][i]

    def col_add(i, j, k):
        # D_new = D F with F adding k * column j to column i
        for r in range(m):
            D[r][i] += k * D[r][j]
        Vj, Vii = V[j], V[i]
        for c in range(n):
            Vj[c] -= k * Vii[c]
        for r in range(n):
            Vi[r][i] += k * Vi[r][j]

    s = 0
    while s < min(m, n):
        piv = _pivot(D, s)
        if piv is None:
            break
        i, j = piv
        if i != s:
            row_swap(s, i)
        if j != s:
            col_swap(s, j)

        dirty = False
        for r in range(s + 1, m):
            if D[r][s] != 0:
                q = D[r][s] // D[s][s]
                row_add(r, s, -q)
                if D[r][s] != 0:
                    dirty = True
        for c in range(s + 1, n):
            if D[s][c] != 0:
                q = D[s][c] // D[s][s]
                col_add(c, s, -q)
                if D[s][c] != 0:
                    dirty = True
        if dirty:
            continue

        # pivot now divides its row and column; enforce divisibility globally
        pivot_val = D[s][s]
        swallow = None
        for r in range(s + 1, m):
            for c in range(s + 1, n):
                if D[r][c] % pivot_val != 0:
                    swallow = r
                    break
            if swallow is not None:
                break
        if swallow is not None:
            row_add(s, swallow, 1)
            continue
        if pivot_val < 0:
            row_negate(s)
        s += 1

    return SimpleNamespace(
        U=_obj_array(U, (m, m)),
        D=_obj_array(D, (m, n)),
        V=_obj_array(V, (n, n)),
        u_inv=_obj_array(Ui, (m, m)),
        v_inv=_obj_array(Vi, (n, n)),
    )


def assert_same_as_reference(A):
    snf, ref = smith_normal_form(A), reference_smith_normal_form(A)
    for name in ("U", "D", "V", "u_inv", "v_inv"):
        got, want = getattr(snf, name), getattr(ref, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
        # a fixed-width integer could overflow silently
        assert all(type(x) is int for x in got.flat), name
    return snf


def cotree_matrix(cx):
    """X = d2[cotree, :], the matrix homology() runs its Smith form on."""
    _, d2 = boundary_matrices(cx)
    forest = set(spanning_forest(cx))
    return d2[[e for e in range(cx.num_edges) if e not in forest], :]


class TestAgainstReference:
    def test_acceptance_round_trip_matrices(self):
        # the 500 matrices of the acceptance suite's round trips, same draws
        rng = np.random.default_rng(109)
        make_random3(rng)
        for _ in range(500):
            m, n = rng.integers(1, 7, size=2)
            assert_same_as_reference(rng.integers(-9, 10, size=(m, n)))

    def test_sparse_and_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (2, 0), (1, 1), (3, 2), (2, 5)]:
            assert_same_as_reference(np.zeros(shape, dtype=int))
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(1, 16, size=2))
            mask = rng.random((m, n)) < 0.15
            A = np.where(mask, rng.choice([-3, -2, -1, 1, 2, 4], size=(m, n)), 0)
            assert_same_as_reference(A)
        big = 10**30
        assert_same_as_reference([[big, 1], [1, big]])
        assert_same_as_reference([[2 * big, 6 * big, 0], [0, 4 * big, 10 * big]])

    def test_cotree_matrices_of_oracle_complexes(self):
        for cx, _ in oracle_complexes():
            assert_same_as_reference(cotree_matrix(cx))

    def test_cotree_matrix_of_12x12_block(self, torus):
        block, _ = build_supercell(*torus, SupercellSpec((12, 12)))
        X = cotree_matrix(block)
        assert X.shape == (145, 144)
        assert assert_same_as_reference(X).invariant_factors() == [1] * 143

    def test_cotree_matrix_of_16x16_block(self, torus):
        block, _ = build_supercell(*torus, SupercellSpec((16, 16)))
        X = cotree_matrix(block)
        assert X.shape == (257, 256)
        assert assert_same_as_reference(X).invariant_factors() == [1] * 255

    def test_cotree_matrices_of_farey_magnetic_supercells(self, torus):
        # the supercells of a butterfly sweep over every p/q with q <= 24
        fluxes = sorted({Fraction(p, q) for q in range(1, 25) for p in range(q + 1)})
        assert len(fluxes) == 181
        for flux in fluxes:
            X = cotree_matrix(magnetic_supercell(*torus, flux).complex2)
            assert X.shape == (flux.denominator + 1, flux.denominator)
            assert_same_as_reference(X)


small_or_huge = st.one_of(st.integers(-4, 4), st.integers(-(10**30), 10**30))


@st.composite
def integer_matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(small_or_huge, min_size=n, max_size=n), min_size=m, max_size=m))
    return np.array(rows, dtype=object).reshape(m, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(integer_matrices())
def test_property_snf_matches_reference_and_contract(A):
    verify_decomposition(A, assert_same_as_reference(A))


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
        assert a.isclose((a * b) * b.inverse(), tol=1e-12)
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


def test_label_snf_sees_distinct_labels_only(torus, monkeypatch):
    # the 12x12 periodic block as its own Z^2 quotient: its labels are the
    # carries of the cell coordinates, and its 145 cotree edges give a
    # 2 x 145 label matrix, above the bound set here
    cx, cov = torus
    block, sc_map = build_supercell(cx, cov, SupercellSpec((12, 12)))
    cells = sc_map.spec.cells()
    tau = CoveringData(2, [(cells[r] + cov.tau[e]) // 12 for r, e in sc_map.edge_origin])
    assert block.num_edges - block.num_vertices + 1 > 100
    monkeypatch.setattr(sys.modules["magbloch.homology"], "MAX_SNF_DIM", 100)
    assert cycle_label_invariants(block, tau) == (2, [1, 1])
    report = validate(block, tau)
    assert report.ok and report.checks["tau_surjective"]


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
    for sizes in [(2, 2), (3, 2), (3, 3)]:
        sc, _ = build_supercell(cx, cov, SupercellSpec(sizes))
        out.append((sc, CoveringData(2, rng.integers(-2, 3, size=(sc.num_edges, 2)))))
    return out


def _angdist(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), TWO_PI)
    return float(np.max(np.minimum(d, TWO_PI - d), initial=0.0))


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

    def test_synthesized_connection_is_canonical(self, cases):
        rng = np.random.default_rng(11)
        for cx, _, s in cases:
            theta = rng.uniform(0.0, TWO_PI, size=cx.num_edges)
            flux = curvature(cx, theta)
            base = synthesize_connection(cx, flux, s)
            assert _angdist(curvature(cx, base), flux) <= 1e-9
            assert np.all(base[spanning_forest(cx)] == 0)
            for g in s.h1_free_generators:
                assert abs(holonomy(cx, base, g)) <= 1e-9
            # base has trivial free holonomy, so theta's class is absolute
            absolute = [holonomy(cx, theta, g) for g in s.h1_free_generators]
            chi = difference_class(cx, s, base, theta)
            assert _angdist(chi.angles, absolute) <= 1e-9

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


def test_homology_and_synthesis_run_one_smith_form(torsion_cx, torus, monkeypatch):
    calls = []

    def counted(A):
        calls.append(np.shape(A))
        return smith_normal_form(A)

    # every module that imported the Smith form counts
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("magbloch") and hasattr(
            mod, "smith_normal_form"
        ):
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    block, _ = build_supercell(*torus, SupercellSpec((4, 4)))
    for cx, flux in [(torsion_cx, [1.0]), (block, np.full(16, TWO_PI / 16))]:
        calls.clear()
        synthesize_connection(cx, flux, homology(cx))
        assert len(calls) == 1


def test_validate_and_homology_share_one_forest(torus, monkeypatch):
    built = []
    real = Complex2.forest.func
    monkeypatch.setattr(Complex2.forest, "func", lambda cx: built.append(cx) or real(cx))
    block, sc_map = build_supercell(*torus, SupercellSpec((4, 4)))
    cells = sc_map.spec.cells()
    tau = CoveringData(2, [(cells[r] + torus[1].tau[e]) // 4 for r, e in sc_map.edge_origin])
    assert validate(block, tau).ok
    homology(block)
    spanning_forest(block)
    assert built == [block]
    order, parent, cotree = block.forest
    assert all(type(part) is tuple for part in block.forest)
    assert sorted(order) == list(range(16)) and parent.count(-1) == 1 and len(cotree) == 17


def queue_forest(num_vertices, ends):
    """The BFS spanning forest from per-vertex adjacency lists and a queue:
    roots in index order, each vertex's edges in index order, a loop listed
    twice."""
    adj = [[] for _ in range(num_vertices)]
    for e, (u, v) in enumerate(ends):
        adj[u].append((v, e))
        adj[v].append((u, e))
    parent, order, seen = [-1] * num_vertices, [], [False] * num_vertices
    for root in range(num_vertices):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        queue = collections.deque([root])
        while queue:
            for v, e in adj[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = e
                    order.append(v)
                    queue.append(v)
    tree = set(parent)
    return tuple(order), tuple(parent), tuple(e for e in range(len(ends)) if e not in tree)


def test_forest_visits_in_queue_order():
    rng = np.random.default_rng(11)
    cases = [cx for cx, _ in oracle_complexes()]
    for _ in range(200):
        # edges among a random subset of the vertices, so some are isolated
        # and the rest may split into several components
        V = int(rng.integers(1, 10))
        used = rng.choice(V, size=int(rng.integers(1, V + 1)), replace=False)
        ends = rng.choice(used, size=(int(rng.integers(0, 12)), 2)).tolist()
        if ends:  # one more loop and one more parallel edge, at random places
            for edge in ([ends[0][0]] * 2, ends[int(rng.integers(len(ends)))]):
                ends.insert(int(rng.integers(len(ends) + 1)), edge)
        cases.append(Complex2(V, [(u, v, 1.0) for u, v in ends]))
    seen = collections.Counter()
    for cx in cases:
        ends = cx.ends.tolist()
        want = queue_forest(cx.num_vertices, ends)
        assert cx.forest == want
        degree = collections.Counter(x for end in ends for x in end)
        seen["isolated"] += any(degree[x] == 0 for x in range(cx.num_vertices))
        seen["components"] += want[1].count(-1) > 1
        seen["loops"] += any(u == v for u, v in ends)
        seen["parallel"] += len(set(map(tuple, ends))) < len(ends)
    assert len(cases) == 353 and min(seen.values()) > 50, seen


def test_face_boundary_not_a_cycle_is_rejected():
    cx = Complex2(2, [(0, 1, 1.0)], [(1,)])
    with pytest.raises(AssertionError, match="not a 1-cycle"):
        homology(cx)


class TestNonIntegerChains:
    """Chains with a non-integer entry are rejected, never truncated."""

    @pytest.fixture
    def loop2(self):
        # two vertices joined both ways: edges 0 -> 1 and 1 -> 0, one loop
        return Complex2(2, [(0, 1, 1.0), (1, 0, 1.0)])

    def test_is_cycle(self, loop2):
        s = homology(loop2)
        with pytest.raises(ValueError, match="integers"):
            s.is_cycle([0.5, 0])
        assert s.is_cycle([1.0, 1.0]) and not s.is_cycle([1.0, 0])

    def test_holonomy(self, loop2):
        with pytest.raises(ValueError, match="integers"):
            holonomy(loop2, [1.0, 2.0], [0.5, 0])
        assert holonomy(loop2, [1.0, 2.0], [1.0, 1.0]) == holonomy(loop2, [1.0, 2.0], [1, 1])

    def test_cycle_coordinates_and_characters(self, loop2):
        s = homology(loop2)
        with pytest.raises(ValueError, match="integers"):
            s.cycle_coordinates([1.5, 1.5])
        chi = Character(np.array([1.0]))
        with pytest.raises(ValueError, match="integers"):
            evaluate_character(chi, s, [1.5, 1.5])
        assert s.cycle_coordinates([2.0, 2.0]) == s.cycle_coordinates([2, 2])
        assert evaluate_character(chi, s, [2.0, 2.0]) == evaluate_character(chi, s, [2, 2])

    @pytest.mark.parametrize("bad", [0.5, np.inf, -np.inf, np.nan])
    def test_vertex_boundary(self, bad):
        with pytest.raises(ValueError, match="integers"):
            vertex_boundary(2, [(0, 1)], [bad])
        assert vertex_boundary(2, [(0, 1)], [3.0]) == [-3, 3]


class TestFloatSmithData:
    """Connections read the summary's float copy of the Smith data of X; the
    values must equal the same formulas on the public Smith form, bitwise."""

    def test_flat_and_connection_values(self):
        rng = np.random.default_rng(3)
        for cx, _ in oracle_complexes():
            s = homology(cx)
            snf = smith_normal_form(cotree_matrix(cx))
            forest = set(spanning_forest(cx))
            cotree = [e for e in range(cx.num_edges) if e not in forest]
            r, d = snf.rank, snf.diagonal

            chi = character_group(s).sample(rng)
            w = np.zeros(len(cotree))
            w[r:] = chi.angles
            for slot, k_i, m_i in zip(
                [i for i in range(r) if d[i] > 1], chi.torsion_indices, s.h1_torsion_orders
            ):
                w[slot] = TWO_PI * (k_i % m_i) / m_i
            want = np.zeros(cx.num_edges)
            want[cotree] = snf.u_inv.astype(float).T @ w
            assert np.array_equal(s.flat_values(chi), want)

            flux = rng.uniform(-TWO_PI, TWO_PI, size=cx.num_faces)
            y = np.divide(snf.v_inv[:, :r].T.astype(float) @ flux, tuple(d[:r]))
            want = np.zeros(cx.num_edges)
            want[cotree] = snf.u_inv[:r].astype(float).T @ y
            assert np.array_equal(s.connection_values(flux), want)


# homology() as it stood while HomologySummary kept the five dense Smith
# matrices of the cotree matrix X, with its formulas for the cycle
# coordinates, flat cocycles and connections; the summary's sparse rows and
# the float matrices filled from them must reproduce it exactly.


class DenseHomology:
    def __init__(self, cx):
        V, E = cx.num_vertices, cx.num_edges
        ends = tuple((u, v) for u, v, _ in cx.edges)
        order, parent, cotree = cx.forest
        snf = smith_normal_form(cotree_matrix(cx))
        r, d = snf.rank, snf.diagonal
        free_slots = tuple(range(r, len(cotree)))
        torsion_slots = tuple(i for i in range(r) if d[i] > 1)

        def chain_for_slot(i):
            chain = np.zeros(E, dtype=object)
            chain[list(cotree)] = snf.U[:, i]
            excess = vertex_boundary(V, ends, chain)
            for x in reversed(order):
                e = parent[x]
                if e >= 0:
                    u, v = ends[e]
                    chain[e] = excess[x] if u == x else -excess[x]
                    excess[u if v == x else v] += excess[x]
            return chain

        self.num_edges, self.cotree = E, cotree
        self.free_slots, self.torsion_slots = free_slots, torsion_slots
        self.torsion_orders = tuple(d[i] for i in torsion_slots)
        self.h1_free_generators = [chain_for_slot(i) for i in free_slots]
        self.h1_torsion_generators = [(chain_for_slot(i), d[i]) for i in torsion_slots]
        self.h2_cycles = [z.copy() for z in snf.kernel_basis().T]
        self.u_inv = snf.u_inv
        self.u_inv_float = snf.u_inv.astype(float)
        self.image_coords_float = snf.v_inv[:, :r].T.astype(float)
        self.image_factors = tuple(d[:r])
        self.h2_dual_rowsum = int(np.max(np.sum(np.abs(snf.V[r:, :]), axis=0), initial=0))

    def cycle_coordinates(self, cycle):
        cyc = np.array([int(v) for v in np.asarray(cycle).tolist()], dtype=object)
        y = self.u_inv @ cyc[list(self.cotree)]
        return y[list(self.free_slots)].tolist(), y[list(self.torsion_slots)].tolist()

    def flat_values(self, chi):
        w = np.zeros(len(self.cotree))
        w[list(self.free_slots)] = chi.angles
        for slot, k_i, m_i in zip(self.torsion_slots, chi.torsion_indices, self.torsion_orders):
            w[slot] = TWO_PI * (k_i % m_i) / m_i
        values = np.zeros(self.num_edges)
        values[list(self.cotree)] = self.u_inv_float.T @ w
        return values

    def connection_values(self, flux):
        s = np.divide(self.image_coords_float @ flux, self.image_factors)
        values = np.zeros(self.num_edges)
        values[list(self.cotree)] = self.u_inv_float[: len(s)].T @ s
        return values


def assert_equals_dense_reference(cx, rng):
    s, ref = homology(cx), DenseHomology(cx)

    def same_chains(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == object and g.shape == w.shape
            assert g.tolist() == w.tolist()
            assert all(type(x) is int for x in g.tolist())

    same_chains(s.h1_free_generators, ref.h1_free_generators)
    same_chains([g for g, _ in s.h1_torsion_generators], [g for g, _ in ref.h1_torsion_generators])
    assert [m for _, m in s.h1_torsion_generators] == [m for _, m in ref.h1_torsion_generators]
    same_chains(s.h2_cycles, ref.h2_cycles)
    assert s.connection_defect_bound(1e-9) == TWO_PI * 1e-9 * ref.h2_dual_rowsum

    _, d2 = boundary_matrices(cx)
    gens = ref.h1_free_generators + [g for g, _ in ref.h1_torsion_generators]
    for _ in range(4):
        cycle = np.zeros(cx.num_edges, dtype=object)
        for g in gens:
            cycle += int(rng.integers(-3, 4)) * g
        if cx.num_faces:
            cycle += (d2 @ rng.integers(-2, 3, size=cx.num_faces)).astype(object)
        assert s.cycle_coordinates(cycle) == ref.cycle_coordinates(cycle)

    chi = character_group(s).sample(rng)
    assert np.array_equal(s.flat_values(chi), ref.flat_values(chi))
    flux = rng.uniform(-TWO_PI, TWO_PI, size=cx.num_faces)
    assert np.array_equal(s.connection_values(flux), ref.connection_values(flux))


class TestSparseSummaryAgainstDenseReference:
    def test_oracle_complexes(self):
        rng = np.random.default_rng(21)
        for cx, _ in oracle_complexes():
            assert_equals_dense_reference(cx, rng)

    def test_periodic_block_and_magnetic_cells(self, torus):
        rng = np.random.default_rng(22)
        assert_equals_dense_reference(build_supercell(*torus, SupercellSpec((6, 5)))[0], rng)
        for flux in ["1/3", "2/7", "5/12"]:
            assert_equals_dense_reference(magnetic_supercell(*torus, flux).complex2, rng)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_random_complexes(self, seed):
        rng = np.random.default_rng(seed)
        assert_equals_dense_reference(random_complex(rng)[0], rng)


class TestPeriodicBlocks:
    def test_32x32_block(self, torus):
        block, _ = build_supercell(*torus, SupercellSpec((32, 32)))
        s = homology(block)
        assert s.betti == (1, 2, 1)
        assert s.torsion == ((), (), ())
        for g in s.h1_free_generators:
            assert s.is_cycle(g)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (12, "ef8cf1310bc79556ffa120df6aa2815f9840fc98ce7d18cbed9b808d0a503679"),
            (24, "c6b95a6652467269c9c8ad75fd2b485a59c07f78156455083b196b5905ddcfb7"),
        ],
    )
    def test_summary_bytes_are_pinned(self, torus, n, digest):
        # digests of the summaries of the object-array routine the sparse one replaced
        block, _ = build_supercell(*torus, SupercellSpec((n, n)))
        text = json.dumps(homology(block).to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_64x64_block_rejected_before_its_cotree_matrix(self, torus):
        # the cotree matrix would be 4097 x 4096 integers, 128 MiB
        block, _ = build_supercell(*torus, SupercellSpec((64, 64)))
        tracemalloc.start()
        try:
            with pytest.raises(
                NumericError, match=r"shape \(4097, 4096\) exceeds the configured bound 4096"
            ):
                homology(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_32x32_homology_builds_no_float_view(self, torus):
        # the summary keeps the Smith record; the dense float views of U'^-1
        # (a 1025 x 1025 float matrix, 8 MiB) and V'^-1 wait for a connection
        block, _ = build_supercell(*torus, SupercellSpec((32, 32)))
        tracemalloc.start()
        try:
            homology(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "n, digest",
        [
            (12, "a40ebbf078ff067701860d196c754fc62bde5100e19740dffe7a5b8571c71e38"),
            (32, "7ca251dcc67078477ca6807bb39c909ea0a51d04918f90a98cb4f97497c4d7bf"),
        ],
    )
    def test_connection_bytes_are_pinned(self, torus, n, digest):
        # digests of the connections of the summary that filled its float
        # views eagerly, inside homology()
        block, _ = build_supercell(*torus, SupercellSpec((n, n)))
        flux = np.random.default_rng(n).uniform(-TWO_PI, TWO_PI, size=block.num_faces)
        flux[-1] -= flux.sum() - 3 * TWO_PI
        theta = synthesize_connection(block, flux, homology(block))
        assert hashlib.sha256(theta.tobytes()).hexdigest() == digest


# The per-edge and per-step loops that built d1 and d2, and the per-face
# boundary check homology() ran, before both moved to arrays.


def loop_boundary_matrices(cx):
    V, E, F = cx.num_vertices, cx.num_edges, cx.num_faces
    d1 = np.zeros((V, E), dtype=int)
    for e, (u, v, _) in enumerate(cx.edges):
        d1[v, e] += 1
        d1[u, e] -= 1
    d2 = np.zeros((E, F), dtype=int)
    for f, word in enumerate(cx.faces):
        for e, sign in face_steps(word):
            d2[e, f] += sign
    return d1, d2


def loop_faces_are_cycles(cx) -> bool:
    ends = [(u, v) for u, v, _ in cx.edges]
    for word in cx.faces:
        steps = face_steps(word)
        signs = [s for _, s in steps]
        if any(vertex_boundary(cx.num_vertices, [ends[e] for e, _ in steps], signs)):
            return False
    return True


class TestBoundaryMatrices:
    def cases(self, torus):
        out = [cx for cx, _ in oracle_complexes()]
        for sizes in [(1, 1), (2, 3), (12, 12)]:
            out.append(build_supercell(*torus, SupercellSpec(sizes))[0])
        return out

    def test_match_loops(self, torus):
        for cx in self.cases(torus):
            for got, want in zip(boundary_matrices(cx), loop_boundary_matrices(cx)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_face_check_matches_loop(self, torus):
        # drop one step from a face: sometimes the word still closes (a loop
        # edge), mostly it does not; homology() must agree with the loop
        rejected = 0
        for cx in self.cases(torus):
            assert loop_faces_are_cycles(cx)
            if not cx.faces:
                continue
            f = len(cx.faces) // 2
            faces = list(cx.faces)
            faces[f] = faces[f][:-1]
            bad = Complex2(cx.num_vertices, cx.edges, faces)
            if loop_faces_are_cycles(bad):
                homology(bad)
            else:
                rejected += 1
                message = "^face boundary is not a 1-cycle; complex is invalid$"
                with pytest.raises(AssertionError, match=message):
                    homology(bad)
        assert rejected >= 20


class TestPushDownAlongTheCover:
    """For a valid cover (tau onto Z^d), the N-periodic supercell M_N pushes
    its first homology down to a subgroup of H1(M) with quotient Z^d / N:
    the holonomy classes that die on M_N are the momentum characters of the
    sampled grid.  Checked exactly, through the Smith form of the pushed
    generators together with H1(M)'s torsion relations."""

    @staticmethod
    def quotient_factors(cx, cov, sizes):
        """Non-unit invariant factors and free rank of H1(M) / p_* H1(M_N)."""
        sc, sc_map = build_supercell(cx, cov, SupercellSpec(sizes))
        up = homology(sc)
        down = homology(cx)
        chains = list(up.h1_free_generators) + [g for g, _ in up.h1_torsion_generators]
        columns = []
        for chain in chains:
            pushed = [0] * cx.num_edges
            for (_, e), c in zip(sc_map.edge_origin, chain.tolist()):
                pushed[e] += int(c)
            free, tors = down.cycle_coordinates(pushed)
            columns.append(free + tors)
        b1, orders = down.betti[1], down.h1_torsion_orders
        for i, t in enumerate(orders):
            columns.append([t if j == b1 + i else 0 for j in range(b1 + len(orders))])
        A = np.array(columns, dtype=object).T
        snf = smith_normal_form(A)
        return [d for d in snf.invariant_factors() if d != 1], A.shape[0] - snf.rank

    @pytest.mark.parametrize(
        "sizes, expect",
        [((3, 4), [12]), ((4, 4), [4, 4]), ((6, 5), [30]), ((1, 1), []), ((2, 1), [2])],
    )
    def test_quotient_is_the_momentum_grid(self, torus, sizes, expect):
        grid = smith_normal_form(np.diag(sizes).astype(object)).invariant_factors()
        assert [d for d in grid if d != 1] == expect
        tri, tri_cov, _ = make_random3(np.random.default_rng(60))
        for cx, cov in [torus, (tri, tri_cov)]:
            assert validate(cx, cov).ok
            assert self.quotient_factors(cx, cov, sizes) == (expect, 0)

    def test_a_cover_with_tau_not_onto_fails_the_identity(self, torus):
        # tau = diag(2, 1) misses Z^2: M_N has two components and the
        # quotient has order 16 / 2, not Z/4 + Z/4
        cx, _ = torus
        cov = CoveringData(2, [[2, 0], [0, 1]])
        assert not validate(cx, cov).ok
        assert self.quotient_factors(cx, cov, (4, 4)) == ([2, 4], 0)
