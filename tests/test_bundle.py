import numpy as np
import pytest

from magbloch import (
    Character,
    Complex2,
    HomologySummary,
    NotQuantizableError,
    NumericError,
    SupercellSpec,
    build_supercell,
    character_group,
    curvature,
    difference_class,
    gauge_transform,
    holonomy,
    homology,
    is_quantizable,
    synthesize_connection,
    twist,
)
from magbloch.bundle import _curvatures, wrap_angle
from magbloch.complexes import face_steps
from magbloch.homology import TWO_PI, spanning_forest

from conftest import make_random3


def angdist(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), TWO_PI)
    return np.max(np.minimum(d, TWO_PI - d)) if np.size(d) else 0.0


class TestCurvature:
    def test_zero_connection(self, torus, square_disk):
        for cx in [torus[0], square_disk]:
            assert np.all(curvature(cx, np.zeros(cx.num_edges)) == 0)

    def test_commutator_word_cancels(self, torus):
        cx, _ = torus
        assert curvature(cx, [1.3, 0.4]) == pytest.approx([0.0], abs=1e-12)

    def test_square_face_direct_sum(self, square_disk):
        assert curvature(square_disk, [0.5, 0.5, 0.0, 0.0]) == pytest.approx([1.0])

    def test_range(self, torsion_cx):
        # face word a a doubles the angle; 2*2.0 = 4.0 wraps into (-pi, pi]
        out = curvature(torsion_cx, [2.0])
        assert out[0] == pytest.approx(4.0 - TWO_PI)
        assert -np.pi < out[0] <= np.pi

    def test_matches_face_loop_bit_for_bit(self, torus):
        # the per-face loop the vectorized sum replaces: one reduction per step
        def reference(cx, theta):
            out = np.zeros(cx.num_faces)
            for f, word in enumerate(cx.faces):
                total = 0.0
                for e, sign in face_steps(word):
                    total = np.mod(total + sign * theta[e], TWO_PI)
                out[f] = wrap_angle(total)
            return out

        sc, _ = build_supercell(*torus, SupercellSpec((5, 4)))
        mixed = Complex2(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0)], [(1, 2), (3,), (), (1, 3, 2, -3, 3)])
        rng = np.random.default_rng(50)
        for cx in (sc, mixed):
            for scale in (1e-9, 1.0, 1e3):
                theta = scale * rng.uniform(-20, 20, size=cx.num_edges)
                assert curvature(cx, theta).tobytes() == reference(cx, theta).tobytes()
            # a stack of connections (difference_class's pair) row by row
            thetas = rng.uniform(-20, 20, size=(2, cx.num_edges))
            stacked = [row.tobytes() for row in _curvatures(cx, thetas)]
            assert stacked == [reference(cx, theta).tobytes() for theta in thetas]
        with pytest.raises(ValueError, match="0 is not a valid step"):
            curvature(Complex2(1, [(0, 0, 1.0)], [(1, 0)]), [0.5])


class TestQuantizability:
    def test_torus_integral_flux(self, torus):
        cx, _ = torus
        s = homology(cx)
        cert = is_quantizable(cx, [TWO_PI], s)
        assert cert.verdict and cert.pairings == (1.0,) and cert.residues == (0.0,)

    def test_torus_half_quantum(self, torus):
        cx, _ = torus
        cert = is_quantizable(cx, [np.pi])
        assert not cert.verdict
        assert cert.residues == (0.5,)

    def test_torsion_complex_any_flux(self, torsion_cx):
        s = homology(torsion_cx)
        cert = is_quantizable(torsion_cx, [1.2345], s)
        assert cert.verdict and cert.pairings == ()

    def test_no_faces_always_quantizable(self, wedge3):
        assert is_quantizable(wedge3, []).verdict

    def test_invariant_under_2pi_shift(self, torus):
        cx, _ = torus
        s = homology(cx)
        rng = np.random.default_rng(2)
        for _ in range(10):
            flux = rng.uniform(-5, 5, size=1)
            base = is_quantizable(cx, flux, s)
            shifted = is_quantizable(cx, flux + TWO_PI, s)
            assert base.verdict == shifted.verdict
            assert shifted.pairings[0] - base.pairings[0] == pytest.approx(1.0)


class TestSynthesize:
    def test_zero_flux_gives_zero_connection(self, torus):
        cx, _ = torus
        theta = synthesize_connection(cx, np.zeros(1))
        assert np.all(theta == 0)

    def test_torus_roundtrip(self, torus):
        cx, _ = torus
        s = homology(cx)
        theta = synthesize_connection(cx, np.array([TWO_PI]), s)
        assert angdist(curvature(cx, theta), [TWO_PI]) <= 1e-9

    def test_supercell_quarter_fluxes(self, torus):
        cx, cov = torus
        sc, _ = build_supercell(cx, cov, SupercellSpec((2, 2)))
        flux = np.full(4, np.pi / 2)  # total 2 pi
        s = homology(sc)
        assert is_quantizable(sc, flux, s).verdict
        theta = synthesize_connection(sc, flux, s)
        assert angdist(curvature(sc, theta), flux) <= 1e-9

    def test_tree_gauge(self, square_disk):
        s = homology(square_disk)
        theta = synthesize_connection(square_disk, np.array([1.0]), s)
        tree = spanning_forest(square_disk)
        assert len(tree) == 3
        assert np.all(theta[tree] == 0)
        assert angdist(curvature(square_disk, theta), [1.0]) <= 1e-9

    def test_rejects_nonquantizable(self, torus):
        cx, _ = torus
        with pytest.raises(NotQuantizableError):
            synthesize_connection(cx, np.array([np.pi]))

    def test_flux_within_certificate_synthesizes(self, torus):
        # the certificate counts quanta: a residue of 5e-10 passes tol 1e-9,
        # and the face then misses the flux by 2 pi * 5e-10 radians
        cx, _ = torus
        s = homology(cx)
        for excess in (5e-10, 3e-10):
            flux = np.array([TWO_PI * (1 + excess)])
            assert is_quantizable(cx, flux, s).verdict
            theta = synthesize_connection(cx, flux, s)
            assert angdist(curvature(cx, theta), flux) <= TWO_PI * 1e-9

    def test_curvature_miss_raises_numeric_error(self, square_disk, monkeypatch):
        monkeypatch.setattr(
            HomologySummary, "connection_values", lambda self, flux: np.zeros(self.num_edges)
        )
        with pytest.raises(NumericError, match="misses the flux"):
            synthesize_connection(square_disk, np.array([1.0]))

    def test_random3_roundtrip(self):
        rng = np.random.default_rng(21)
        cx, cov, flux = make_random3(rng)
        s = homology(cx)
        theta = synthesize_connection(cx, flux, s)
        assert angdist(curvature(cx, theta), flux) <= 1e-9


class TestGauge:
    def test_identity(self, torus):
        cx, _ = torus
        theta = np.array([0.3, 1.1])
        assert np.all(gauge_transform(cx, theta, np.zeros(1)) == theta)

    def test_edge_rule_on_path(self, path2):
        theta = gauge_transform(path2, [0.25], [0.0, 0.5])
        assert theta[0] == pytest.approx(0.25 + 0.5 - 0.0)

    def test_curvature_invariance(self, torus, square_disk):
        rng = np.random.default_rng(4)
        for cx in [torus[0], square_disk]:
            theta = rng.uniform(0, TWO_PI, size=cx.num_edges)
            for _ in range(10):
                g = rng.normal(size=cx.num_vertices)
                new = gauge_transform(cx, theta, g)
                assert angdist(curvature(cx, new), curvature(cx, theta)) <= 1e-12

    def test_holonomy_invariance(self, torus):
        cx, _ = torus
        rng = np.random.default_rng(8)
        theta = rng.uniform(0, TWO_PI, size=2)
        g = rng.normal(size=1)
        for cycle in [[1, 0], [0, 1], [2, -3]]:
            h0 = holonomy(cx, theta, cycle)
            h1 = holonomy(cx, gauge_transform(cx, theta, g), cycle)
            assert angdist([h0], [h1]) <= 1e-12


class TestHolonomy:
    def test_zero_connection(self, torus):
        cx, _ = torus
        for cycle in [[1, 0], [0, 1], [5, 7]]:
            assert holonomy(cx, np.zeros(cx.num_edges), cycle) == 0.0

    def test_direct_value(self, torus):
        cx, _ = torus
        assert holonomy(cx, [1.0, 0.0], [1, 0]) == pytest.approx(1.0)

    def test_additivity(self, torus):
        cx, _ = torus
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, TWO_PI, size=2)
        ha = holonomy(cx, theta, [1, 0])
        hb = holonomy(cx, theta, [0, 1])
        hab = holonomy(cx, theta, [1, 1])
        assert angdist([hab], [ha + hb]) <= 1e-12

    def test_rejects_non_cycle(self, path2):
        with pytest.raises(ValueError, match="not a cycle"):
            holonomy(path2, [0.1], [1])


class TestDifferenceClass:
    def test_gauge_is_trivial(self, torus):
        cx, _ = torus
        s = homology(cx)
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, TWO_PI, size=2)
        other = gauge_transform(cx, theta, rng.normal(size=1))
        chi = difference_class(cx, s, theta, other)
        assert chi.isclose(Character.trivial(2), tol=1e-9)

    def test_equal_connections_trivial(self, torus):
        cx, _ = torus
        s = homology(cx)
        theta = np.array([0.7, 2.2])
        assert difference_class(cx, s, theta, theta).isclose(Character.trivial(2))

    def test_curvature_mismatch_raises(self, torus):
        cx, _ = torus
        s = homology(torus[0])
        disk = Complex2(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)], [(1, 2, 3, 4)])
        sd = homology(disk)
        with pytest.raises(ValueError, match="curvature mismatch"):
            difference_class(disk, sd, np.zeros(4), np.array([0.5, 0.0, 0.0, 0.0]))

    def test_twist_roundtrip_torus(self, torus):
        cx, _ = torus
        s = homology(cx)
        group = character_group(s)
        rng = np.random.default_rng(12)
        theta = rng.uniform(0, TWO_PI, size=2)
        for _ in range(20):
            chi = group.sample(rng)
            chi2 = difference_class(cx, s, theta, twist(cx, s, theta, chi))
            assert chi2.isclose(chi, tol=1e-9)

    def test_twist_roundtrip_torsion(self, torsion_cx):
        s = homology(torsion_cx)
        theta = np.array([0.4])
        for chi in character_group(s).enumerate_torsion():
            chi2 = difference_class(torsion_cx, s, theta, twist(torsion_cx, s, theta, chi))
            assert chi2.torsion_indices == chi.torsion_indices

    def test_cocycle_relation(self, torus):
        cx, _ = torus
        s = homology(cx)
        rng = np.random.default_rng(17)
        c1 = rng.uniform(0, TWO_PI, size=2)
        group = character_group(s)
        c2 = twist(cx, s, c1, group.sample(rng))
        c3 = twist(cx, s, c2, group.sample(rng))
        lhs = difference_class(cx, s, c1, c3)
        rhs = difference_class(cx, s, c1, c2) * difference_class(cx, s, c2, c3)
        assert lhs.isclose(rhs.reduce_torsion(s.h1_torsion_orders), tol=1e-9)


class TestFlatCocycleAndTwist:
    def test_trivial_character_is_identity(self, torus):
        cx, _ = torus
        s = homology(cx)
        theta = np.array([1.0, 2.0])
        assert np.allclose(twist(cx, s, theta, Character.trivial(2)), theta)

    def test_torus_shifts_one_holonomy(self, torus):
        cx, _ = torus
        s = homology(cx)
        theta = np.array([0.3, 0.8])
        chi = Character(np.array([np.pi, 0.0]))
        new = twist(cx, s, theta, chi)
        # generators are a and b in some stored order; match shifts to labels
        shifts = {
            tuple(int(x) for x in g): angdist(
                [holonomy(cx, new, g)], [holonomy(cx, theta, g) + ang]
            )
            for g, ang in zip(s.h1_free_generators, chi.angles)
        }
        assert all(v <= 1e-9 for v in shifts.values())
        unchanged = [g for g in s.h1_free_generators if tuple(int(x) for x in g) == (0, 1)]
        assert angdist([holonomy(cx, new, unchanged[0])], [holonomy(cx, theta, unchanged[0])]) <= 1e-9

    def test_torsion_cocycle_value(self, torsion_cx):
        s = homology(torsion_cx)
        lam = s.flat_values(Character(np.zeros(0), (1,)))
        assert lam[0] == pytest.approx(np.pi)
        assert np.max(np.abs(curvature(torsion_cx, lam))) <= 1e-9

    def test_cocycle_vanishes_on_forest(self, square_disk):
        # disk: b1 = 0, so only the trivial character exists
        s = homology(square_disk)
        lam = s.flat_values(Character.trivial(0))
        tree = spanning_forest(square_disk)
        assert np.all(lam[tree] == 0)

    def test_curvature_preserved(self, torus):
        cx, _ = torus
        s = homology(cx)
        rng = np.random.default_rng(19)
        theta = rng.uniform(0, TWO_PI, size=2)
        chi = character_group(s).sample(rng)
        new = twist(cx, s, theta, chi)
        assert angdist(curvature(cx, new), curvature(cx, theta)) <= 1e-9

    def test_connection_stored_range(self, torus):
        cx, _ = torus
        s = homology(cx)
        theta = synthesize_connection(cx, np.array([TWO_PI]), s)
        assert np.all((0 <= theta) & (theta < TWO_PI))
        new = twist(cx, s, theta, Character(np.array([5.0, 1.0])))
        assert np.all((0 <= new) & (new < TWO_PI))


def test_wrap_angle_range():
    xs = np.array([-np.pi, np.pi, 3 * np.pi, -0.5, 7.0])
    ys = wrap_angle(xs)
    assert np.all((-np.pi < ys) & (ys <= np.pi))
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
