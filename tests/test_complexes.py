import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbloch import (
    Complex2,
    CoveringData,
    SupercellSpec,
    boundary_matrices,
    build_supercell,
    homology,
    validate,
)
from magbloch.complexes import (
    SupercellMap,
    ValidationIssue,
    ValidationReport,
    face_arrays,
    face_steps,
)

from conftest import cell_rank, make_random3


def reorient_edges(complex2, edges_to_flip, covering):
    """Reverse the orientation of the given edges consistently: face words
    flip the sign of every reference to a flipped edge, and covering labels
    negate."""
    flip = set(edges_to_flip)
    edges = [((v, u, w) if e in flip else (u, v, w)) for e, (u, v, w) in enumerate(complex2.edges)]
    faces = [tuple(-s if abs(s) - 1 in flip else s for s in word) for word in complex2.faces]
    tau = covering.tau.copy()
    tau[list(flip)] *= -1
    cx = Complex2(complex2.num_vertices, edges, faces, complex2.potentials)
    return cx, CoveringData(covering.rank, tau)


def test_face_steps_decoding():
    assert face_steps((1, -2, 3)) == [(0, 1), (1, -1), (2, 1)]
    with pytest.raises(ValueError):
        face_steps((1, 0))


def test_face_arrays_pad_mixed_lengths():
    edge, sign, length = face_arrays([(1, -2, 3), (), (-4,)])
    assert edge.tolist() == [[0, 1, 2], [-1, -1, -1], [3, -1, -1]]
    assert sign.tolist() == [[1, -1, 1], [0, 0, 0], [-1, 0, 0]]
    assert length.tolist() == [3, 0, 1]
    assert [a.shape for a in face_arrays([])] == [(0, 0), (0, 0), (0,)]
    with pytest.raises(ValueError, match="0 is not a valid step"):
        face_arrays([(1,), (2, 0)])


class TestValidate:
    def test_torus_passes(self, torus):
        cx, cov = torus
        report = validate(cx, cov)
        assert report.ok
        assert report.issues == []

    def test_rank_deficient_tau_fails_surjectivity(self, torus):
        cx, _ = torus
        cov = CoveringData(2, [[1, 0], [1, 0]])
        report = validate(cx, cov)
        assert not report.checks["tau_surjective"]
        assert all(v for k, v in report.checks.items() if k != "tau_surjective")

    def test_index_two_sublattice_fails_surjectivity(self, chain):
        cx, _ = chain
        report = validate(cx, CoveringData(1, [[2]]))
        assert not report.checks["tau_surjective"]

    def test_open_walk_reported_with_step(self):
        # a: 0->1, b: 0->1; step 1 (b) does not start where a ended
        cx = Complex2(2, [(0, 1, 1.0), (0, 1, 1.0)], [(1, 2)])
        report = validate(cx)
        assert not report.checks["faces_closed"]
        issue = [i for i in report.issues if i.check == "faces_closed"][0]
        assert "not a closed walk at step 1" in issue.detail
        assert issue.where == (0, 1)

    def test_face_tau_mismatch(self, torus):
        cx, _ = torus
        cov = CoveringData(2, [[1, 0], [0, 1]])
        bad = Complex2(1, cx.edges, [(1, 2)], cx.potentials)  # a then b, open shift
        report = validate(bad, cov)
        assert not report.checks["face_tau_zero"]

    def test_bad_weight_and_potential(self):
        cx = Complex2(1, [(0, 0, -1.0)], potentials=[np.inf])
        report = validate(cx)
        assert not report.checks["edge_weights_positive"]
        assert not report.checks["potentials_finite"]

    def test_bad_edge_endpoint(self):
        cx = Complex2(1, [(0, 3, 1.0)])
        report = validate(cx)
        assert not report.checks["edge_endpoints"]

    def test_missing_face_edge_reference(self):
        cx = Complex2(1, [(0, 0, 1.0)], [(2,)])
        report = validate(cx)
        assert not report.checks["face_edge_refs"]

    @pytest.mark.parametrize(
        "faces,detail",
        [([()], "face 0 has empty boundary word"), ([(1, 0, -1)], "face 0 contains a zero step")],
    )
    def test_malformed_face_word(self, faces, detail):
        report = validate(Complex2(1, [(0, 0, 1.0)], faces), CoveringData(1, [[1]]))
        assert not report.ok and [i.check for i in report.issues] == ["face_edge_refs"]
        assert report.issues[0].detail == detail and report.issues[0].where == (0,)

    def test_wrong_potential_count(self):
        report = validate(Complex2(2, [(0, 1, 1.0)], potentials=[0.0]))
        assert [(i.check, i.detail) for i in report.issues] == [
            ("potentials_finite", "expected 2 potentials, got 1")
        ]

    def test_wrong_tau_count(self, torus):
        cx, _ = torus
        report = validate(cx, CoveringData(2, [[1, 0]]))
        assert [(i.check, i.detail) for i in report.issues] == [
            ("tau_shape", "expected 2 tau labels, got 1")
        ]
        assert "face_tau_zero" not in report.checks

    def test_invariant_under_reorientation(self, torus):
        cx, cov = torus
        rng = np.random.default_rng(7)
        for _ in range(5):
            flips = [e for e in range(cx.num_edges) if rng.integers(2)]
            cx2, cov2 = reorient_edges(cx, flips, cov)
            assert validate(cx2, cov2).ok


def test_cached_arrays_are_read_only_and_match_the_cells():
    cx, _, _ = make_random3(np.random.default_rng(8))
    for c in [cx, Complex2(0, []), Complex2(2, [(0, 1, 0.5)], [(1, -1), ()])]:
        ends = np.array([(u, v) for u, v, _ in c.edges], dtype=int).reshape(-1, 2)
        want = {
            "ends": ends,
            "sources": ends[:, 0],
            "targets": ends[:, 1],
            "weights": np.array([w for _, _, w in c.edges], dtype=float),
        }
        for name, value in want.items():
            got = getattr(c, name)
            assert got is getattr(c, name)  # built once
            assert got.dtype == value.dtype and np.array_equal(got, value)
            assert not got.flags.writeable
        assert c.face_words is c.face_words
        for got, value in zip(c.face_words, face_arrays(c.faces)):
            assert got.dtype == value.dtype and np.array_equal(got, value)
            assert not got.flags.writeable


def loop_validate(complex2, covering=None):
    """validate() as it stood with per-edge and per-face loops."""
    checks, issues = {}, []

    def fail(check, detail, where=()):
        checks[check] = False
        issues.append(ValidationIssue(check, detail, where))

    V, E = complex2.num_vertices, complex2.num_edges
    checks["edge_endpoints"] = True
    for e, (u, v, _) in enumerate(complex2.edges):
        if not (0 <= u < V and 0 <= v < V):
            fail("edge_endpoints", f"edge {e} has endpoint outside 0..{V - 1}", (e,))
    checks["edge_weights_positive"] = True
    for e, (_, _, w) in enumerate(complex2.edges):
        if not (np.isfinite(w) and w > 0):
            fail("edge_weights_positive", f"edge {e} has weight {w}", (e,))
    checks["potentials_finite"] = True
    if len(complex2.potentials) != V:
        fail("potentials_finite", f"expected {V} potentials, got {len(complex2.potentials)}")
    elif not np.all(np.isfinite(complex2.potentials)):
        bad = tuple(np.flatnonzero(~np.isfinite(complex2.potentials)))
        fail("potentials_finite", "non-finite potential values", bad)
    checks["face_edge_refs"] = True
    checks["faces_closed"] = True
    tau = covering.tau if covering is not None and covering.tau.shape[0] == E else None
    shifts = []
    for f, word in enumerate(complex2.faces):
        if len(word) == 0:
            fail("face_edge_refs", f"face {f} has empty boundary word", (f,))
            continue
        try:
            steps = face_steps(word)
        except ValueError:
            fail("face_edge_refs", f"face {f} contains a zero step", (f,))
            continue
        if any(not (0 <= e < E) for e, _ in steps):
            bad = tuple(i for i, (e, _) in enumerate(steps) if not (0 <= e < E))
            fail("face_edge_refs", f"face {f} references missing edges", (f,) + bad)
            continue
        if tau is not None:
            edges, signs = np.array(steps).T
            shifts.append(signs @ tau[edges])
        if not checks["edge_endpoints"]:
            continue
        ends = []
        for e, sign in steps:
            u, v, _ = complex2.edges[e]
            ends.append((u, v) if sign > 0 else (v, u))
        for i in range(len(ends)):
            j = (i + 1) % len(ends)
            if ends[i][1] != ends[j][0]:
                fail("faces_closed", f"face {f}: not a closed walk at step {j}", (f, j))
                break
    if covering is not None:
        checks["tau_shape"] = True
        if covering.tau.shape[0] != E:
            fail("tau_shape", f"expected {E} tau labels, got {covering.tau.shape[0]}")
        else:
            checks["face_tau_zero"] = True
            if checks["face_edge_refs"]:
                for f, shift in enumerate(shifts):
                    if np.any(shift != 0):
                        fail("face_tau_zero", f"face {f} lifts to shift {shift.tolist()}", (f,))
            checks["tau_surjective"] = True
            if checks["edge_endpoints"] and covering.rank > 0:
                from magbloch.homology import cycle_label_invariants

                rank, factors = cycle_label_invariants(complex2, covering)
                if rank < covering.rank:
                    fail("tau_surjective", f"cycle labels span rank {rank} < d={covering.rank}")
                elif any(f != 1 for f in factors):
                    fail(
                        "tau_surjective",
                        f"cycle labels generate a proper sublattice (factors {factors})",
                    )
    return ValidationReport(checks, issues)


def malformed_complex(rng):
    """A small complex and covering, each part malformed now and then."""
    V = int(rng.integers(0, 4))
    E = int(rng.integers(0, 5))
    weights = [1.0, 2.5, 0.0, -1.0, np.inf, np.nan]
    edges = [
        (int(rng.integers(-1, V + 1)), int(rng.integers(-1, V + 1)),
         weights[int(rng.choice(6, p=[0.5, 0.3, 0.05, 0.05, 0.05, 0.05]))])
        for _ in range(E)
    ]
    if rng.random() < 0.3 and V:
        # endpoints in range so that the walks are checked
        edges = [(int(rng.integers(V)), int(rng.integers(V)), w) for _, _, w in edges]
    faces = []
    for _ in range(int(rng.integers(0, 4))):
        word = [int(rng.integers(-E - 1, E + 2)) for _ in range(int(rng.integers(0, 5)))]
        if rng.random() < 0.7:
            word = [s for s in word if s and abs(s) <= E]
        if rng.random() < 0.05:
            word.append(10**30)
        faces.append(tuple(word))
    if rng.random() < 0.3 and E:
        # a closed walk: a loop traversed out and back
        e = int(rng.integers(E)) + 1
        faces.append((e, -e))
    potentials = None
    if rng.random() < 0.2:
        potentials = rng.choice([0.0, 1.0, np.nan], size=int(rng.integers(0, V + 2)))
    cx = Complex2(V, edges, faces, potentials)
    if rng.random() < 0.3:
        return cx, None
    rank = int(rng.integers(0, 3))
    rows = E + int(rng.choice([0, 0, 0, -1, 1])) if E else E
    return cx, CoveringData(rank, rng.integers(-1, 2, size=(max(rows, 0), rank)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_validate_matches_the_loop_reference(seed):
    cx, cov = malformed_complex(np.random.default_rng(seed))
    got, want = validate(cx, cov), loop_validate(cx, cov)
    assert list(got.checks.items()) == list(want.checks.items())
    assert got.issues == want.issues
    assert [[type(x) for x in i.where] for i in got.issues] == [
        [type(x) for x in i.where] for i in want.issues
    ]


def test_validate_reports_each_face_in_order():
    # face 0 is open, face 1 references a missing edge, face 2 holds a zero
    # step and face 3 is empty: one issue each, in face order
    cx = Complex2(2, [(0, 1, 1.0), (1, 0, 1.0)], [(1,), (1, 3, 2), (1, 0), ()])
    report = validate(cx)
    assert [(i.check, i.where) for i in report.issues] == [
        ("faces_closed", (0, 0)),
        ("face_edge_refs", (1, 1)),
        ("face_edge_refs", (2,)),
        ("face_edge_refs", (3,)),
    ]
    assert report.issues == loop_validate(cx).issues


class TestBoundaryMatrices:
    def test_torus_both_zero(self, torus):
        cx, _ = torus
        d1, d2 = boundary_matrices(cx)
        assert d1.shape == (1, 2) and np.all(d1 == 0)
        assert d2.shape == (2, 1) and np.all(d2 == 0)

    def test_doubled_face_word(self, torsion_cx):
        d1, d2 = boundary_matrices(torsion_cx)
        assert np.array_equal(d1, [[0]])
        assert np.array_equal(d2, [[2]])

    def test_single_edge_column(self, path2):
        d1, d2 = boundary_matrices(path2)
        assert np.array_equal(d1, [[-1], [1]])
        assert d2.shape == (1, 0)

    def test_d1_d2_is_zero(self, torus, torsion_cx, square_disk):
        rng = np.random.default_rng(3)
        complexes = [torus[0], torsion_cx, square_disk, make_random3(rng)[0]]
        for cx in complexes:
            d1, d2 = boundary_matrices(cx)
            assert np.all(d1 @ d2 == 0)


class TestBuildSupercell:
    def test_chain_two_periodic(self, chain):
        cx, cov = chain
        sc, sc_map = build_supercell(cx, cov, SupercellSpec((2,)))
        assert sc.num_vertices == 2
        assert sc.num_edges == 2
        # the two copies form a 2-cycle
        assert sorted((u, v) for u, v, _ in sc.edges) == [(0, 1), (1, 0)]
        assert sc_map.num_vertices == 2

    def test_torus_2x2_counts(self, torus):
        cx, cov = torus
        sc, _ = build_supercell(cx, cov, SupercellSpec((2, 2)))
        assert (sc.num_vertices, sc.num_edges, sc.num_faces) == (4, 8, 4)
        assert validate(sc).ok

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_periodic_euler_scaling(self, seed):
        # every face and edge has one copy per cell: chi(M_N) = |G| chi(M)
        cx, cov, sizes = random_cover(np.random.default_rng(seed))
        sc, sc_map = build_supercell(cx, cov, SupercellSpec(sizes))
        cells = int(np.prod(sizes))
        assert (sc.num_vertices, sc.num_edges, sc.num_faces) == (
            cells * cx.num_vertices, cells * cx.num_edges, cells * cx.num_faces
        )
        assert sc.euler_characteristic() == cells * cx.euler_characteristic()
        assert validate(sc).ok
        # edge j is the copy of base edge j mod E in the cell of rank j // E
        cell_major = [(r, e) for r in range(cells) for e in range(cx.num_edges)]
        assert sc_map.edge_origin.tolist() == [list(o) for o in cell_major]
        assert not sc_map.edge_origin.flags.writeable

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_random3_supercell_valid(self, seed):
        # the supercell is a quotient of the same cover: with the carry
        # labels it validates, and it is connected, whenever the base does
        rng = np.random.default_rng(seed)
        bases = [random_cover(rng), make_random3(rng)[:2] + ((2, 2),)]
        for cx, cov, sizes in bases:
            spec = SupercellSpec(sizes)
            sc, sc_map = build_supercell(cx, cov, spec)
            r, e = sc_map.edge_origin.T
            carry = CoveringData(cov.rank, (spec.cells()[r] + cov.tau[e]) // np.array(sizes))
            assert sc.euler_characteristic() == spec.num_cells * cx.euler_characteristic()
            if validate(cx, cov).ok:
                assert validate(sc, carry).ok
                assert homology(sc).betti[0] == 1

    def test_weights_and_potentials_copied(self, chain):
        cx, cov = chain
        cx = Complex2(1, [(0, 0, 2.5)], potentials=[0.75])
        sc, _ = build_supercell(cx, cov, SupercellSpec((3,)))
        assert all(w == 2.5 for _, _, w in sc.edges)
        assert np.all(sc.potentials == 0.75)

    def test_rejects_bad_sizes(self, chain):
        cx, cov = chain
        with pytest.raises(ValueError):
            build_supercell(cx, cov, SupercellSpec((0,)))
        with pytest.raises(ValueError):
            build_supercell(cx, cov, SupercellSpec((2, 2)))

    @pytest.mark.parametrize("sizes", [(2.7, 3), ("3",), (True, 2), (2, np.True_), (2.0,)])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match=r"^sizes must be integers, got "):
            SupercellSpec(sizes)

    def test_numpy_integer_sizes(self):
        spec = SupercellSpec((np.int64(2), np.int32(3)))
        assert spec.sizes == (2, 3) and all(type(n) is int for n in spec.sizes)

    def test_cell_count_is_exact(self):
        assert SupercellSpec((2**32, 2**32)).num_cells == 2**64
        assert SupercellSpec(()).num_cells == 1


def reference_build_supercell(complex2, covering, spec):
    """The per-cell, per-edge, per-face-step loop that build_supercell replaces."""
    V = complex2.num_vertices
    cells = spec.cells()
    edges, edge_index = [], {}
    for r in range(len(cells)):
        for e, (u, v, w) in enumerate(complex2.edges):
            edge_index[(r, e)] = len(edges)
            edges.append((r * V + u, cell_rank(spec.sizes, cells[r] + covering.tau[e]) * V + v, w))
    faces = []
    for r in range(len(cells)):
        for word in complex2.faces:
            new_word, cur = [], cells[r].copy()
            for e, sign in face_steps(word):
                based = cur if sign > 0 else cur - covering.tau[e]
                new_word.append(sign * (edge_index[(cell_rank(spec.sizes, based), e)] + 1))
                cur = cur + sign * covering.tau[e]
            faces.append(tuple(new_word))
    sc = Complex2(len(cells) * V, edges, faces, np.tile(complex2.potentials, len(cells)))
    return sc, SupercellMap(spec, V, complex2.num_edges)


def random_cover(rng):
    """A random connected base with Z^d labels whose faces lift to closed loops.

    A random spanning tree plus extra edges (loops and parallel edges
    allowed), labels in -2..2, and faces that are commutators of closed
    walks at vertex 0, so every face word closes and its labels sum to 0.
    The labels need not span Z^d, so the cover may be disconnected.  Returns
    the complex, its covering and supercell sizes of 1..3 per axis.
    """
    V, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    ends = [(int(rng.integers(v)), v)[:: int(rng.choice([-1, 1]))] for v in range(1, V)]
    ends += [tuple(int(x) for x in rng.integers(V, size=2)) for _ in range(int(rng.integers(1, 5)))]
    order, parent, cotree = Complex2(V, [(u, v, 1.0) for u, v in ends]).forest
    path = {0: []}  # signed edge ids of the forest path from vertex 0
    for x in order[1:]:
        u, v = ends[parent[x]]
        path[x] = path[u] + [parent[x] + 1] if v == x else path[v] + [-(parent[x] + 1)]

    def inverse(walk):
        return [-s for s in reversed(walk)]

    loops = [path[ends[c][0]] + [c + 1] + inverse(path[ends[c][1]]) for c in cotree]
    faces = []
    for _ in range(int(rng.integers(0, 3))):
        a, b = (loops[i] for i in rng.integers(len(loops), size=2))
        faces.append(a + b + inverse(a) + inverse(b))
    edges = [(u, v, float(w)) for (u, v), w in zip(ends, rng.uniform(0.5, 2.0, size=len(ends)))]
    cx = Complex2(V, edges, faces, rng.uniform(-1.0, 1.0, size=V))
    cov = CoveringData(d, rng.integers(-2, 3, size=(len(ends), d)))
    return cx, cov, tuple(int(n) for n in rng.integers(1, 4, size=d))


def random_labelled_complex(rng, rank):
    """Loops, parallel edges, labels in -2..2 and arbitrary (unclosed) face words."""
    V = int(rng.integers(1, 4))
    E = int(rng.integers(1, 6))
    edges = [(int(rng.integers(V)), int(rng.integers(V)), float(rng.uniform(0.5, 2))) for _ in range(E)]
    faces = [
        tuple(int(s) * int(rng.choice([-1, 1])) for s in rng.integers(1, E + 1, size=rng.integers(0, 6)))
        for _ in range(int(rng.integers(0, 4)))
    ]
    cov = CoveringData(rank, rng.integers(-2, 3, size=(E, rank)))
    return Complex2(V, edges, faces, rng.uniform(-1, 1, size=V)), cov


class TestBuildSupercellReference:
    def check(self, cx, cov, spec):
        sc, sc_map = build_supercell(cx, cov, spec)
        ref, ref_map = reference_build_supercell(cx, cov, spec)
        assert sc.num_vertices == ref.num_vertices
        assert sc.edges == ref.edges
        assert sc.faces == ref.faces
        assert np.array_equal(sc.potentials, ref.potentials)
        assert (sc_map.spec, sc_map.base_vertices, sc_map.base_edges) == (
            ref_map.spec, ref_map.base_vertices, ref_map.base_edges
        )

    def test_fixed_models(self, torus, chain):
        rng = np.random.default_rng(12)
        random3 = make_random3(rng)[:2]
        for (cx, cov), sizes_list in [
            (torus, [(1, 1), (3, 2), (1, 4), (4, 1)]),
            (random3, [(2, 2), (3, 1), (1, 3)]),
            (chain, [(1,), (2,), (5,)]),
        ]:
            for sizes in sizes_list:
                self.check(cx, cov, SupercellSpec(sizes))

    def test_random_labels_loops_and_parallels(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            rank = int(rng.integers(1, 3))
            cx, cov = random_labelled_complex(rng, rank)
            sizes = tuple(int(n) for n in rng.integers(1, 4, size=rank))
            self.check(cx, cov, SupercellSpec(sizes))

    def test_rank_zero(self, torus):
        cx, _ = torus
        self.check(cx, CoveringData.trivial(cx.num_edges), SupercellSpec(()))
