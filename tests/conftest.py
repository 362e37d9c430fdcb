import numpy as np
import pytest

from magbloch import Complex2, CoveringData


@pytest.fixture
def torus():
    """One vertex, loops a and b, commutator face; the square-lattice quotient."""
    cx = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
    cov = CoveringData(2, [[1, 0], [0, 1]])
    return cx, cov


@pytest.fixture
def chain():
    """One vertex, one loop; quotient of the integer line."""
    cx = Complex2(1, [(0, 0, 1.0)])
    cov = CoveringData(1, [[1]])
    return cx, cov


@pytest.fixture
def torsion_cx():
    """One vertex, one loop a, face word a a; H1 = Z/2."""
    return Complex2(1, [(0, 0, 1.0)], [(1, 1)])


@pytest.fixture
def wedge3():
    """Wedge of three circles: b1 = 3, no faces."""
    return Complex2(1, [(0, 0, 1.0), (0, 0, 1.0), (0, 0, 1.0)])


@pytest.fixture
def path2():
    """Two vertices joined by one edge."""
    return Complex2(2, [(0, 1, 1.0)])


@pytest.fixture
def square_disk():
    """Four vertices in a ring with one square face (a disk)."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    return Complex2(4, edges, [(1, 2, 3, 4)])


def make_random3(rng):
    """Random 3-vertex quotient with rank-2 covering and one 2-cycle face.

    Edges: path 0-1-2 closing through tau=(1,0), plus a loop with tau=(0,1).
    The face word conjugates the two directions, so its boundary chain
    vanishes and H2 = Z; quantizable flux means an integer number of quanta.
    """
    w = rng.uniform(0.5, 2.0, size=4)
    edges = [
        (0, 1, float(w[0])),
        (1, 2, float(w[1])),
        (2, 0, float(w[2])),
        (0, 0, float(w[3])),
    ]
    face = (1, 2, 3, 4, -3, -2, -1, -4)
    potentials = rng.uniform(-1.0, 1.0, size=3)
    cx = Complex2(3, edges, [face], potentials)
    cov = CoveringData(2, [[0, 0], [0, 0], [1, 0], [0, 1]])
    flux = np.array([2.0 * np.pi * int(rng.integers(-2, 3))])
    return cx, cov, flux


def face_steps(word):
    """Decode a signed 1-based boundary word into (edge_index, sign) pairs:
    a per-step reference for the padded ``words`` of ``Complex2``."""
    steps = []
    for s in word:
        if s == 0:
            raise ValueError("face words use signed 1-based ids; 0 is not a valid step")
        steps.append((abs(s) - 1, 1 if s > 0 else -1))
    return steps


def cell_rank(sizes, cell):
    """Lexicographic rank of a cell of a supercell of these sizes, its
    coordinates reduced mod the sizes: a per-cell reference for the cell
    order of ``build_supercell``, deck translations and the Bloch transform."""
    rank = 0
    for c, n in zip(cell, sizes):
        rank = rank * n + int(c) % n
    return rank


def reference_eigh_checked(H, where):
    """The gated eigensolve as whole-stack expressions: H^dagger, H - H^dagger,
    its modulus, H + H^dagger and S, then three n x n residual temporaries.
    The reference for the blocked gates, which must agree with it bit for bit."""
    from magbloch.operators import HERMITICITY_TOL, NumericError, require_dense_size

    K, n = H.shape[0], H.shape[1]
    if K:
        require_dense_size(n, where(0))
    if K == 0 or n == 0:
        return np.zeros((K, n)), np.zeros(K)
    Hc = H.conj().transpose(0, 2, 1)
    defect = np.max(np.abs(H - Hc), axis=(1, 2))
    bad = np.flatnonzero(~(defect <= HERMITICITY_TOL))
    if bad.size:
        raise NumericError(f"{where(bad[0])}: not Hermitian")
    S = 0.5 * (H + Hc)
    if not S.imag.any():
        S = S.real
    vals, vecs = np.linalg.eigh(S)
    residual = np.max(np.linalg.norm(S @ vecs - vecs * vals[:, None, :], axis=1), axis=1)
    scale = np.maximum(np.max(np.sum(np.abs(H), axis=2), axis=1), 1.0)
    bad = np.flatnonzero(~(residual <= 1e-8 * scale))
    if bad.size:
        raise NumericError(f"{where(bad[0])}: eigenpair residual")
    return np.sort(vals, axis=1), residual
