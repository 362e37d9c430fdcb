# bloch_decomposition.py - the periodic operator splits into twisted fibers
#
# For a periodic weighted graph realized as an N-fold periodic supercell,
# the Bloch transform is a plain unitary matrix.  Conjugating the supercell
# operator by it produces a block-diagonal matrix whose blocks are the
# quotient operator twisted by the sampled momenta, so the supercell
# spectrum is exactly the union of the fiber spectra.  This script verifies
# every piece of that statement numerically and prints the residuals.

import numpy as np

from magbloch import (
    Complex2,
    CoveringData,
    SupercellSpec,
    assemble_fiber,
    assemble_supercell,
    bloch_matrix,
    build_supercell,
    character_relations_check,
    homology,
    spectrum,
    synthesize_connection,
    twist,
    verify_block_diagonalization,
    character_group,
)

TWO_PI = 2 * np.pi
rng = np.random.default_rng(7)

# three quotients: a chain, the square-lattice torus, and a 3-vertex graph
chain = Complex2(1, [(0, 0, 1.0)])
chain_cov = CoveringData(1, [[1]])

torus = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
torus_cov = CoveringData(2, [[1, 0], [0, 1]])

tri = Complex2(
    3,
    [(0, 1, 1.3), (1, 2, 0.8), (2, 0, 1.1), (0, 0, 0.6)],
    [(1, 2, 3, 4, -3, -2, -1, -4)],
    potentials=[0.2, -0.4, 0.1],
)
tri_cov = CoveringData(2, [[0, 0], [0, 0], [1, 0], [0, 1]])
tri_summary = homology(tri)
tri_theta = synthesize_connection(tri, np.array([TWO_PI]), tri_summary)
tri_theta = twist(tri, tri_summary, tri_theta, character_group(tri_summary).sample(rng))

cases = [
    ("chain, N=8", chain, chain_cov, rng.uniform(0, TWO_PI, 1), (8,)),
    ("torus, N=(3,3)", torus, torus_cov, rng.uniform(0, TWO_PI, 2), (3, 3)),
    ("3-vertex, N=(3,2)", tri, tri_cov, tri_theta, (3, 2)),
]

print(f"{'case':<20} {'unitarity':>12} {'off-diag':>12} {'fiber dev':>12} {'spectra':>12}")
for name, cx, cov, theta, sizes in cases:
    report = verify_block_diagonalization(cx, cov, theta, sizes)
    print(
        f"{name:<20} {report.unitarity_defect:12.3e} {report.off_diagonal:12.3e}"
        f" {report.fiber_deviation:12.3e} {report.max_deviation:12.3e}"
    )
    assert report.unitarity_defect <= 1e-12
    assert report.off_diagonal <= 1e-10
    assert report.relative_deviation <= 1e-8

# the torus case in full detail: supercell eigenvalues vs union of fibers
# at the spec's momenta, one per character of its deck group Z/3 x Z/3
sizes = (3, 3)
spec = SupercellSpec(sizes)
theta = rng.uniform(0, TWO_PI, 2)
sup = spectrum(assemble_supercell(torus, torus_cov, theta, spec))
fibers = np.sort(
    np.concatenate(
        [
            spectrum(assemble_fiber(torus, torus_cov, theta, k)).eigenvalues
            for k in spec.momenta
        ]
    )
)
print("\nsupercell spectrum  :", np.round(sup.eigenvalues, 8))
print("union of fibers     :", np.round(fibers, 8))
print("max deviation       : %.3e" % np.max(np.abs(sup.eigenvalues - fibers)))

# the character relations that make the transform unitary
rel = character_relations_check(sizes)
print("\ncharacter relations N=(3,3): max residual %.3e" % rel.max_residual)

# and the transform itself, as an explicit matrix
_, sc_map = build_supercell(torus, torus_cov, spec)
Phi = bloch_matrix(sc_map)
print("Phi is %dx%d, ||Phi* Phi - I||_max = %.3e" % (
    *Phi.shape, np.max(np.abs(Phi.conj().T @ Phi - np.eye(Phi.shape[0])))))

print("\nall decomposition checks passed")
