"""Seeded model files for the benchmark workloads.

The seed sets edge weights, potentials and the integral flux; it never sets
a size, so the work per job is the same for every seed.  Every generator
returns a plain dict in the model-file schema of ``magbloch.model_io``; the
program under test only ever sees the JSON files written from these dicts.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# The square-lattice quotient: one vertex, loops a and b, face a b a^-1 b^-1.
TORUS_EDGES = [(0, 0), (0, 0)]
TORUS_FACES = [[1, 2, -1, -2]]
TORUS_TAU = [[1, 0], [0, 1]]

# The 3-vertex quotient of demos/bloch_decomposition.py.
TRI_EDGES = [(0, 1), (1, 2), (2, 0), (0, 0)]
TRI_FACES = [[1, 2, 3, 4, -3, -2, -1, -4]]
TRI_TAU = [[0, 0], [0, 0], [1, 0], [0, 1]]


def _weights(rng: np.random.Generator, n: int) -> list[float]:
    return [float(w) for w in rng.uniform(0.5, 2.0, size=n)]


def _potentials(rng: np.random.Generator, n: int) -> list[float]:
    return [float(p) for p in rng.uniform(-1.0, 1.0, size=n)]


def _doc(num_vertices, ends, weights, faces, tau, potential, flux) -> dict:
    return {
        "vertices": num_vertices,
        "edges": [[u, v, w] for (u, v), w in zip(ends, weights)],
        "faces": [list(f) for f in faces],
        "tau": [list(t) for t in tau],
        "potential": list(potential),
        "flux": list(flux),
    }


def torus(rng: np.random.Generator) -> dict:
    """Square-lattice quotient with seeded weights and integral flux 2 pi m."""
    m = int(rng.integers(-2, 3))
    return _doc(1, TORUS_EDGES, _weights(rng, 2), TORUS_FACES, TORUS_TAU,
                _potentials(rng, 1), [TWO_PI * m])


def tri(rng: np.random.Generator) -> dict:
    """The 3-vertex quotient with seeded weights and integral flux 2 pi m."""
    m = int(rng.integers(-2, 3))
    return _doc(3, TRI_EDGES, _weights(rng, 4), TRI_FACES, TRI_TAU,
                _potentials(rng, 3), [TWO_PI * m])


def _face_fluxes(rng: np.random.Generator, num_faces: int, quanta: int, spread: float) -> list[float]:
    """Per-face fluxes near the uniform share, summing to 2 pi * quanta.

    The seeded perturbation has zero mean and the last face takes up the
    remainder, so the total is 2 pi * quanta up to rounding.  The faces of the periodic blocks and magnetic cells below form
    one 2-cycle with every coefficient +1, so an integral total is exactly
    what quantizability asks for.
    """
    noise = rng.uniform(-spread, spread, size=num_faces)
    noise -= noise.mean()
    flux = [float(TWO_PI * quanta / num_faces + x) for x in noise[:-1]]
    flux.append(float(TWO_PI * quanta - math.fsum(flux)))
    return flux


def periodic_block(rng: np.random.Generator, sizes: tuple[int, int]) -> dict:
    """The periodic N1 x N2 square-lattice block, given as its own quotient.

    Vertex (i, j) is ``i * N2 + j``; each vertex has an a-edge to (i+1, j)
    and a b-edge to (i, j+1), indices reduced mod the sizes.  The deck labels
    are the carries of that reduction, so the block presents the plane as a
    Z^2 cover and ``validate`` runs its cover checks.  The lexicographic
    vertex, edge and face order matches ``build_supercell`` of the torus.
    """
    n1, n2 = sizes
    ends, tau, faces = [], [], []
    for i in range(n1):
        for j in range(n2):
            v = i * n2 + j
            ends.append((v, ((i + 1) % n1) * n2 + j))
            tau.append([(i + 1) // n1, 0])
            ends.append((v, i * n2 + (j + 1) % n2))
            tau.append([0, (j + 1) // n2])
    for i in range(n1):
        for j in range(n2):
            a = 2 * (i * n2 + j) + 1
            b_next = 2 * (((i + 1) % n1) * n2 + j) + 2
            a_next = 2 * (i * n2 + (j + 1) % n2) + 1
            b = 2 * (i * n2 + j) + 2
            faces.append([a, b_next, -a_next, -b])
    V = n1 * n2
    return _doc(V, ends, _weights(rng, 2 * V), faces, tau, _potentials(rng, V),
                _face_fluxes(rng, V, int(rng.integers(1, 4)), 0.5))


def magnetic_cell(rng: np.random.Generator, q: int) -> dict:
    """The flux-1/q magnetic cell of the square lattice: q vertices in a ring.

    Cell copy i of the torus vertex has an a-edge to copy i+1 (carry 1 out of
    the last copy) and a b-loop with label (0, 1).  Each face carries 2 pi/q
    plus a seeded zero-sum perturbation, so the total is one flux quantum.
    """
    ends, tau, faces = [], [], []
    for i in range(q):
        ends.append((i, (i + 1) % q))
        tau.append([(i + 1) // q, 0])
        ends.append((i, i))
        tau.append([0, 1])
    for i in range(q):
        a, b = 2 * i + 1, 2 * i + 2
        b_next = 2 * ((i + 1) % q) + 2
        faces.append([a, b_next, -a, -b])
    return _doc(q, ends, _weights(rng, 2 * q), faces, tau, _potentials(rng, q),
                _face_fluxes(rng, q, 1, 0.1))


def farey(qmax: int) -> list[Fraction]:
    """Every reduced fraction p/q with 0 <= p <= q <= qmax, ascending."""
    return sorted({Fraction(p, q) for q in range(1, qmax + 1) for p in range(q + 1)})


def write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path
