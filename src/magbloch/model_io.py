"""Strict JSON model files: quotient complex, covering labels, and flux.

Schema (exact; unknown keys are rejected):

    {
      "vertices":  <int>,                       # vertex count, required
      "edges":     [[src, dst, weight], ...],   # required, 0-based vertices
      "faces":     [[signed 1-based edge ids, ...], ...],   # optional
      "tau":       [[int, ...], ...],           # optional, one Z^d label per edge
      "potential": [float, ...],                # optional, one per vertex
      "flux":      [float, ...]                 # optional, radians per face
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import Complex2, CoveringData

__all__ = ["Model", "ModelError", "load_model", "loads_model"]

_ALLOWED_KEYS = {"vertices", "edges", "faces", "tau", "potential", "flux"}

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ModelError(ValueError):
    """Malformed model document (bad JSON, unknown keys, wrong shapes or types)."""


@dataclass(frozen=True, eq=False)
class Model:
    complex2: Complex2
    covering: CoveringData
    flux: np.ndarray


def _number(value, field: str, *args) -> float:
    """A JSON number (int or float, not bool) as a float; the error names
    ``field.format(*args)``."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise ModelError(f"{field.format(*args)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f"{field.format(*args)} is out of the float range") from None


def _is_integer(value) -> bool:
    """A JSON integer: ``json`` makes exact ints, and a bool is not one."""
    return type(value) is int


def _integers(values: list) -> bool:
    """Whether every entry of a JSON list is an integer."""
    return {int}.issuperset(map(type, values))


def loads_model(text: str) -> Model:
    """Parse a model document.  Numbers must be JSON numbers: weights,
    potentials and fluxes ints or floats, fluxes finite; vertex counts,
    endpoints, face steps and labels ints, labels within int64.  Anything
    else raises :class:`ModelError` naming the field."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = sorted(set(doc) - _ALLOWED_KEYS)
    if unknown:
        raise ModelError(f"unknown keys: {', '.join(unknown)}")
    if "vertices" not in doc or "edges" not in doc:
        raise ModelError("model requires 'vertices' and 'edges'")

    vertices = doc["vertices"]
    if not _is_integer(vertices) or vertices < 0:
        raise ModelError(f"'vertices' must be a nonnegative integer, got {vertices!r}")

    edges = []
    if not isinstance(doc["edges"], list):
        raise ModelError("'edges' must be a list of [src, dst, weight]")
    for i, item in enumerate(doc["edges"]):
        if not (isinstance(item, list) and len(item) == 3):
            raise ModelError(f"edge {i} must be [src, dst, weight]")
        src, dst, w = item
        if not (_is_integer(src) and _is_integer(dst)):
            raise ModelError(f"edge {i}: endpoints must be integers, got {src!r} and {dst!r}")
        edges.append((src, dst, _number(w, "edge {}: weight", i)))

    faces = doc.get("faces", [])
    if not isinstance(faces, list) or any(not isinstance(f, list) for f in faces):
        raise ModelError("'faces' must be a list of lists of signed edge ids")
    face_words = []
    for i, word in enumerate(faces):
        if not _integers(word) or 0 in word:
            s = next(s for s in word if not _is_integer(s) or s == 0)
            raise ModelError(f"face {i}: steps must be nonzero signed integers, got {s!r}")
        face_words.append(tuple(word))

    potential = doc.get("potential")
    if potential is not None:
        if not isinstance(potential, list) or len(potential) != vertices:
            raise ModelError(f"'potential' must list {vertices} values")
        potential = [_number(x, "potential[{}]", i) for i, x in enumerate(potential)]

    try:
        cx = Complex2(vertices, tuple(edges), tuple(face_words), potential)
    except (ValueError, MemoryError) as exc:
        # the only thing the lenient constructor can fail on is allocating
        # one potential per vertex
        raise ModelError(f"'vertices' is too large: {exc}") from None

    tau = doc.get("tau")
    if tau is None:
        covering = CoveringData.trivial(len(edges))
    else:
        if not isinstance(tau, list) or len(tau) != len(edges):
            raise ModelError(f"'tau' must list one label per edge ({len(edges)})")
        rank = None
        rows = []
        for i, label in enumerate(tau):
            if not isinstance(label, list) or not _integers(label):
                raise ModelError(f"tau[{i}] must be a list of integers, got {label!r}")
            if label and not (_INT64_MIN <= min(label) and max(label) <= _INT64_MAX):
                raise ModelError(f"tau[{i}] entries must fit in a 64-bit integer")
            if rank is None:
                rank = len(label)
            elif len(label) != rank:
                raise ModelError("tau labels must all have the same length")
            rows.append(label)
        rank = rank if rank is not None else 0
        covering = CoveringData(rank, np.array(rows, dtype=int).reshape(len(edges), rank))

    flux = doc.get("flux")
    if flux is None:
        flux = np.zeros(len(face_words))
    else:
        if not isinstance(flux, list) or len(flux) != len(face_words):
            raise ModelError(f"'flux' must list one value per face ({len(face_words)})")
        flux = np.array([_number(x, "flux[{}]", i) for i, x in enumerate(flux)])
        bad = np.flatnonzero(~np.isfinite(flux))
        if bad.size:
            raise ModelError(f"flux[{bad[0]}] must be finite, got {flux[bad[0]]}")

    return Model(cx, covering, flux)


def load_model(path: str | Path) -> Model:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    return loads_model(text)

