import json

import numpy as np
import pytest

from magbloch import ModelError, load_model, loads_model

TORUS_DOC = {
    "vertices": 1,
    "edges": [[0, 0, 1.0], [0, 0, 1.0]],
    "faces": [[1, 2, -1, -2]],
    "tau": [[1, 0], [0, 1]],
    "potential": [0.25],
    "flux": [3.14],
}


def test_parse_torus():
    model = loads_model(json.dumps(TORUS_DOC))
    assert model.complex2.num_vertices == 1
    assert model.complex2.num_edges == 2
    assert model.complex2.faces == ((1, 2, -1, -2),)
    assert model.covering.rank == 2
    assert np.array_equal(model.covering.tau, [[1, 0], [0, 1]])
    assert model.complex2.potentials == pytest.approx([0.25])
    assert model.flux == pytest.approx([3.14])


def test_defaults():
    model = loads_model('{"vertices": 2, "edges": [[0, 1, 1.5]]}')
    assert model.covering.rank == 0
    assert np.all(model.complex2.potentials == 0)
    assert model.flux.shape == (0,)


def test_unknown_key_rejected():
    doc = dict(TORUS_DOC)
    doc["color"] = "blue"
    with pytest.raises(ModelError, match="unknown keys: color"):
        loads_model(json.dumps(doc))


def test_invalid_json():
    with pytest.raises(ModelError, match="invalid JSON"):
        loads_model("{nope")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("vertices"), "requires"),
        (lambda d: d.update(edges=[[0, 0]]), "src, dst, weight"),
        (lambda d: d.update(edges=[[0.5, 0, 1.0]]), "integers"),
        (lambda d: d.update(faces=[[0]]), "nonzero"),
        (lambda d: d.update(tau=[[1, 0]]), "one label per edge"),
        (lambda d: d.update(tau=[[1, 0], [1]]), "same length"),
        (lambda d: d.update(potential=[1.0, 2.0]), "potential"),
        (lambda d: d.update(flux=[]), "one value per face"),
    ],
)
def test_schema_errors(mutate, message):
    doc = json.loads(json.dumps(TORUS_DOC))
    mutate(doc)
    with pytest.raises(ModelError, match=message):
        loads_model(json.dumps(doc))


def model_to_dict(model):
    """The model as a dict in the documented schema, omitting empty fields."""
    cx = model.complex2
    out = {"vertices": cx.num_vertices, "edges": [[u, v, w] for u, v, w in cx.edges]}
    if cx.faces:
        out["faces"] = [list(word) for word in cx.faces]
    if model.covering.rank:
        out["tau"] = model.covering.tau.tolist()
    if np.any(cx.potentials != 0):
        out["potential"] = cx.potentials.tolist()
    if len(model.flux):
        out["flux"] = model.flux.tolist()
    return out


def test_roundtrip():
    model = loads_model(json.dumps(TORUS_DOC))
    again = loads_model(json.dumps(model_to_dict(model)))
    assert again.complex2.edges == model.complex2.edges
    assert again.complex2.faces == model.complex2.faces
    assert np.array_equal(again.covering.tau, model.covering.tau)
    assert np.array_equal(again.flux, model.flux)


# each field that takes a number or an integer, with the path of one entry
# in TORUS_DOC and the name the error must give
NUMERIC_FIELDS = {
    "vertices": (("vertices",), "'vertices'"),
    "source": (("edges", 0, 0), "edge 0: endpoints"),
    "target": (("edges", 1, 1), "edge 1: endpoints"),
    "weight": (("edges", 0, 2), "edge 0: weight"),
    "face step": (("faces", 0, 1), "face 0: steps"),
    "tau": (("tau", 1, 0), "tau[1]"),
    "potential": (("potential", 0), "potential[0]"),
    "flux": (("flux", 0), "flux[0]"),
}


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [None, "abc", "1.5", True, [1], {}])
def test_only_json_numbers(field, value):
    path, name = NUMERIC_FIELDS[field]
    doc = json.loads(json.dumps(TORUS_DOC))
    _set(doc, path, value)
    with pytest.raises(ModelError) as err:
        loads_model(json.dumps(doc))
    assert str(err.value).startswith(name)


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("tau", 0, 0), 10**30, r"tau\[0\] entries must fit in a 64-bit integer"),
        (("tau", 0, 1), -(2**63) - 1, r"tau\[0\] entries must fit in a 64-bit integer"),
        (("edges", 0, 2), 10**400, "edge 0: weight is out of the float range"),
        (("flux", 0), float("nan"), r"flux\[0\] must be finite"),
        (("flux", 0), float("-inf"), r"flux\[0\] must be finite"),
    ],
)
def test_out_of_range_numbers(path, value, message):
    doc = json.loads(json.dumps(TORUS_DOC))
    _set(doc, path, value)
    with pytest.raises(ModelError, match=message):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("vertices", [10**30, 2**62])
def test_unallocatable_vertex_count(vertices):
    # numpy refuses both sizes before allocating anything
    with pytest.raises(ModelError, match="'vertices' is too large"):
        loads_model(json.dumps({"vertices": vertices, "edges": []}))


def test_int64_label_bounds_accepted():
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["tau"] = [[2**63 - 1, 0], [-(2**63), 1]]
    assert loads_model(json.dumps(doc)).covering.tau[1, 0] == -(2**63)


def test_undecodable_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"vertices": 1, "edges": [], "flux": ["\xff"]}')
    with pytest.raises(ModelError, match="cannot read model file"):
        load_model(path)
