import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from magbloch import Complex2, CoveringData, SupercellSpec, build_supercell, load_model
from magbloch.bloch import butterfly
from magbloch.cli import EXIT_INTERNAL, run
from magbloch.homology import HomologySummary

TWO_PI = 2 * np.pi

# the package attribute ``magbloch.homology`` is the function, not the module
homology_module = importlib.import_module("magbloch.homology")


@pytest.fixture
def torus_model(tmp_path):
    def write(flux):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": 1,
                    "edges": [[0, 0, 1.0], [0, 0, 1.0]],
                    "faces": [[1, 2, -1, -2]],
                    "tau": [[1, 0], [0, 1]],
                    "flux": [flux],
                }
            )
        )
        return str(path)

    return write


@pytest.fixture
def chain_model(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps({"vertices": 1, "edges": [[0, 0, 1.0]], "tau": [[1]]})
    )
    return str(path)


def test_validate_ok(torus_model, capsys):
    assert run(["validate", "--model", torus_model(0.0)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_bad_model_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0, -1.0]]}))
    assert run(["validate", "--model", str(path)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 1, "edges": [], "bogus": 1}')
    assert run(["validate", "--model", str(path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert run(["homology", "--model", "/nonexistent/x.json"]) == 2


def test_quantizable_half_quantum_exit_1(torus_model, capsys):
    code = run(["quantizable", "--model", torus_model(np.pi), "--json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 1
    assert data["verdict"] is False
    assert data["residues"] == [0.5]


def test_quantizable_integral_exit_0(torus_model, capsys):
    code = run(["quantizable", "--model", torus_model(TWO_PI), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["verdict"] is True and data["residues"] == [0.0]


def test_homology_json(torus_model, capsys):
    assert run(["homology", "--model", torus_model(0.0), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1, 2, 1]
    assert data["euler_characteristic"] == 0


def test_classes(torus_model, capsys):
    assert run(["classes", "--model", torus_model(0.0), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "components": 1,
        "free_rank": 2,
        "torsion": [],
        "torsion_characters": [[]],
    }


def test_verify_chain_exit_0(chain_model, capsys):
    assert run(["verify", "--model", chain_model, "--supercell", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["residuals"]["decomposition"] <= 1e-10
    assert data["connection"] == [0.0]  # zero-flux chain synthesizes the flat gauge


def test_verify_needs_supercell(chain_model, capsys):
    assert run(["verify", "--model", chain_model]) == 2


def test_verify_tolerance_override_can_fail(chain_model, capsys):
    # a size-3 transform rounds (a size-4 FFT is exact), so the unitarity
    # residual is nonzero and above the overridden tolerance
    code = run(
        [
            "verify",
            "--model",
            chain_model,
            "--supercell",
            "3",
            "--json",
            "--tol",
            "unitarity=1e-30",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert data["residuals"]["unitarity"] > data["tolerances"]["unitarity"] == 1e-30
    assert data["ok"] is False
    assert code == 4


def test_verify_size_guard_before_assembly(chain_model, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled an oversized supercell")

    monkeypatch.setattr("magbloch.operators.build_supercell", refuse)
    monkeypatch.setattr("magbloch.operators._assemble", refuse)
    assert run(["verify", "--model", chain_model, "--supercell", "2100"]) == 4
    assert "matrix dimension 2100 exceeds the dense solver threshold 2048" in (
        capsys.readouterr().err
    )


def test_bands_flux_within_certificate(torus_model, capsys):
    # residue 5e-10 quanta passes the 1e-9 certificate, so it must synthesize
    assert run(["bands", "--model", torus_model(TWO_PI * (1 + 5e-10)), "--grid", "2,2"]) == 0
    assert capsys.readouterr().out.startswith("k1,k2,e1")


def test_quantizability_tolerance_reaches_synthesis(torus_model, capsys):
    model = torus_model(TWO_PI * (1 + 5e-7))
    assert run(["bands", "--model", model, "--grid", "2,2"]) == 1
    args = ["bands", "--model", model, "--grid", "2,2", "--tol", "quantizability=1e-6"]
    assert run(args) == 0


def test_synthesis_curvature_miss_exit_4(tmp_path, monkeypatch, capsys):
    # the flux-1/2 magnetic cell: two faces of pi each
    path = tmp_path / "cell.json"
    path.write_text(
        json.dumps(
            {
                "vertices": 2,
                "edges": [[0, 1, 1.0], [0, 0, 1.0], [1, 0, 1.0], [1, 1, 1.0]],
                "faces": [[1, 4, -1, -2], [3, 2, -3, -4]],
                "tau": [[0, 0], [0, 1], [1, 0], [0, 1]],
                "flux": [np.pi, np.pi],
            }
        )
    )
    assert run(["bands", "--model", str(path), "--grid", "2,2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        HomologySummary, "connection_values", lambda self, flux: np.zeros(self.num_edges)
    )
    assert run(["bands", "--model", str(path), "--grid", "2,2"]) == 4
    assert "misses the flux" in capsys.readouterr().err


def test_fibers_grid_points_to_bands(torus_model, capsys):
    assert run(["fibers", "--model", torus_model(TWO_PI), "--grid", "4,4"]) == 2
    assert "bands --grid" in capsys.readouterr().err


def test_bad_tolerance_name(chain_model):
    assert run(["verify", "--model", chain_model, "--supercell", "2", "--tol", "nope=1"]) == 2


def test_fibers_explicit_k(torus_model, capsys):
    assert run(["fibers", "--model", torus_model(TWO_PI), "--k", "0,0;3.141592653589793,0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k1,k2,e1"
    assert len(lines) == 3


def test_fibers_non_finite_k_exit_2(torus_model, capsys):
    for k in ["nan,0", "0,inf", "0,0;-inf,1"]:
        assert run(["fibers", "--model", torus_model(TWO_PI), "--k", k]) == 2
        captured = capsys.readouterr()
        assert "--k momenta must be finite" in captured.err
        assert captured.out == ""


def test_non_finite_tolerance_exit_2(chain_model, capsys):
    for value in ["nan", "inf", "-1", "0"]:
        tol = f"quantizability={value}"
        assert run(["verify", "--model", chain_model, "--supercell", "2", "--tol", tol]) == 2
        assert "must be a positive finite number" in capsys.readouterr().err


def test_verify_builds_one_supercell(chain_model, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].sizes)
        return build_supercell(*args, **kwargs)

    # every module that imported the supercell builder counts
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("magbloch") and hasattr(
            mod, "build_supercell"
        ):
            monkeypatch.setattr(mod, "build_supercell", counted)
    assert run(["verify", "--model", chain_model, "--supercell", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert calls == [(6,)]


def test_bands_csv_row_count(torus_model, capsys):
    assert run(["bands", "--model", torus_model(TWO_PI), "--grid", "32,32"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k1,k2,e1"
    assert len(lines) == 1025
    values = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.all((values >= -1e-9) & (values <= 8.0 + 1e-9))


def test_bands_momentum_columns_are_the_grid(torus_model, capsys):
    # the k columns print the grid 2 pi m / N itself, independent of LAPACK
    assert run(["bands", "--model", torus_model(TWO_PI), "--grid", "3,4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    k1, k2 = np.meshgrid(TWO_PI * np.arange(3) / 3, TWO_PI * np.arange(4) / 4, indexing="ij")
    expect = [f"{a:.17g},{b:.17g}" for a, b in zip(k1.ravel(), k2.ravel())]
    assert [",".join(line.split(",")[:2]) for line in lines[1:]] == expect


def test_bands_grid_required(torus_model):
    assert run(["bands", "--model", torus_model(TWO_PI)]) == 2


def test_butterfly_csv_and_svg(torus_model, tmp_path, capsys):
    svg_path = tmp_path / "b.svg"
    out_path = tmp_path / "b.csv"
    code = run(
        [
            "butterfly",
            "--model",
            torus_model(0.0),
            "--flux",
            "0,1/2",
            "--grid",
            "4,4",
            "--svg",
            str(svg_path),
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("p,q,interval_lo,interval_hi")
    assert svg_path.read_text().startswith("<svg")


def test_outputs_deterministic(torus_model, capsys):
    model = torus_model(TWO_PI)
    run(["bands", "--model", model, "--grid", "5,5"])
    first = capsys.readouterr().out
    run(["bands", "--model", model, "--grid", "5,5"])
    second = capsys.readouterr().out
    assert first == second


def test_out_writes_file(torus_model, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert (
        run(["homology", "--model", torus_model(0.0), "--json", "--out", str(target)]) == 0
    )
    assert json.loads(target.read_text())["betti"] == [1, 2, 1]
    assert capsys.readouterr().out == ""


def test_snf_bound_exit_4(tmp_path, monkeypatch, capsys):
    # the 12x12 periodic block: its cotree matrix has 145 rows
    torus = Complex2(1, [(0, 0, 1.0), (0, 0, 1.0)], [(1, 2, -1, -2)])
    sc, _ = build_supercell(torus, CoveringData(2, [[1, 0], [0, 1]]), SupercellSpec((12, 12)))
    path = tmp_path / "block.json"
    doc = {"vertices": sc.num_vertices, "edges": [list(e) for e in sc.edges], "faces": sc.faces}
    path.write_text(json.dumps(doc))
    assert run(["homology", "--model", str(path)]) == 0
    monkeypatch.setattr(homology_module, "MAX_SNF_DIM", 100)
    assert run(["homology", "--model", str(path)]) == 4
    assert "exceeds the configured bound 100" in capsys.readouterr().err


def test_snf_bound_makes_butterfly_error_row(torus_model, monkeypatch, capsys):
    monkeypatch.setattr(homology_module, "MAX_SNF_DIM", 8)
    model = load_model(torus_model(0.0))
    rows = butterfly(model.complex2, model.covering, ["1/2", "1/11"], (2, 2))
    assert rows[0].error is None and rows[0].band is not None
    assert rows[1].band is None and "Smith normal form" in rows[1].error
    code = run(["butterfly", "--model", torus_model(0.0), "--flux", "1/2,1/11", "--grid", "2,2"])
    captured = capsys.readouterr()
    assert code == 0
    assert {row.split(",")[1] for row in captured.out.splitlines()[1:]} == {"2"}
    assert captured.err.startswith("flux 1/11: Smith normal form")


def test_butterfly_flux_overflowing_a_float_is_an_error_row(torus_model, capsys):
    argv = ["butterfly", "--model", torus_model(0.0), "--flux", "1/2,1e400", "--grid", "2,2"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert rows and all(row.startswith("1,2,") for row in rows)
    assert captured.err == "flux 1e400: flux '1e400' overflows a float\n"


def test_butterfly_errors_name_the_flux_as_typed(torus_model, capsys):
    argv = ["butterfly", "--model", torus_model(0.0), "--flux", "1/2,abc,1/0,2/194", "--grid", "2,2"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "flux abc: Invalid literal for Fraction: 'abc'",
        "flux 1/0: flux '1/0' has a zero denominator",
        "flux 2/194: flux denominator 97 exceeds bound 64",
    ]
    rows = captured.out.splitlines()[1:]
    assert rows and all(row.startswith("1,2,") for row in rows)


def test_bands_oversized_grid_exit_4(torus_model, capsys):
    start = time.perf_counter()
    code = run(["bands", "--model", torus_model(0.0), "--grid", "2049,2048"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 4
    assert elapsed < 1.0
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "eigenvalues" in lines[0]
    assert "Traceback" not in captured.err


@pytest.fixture
def tri_model(tmp_path):
    path = tmp_path / "tri.json"
    edges = [[0, 1, 1.3], [1, 2, 0.7], [2, 0, 1.1], [0, 0, 0.9]]
    faces = [[1, 2, 3, 4, -3, -2, -1, -4]]
    tau = [[0, 0], [0, 0], [1, 0], [0, 1]]
    path.write_text(json.dumps({"vertices": 3, "edges": edges, "faces": faces, "tau": tau}))
    return str(path)


def test_bands_work_bound_exit_4(tri_model, monkeypatch, capsys):
    # 3 x 3 momenta of 3 vertices cost 243 units of K*V^3
    monkeypatch.setattr("magbloch.bloch.MAX_BAND_WORK", 16)
    assert run(["bands", "--model", tri_model, "--grid", "3,3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: band sweep of 243 units of K*V^3 (grid 3x3, V=3) exceeds bound 16; "
        "reduce the grid\n"
    )


def test_fibers_work_bound_exit_4_before_any_solve(tri_model, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solved a sweep over the work bound")

    monkeypatch.setattr("magbloch.bloch.MAX_BAND_WORK", 16)
    monkeypatch.setattr("magbloch.cli.fiber_spectra", refuse)
    k = "0,0;0.1,0;0.2,0;0.3,0;0.4,0"
    assert run(["fibers", "--model", tri_model, "--k", k]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: band sweep of 135 units of K*V^3 (5 momenta, V=3) exceeds bound 16; "
        "pass fewer --k momenta\n"
    )


def test_butterfly_programming_error_is_internal_exit_5(torus_model, monkeypatch, capsys):
    # a bug raised on a pool thread reaches the CLI as an internal error
    def broken(*args, **kwargs):
        raise TypeError("broken spectrum_union")

    monkeypatch.setattr(importlib.import_module("magbloch.bloch"), "spectrum_union", broken)
    argv = ["butterfly", "--model", torus_model(0.0), "--flux", "1/2,1/3,2/3", "--grid", "2,2"]
    assert run(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: broken spectrum_union" in err


def test_python_dash_m(chain_model):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "magbloch", "validate", "--model", chain_model],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


# the flags each command reads besides --model and --out
ACCEPTED = {
    "validate": {"--json"},
    "homology": {"--json"},
    "quantizable": {"--json", "--tol"},
    "classes": {"--json"},
    "fibers": {"--k", "--grid", "--tol"},
    "verify": {"--supercell", "--json", "--tol"},
    "bands": {"--grid", "--json", "--tol"},
    "butterfly": {"--flux", "--grid", "--svg"},
}
REQUIRED = {
    "verify": ["--supercell", "2,2"],
    "bands": ["--grid", "2,2"],
    "butterfly": ["--flux", "1/2", "--grid", "2,2"],
}
FLAG_VALUES = {
    "--grid": ["2,2"],
    "--supercell": ["2,2"],
    "--flux": ["1/2"],
    "--k": ["0,0"],
    "--json": [],
    "--svg": ["extra.svg"],
    "--tol": ["quantizability=1e-9"],
}
REJECTED = [(cmd, flag) for cmd in ACCEPTED for flag in FLAG_VALUES if flag not in ACCEPTED[cmd]]


def test_rejected_pairs_are_counted():
    assert len(REJECTED) == 39


@pytest.mark.parametrize("command,flag", REJECTED)
def test_unread_flag_exit_2(torus_model, tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--model", torus_model(TWO_PI)] + REQUIRED.get(command, [])
    assert run(argv + [flag] + FLAG_VALUES[flag]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == "" and not (tmp_path / "extra.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--grid", "2,2", "--tol", "unitarity=1"],
        ["quantizable", "--tol", "decomposition=1"],
    ],
)
def test_tolerance_outside_the_command_gates_exit_2(torus_model, capsys, argv):
    assert run(argv + ["--model", torus_model(TWO_PI)]) == 2
    captured = capsys.readouterr()
    assert f"{argv[0]} applies no tolerance" in captured.err and captured.out == ""


@pytest.mark.parametrize("flux", ["", " , "])
def test_butterfly_empty_flux_list_exit_2(torus_model, capsys, flux):
    argv = ["butterfly", "--model", torus_model(0.0), "--flux", flux, "--grid", "2,2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "--flux contained no fluxes" in captured.err and captured.out == ""


def test_unwritable_out_exit_2(torus_model, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert run(["homology", "--model", torus_model(0.0), "--json", "--out", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_unwritable_svg_exit_2(torus_model, tmp_path, capsys):
    target = tmp_path / "missing" / "b.svg"
    argv = ["butterfly", "--model", torus_model(0.0), "--flux", "0", "--grid", "2,2"]
    assert run(argv + ["--svg", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_model_type_error_exit_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0, None]]}))
    assert run(["validate", "--model", str(path)]) == 2
    assert "error: model error: edge 0: weight must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ValueError, TypeError])
def test_library_error_is_internal_exit_5(torus_model, monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc("library bug")

    monkeypatch.setattr(importlib.import_module("magbloch.cli"), "homology", broken)
    assert run(["homology", "--model", torus_model(0.0)]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{exc.__name__}: library bug" in err
