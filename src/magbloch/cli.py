"""Command-line interface.

Exit codes: 0 success, 1 not quantizable, 2 parse/config error (unknown
flag, bad value, malformed model, unwritable output), 3 model invariant
violation, 4 numeric failure (residual above tolerance, oversized dense
solve, non-Hermitian input), 5 internal error (traceback on stderr).

Each command accepts only the flags it reads, and ``--tol`` only the
tolerances of the gates it applies.

Outputs are deterministic: the same model and flags produce byte-identical
JSON/CSV/SVG.  Butterfly output is byte-identical unconditionally; verify's
JSON is byte-identical for a fixed number of BLAS threads, since its
residuals come from threaded BLAS solves whose rounding depends on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import bloch, bundle
from .complexes import validate
from .homology import character_group, homology
from .model_io import Model, ModelError, load_model
from .operators import NumericError, fiber_spectra

EXIT_OK = 0
EXIT_NOT_QUANTIZABLE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

DEFAULT_TOLERANCES = {
    "quantizability": 1e-9,
    "unitarity": 1e-12,
    "off_diagonal": 1e-10,
    "fiber_deviation": 1e-10,
    "char_relations": 1e-12,
    "decomposition": 1e-8,
}

# the tolerances a command's --tol may set: those of the gates it applies
_GATES = {
    "quantizable": ("quantizability",),
    "fibers": ("quantizability",),
    "verify": tuple(DEFAULT_TOLERANCES),
    "bands": ("quantizability",),
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_sizes(text: str, name: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--{name} expects comma-separated integers, got {text!r}", EXIT_PARSE)
    if any(n < 1 for n in sizes):
        raise CliError(f"--{name} entries must be >= 1", EXIT_PARSE)
    return sizes


def _parse_fluxes(text: str) -> list[str]:
    fluxes = [part.strip() for part in text.split(",") if part.strip()]
    if not fluxes:
        raise CliError("--flux contained no fluxes", EXIT_PARSE)
    return fluxes


def _parse_klist(text: str, rank: int) -> np.ndarray:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vals = [float(p) for p in chunk.split(",")]
        except ValueError:
            raise CliError(f"--k expects numbers, got {chunk!r}", EXIT_PARSE)
        if not all(math.isfinite(v) for v in vals):
            raise CliError(f"--k momenta must be finite, got {chunk!r}", EXIT_PARSE)
        if len(vals) != rank:
            raise CliError(f"--k points must have {rank} components", EXIT_PARSE)
        points.append(vals)
    if not points:
        raise CliError("--k contained no points", EXIT_PARSE)
    return np.array(points)


def _parse_tols(args) -> dict:
    tols = {name: DEFAULT_TOLERANCES[name] for name in _GATES[args.command]}
    for pair in args.tol or []:
        if "=" not in pair:
            raise CliError(f"--tol expects NAME=VALUE, got {pair!r}", EXIT_PARSE)
        name, _, value = pair.partition("=")
        if name not in tols:
            raise CliError(
                f"{args.command} applies no tolerance {name!r}; known: {', '.join(tols)}",
                EXIT_PARSE,
            )
        try:
            v = float(value)
        except ValueError:
            raise CliError(f"--tol {name} expects a number, got {value!r}", EXIT_PARSE)
        if not (0 < v < math.inf):
            raise CliError(f"--tol {name} must be a positive finite number", EXIT_PARSE)
        tols[name] = v
    return tols


def _load(args) -> Model:
    try:
        return load_model(args.model)
    except ModelError as exc:
        raise CliError(f"model error: {exc}", EXIT_PARSE)


def _require_valid(model: Model) -> None:
    report = validate(model.complex2, model.covering)
    if not report.ok:
        lines = "; ".join(f"{i.check}: {i.detail}" for i in report.issues)
        raise CliError(f"model fails validation: {lines}", EXIT_INVARIANT)


def _write(path: str, payload: str) -> None:
    try:
        Path(path).write_text(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE)


def _emit(args, payload: str) -> None:
    if args.out:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload)


def _emit_json(args, data: dict) -> None:
    _emit(args, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _connection_from_model(model: Model, tols: dict) -> np.ndarray:
    return bundle.synthesize_connection(model.complex2, model.flux, tol=tols["quantizability"])


def cmd_validate(args) -> int:
    model = _load(args)
    report = validate(model.complex2, model.covering)
    if args.json:
        _emit_json(args, report.to_dict())
    else:
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in report.checks.items()]
        for issue in report.issues:
            lines.append(f"  {issue.check}: {issue.detail} (at {list(issue.where)})")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_INVARIANT


def cmd_homology(args) -> int:
    model = _load(args)
    _require_valid(model)
    summary = homology(model.complex2)
    if args.json:
        _emit_json(args, summary.to_dict())
    else:
        b0, b1, b2 = summary.betti
        lines = [
            f"betti: b0={b0} b1={b1} b2={b2}",
            f"H1 torsion orders: {list(summary.h1_torsion_orders)}",
            f"euler characteristic: {summary.euler_characteristic()}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_quantizable(args) -> int:
    model = _load(args)
    _require_valid(model)
    tols = _parse_tols(args)
    summary = homology(model.complex2)
    cert = bundle.is_quantizable(
        model.complex2, model.flux, summary, tol=tols["quantizability"]
    )
    if args.json:
        _emit_json(args, cert.to_dict())
    else:
        lines = [f"verdict: {'quantizable' if cert.verdict else 'NOT quantizable'}"]
        for i, (p, r) in enumerate(zip(cert.pairings, cert.residues)):
            lines.append(f"2-cycle {i}: pairing {p:.12g} residue {r:.3e}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if cert.verdict else EXIT_NOT_QUANTIZABLE


def cmd_classes(args) -> int:
    model = _load(args)
    _require_valid(model)
    group = character_group(homology(model.complex2))
    torsion_chars = [list(c.torsion_indices) for c in group.enumerate_torsion()]
    data = {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "components": group.num_components,
        "torsion_characters": torsion_chars,
    }
    if args.json:
        _emit_json(args, data)
    else:
        lines = [
            f"character group: torus of dimension {group.free_rank}"
            f" x {group.num_components} component(s)",
            f"torsion orders: {list(group.torsion)}",
        ]
        for idx in torsion_chars:
            lines.append(f"component representative: torsion indices {idx}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fibers(args) -> int:
    model = _load(args)
    _require_valid(model)
    tols = _parse_tols(args)
    if args.grid:
        raise CliError("fibers takes --k only; use `bands --grid` for a momentum grid", EXIT_PARSE)
    # not required by the parser, so that --grid gets the pointer above
    if not args.k:
        raise CliError("fibers needs --k", EXIT_PARSE)
    theta = _connection_from_model(model, tols)
    ks = _parse_klist(args.k, model.covering.rank)
    V = model.complex2.num_vertices
    bloch.require_sweep_size(len(ks), V, f"({len(ks)} momenta, V={V})", "pass fewer --k momenta")
    eigs = fiber_spectra(model.complex2, model.covering, theta, ks).eigenvalues
    _emit(args, bloch.band_csv(bloch.BandData(ks, eigs, (), ())))
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load(args)
    _require_valid(model)
    tols = _parse_tols(args)
    sizes = _parse_sizes(args.supercell, "supercell")
    if len(sizes) != model.covering.rank:
        raise CliError(
            f"--supercell must have {model.covering.rank} entries for this model", EXIT_PARSE
        )
    theta = _connection_from_model(model, tols)
    block = bloch.verify_block_diagonalization(model.complex2, model.covering, theta, sizes)
    chars = bloch.character_relations_check(sizes)
    results = {
        "unitarity": (block.unitarity_defect, tols["unitarity"]),
        "off_diagonal": (block.off_diagonal, tols["off_diagonal"]),
        "fiber_deviation": (block.fiber_deviation, tols["fiber_deviation"]),
        "char_relations": (chars.max_residual, tols["char_relations"]),
        "decomposition": (block.relative_deviation, tols["decomposition"]),
    }
    ok = all(value <= tol for value, tol in results.values())
    if args.json:
        _emit_json(
            args,
            {
                "ok": ok,
                "residuals": {k: v for k, (v, _) in results.items()},
                "tolerances": {k: t for k, (_, t) in results.items()},
                "connection": list(theta),
            },
        )
    else:
        lines = [
            f"{'PASS' if v <= t else 'FAIL'}  {name}: {v:.3e} (tol {t:.1e})"
            for name, (v, t) in results.items()
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_bands(args) -> int:
    model = _load(args)
    _require_valid(model)
    tols = _parse_tols(args)
    grid = _parse_sizes(args.grid, "grid")
    if len(grid) != model.covering.rank:
        raise CliError(f"--grid must have {model.covering.rank} entries", EXIT_PARSE)
    theta = _connection_from_model(model, tols)
    band = bloch.spectrum_union(model.complex2, model.covering, theta, grid)
    if args.json:
        _emit_json(
            args,
            {
                "grid": list(band.grid),
                "intervals": [[lo, hi] for lo, hi in band.intervals],
                "num_bands": band.num_bands,
            },
        )
    else:
        _emit(args, bloch.band_csv(band))
    return EXIT_OK


def cmd_butterfly(args) -> int:
    model = _load(args)
    _require_valid(model)
    grid = _parse_sizes(args.grid, "grid")
    if len(grid) != model.covering.rank:
        raise CliError(f"--grid must have {model.covering.rank} entries", EXIT_PARSE)
    fluxes = _parse_fluxes(args.flux)
    rows = bloch.butterfly(model.complex2, model.covering, fluxes, grid)
    for raw, row in zip(fluxes, rows):
        if row.error is not None:
            print(f"flux {raw}: {row.error}", file=sys.stderr)
    if args.svg:
        _write(args.svg, bloch.butterfly_svg(rows))
    _emit(args, bloch.butterfly_csv(rows))
    return EXIT_OK


_OPTIONS = {
    "--grid": dict(help="momentum grid sizes N[,N...]"),
    "--supercell": dict(help="supercell sizes N[,N...]"),
    "--flux": dict(help="rational fluxes p/q[,p/q...]"),
    "--k": dict(help="explicit momenta k1,k2;k1,k2;..."),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--svg": dict(help="also write an SVG scatter"),
}

# command: (handler, the options it reads besides --model, --out and --tol,
# the required ones); a command takes --tol when it has gates in _GATES
_COMMANDS = {
    "validate": (cmd_validate, ("--json",), ()),
    "homology": (cmd_homology, ("--json",), ()),
    "quantizable": (cmd_quantizable, ("--json",), ()),
    "classes": (cmd_classes, ("--json",), ()),
    "fibers": (cmd_fibers, ("--k", "--grid"), ()),  # --grid only to point to bands
    "verify": (cmd_verify, ("--supercell", "--json"), ("--supercell",)),
    "bands": (cmd_bands, ("--grid", "--json"), ("--grid",)),
    "butterfly": (cmd_butterfly, ("--flux", "--grid", "--svg"), ("--flux", "--grid")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magbloch",
        description="Magnetic flux quantization and finite Bloch decomposition "
        "on periodic weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--model", required=True, help="path to a JSON model file")
        for option in options:
            p.add_argument(option, required=option in required, **_OPTIONS[option])
        p.add_argument("--out", help="write the primary output to a file")
        if name in _GATES:
            p.add_argument(
                "--tol",
                action="append",
                metavar="NAME=VALUE",
                help=f"override a tolerance ({', '.join(_GATES[name])}); repeatable",
            )
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except bundle.NotQuantizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_QUANTIZABLE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:
        # user input is classified above; anything else is a bug in magbloch
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
