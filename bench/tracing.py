"""Outside-in layer trace: wrappers over each magbloch module's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps
every function in a layer module's ``__all__`` (classes and constants are
left alone; ``cli`` has no ``__all__``, so its public functions are used)
and rebinds the wrapper under every name in every ``magbloch.*`` namespace
that holds the original.  The lookup goes through ``sys.modules`` because
package attributes shadow submodules: ``magbloch.homology`` is the function,
not the module.  ``uninstall`` puts every original back and checks with
``is`` that it is the same object again.

Spans are kept in memory as ``[name, start, end, parent, job, stats]`` and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "model_io", "complexes", "homology", "bundle", "operators", "bloch")

NAME, START, END, PARENT, JOB, STATS = range(6)


def layer_functions(layer: str) -> dict:
    """Public functions of one layer module, by name."""
    mod = importlib.import_module(f"magbloch.{layer}")
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return {
        n: getattr(mod, n)
        for n in names
        if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
    }


def _snf_stats(result):
    # the bit lengths are read after the job, outside every span
    return {"dim": max(result.D.shape), "_result": result}


def _spectrum_stats(result):
    n = len(result.eigenvalues)
    return {"dim": n, "cubic": n**3}


def _bloch_matrix_stats(result):
    return {"bytes": 16 * result.shape[0] * result.shape[1]}


def _char_stats(result):
    return {"residual": result.max_residual}


def _butterfly_stats(result):
    return {"rows": len(result), "rows_ok": sum(1 for r in result if r.error is None)}


STATS_OF = {
    "homology.smith_normal_form": _snf_stats,
    "operators.spectrum": _spectrum_stats,
    "bloch.bloch_matrix": _bloch_matrix_stats,
    "bloch.character_relations_check": _char_stats,
    "bloch.butterfly": _butterfly_stats,
}


def _max_bits(result) -> int:
    return max(
        (abs(int(x)).bit_length() for m in (result.U, result.V) for x in m.flat),
        default=0,
    )


class Tracer:
    """Span recorder whose wrappers exist only between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._bound: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        stats = STATS_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if stats is not None:
                rec[STATS] = stats(result)
            return result

        return wrapper

    def install(self) -> int:
        """Rebind every layer function to its wrapper; return the names bound."""
        if self._bound:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in layer_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname in sorted(sys.modules):
            if modname != "magbloch" and not modname.startswith("magbloch."):
                continue
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return len(self._bound)

    def uninstall(self) -> None:
        """Restore every original and check that each name holds it again."""
        bound, self._bound = self._bound, []
        for mod, attr, value in reversed(bound):
            setattr(mod, attr, value)
        left = [f"{m.__name__}.{a}" for m, a, v in bound if getattr(m, a) is not v]
        if left:
            raise RuntimeError(f"wrappers left in place: {', '.join(left)}")

    def finish_job(self, first_span: int) -> None:
        """Read the deferred SNF statistics of one job and drop the results."""
        for rec in self.spans[first_span:]:
            st = rec[STATS]
            if st is not None and "_result" in st:
                st["bits"] = _max_bits(st.pop("_result"))


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its child spans.

    One thread runs the program, so spans nest and siblings never overlap:
    the children's durations add up to the time they cover.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def job_summaries(spans: list[list], job_seconds: dict) -> dict:
    """Per-job self time, calls and statistics of every traced function.

    ``job_seconds`` maps a job id to the job's wall time; the time its root
    spans do not cover is reported as unattributed.
    """
    out = {
        job: {"job_s": t, "spans": 0, "attributed_s": 0.0, "self_s_sum": 0.0, "functions": {}}
        for job, t in job_seconds.items()
    }
    for rec, own in zip(spans, self_times(spans)):
        summary = out[rec[JOB]]
        summary["spans"] += 1
        summary["self_s_sum"] += own
        if rec[PARENT] < 0:
            summary["attributed_s"] += rec[END] - rec[START]
        f = summary["functions"].setdefault(rec[NAME], {"self_s": 0.0, "calls": 0})
        f["self_s"] += own
        f["calls"] += 1
        for key, value in (rec[STATS] or {}).items():
            if key in ("dim", "bits", "residual"):
                f[key + "_max"] = max(f.get(key + "_max", value), value)
            else:
                f[key] = f.get(key, 0) + value
    for summary in out.values():
        summary["unattributed_s"] = summary["job_s"] - summary["attributed_s"]
    return out
