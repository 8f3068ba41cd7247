"""Outside-in tracing of rebitkit's layers.

The tracer replaces every public function (and public method of a class)
defined in each layer module with a timing wrapper, in every module
namespace that holds it: ``quasiprob`` imports ``to_standard_form`` by
name, ``cli`` imports ``decompose``, ``similarity`` and
``monte_carlo_propagate``, and a call through such a name would otherwise
escape the wrapper.  Open spans live on a stack, so each span's self time
excludes the spans it caused.  Spans stay in memory until ``write`` and
are aggregated into the per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("pauli_core", "witness", "standard_form", "quasiprob", "tomography", "cli")

_TRACKS = re.compile(r"(\d+) of (\d+) solver tracks did not converge")


@dataclass
class Span:
    name: str           # "<layer>.<qualname>"
    op: int             # benchmark op the span belongs to
    parent: int         # index of the enclosing span, -1 at the top
    start: float
    end: float
    self_s: float
    exc: str | None     # exception class that escaped the span
    origin: bool        # the exception was raised here, not by a traced callee
    extra: dict | None  # per-function counters (see _HOOKS)


def _repair_extra(fn, args, kwargs, result):
    return {"repaired": not np.array_equal(result, args[0])}


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _mc_extra(fn, args, kwargs, result):
    return {"samples": int(_bind(fn, args, kwargs)["n_samples"])}


def _solver_extra(fn, args, kwargs, result):
    # the solver runs four tracks per start; its warning, if any, overrides this
    return {"pairs": len(result), "tracks": 4 * int(_bind(fn, args, kwargs)["n_starts"])}


# functions whose calls carry counters beyond time and failures
_HOOKS = {
    "tomography.repair_to_physical": _repair_extra,
    "tomography.monte_carlo_propagate": _mc_extra,
    "witness.numeric_separability_eigs": _solver_extra,
}


class Tracer:
    """Installs timing wrappers into rebitkit's modules and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[tuple[int, list[float]]] = []
        self._last_exc: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("rebitkit")
        modules = {name: importlib.import_module(f"rebitkit.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{name}.{meth}", fn))
        # rebind every name that refers to a wrapped function, wherever imported
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _wrap(self, key: str, fn):
        tracer = self
        hook = _HOOKS.get(key)
        solver = key == "witness.numeric_separability_eigs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            children = [0.0]
            stack.append((index, children))
            exc_name, origin, extra, caught = None, False, None, ()
            start = perf_counter()
            try:
                if solver:
                    # count the solver's non-convergence warning, then let it through
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                origin = exc is not tracer._last_exc
                tracer._last_exc = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1][0] += end - start
                if exc_name is None and hook is not None:
                    extra = hook(fn, args, kwargs, result)
                for w in caught:
                    m = _TRACKS.search(str(w.message))
                    if m:
                        extra = dict(extra or {}, nonconverged=int(m[1]), tracks=int(m[2]))
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                tracer.spans[index] = Span(
                    key, tracer.op, parent, start, end, end - start - children[0],
                    exc_name, origin, extra,
                )
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """One tab-separated line per span, in the order the spans opened."""
        with open(path, "w") as fh:
            fh.write("name\top\tparent\tstart_s\tend_s\tself_s\texc\textra\n")
            for s in self.spans:
                fh.write(
                    f"{s.name}\t{s.op}\t{s.parent}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{s.self_s:.9f}\t{s.exc or ''}\t{s.extra or ''}\n"
                )


def layer_metrics(spans: list[Span], op_wall_s: float, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``op_wall_s`` and ``n_ops`` are the total latency and number of the
    workload's ops.  Times and call counts cover those ops (span ``op`` >= 0);
    failure counts also cover the boundary probes run after them.
    """
    out: dict[str, float] = {}
    timed: dict[str, list[Span]] = {}
    failed: dict[str, list[Span]] = {}
    mc_spans = set()
    for i, s in enumerate(spans):
        if s.op >= 0:
            timed.setdefault(s.name, []).append(s)
            if s.name == "tomography.monte_carlo_propagate":
                mc_spans.add(i)
        if s.exc:
            failed.setdefault(s.name, []).append(s)

    def calls(name):
        return timed.get(name, [])

    def per_call(name, scale):
        group = calls(name)
        return scale * sum(s.end - s.start for s in group) / len(group) if group else 0.0

    def in_layer(groups, layer):
        return [s for name, group in groups.items() if name.split(".", 1)[0] == layer for s in group]

    for layer in LAYERS:
        mine = in_layer(timed, layer)
        self_s = sum(s.self_s for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / op_wall_s if op_wall_s > 0 else 0.0
        out[f"{layer}.fails"] = sum(1 for s in in_layer(failed, layer) if s.origin)

    sf = "standard_form.to_standard_form"
    out[f"{sf}.us_per_call"] = per_call(sf, 1e6)
    for exc in ("SingularMarginal", "NonConvergence"):
        out[f"{sf}.fails.{exc}"] = sum(1 for s in failed.get(sf, []) if s.exc == exc)

    for fn in ("decompose", "transform_quasi", "local_reconstruction"):
        out[f"quasiprob.{fn}.us_per_call"] = per_call(f"quasiprob.{fn}", 1e6)

    mc = calls("tomography.monte_carlo_propagate")
    samples = sum(s.extra["samples"] for s in mc if s.extra)
    failed_samples = sum(1 for s in failed.get("quasiprob.decompose", []) if s.parent in mc_spans)
    out["tomography.monte_carlo_propagate.us_per_sample"] = (
        1e6 * sum(s.end - s.start for s in mc) / samples if samples else 0.0
    )
    out["tomography.mc_sample_fail_frac"] = failed_samples / samples if samples else 0.0
    repairs = calls("tomography.repair_to_physical")
    out["tomography.repair_to_physical.calls"] = len(repairs)
    out["tomography.repair_to_physical.repaired_frac"] = (
        sum(1 for s in repairs if s.extra and s.extra["repaired"]) / len(repairs)
        if repairs else 0.0
    )
    out["tomography.estimate_correlations.us_per_call"] = per_call(
        "tomography.estimate_correlations", 1e6
    )

    solver = "witness.numeric_separability_eigs"
    out[f"{solver}.ms_per_call"] = per_call(solver, 1e3)
    done = [s for s in calls(solver) if s.extra and "pairs" in s.extra]
    out[f"{solver}.pairs_per_call"] = (
        sum(s.extra["pairs"] for s in done) / len(done) if done else 0.0
    )
    tracks = sum(s.extra["tracks"] for s in done)
    nonconverged = sum(s.extra.get("nonconverged", 0) for s in done)
    out["witness.nonconverged_track_frac"] = nonconverged / tracks if tracks else 0.0

    out["cli.run_analysis.self_ms_per_op"] = (
        1e3 * sum(s.self_s for s in calls("cli.run_analysis")) / n_ops if n_ops else 0.0
    )
    for fn in ("write_report", "parse_state_spec"):
        out[f"cli.{fn}.us_per_call"] = per_call(f"cli.{fn}", 1e6)
    return out
