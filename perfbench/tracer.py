"""Span tracer for the fracwave modules, installed from outside the package.

``install`` wraps every public function (the functions named in each
module's ``__all__``; classes stay unwrapped so that ``isinstance`` keeps
working) and ``PolyNonlinearity.evaluate``, and rebinds each
wrapper in every ``fracwave`` module namespace that holds the original:
modules import names directly (``dnmap`` binds ``solve_linear_modal``, the
CLI imports inside its runners), so patching only the defining module would
miss most calls.

A span is ``[name, start, end, parent]`` with the parent's index, -1 for
the root.  Spans stay in memory and are written once, at the end.  A span's
self time is its duration minus the durations of its children; children of
one span never overlap (one thread), so the self times of all spans add up
to the root span's duration.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter

ROOT = "harness"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(counts, result, args, kwargs)
            return result

        return traced

    def run_root(self, fn):
        """Call fn inside the root span; returns fn's result."""
        if self.spans:
            raise RuntimeError("the root span must be the first span")
        return self.wrap(ROOT, fn)()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds; plus the counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            entry["total_s"] += end - start
        root = self.spans[0]
        return {
            "names": names,
            "counts": dict(self.counts),
            "wall_s": root[2] - root[1],
            "self_sum_s": sum(e["self_s"] for e in names.values()),
            "spans": len(self.spans),
        }


# -------------------------------------------------------------- counters
# Counts come from returned reports and from arguments, at the boundary
# where the work happens.


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _picard(fn):
    def count(counts, result, args, kwargs):
        report = result[1]
        counts["forward.picard_iterations"] += report.iterations
        counts["forward.picard_restarts"] += len(report.thetas_tried) - 1

    return count


def _newmark(fn):
    def count(counts, result, args, kwargs):
        counts["forward.march_steps"] += _bound(fn, args, kwargs)["grid"].n_t - 1

    return count


def _potential(fn):
    def count(counts, result, args, kwargs):
        accepted = len(result.ranks)
        arguments = _bound(fn, args, kwargs)
        cutoff, passes = arguments.get("cutoff"), arguments.get("passes")
        if passes is not None:
            planned = passes
        elif isinstance(cutoff, (tuple, list)):
            planned = len(cutoff)
        else:
            planned = 1 if cutoff is not None else accepted
        # a rejected trial pass ends the iteration, so at most one is wasted
        counts["inversion.passes_accepted"] += accepted
        counts["inversion.passes_attempted"] += min(accepted + 1, max(planned, accepted))
        counts["inversion.final_rank"] = result.ranks[-1] if result.ranks else 0

    return count


def _expansion(fn):
    def count(counts, result, args, kwargs):
        counts["inversion.ladder_rungs"] += len(result.eps_ladder)

    return count


def _checks(fn):
    def count(counts, result, args, kwargs):
        counts["verify.checks"] += len(result["checks"])

    return count


COUNTERS = {
    "forward.solve_with_potential_picard": _picard,
    "forward.solve_newmark": _newmark,
    "inversion.recover_potential": _potential,
    "inversion.recover_expansion": _expansion,
    "verify.run_checks": _checks,
}


def fracwave_modules(package) -> list:
    """The package's submodules, imported; ``__main__`` excluded."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]


def install(tracer: Tracer, package) -> int:
    """Wrap and rebind the package's public functions; returns how many."""
    modules = fracwave_modules(package)
    wrappers: dict[int, tuple] = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                make = COUNTERS.get(name)
                wrapper = tracer.wrap(name, fn, make(fn) if make else None)
                wrappers[id(fn)] = (fn, wrapper)
    for mod in [package, *modules]:
        for key, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
    poly = importlib.import_module(f"{package.__name__}.nonlinearity").PolyNonlinearity
    poly.evaluate = tracer.wrap("nonlinearity.PolyNonlinearity.evaluate", poly.evaluate)
    return len(wrappers) + 1


# ------------------------------------------------------- per-layer metrics


def _self(names: dict, *span_names: str) -> float:
    return sum(names.get(n, {}).get("self_s", 0.0) for n in span_names)


def _calls(names: dict, span_name: str) -> int:
    return names.get(span_name, {}).get("calls", 0)


def layer_metrics(summary: dict, artifact_bytes: int) -> dict[str, float]:
    """Per-module self times and work counts of one traced repetition."""
    names, counts = summary["names"], summary["counts"]
    module_self: Counter = Counter()
    for name, entry in names.items():
        module_self[name.partition(".")[0]] += entry["self_s"]
    attempted = counts.get("inversion.passes_attempted", 0)
    accepted = counts.get("inversion.passes_accepted", 0)
    metrics = {
        "spectral.eig_s": _self(names, "spectral.eigendecompose", "spectral.jacobi_eigh"),
        "spectral.eig_calls": _calls(names, "spectral.eigendecompose"),
        "spectral.project_s": _self(names, "spectral.project_l2", "spectral.reconstruct"),
        "forward.modal_s": _self(names, "forward.solve_linear_modal"),
        "forward.modal_solves": _calls(names, "forward.solve_linear_modal"),
        "forward.picard_s": _self(names, "forward.solve_with_potential_picard"),
        "forward.picard_calls": _calls(names, "forward.solve_with_potential_picard"),
        "forward.picard_iterations": counts.get("forward.picard_iterations", 0),
        "forward.picard_restarts": counts.get("forward.picard_restarts", 0),
        "forward.newmark_s": _self(names, "forward.solve_newmark"),
        "forward.march_steps": counts.get("forward.march_steps", 0),
        "nonlinearity.evaluate_s": _self(names, "nonlinearity.PolyNonlinearity.evaluate"),
        "nonlinearity.evaluate_calls": _calls(names, "nonlinearity.PolyNonlinearity.evaluate"),
        "dnmap.solve_exterior_calls": _calls(names, "dnmap.solve_exterior"),
        "inversion.recover_potential_s": _self(names, "inversion.recover_potential"),
        "inversion.passes_accepted": accepted,
        "inversion.pass_yield": accepted / attempted if attempted else 0.0,
        "inversion.final_rank": counts.get("inversion.final_rank", 0),
        "inversion.expansion_s": _self(
            names,
            "inversion.recover_expansion",
            "inversion.extrapolate_powers",
            "inversion.reaction_from_march",
            "inversion.fit_profile",
        ),
        "inversion.ladder_rungs": counts.get("inversion.ladder_rungs", 0),
        "runge.fits": _calls(names, "runge.approximate_target"),
        "verify.checks": counts.get("verify.checks", 0),
        "cli.artifact_bytes": artifact_bytes,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self.get(module, 0.0)
    return metrics


# Modules whose total self time is reported; with the harness they cover the
# whole traced wall time of the current package layout.
MODULES = (
    "cli",
    "dnmap",
    "fields",
    "forward",
    "fracop",
    "grid",
    "inversion",
    "nonlinearity",
    "runge",
    "spectral",
    "verify",
    ROOT,
)
