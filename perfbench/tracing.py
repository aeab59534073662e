"""Per-layer timing of the program, installed from outside it.

:class:`Tracer` wraps every public function of the program's layer modules
(``core``, ``generate``, ``learner``, ``bench``, ``cli``) and rebinds each
wrapper wherever the package holds a reference to the original, so calls
between modules (``generate`` -> ``core.optimize_assortment``) and inside a
module (``optimize_assortment`` -> ``solve_fixed_point``) are timed too.
Spans are not kept one by one: a pass makes hundreds of thousands of calls,
so each wrapper adds its duration to per-function and per-(caller, callee)
totals.  :func:`layer_metrics` turns one pass's totals into the per-layer
metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYER_MODULES = ("core", "generate", "learner", "bench", "cli")

# Per-layer metrics, in the order they are reported.
LAYER_METRICS = {
    "generate.synth_s": "s",
    "core.solve_s": "s",
    "core.solve_iterations": "count",
    "core.solve_iterations_max": "count",
    "core.label_s": "s",
    "generate.write_s": "s",
    "generate.write_mb_per_s": "MB/s",
    "generate.read_s": "s",
    "generate.read_mb_per_s": "MB/s",
    "generate.verify_s": "s",
    "generate.dataset_bytes": "bytes",
    "bench.design_s": "s",
    "learner.fit_s": "s",
    "learner.predict_s": "s",
    "learner.decode_s": "s",
    "learner.revenue_s": "s",
    "cli.overhead_s": "s",
    "generate.excluded": "count",
    "core.unconverged": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Context manager that times calls into the program while installed.

    Totals accumulate until :meth:`reset`: ``total[f]`` is the inclusive time
    of function ``f`` (named ``module.function``), ``under[(caller, f)]`` the
    part of it spent in calls made directly by ``caller``, and ``counts``
    holds the counters the hooks below read off arguments and results.
    """

    def __init__(self, package):
        self._package = package
        self._modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYER_MODULES]
        self._saved = []
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.under = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn):
        stack = self._stack
        hook = _HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            stack.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self.total[name] += elapsed
                self.under[(caller, name)] += elapsed
            if hook is not None:
                hook(self.counts, result, *args, **kwargs)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for mod in self._modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        self._stack.clear()
        for mod in self._modules + [self._package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()
        return False


def _count_solve(counts, solution, *args, **kwargs):
    counts["iterations"] += solution.iterations
    counts["iterations_max"] = max(counts["iterations_max"], solution.iterations)
    counts["unconverged"] += not solution.converged


def _count_excluded(counts, dataset, *args, **kwargs):
    counts["excluded"] += len(dataset.excluded)


def _count_written(counts, _result, dataset, path):
    counts["bytes_written"] += os.path.getsize(path)


def _count_read(counts, _result, path):
    counts["bytes_read"] += os.path.getsize(path)


_HOOKS = {
    "core.solve_fixed_point": _count_solve,
    "generate.generate_dataset": _count_excluded,
    "generate.write_dataset": _count_written,
    "generate.read_dataset": _count_read,
}


def _rate_mb(nbytes: int, seconds: float) -> float:
    return nbytes / seconds / 1e6 if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the calls traced since the last reset.

    ``core.label_s`` is the time ``optimize_assortment`` spends outside its
    own ``solve_fixed_point`` call; ``learner.revenue_s`` counts only revenue
    evaluated by ``evaluate``; ``cli.overhead_s`` is ``cli.main`` time not
    spent in any layer above.  ``trace.pass_s`` (the traced pass) and
    ``trace.overhead_s`` (traced minus untraced pass) are filled in by the
    caller.
    """
    t, under, c = tracer.total, tracer.under, tracer.counts
    out = {
        "generate.synth_s": t["generate.generate_instance"],
        "core.solve_s": t["core.solve_fixed_point"],
        "core.solve_iterations": c["iterations"],
        "core.solve_iterations_max": c["iterations_max"],
        "core.label_s": t["core.optimize_assortment"]
        - under[("core.optimize_assortment", "core.solve_fixed_point")],
        "generate.write_s": t["generate.write_dataset"],
        "generate.write_mb_per_s": _rate_mb(c["bytes_written"], t["generate.write_dataset"]),
        "generate.read_s": t["generate.read_dataset"],
        "generate.read_mb_per_s": _rate_mb(c["bytes_read"], t["generate.read_dataset"]),
        "generate.verify_s": t["generate.verify_labels"],
        "generate.dataset_bytes": c["bytes_written"],
        "bench.design_s": t["bench.training_matrices"],
        "learner.fit_s": t["learner.fit_linear"],
        "learner.predict_s": t["learner.predict_scores"],
        "learner.decode_s": t["learner.decode_assortment"],
        "learner.revenue_s": under[("learner.evaluate", "core.expected_revenue")],
        "generate.excluded": c["excluded"],
        "core.unconverged": c["unconverged"],
    }
    layers = [
        "generate.synth_s", "core.solve_s", "core.label_s", "generate.write_s",
        "generate.read_s", "generate.verify_s", "bench.design_s", "learner.fit_s",
        "learner.predict_s", "learner.decode_s", "learner.revenue_s",
    ]
    main = t["cli.main"]
    out["cli.overhead_s"] = main - sum(out[k] for k in layers) if main else 0.0
    return out
