"""Span tracing of pla_bench's public functions, from outside the package.

``Tracer.install`` wraps every public function of the traced layers at
every module that binds it (``harness`` imports ``ocsvm_train_cv`` and
``complex_gaussian`` by name, so patching only the defining module would
miss those calls) and the generator methods on ``Rng`` itself. Each
wrapper records a span on a stack, so a span's self time is its duration
minus the time of the spans it encloses. Counters are read at the same
boundaries, from arguments and return values only.

Install it only in a process that runs serially: pool workers would
inherit the wrappers but their spans would never reach the parent.
"""
from __future__ import annotations

from collections import defaultdict
import inspect
import math
import sys
import time

LAYERS = ("rng", "channel", "statdec", "attacks", "mlauth", "harness")
RNG_METHODS = ("__init__", "derive", "standard_normal", "uniform", "integers",
               "permutation", "choice")
# classifier -> (position, keyword) of its query argument
CLASSIFIERS = {
    "ocnn_classify": (1, "x"),
    "ocsvm_classify": (1, "x"),
    "binary_knn": (3, "query"),
    "binary_svm_classify": (1, "query"),
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _size(args, kwargs, pos: int) -> int:
    """Element count of a numpy ``size``/``shape`` argument."""
    shape = _arg(args, kwargs, pos, "size")
    if shape is None:
        return 1
    return shape if isinstance(shape, int) else math.prod(shape)


class Tracer:
    def __init__(self):
        self.stack: list = []
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(int)
        # layer -> seconds inside its outermost spans (children included)
        self.layer_span: dict = defaultdict(float)
        self._undo: list = []

    def _wrap(self, name: str, fn, after=None):
        stack, spans, layer_span = self.stack, self.spans, self.layer_span
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, layer, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if not stack or stack[-1][1] != layer:
                    layer_span[layer] += dt
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from pla_bench.rng import Rng

        modules = [m for name, m in sys.modules.items()
                   if name == "pla_bench" or name.startswith("pla_bench.")]
        for layer in LAYERS:
            module = sys.modules[f"pla_bench.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn, self._counter(layer, name))
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, attr, wrapped)
        for name in RNG_METHODS:
            fn = Rng.__dict__[name]
            self._patch(Rng, name, self._wrap(f"rng.{name}", fn, self._counter("rng", name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counter(self, layer: str, name: str):
        c = self.counts
        if layer == "rng" and name == "standard_normal":
            def after(args, kwargs, result):
                c["rng.normals"] += _size(args, kwargs, 1)
        elif layer == "channel" and name == "complex_gaussian":
            def after(args, kwargs, result):
                c["channel.draw_calls"] += 1
        elif layer == "statdec" and name == "optimize_thresholds":
            def after(args, kwargs, result):
                # the enclosing span is on top of the stack once this one popped
                if self.stack and self.stack[-1][2] == "harness.run_experiment":
                    c["harness.sweep_calibrations"] += 1
                c["statdec.mc_trials"] += _arg(args, kwargs, 2, "n_mc")
                grid = _arg(args, kwargs, 5, "n_theta", 64) * _arg(args, kwargs, 6, "n_eps", 64)
                c["statdec.grid_pairs"] += grid
                c["statdec.feasible_pairs"] += result.n_feasible
        elif layer == "attacks" and name == "optimize_attack_exponents":
            def after(args, kwargs, result):
                steps = round(2.0 / _arg(args, kwargs, 2, "grid_step", 0.1))
                c["attacks.grid_cells"] += (steps + 1) ** 2
        elif layer == "mlauth" and name == "ocsvm_train":
            def after(args, kwargs, result):
                c["mlauth.support_vectors"] += result.lambdas.size
        elif layer == "mlauth" and name in CLASSIFIERS:
            pos, key = CLASSIFIERS[name]
            def after(args, kwargs, result):
                q = _arg(args, kwargs, pos, key)
                c["mlauth.classify_queries"] += len(q) if getattr(q, "ndim", 1) > 1 else 1
        elif layer == "harness" and name == "run_experiment":
            def after(args, kwargs, result):
                config = _arg(args, kwargs, 0, "config")
                points = len(list(config.sweep_points()))
                c["harness.shards"] += points * config.n_datasets
                if config.defender.kind == "combined":
                    c["harness.combined_points"] += points
        else:
            return None
        return after

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.spans.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self, traced_wall: float) -> dict:
        """Per-layer figures of one traced pass (the trace.* and efficiency
        figures need the untraced passes and are added by run.py)."""
        sp = lambda n: self.spans.get(n, [0, 0.0, 0.0])  # noqa: E731
        c = self.counts
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        own = self.layer_self()
        opt = sp("statdec.optimize_thresholds")
        normal = sp("rng.standard_normal")
        grid = sp("attacks.optimize_attack_exponents")
        classify_s = sum(sp(f"mlauth.{n}")[1] for n in CLASSIFIERS)
        fits = sp("mlauth.ocsvm_train")[0]
        return {
            "rng.normals": c["rng.normals"],
            "rng.self_s": own["rng"],
            "rng.normals_per_s": ratio(c["rng.normals"], normal[2]),
            "channel.draw_calls": c["channel.draw_calls"],
            "channel.self_s": own["channel"],
            "statdec.self_s": own["statdec"],
            "statdec.span_s": self.layer_span["statdec"],
            "statdec.optimize_thresholds.calls": opt[0],
            "statdec.optimize_thresholds.self_s": opt[2],
            "statdec.optimize_thresholds.s_per_mtrial": ratio(opt[1], c["statdec.mc_trials"] / 1e6),
            "statdec.feasible_ratio": ratio(c["statdec.feasible_pairs"], c["statdec.grid_pairs"]),
            "statdec.ncx2_inv.calls": sp("statdec.ncx2_inv")[0],
            "statdec.ncx2_inv.self_s": sp("statdec.ncx2_inv")[2],
            "attacks.grid_cells": c["attacks.grid_cells"],
            "attacks.self_s": own["attacks"],
            "attacks.span_s": self.layer_span["attacks"],
            "attacks.cell_ms": ratio(1e3 * grid[2], c["attacks.grid_cells"]),
            "mlauth.self_s": own["mlauth"],
            "mlauth.span_s": self.layer_span["mlauth"],
            "mlauth.ocsvm_fits": fits,
            "mlauth.ocsvm_fit_s": sp("mlauth.ocsvm_train")[1],
            "mlauth.ocsvm_cv_s": sp("mlauth.ocsvm_train_cv")[1],
            "mlauth.ocnn_train_s": sp("mlauth.ocnn_train")[1],
            "mlauth.support_vectors_mean": ratio(c["mlauth.support_vectors"], fits),
            "mlauth.classify_queries": c["mlauth.classify_queries"],
            "mlauth.classify_queries_per_s": ratio(c["mlauth.classify_queries"], classify_s),
            "harness.shards": c["harness.shards"],
            "harness.self_s": traced_wall - sum(v for k, v in own.items() if k != "harness"),
            # combined sweep points calibrated without optimize_thresholds
            "harness.calib_fallbacks": c["harness.combined_points"] - c["harness.sweep_calibrations"],
        }
