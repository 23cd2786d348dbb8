"""Outside-in tracing of beamfix: wrap module functions, keep spans, derive per-layer metrics.

The program itself carries no instrumentation. A traced run replaces
selected module attributes with wrappers that record one span (name,
start, end, parent) per call, then restores the originals. Only calls
that look the function up through its defining module at call time are
seen; `blind_bindings` names every other module that holds the same
function object, and no count is published for those functions.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

# Public functions per layer, plus nn._gradients as the backprop boundary
# and cli.main as the command boundary.
TRACED = {
    "cli": ("main",),
    "simulate": ("generate_scenario",),
    "dataset": ("save_csv", "load_csv", "inject_noise", "remove_outliers", "split_train_test"),
    "grid": (
        "build_grid_table", "per_sample_displacements", "histogram_from_values",
        "displacement_histogram", "fit_gaussian",
        "save_grid_table_csv", "load_grid_table_csv", "save_histogram_csv",
    ),
    "nn": ("fit", "train", "forward", "_gradients", "predict", "save_weights", "load_weights"),
    "txid": ("train_txid", "identify_all", "identify", "save_predictions_csv"),
    "denoise": (
        "build_lut", "lut_predict", "train_denoiser", "mlp_predict",
        "save_lut_csv", "load_lut_csv",
    ),
    "evaluate": (
        "predict_methods", "per_grid_error", "comparison_rows", "comparison_text_table",
        "save_report_json", "save_pergrid_csv", "save_comparison_csv", "export_plot_data",
    ),
    "geo": ("haversine_distance",),
}

# Left untraced because denoise binds assign_grid at import time, so its
# calls would be undercounted; blind_bindings still names such callers.
UNTRACED = {"grid": ("assign_grid",)}

# Stage of a span called directly by cli.main; anything else a command
# does (argument parsing, manifests, loss histories, comparison JSON)
# is cli self time.
STAGE = {
    "simulate.generate_scenario": "simulate",
    "dataset.remove_outliers": "simulate",
    "dataset.inject_noise": "simulate",
    "grid.build_grid_table": "characterize",
    "grid.displacement_histogram": "characterize",
    "grid.per_sample_displacements": "characterize",
    "grid.histogram_from_values": "characterize",
    "grid.fit_gaussian": "characterize",
    "dataset.split_train_test": "txid_train",
    "txid.train_txid": "txid_train",
    "txid.identify_all": "txid_train",
    "denoise.build_lut": "denoise_train",
    "denoise.train_denoiser": "denoise_train",
    "evaluate.predict_methods": "evaluate",
    "evaluate.per_grid_error": "evaluate",
    "evaluate.comparison_rows": "evaluate",
    "evaluate.comparison_text_table": "evaluate",
    "dataset.save_csv": "io",
    "dataset.load_csv": "io",
    "grid.save_grid_table_csv": "io",
    "grid.load_grid_table_csv": "io",
    "grid.save_histogram_csv": "io",
    "nn.save_weights": "io",
    "nn.load_weights": "io",
    "denoise.save_lut_csv": "io",
    "denoise.load_lut_csv": "io",
    "txid.save_predictions_csv": "io",
    "evaluate.save_report_json": "io",
    "evaluate.save_pergrid_csv": "io",
    "evaluate.save_comparison_csv": "io",
    "evaluate.export_plot_data": "io",
}
STAGES = ("simulate", "characterize", "txid_train", "denoise_train", "evaluate", "io")

OP = "op"


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_m"):
        return "m"
    if metric in ("txid_acc", "fit_adj_r2"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder; install() swaps wrappers in, uninstall() puts the originals back."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name_ids = {OP: 0}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.installed: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span of one timed operation."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(idx)
                if hook is not None:
                    hook(args, kwargs, result, exc)

        return wrapper

    def _hooks(self, modules) -> dict:
        assign_grid = modules["grid"].assign_grid
        diverged = modules["nn"].TrainingDivergedError
        fit_failures = (ValueError, modules["grid"].FitConvergenceError)

        def save_csv(args, kwargs, result, exc):
            if exc is None:
                path = str(args[1] if len(args) > 1 else kwargs["path"])
                self._count("dataset.save_csv.bytes", os.path.getsize(path))
                self._count("dataset.save_csv.bytes", os.path.getsize(path + ".meta.json"))

        def load_csv(args, kwargs, result, exc):
            if exc is None:
                self._count("dataset.load_csv.rows", len(result))

        def generate(args, kwargs, result, exc):
            if exc is None:
                self._count("simulate.samples", len(result))

        def fit_gaussian(args, kwargs, result, exc):
            if exc is None:
                self._count("grid.fit_gaussian.iterations", result.iterations)
            elif isinstance(exc, fit_failures):
                self._count("grid.fit_gaussian.skipped")

        def train(args, kwargs, result, exc):
            if isinstance(exc, diverged):
                self._count("nn.diverged")

        def lut_predict(args, kwargs, result, exc):
            lut = args[0] if args else kwargs["lut"]
            x = args[1] if len(args) > 1 else kwargs["x_center"]
            if exc is None and assign_grid(x, lut.grid_count) not in lut.means:
                self._count("denoise.lut_fallbacks")

        return {
            "dataset.save_csv": save_csv,
            "dataset.load_csv": load_csv,
            "simulate.generate_scenario": generate,
            "grid.fit_gaussian": fit_gaussian,
            "nn.train": train,
            "denoise.lut_predict": lut_predict,
        }

    def install(self, modules: dict) -> None:
        hooks = self._hooks(modules)
        for mod_name, fn_names in TRACED.items():
            module = modules[mod_name]
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                setattr(module, fn_name, self._wrap(original, name, hooks.get(name)))
                self.installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self.installed):
            setattr(module, fn_name, original)
        self.installed.clear()

    @staticmethod
    def blind_bindings(package, modules: dict) -> list[str]:
        """Other names bound to a traced function, whose callers no wrapper sees."""
        originals = {
            id(getattr(modules[m], f)): f"{m}.{f}"
            for table in (TRACED, UNTRACED)
            for m, fns in table.items()
            for f in fns
        }
        found = []
        for holder_name, holder in [("beamfix", package), *modules.items()]:
            for attr, value in vars(holder).items():
                traced = originals.get(id(value))
                if traced is not None and traced != f"{holder_name}.{attr}":
                    found.append(f"{holder_name}.{attr} -> {traced}")
        return sorted(found)

    def save(self, path) -> None:
        """Write every span: name, parent index (-1 for a root), start and end in seconds."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def per_layer(self) -> dict[str, float]:
        """Per-operation means of the per-layer metrics over every traced operation."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        k = len(self.names)
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        ids = self.name_ids
        ops = max(int(calls[ids[OP]]), 1)

        def n(fn):
            return float(calls[ids[fn]]) / ops if fn in ids else 0.0

        def s(fn):
            return float(total[ids[fn]]) / ops if fn in ids else 0.0

        def under(child, caller):
            mask = (name == ids.get(child, -1)) & (parent_name == ids.get(caller, -2))
            return int(mask.sum()) / ops, float(dur[mask].sum()) / ops

        def counter(key):
            return self.counters.get(key, 0) / ops

        steps, loss_forward_s = under("nn.forward", "nn.train")
        wall = s(OP)
        top = parent_name == ids.get("cli.main", -2)
        stages = dict.fromkeys(STAGES, 0.0)
        for i in np.flatnonzero(top):
            stage = STAGE.get(self.names[name[i]])
            if stage is not None:
                stages[stage] += float(dur[i]) / ops

        m = {
            "trace.wall_s": wall,
            "nn.train.calls": n("nn.train"),
            "nn.train.steps": steps,
            "nn.step_us": 1e6 * s("nn.train") / steps if steps else 0.0,
            "nn.train.self_s": float(own[ids["nn.train"]]) / ops if "nn.train" in ids else 0.0,
            "nn.backprop_s": s("nn._gradients"),
            "nn.loss_forward_s": loss_forward_s,
            "nn.predict.calls": n("nn.predict"),
            "nn.predict.s": s("nn.predict"),
            "nn.io_s": s("nn.save_weights") + s("nn.load_weights"),
            "nn.diverged": counter("nn.diverged"),
            "txid.train.calls": n("txid.train_txid"),
            "txid.train.s": s("txid.train_txid"),
            "txid.identify.calls": n("txid.identify"),
            "txid.identify_all.s": s("txid.identify_all"),
            "denoise.train.s": s("denoise.train_denoiser"),
            "denoise.build_lut.s": s("denoise.build_lut"),
            "denoise.lut_predict.calls": n("denoise.lut_predict"),
            "denoise.lut_predict.s": s("denoise.lut_predict"),
            "denoise.lut_fallbacks": counter("denoise.lut_fallbacks"),
            "denoise.mlp_predict.calls": n("denoise.mlp_predict"),
            "denoise.mlp_predict.s": s("denoise.mlp_predict"),
            "evaluate.predict_methods.s": s("evaluate.predict_methods"),
            "evaluate.per_grid_error.s": s("evaluate.per_grid_error"),
            "evaluate.export_s": s("evaluate.export_plot_data"),
            "grid.build_grid_table.s": s("grid.build_grid_table"),
            "grid.per_sample_displacements.s": s("grid.per_sample_displacements"),
            "grid.fit_gaussian.s": s("grid.fit_gaussian"),
            "grid.fit_gaussian.iterations": counter("grid.fit_gaussian.iterations"),
            "grid.fit_gaussian.skipped": counter("grid.fit_gaussian.skipped"),
            "dataset.save_csv.s": s("dataset.save_csv"),
            "dataset.save_csv.bytes": counter("dataset.save_csv.bytes"),
            "dataset.load_csv.s": s("dataset.load_csv"),
            "dataset.load_csv.rows": counter("dataset.load_csv.rows"),
            "dataset.inject_noise.s": s("dataset.inject_noise"),
            "dataset.remove_outliers.s": s("dataset.remove_outliers"),
            "dataset.split_train_test.s": s("dataset.split_train_test"),
            "simulate.generate_scenario.s": s("simulate.generate_scenario"),
            "simulate.samples": counter("simulate.samples"),
            "geo.haversine_distance.calls": n("geo.haversine_distance"),
            "geo.haversine_distance.s": s("geo.haversine_distance"),
        }
        for stage, seconds in stages.items():
            m[f"stage.{stage}_s"] = seconds
        m["cli.self_s"] = wall - sum(stages.values())
        return m
