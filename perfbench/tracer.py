"""Spans and counts recorded around roadsift's layer entry points.

The benchmark never edits the package. Instead it replaces, for the length
of one traced pass, each entry point under the name its caller module binds
(``roadsift.oracle.interpolate_spine``, ``roadsift.selection._simulate``, ...)
with a wrapper that records a span: name, parent span, start, end and a few
counts taken from the arguments or the result. Spans stay in memory; the
runner writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# fixed, like the metric names in BENCHMARK.json that they expand into
FAMILIES = ("logistic", "naive_bayes", "decision_tree", "random_forest",
            "gradient_boosting", "linear_svm")
COMMANDS = ("generate", "can-convert", "can-play", "benchmark", "grid-search",
            "experiment")


def _family(args, result):
    return {"family": args[0].family, "rows": len(args[1])}


def _spec_family(args, result):
    return {"family": args[1].family}


def _drive_steps(args, result):
    # one integration step per timestep of simulated driving
    return {"steps": round(result.duration / args[1].timestep)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _records(args, result):
    return {"records": len(result)}


def _frames(args, result):
    return {"frames": result.frames_sent}


def _cells(args, result):
    return {"cells": len(result),
            "evaluated": sum(1 for c in result if c.status == "evaluated")}


def _rows(args, result):
    return {"rows": len(args[1])}


def _realtime(args, result):
    return {"mode": args[0].mode, "generated": result.generated,
            "executed": result.executed_safe + result.executed_unsafe,
            "rejected": result.rejected,
            "virtual_s": sum(result.clock.values())}


# (module, attribute path, span name, counts taken from (args, result))
ENTRY_POINTS = (
    ("roadsift.cli", "build_dataset", "oracle.build_dataset", None),
    ("roadsift.oracle", "generate_road", "oracle.generate_road", None),
    ("roadsift.selection", "generate_road", "oracle.generate_road", None),
    ("roadsift.oracle", "_candidate_points", "oracle.candidate_points", None),
    ("roadsift.oracle", "interpolate_spine", "geometry.interpolate_spine", None),
    ("roadsift.selection", "interpolate_spine", "geometry.interpolate_spine", None),
    ("roadsift.oracle", "self_intersects", "geometry.self_intersects", None),
    ("roadsift.oracle", "segment_spine", "geometry.segment_spine", None),
    ("roadsift.selection", "segment_spine", "geometry.segment_spine", None),
    ("roadsift.oracle", "features_from_segments",
     "features.features_from_segments", None),
    ("roadsift.selection", "features_from_segments",
     "features.features_from_segments", None),
    ("roadsift.oracle", "_simulate", "oracle.drive", _drive_steps),
    ("roadsift.selection", "_simulate", "oracle.drive", _drive_steps),
    ("roadsift.cli", "save_dataset", "oracle.save_dataset", _file_bytes),
    ("roadsift.cli", "load_dataset", "oracle.load_dataset", _file_bytes),
    ("roadsift.canbus", "convert_trace", "canbus.convert_trace", _records),
    ("roadsift.canbus", "write_playback_csv", "canbus.write_playback_csv", None),
    ("roadsift.canbus", "read_playback_csv", "canbus.read_playback_csv", None),
    ("roadsift.canbus", "playback", "canbus.playback", _frames),
    ("roadsift.ml.evaluate", "fit", "ml.fit", _family),
    ("roadsift.cli", "fit", "ml.fit", _family),
    ("roadsift.selection", "fit", "ml.fit", _family),
    ("roadsift.cli", "kfold_evaluate", "ml.kfold_evaluate", _spec_family),
    ("roadsift.ml.gridsearch", "kfold_evaluate", "ml.kfold_evaluate",
     _spec_family),
    ("roadsift.cli", "grid_search", "ml.grid_search", _cells),
    ("roadsift.ml.models", "TrainedClassifier.predict_matrix",
     "ml.predict_matrix", _rows),
    ("roadsift.selection", "ModelStrategy.accepts", "selection.accepts", None),
    ("roadsift.selection", "run_realtime", "selection.run_realtime", _realtime),
    ("roadsift.selection", "run_fix", "selection.run_fix", None),
    ("roadsift.selection", "run_reach", "selection.run_reach", None),
)


class MissingEntryPoint(Exception):
    """A wrapped name no longer exists in the package."""


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    try:
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except AttributeError as exc:
        raise MissingEntryPoint(f"{module}.{path} no longer exists") from exc


class Tracer:
    """In-memory span recorder. A span is [name, parent, start, end, tags];
    parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets = [(*_resolve(module, path), name, tag)
                         for module, path, name, tag in ENTRY_POINTS]

    def open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1,
                perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, tag):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if tag is not None:
                span[4] = tag(args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, original, name, tag in self._targets:
            setattr(owner, attr, self._wrap(name, original, tag))

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in self._targets:
            setattr(owner, attr, original)


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes. Counts and
    times are per pass; self time is a span's duration minus its children's."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def name_of(j):
        return spans[j][0] if j >= 0 else None

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    tags: dict[str, float] = {}
    fit_calls = {f: 0 for f in FAMILIES}
    fit_self = {f: 0.0 for f in FAMILIES}
    bench_kfold = {f: 0.0 for f in FAMILIES}
    build = {"roads": 0, "generation": 0.0, "reinterpolation": 0.0, "drive": 0.0}
    refits = 0
    refit_s = adaptive_s = 0.0
    grid_fits = 0
    for i, (name, p, _, _, tag) in enumerate(spans):
        tag = tag or {}           # a call that raised has no counts
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_s[i]
        for key, value in tag.items():
            if not isinstance(value, str):
                tags[f"{name}.{key}"] = tags.get(f"{name}.{key}", 0) + value
        parent = name_of(p)
        if name == "ml.fit" and tag:
            fit_calls[tag["family"]] += 1
            fit_self[tag["family"]] += self_s[i]
            if parent == "selection.run_realtime":
                refits += 1
                if (spans[p][4] or {}).get("mode") == "adaptive":
                    refit_s += dur[i]
            if p >= 0 and name_of(spans[p][1]) == "ml.grid_search":
                grid_fits += 1
        elif name == "ml.kfold_evaluate" and tag and parent != "ml.grid_search":
            bench_kfold[tag["family"]] += dur[i]
        elif name == "selection.run_realtime" and tag.get("mode") == "adaptive":
            adaptive_s += dur[i]
        elif parent == "oracle.build_dataset":
            if name == "oracle.generate_road":
                build["roads"] += 1
                build["generation"] += dur[i]
            elif name == "geometry.interpolate_spine":
                build["reinterpolation"] += dur[i]
            elif name == "oracle.drive":
                build["drive"] += dur[i]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return selfs.get(name, 0.0)

    def t(key):
        return tags.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "geometry.interpolate_spine.calls": c("geometry.interpolate_spine"),
        "geometry.interpolate_spine.self_s": s("geometry.interpolate_spine"),
        "geometry.interpolate_spine.per_accepted_road": ratio(
            c("geometry.interpolate_spine"), c("oracle.generate_road")),
        "geometry.self_intersects.calls": c("geometry.self_intersects"),
        "geometry.self_intersects.self_s": s("geometry.self_intersects"),
        "geometry.segment_spine.self_s": s("geometry.segment_spine"),
        "features.features_from_segments.self_s": s("features.features_from_segments"),
        "oracle.generate_road.calls": c("oracle.generate_road"),
        "oracle.generate_road.self_s": s("oracle.generate_road"),
        "oracle.generate_road.accept_ratio": ratio(
            c("oracle.generate_road"), c("oracle.candidate_points")),
        "oracle.drive.calls": c("oracle.drive"),
        "oracle.drive.self_s": s("oracle.drive"),
        "oracle.drive.steps": t("oracle.drive.steps"),
        "oracle.drive.steps_per_s": ratio(t("oracle.drive.steps"), s("oracle.drive")),
        "oracle.save_dataset.self_s": s("oracle.save_dataset"),
        "oracle.save_dataset.bytes": t("oracle.save_dataset.bytes"),
        "oracle.load_dataset.self_s": s("oracle.load_dataset"),
        "oracle.load_dataset.bytes": t("oracle.load_dataset.bytes"),
        "oracle.build_dataset.generation_s_per_road": ratio(
            build["generation"], build["roads"]),
        "oracle.build_dataset.reinterpolation_s_per_road": ratio(
            build["reinterpolation"], build["roads"]),
        "oracle.build_dataset.drive_s_per_road": ratio(build["drive"], build["roads"]),
        "canbus.convert_trace.calls": c("canbus.convert_trace"),
        "canbus.convert_trace.self_s": s("canbus.convert_trace"),
        "canbus.records": t("canbus.convert_trace.records"),
        "canbus.records_per_s": ratio(
            t("canbus.convert_trace.records"), s("canbus.convert_trace")),
        "canbus.write_playback_csv.self_s": s("canbus.write_playback_csv"),
        "canbus.read_playback_csv.self_s": s("canbus.read_playback_csv"),
        "canbus.playback.frames_per_s": ratio(
            t("canbus.playback.frames"), s("canbus.playback")),
        "ml.fit.rows": t("ml.fit.rows"),
        "ml.kfold_evaluate.calls": c("ml.kfold_evaluate"),
        "ml.kfold_evaluate.self_s": s("ml.kfold_evaluate"),
        "ml.grid_search.cells": t("ml.grid_search.cells"),
        "ml.grid_search.cells_evaluated": t("ml.grid_search.evaluated"),
        "ml.grid_search.fits_per_evaluated_cell": ratio(
            grid_fits, t("ml.grid_search.evaluated")),
        "ml.predict_matrix.calls": c("ml.predict_matrix"),
        "ml.predict_matrix.rows": t("ml.predict_matrix.rows"),
        "ml.predict_matrix.self_s": s("ml.predict_matrix"),
        "selection.accepts.calls": c("selection.accepts"),
        "selection.run_realtime.self_s": s("selection.run_realtime"),
        "selection.realtime.generated": t("selection.run_realtime.generated"),
        "selection.realtime.executed": t("selection.run_realtime.executed"),
        "selection.realtime.rejected": t("selection.run_realtime.rejected"),
        "selection.realtime.refits": refits,
        "selection.realtime.virtual_s": t("selection.run_realtime.virtual_s"),
        "selection.realtime.refit_share": ratio(refit_s, adaptive_s),
        "selection.run_fix.self_s": s("selection.run_fix"),
        "selection.run_reach.self_s": s("selection.run_reach"),
    }
    for f in FAMILIES:
        m[f"ml.fit.calls.{f}"] = fit_calls[f]
        m[f"ml.fit.self_s.{f}"] = fit_self[f]
        m[f"ml.benchmark_kfold_s.{f}"] = bench_kfold[f]
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = s(f"cli.{cmd}")
    # whole-pass ratios are already per pass; everything else is a total
    per_pass = {k for k in m if k.endswith(("_per_s", "_ratio", "_share",
                                            "per_accepted_road", "per_road",
                                            "per_evaluated_cell"))}
    return {k: (v if k in per_pass else v / passes) for k, v in m.items()}


def unit_of(name: str) -> str:
    """Unit of a benchmark metric, read off its name."""
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "per_accepted_road", "per_evaluated_cell")):
        return "1"
    if name.endswith(("_s", "_s_per_road")) or ".self_s." in name or "_kfold_s." in name:
        return "s"
    return "count"
