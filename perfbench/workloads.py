"""The benchmark's three workloads, as sequences of roadsift CLI commands.

Each workload builds its inputs in `setup`, then the runner repeats passes
of `commands` in a closed loop. A pass belongs to one of `sets` input sets,
chosen round-robin, so a run covers more than one input. An invocation
that repeats (set-up, a traced pair, a set visited twice) must reproduce
its output digests. Every command belongs to stage 1 or stage 2 of the
pass; METRICS.md says what each stage holds. All seeds derive from the
benchmark seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from roadsift import canbus
from roadsift.features import read_feature_csv
from roadsift.ml import grid_sizes, iter_cells, load_model, skip_reason
from roadsift.oracle import SAFE, UNSAFE

RISK_FACTOR = "1.5"


@dataclass
class Command:
    stage: int                       # 1 or 2; 0 in set-up
    key: str                         # names the invocation across passes
    argv: list[str]
    check: Callable[[], list[str]]   # problems found in the outputs
    digests: tuple[Path, ...] = ()


def _check_features(path: Path, n: int) -> Callable[[], list[str]]:
    def check():
        rows = read_feature_csv(path)
        problems = []
        if len(rows) != n:
            problems.append(f"{path.name}: {len(rows)} rows, expected {n}")
        unlabelled = [tid for tid, _, label in rows if label not in (SAFE, UNSAFE)]
        if unlabelled:
            problems.append(f"{path.name}: {len(unlabelled)} rows without a label")
        return problems
    return check


def _check_model(path: Path) -> Callable[[], list[str]]:
    def check():
        load_model(path)        # raises CorruptModelFile on a bad file
        return []
    return check


def _expected_records(trace_end_s: float, period_ms: int = 20) -> int:
    messages = {entry[1] for entry in canbus.DEFAULT_MAPPING.entries}
    return (round(trace_end_s * 1000.0) // period_ms + 1) * len(messages)


class Label:
    """generate with traces kept, can-convert of every trace, can-play of
    one playback file to a file:// sink."""

    name = "label"
    sets = 16
    roads = 30

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, run, work: Path) -> None:
        """The inputs are seeds only; nothing is built ahead."""

    def commands(self, set_index: int, out: Path) -> list[Command]:
        gen, can = out / "gen", out / "can"
        sim = gen / "simulation.full.json"
        first = can / "test_00000.canplayback.csv"
        frames = out / "frames.bin"

        def check_playback():
            rows = json.loads(sim.read_text())
            problems = []
            for row in rows:
                path = can / f"{row['id']}.canplayback.csv"
                got = len(canbus.read_playback_csv(path))
                want = _expected_records(row["trace"][-1]["t"])
                if got != want:
                    problems.append(f"{path.name}: {got} records, expected {want}")
            return problems

        def check_frames():
            sent = canbus.read_frames(frames.read_bytes())
            if sent != canbus.read_playback_csv(first):
                return [f"{frames.name} differs from {first.name}"]
            return []

        return [
            Command(1, "generate",
                    ["generate", "-n", str(self.roads), "--rf", RISK_FACTOR,
                     "--seed", str(self.seed * 100 + set_index), "--out", str(gen)],
                    _check_features(gen / "features.csv", self.roads),
                    (gen / "features.csv", sim)),
            Command(2, "can-convert",
                    ["can-convert", "--simulation", str(sim), "--out", str(can)],
                    check_playback),
            Command(2, "can-play",
                    ["can-play", "--playback", str(first),
                     "--target", f"file://{frames}", "--pacing", "fast"],
                    check_frames),
        ]

    def derived(self, stage1_s: float, stage2_s: float) -> dict[str, tuple[float, str]]:
        return {"label.roads_per_s": (self.roads / (stage1_s + stage2_s), "1/s")}


GRID_FAMILIES = ("logistic", "linear_svm", "decision_tree")


def _check_grid(path: Path, family: str) -> Callable[[], list[str]]:
    def check():
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = iter_cells(family)
        valid = sum(1 for p in cells if skip_reason(family, p) is None)
        evaluated = [r for r in rows if r["status"] == "evaluated"]
        skipped = [r for r in rows if r["status"].startswith("skipped: ")]
        problems = []
        if len(rows) != grid_sizes()[family]:
            problems.append(f"{path.name}: {len(rows)} rows, expected {grid_sizes()[family]}")
        if len(evaluated) != valid or len(skipped) != len(cells) - valid:
            problems.append(f"{path.name}: {len(evaluated)} evaluated / "
                            f"{len(skipped)} skipped, expected {valid} / {len(cells) - valid}")
        for row in evaluated:
            reason = skip_reason(family, json.loads(row["parameters"]))
            if reason is not None or not 0.0 <= float(row["weighted_avg_f1"]) <= 1.0:
                problems.append(f"{path.name}: bad evaluated row {row}")
        return problems
    return check


class Train:
    """benchmark of the six families (k=10), then grid-search for logistic,
    linear_svm and decision_tree, on features CSVs built in set-up."""

    name = "train"
    sets = 2
    rows = 40
    k = "10"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, run, work: Path) -> None:
        self.features = []
        for i in range(self.sets):
            out = work / f"data{i}"
            self.features.append(out / "features.csv")
            run(Command(0, f"setup-generate-{i}",
                        ["generate", "-n", str(self.rows), "--rf", RISK_FACTOR,
                         "--no-traces", "--seed", str(self.seed * 100 + 50 + i),
                         "--out", str(out)],
                        _check_features(self.features[i], self.rows),
                        (self.features[i],)))

    def commands(self, set_index: int, out: Path) -> list[Command]:
        seed = str(self.seed * 100 + 60 + set_index)
        features = str(self.features[set_index])
        bench = out / "bench"

        def check_reports():
            problems = []
            for family in grid_sizes():
                report = json.loads((bench / f"{family}.report.json").read_text())
                if not 0.0 <= report["weighted_avg_f1"] <= 1.0:
                    problems.append(f"{family}: weighted F1 {report['weighted_avg_f1']}")
            return problems + _check_model(bench / "best_model.json")()

        cmds = [Command(1, "benchmark",
                        ["benchmark", "--features", features, "--k", self.k,
                         "--seed", seed, "--out", str(bench)],
                        check_reports, (bench / "best_model.json",))]
        for family in GRID_FAMILIES:
            path = out / f"grid_{family}.csv"
            cmds.append(Command(2, f"grid-search-{family}",
                                ["grid-search", "--family", family,
                                 "--features", features, "--k", self.k,
                                 "--seed", seed, "--out", str(path)],
                                _check_grid(path, family), (path,)))
        return cmds

    def derived(self, stage1_s: float, stage2_s: float) -> dict[str, tuple[float, str]]:
        cells = sum(1 for f in GRID_FAMILIES for p in iter_cells(f)
                    if skip_reason(f, p) is None)
        return {"train.kfold_s": (stage1_s, "s"),
                "train.grid_cells_per_s": (cells / stage2_s, "1/s")}


class Select:
    """experiment: realtime adaptive and pretrained, then FIX and REACH with
    the model strategy, on a traced dataset and a logistic model built in
    set-up."""

    name = "select"
    sets = 4
    rows = 80
    budget_s = 1500.0
    repetitions = 60
    pool = {"safe": 20, "unsafe": 12}
    S = 10
    N = 6

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, run, work: Path) -> None:
        data, model_dir = work / "data", work / "model"
        dataset = data / "simulation.full.json"
        model = model_dir / "best_model.json"
        run(Command(0, "setup-generate",
                    ["generate", "-n", str(self.rows), "--rf", RISK_FACTOR,
                     "--seed", str(self.seed * 100 + 80), "--out", str(data)],
                    _check_features(data / "features.csv", self.rows), (dataset,)))
        run(Command(0, "setup-model",
                    ["benchmark", "--features", str(data / "features.csv"),
                     "--models", "logistic", "--k", "5",
                     "--seed", str(self.seed * 100 + 81), "--out", str(model_dir)],
                    _check_model(model), (model,)))
        common = {"repetitions": 1, "rf": float(RISK_FACTOR), "budget_s": self.budget_s}
        pooled = {"dataset": str(dataset), "pool": self.pool, "strategy": "model",
                  "model": str(model), "repetitions": self.repetitions}
        self.configs = {}
        for name, cfg in (
                ("adaptive", {"protocol": "realtime", "mode": "adaptive",
                              "warmup_n": 20, **common}),
                ("pretrained", {"protocol": "realtime", "mode": "pretrained",
                                "model": str(model), **common}),
                ("fix", {"protocol": "fix", "S": self.S, **pooled}),
                ("reach", {"protocol": "reach", "N": self.N, **pooled})):
            self.configs[name] = work / f"{name}.json"
            self.configs[name].write_text(json.dumps(cfg))

    def commands(self, set_index: int, out: Path) -> list[Command]:
        seed = str(self.seed * 100 + 90 + set_index)

        def reps(name):
            return [json.loads(p.read_text()) for p in sorted((out / name).glob("rep_*.json"))]

        def check_realtime(name):
            def check():
                got = reps(name)
                problems = [] if got else [f"{name}: no repetitions"]
                for rep in got:
                    if rep["executed_unsafe"] + rep["executed_safe"] + rep["rejected"] \
                            != rep["generated"]:
                        problems.append(f"{name}: executed + rejected != generated")
                    total = sum(v for k, v in rep.items() if k.startswith("time_"))
                    if abs(total - 1.0) > 1e-9:
                        problems.append(f"{name}: time fractions sum to {total}")
                return problems
            return check

        def check_fix():
            got = reps("fix")
            if len(got) != self.repetitions:
                return [f"fix: {len(got)} repetitions, expected {self.repetitions}"]
            return [f"fix: unsafe ratio {r['unsafe_ratio']}" for r in got
                    if not 0.0 <= r["unsafe_ratio"] <= 1.0]

        def check_reach():
            got = reps("reach")
            if len(got) != self.repetitions:
                return [f"reach: {len(got)} repetitions, expected {self.repetitions}"]
            return [f"reach: executed {r['executed_count']} < N={self.N}" for r in got
                    if r["executed_count"] < self.N]

        checks = {"adaptive": check_realtime("adaptive"),
                  "pretrained": check_realtime("pretrained"),
                  "fix": check_fix, "reach": check_reach}
        return [Command(1 if name in ("adaptive", "pretrained") else 2, name,
                        ["experiment", "--config", str(self.configs[name]),
                         "--seed", seed, "--out", str(out / name)],
                        checks[name], (out / name / "aggregate.csv",))
                for name in checks]

    def derived(self, stage1_s: float, stage2_s: float) -> dict[str, tuple[float, str]]:
        return {"select.realtime_virtual_s_per_s": (2 * self.budget_s / stage1_s, "1/s"),
                "select.fixreach_reps_per_s": (2 * self.repetitions / stage2_s, "1/s")}


WORKLOADS = {w.name: w for w in (Label, Train, Select)}
