"""Command-line entry point wiring the library together.

Subcommands: generate, extract-features, benchmark, grid-search,
rank-features, predict, experiment, can-convert, can-play. Every subcommand
accepts --config <json> whose keys mirror the flags (explicit flags win,
unknown keys are rejected). Exit codes: 0 success, 2 usage or configuration
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import canbus, selection
from .features import (
    FEATURE_NAMES,
    extract_features,
    read_feature_csv,
    write_feature_csv,
)
from .geometry import load_road, save_road
from .ml import (
    FAMILIES,
    ClassifierSpec,
    CorruptModelFile,
    FeatureMismatch,
    LabeledDataset,
    SingleClassDataset,
    UNSAFE_CODE,
    canonical_form,
    fit,
    grid_search,
    kfold_evaluate,
    load_model,
    oversample_minority,
    rank_features,
    save_model,
)
from .oracle import (
    SAFE,
    UNSAFE,
    DriverConfig,
    GenerationExhausted,
    GeneratorBounds,
    build_dataset,
    load_dataset,
    save_dataset,
    unsafe_fraction,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def _resolve(args, config: dict, allowed: set[str]):
    """Merge config-file values under explicit CLI flags; reject unknown keys."""
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _optional(args, name, cast, default):
    """The value of an optional setting, cast; default only when unset, so
    an explicit 0 is kept."""
    value = getattr(args, name, None)
    return default if value is None else cast(value)


def _labelled_dataset_from_csv(path: str) -> LabeledDataset:
    rows = read_feature_csv(path)
    unlabelled = [tid for tid, _, label in rows if label is None]
    if unlabelled:
        raise ConfigError(
            f"{len(unlabelled)} rows without a label in {path} "
            f"(first: {unlabelled[0]})")
    X = np.array([vec.as_array() for _, vec, _ in rows])
    y = np.array([1 if label == UNSAFE else 0 for _, _, label in rows])
    ids = tuple(tid for tid, _, _ in rows)
    return LabeledDataset(X, y, FEATURE_NAMES, ids)


def _driver_config(args) -> DriverConfig:
    kw = {}
    if getattr(args, "rf", None) is not None:
        kw["risk_factor"] = float(args.rf)
    if getattr(args, "mu", None) is not None:
        kw["mu"] = float(args.mu)
    if getattr(args, "oob", None) is not None:
        kw["oob_fraction"] = float(args.oob)
    return DriverConfig(**kw)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_generate(args, config) -> int:
    _resolve(args, config, {"n", "seed", "rf", "mu", "oob", "out", "keep_traces"})
    _require(args, "n", "seed", "out")
    n = int(args.n)
    if n < 1:
        raise ConfigError(f"-n must be >= 1, got {n}")
    cfg = _driver_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "roads").mkdir(exist_ok=True)

    keep = True if args.keep_traces is None else bool(args.keep_traces)
    tests = build_dataset(n, cfg, int(args.seed), keep_traces=keep)
    for tc in tests:
        save_road(out / "roads" / f"{tc.id}.json", tc.id, tc.road)
    save_dataset(out / "simulation.full.json", tests)
    write_feature_csv(
        out / "features.csv",
        [(tc.id, tc.features, tc.outcome.label) for tc in tests])
    print(f"generated {n} tests, unsafe fraction "
          f"{unsafe_fraction(tests):.3f}, artifacts in {out}")
    return EXIT_OK


def cmd_extract_features(args, config) -> int:
    _resolve(args, config, {"roads", "simulation", "out"})
    _require(args, "out")
    rows = []
    if args.simulation is not None:
        for tc in load_dataset(args.simulation):
            rows.append((tc.id, tc.features, tc.outcome.label))
    elif args.roads is not None:
        for path in sorted(Path(args.roads).glob("*.json")):
            road_id, road = load_road(path)
            rows.append((road_id, extract_features(road), None))
    else:
        raise ConfigError("need --roads or --simulation")
    write_feature_csv(args.out, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return EXIT_OK


def cmd_benchmark(args, config) -> int:
    _resolve(args, config, {"features", "models", "k", "seed", "out"})
    _require(args, "features", "seed", "out")
    ds = _labelled_dataset_from_csv(args.features)
    k = _optional(args, "k", int, 10)
    families = list(FAMILIES) if args.models in (None, "all") \
        else [f.strip() for f in args.models.split(",")]
    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"unknown model family {fam!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    best = None
    for fam in families:
        report = kfold_evaluate(ds, ClassifierSpec(fam), k, int(args.seed))
        (out / f"{fam}.report.json").write_text(
            json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"{fam}: weighted F1 {report.weighted_avg_f1:.3f} "
              f"(unsafe F1 {report.f1_unsafe:.3f})")
        if best is None or report.weighted_avg_f1 > best[1]:
            best = (fam, report.weighted_avg_f1)

    fam = best[0]
    train = oversample_minority(ds, int(args.seed))
    model = fit(ClassifierSpec(fam), train.X, train.y, ds.feature_names,
                rng_seed=int(args.seed))
    save_model(model, out / "best_model.json")
    print(f"best model: {fam} -> {out / 'best_model.json'}")
    return EXIT_OK


def cmd_grid_search(args, config) -> int:
    _resolve(args, config, {"family", "features", "k", "seed", "out"})
    _require(args, "family", "features", "seed", "out")
    if args.family not in FAMILIES:
        raise ConfigError(f"unknown model family {args.family!r}")
    ds = _labelled_dataset_from_csv(args.features)
    k = _optional(args, "k", int, 10)
    cells = grid_search(args.family, ds, k, int(args.seed))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "status", "weighted_avg_f1", "parameters"])
        for rank, cell in enumerate(cells, start=1):
            score = "" if cell.weighted_avg_f1 is None else f"{cell.weighted_avg_f1:.6f}"
            writer.writerow([rank, cell.status, score,
                             json.dumps(cell.params, sort_keys=True)])
    evaluated = [c for c in cells if c.status == "evaluated"]
    distinct = {canonical_form(ClassifierSpec(args.family, c.params), ds.X.shape[1])
                for c in evaluated}
    print(f"{args.family}: {len(cells)} cells ({len(evaluated)} evaluated, "
          f"{len(distinct)} distinct fits) -> {args.out}")
    return EXIT_OK


def cmd_rank_features(args, config) -> int:
    _resolve(args, config, {"features", "out"})
    _require(args, "features", "out")
    ds = _labelled_dataset_from_csv(args.features)
    result = rank_features(ds)
    payload = {
        "information_gain": [{"feature": n, "score": v}
                             for n, v in result.information_gain],
        "correlation": [{"feature": n, "score": v}
                        for n, v in result.correlation],
        "ig_selected": list(result.ig_selected),
        "correlation_selected": list(result.correlation_selected),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"rankings -> {args.out}")
    return EXIT_OK


def cmd_predict(args, config) -> int:
    _resolve(args, config, {"model", "roads", "features", "out"})
    _require(args, "model", "out")
    model = load_model(args.model)
    rows = []
    if args.features is not None:
        for tid, vec, _ in read_feature_csv(args.features):
            rows.append((tid, vec))
    elif args.roads is not None:
        for path in sorted(Path(args.roads).glob("*.json")):
            road_id, road = load_road(path)
            rows.append((road_id, extract_features(road)))
    else:
        raise ConfigError("need --roads or --features")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test_id", "predicted"])
        for tid, vec in rows:
            code = model.predict_features(vec)
            writer.writerow([tid, UNSAFE if code == UNSAFE_CODE else SAFE])
    print(f"{len(rows)} predictions -> {args.out}")
    return EXIT_OK


def _strategy_from_name(name: str, model_path: str | None):
    if name == "random":
        return selection.RandomStrategy()
    if name == "road_length":
        return selection.RoadLengthStrategy()
    if name == "model":
        if model_path is None:
            raise ConfigError("strategy 'model' needs a model path")
        return selection.ModelStrategy(load_model(model_path))
    raise ConfigError(f"unknown strategy {name!r}")


def _aggregate_csv(path: Path, rows: list[dict]) -> None:
    keys = sorted({k for row in rows for k in row if isinstance(row[k], (int, float))})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "stddev"])
        for key in keys:
            vals = np.array([float(row[key]) for row in rows])
            writer.writerow([key, f"{vals.mean():.9g}", f"{vals.std():.9g}"])


def cmd_experiment(args, config) -> int:
    # the experiment definition lives in the config file itself
    allowed = {"protocol", "dataset", "pool", "strategy", "model", "S", "N",
               "seeds", "repetitions", "budget_s", "mode", "warmup_n",
               "retrain_every", "rf", "out", "seed", "overhead_s"}
    _resolve(args, config, allowed)
    _require(args, "protocol", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    seeds = getattr(args, "seeds", None)
    if seeds is None:
        _require(args, "seed")
        reps = _optional(args, "repetitions", int, 30)
        if reps < 1:
            raise ConfigError(f"repetitions must be >= 1, got {reps}")
        seeds = [int(args.seed) + i for i in range(reps)]
    cost = selection.CostModel(
        overhead_s=_optional(args, "overhead_s", float, 10.0))

    rows = []
    if args.protocol in ("fix", "reach"):
        _require(args, "dataset", "pool", "strategy")
        tests = load_dataset(args.dataset)
        pool_cfg = args.pool
        strategy = _strategy_from_name(args.strategy, getattr(args, "model", None))
        for seed in seeds:
            pool = selection.build_pool(
                tests, (int(pool_cfg["safe"]), int(pool_cfg["unsafe"])), seed)
            if args.protocol == "fix":
                _require(args, "S")
                S = int(args.S)
                if S > len(pool):
                    raise ConfigError(f"S={S} exceeds pool size {len(pool)}")
                res = selection.run_fix(pool, strategy, S, seed)
                row = {"seed": seed, "unsafe_ratio": res.unsafe_ratio,
                       "drawn": res.drawn, "backfilled": res.backfilled}
            else:
                _require(args, "N")
                N = int(args.N)
                if N > pool.unsafe_count:
                    raise ConfigError(
                        f"N={N} exceeds pool unsafe count {pool.unsafe_count}")
                res = selection.run_reach(pool, strategy, N, cost, seed)
                row = {"seed": seed, "executed_count": res.executed_count,
                       "elapsed_cost_safe": res.elapsed_cost_safe,
                       "elapsed_cost_unsafe": res.elapsed_cost_unsafe,
                       "fallback_used": int(res.fallback_used)}
            rows.append(row)
            (out / f"rep_{seed}.json").write_text(json.dumps(row, indent=2) + "\n")
    elif args.protocol == "realtime":
        _require(args, "mode", "budget_s")
        driver = _driver_config(args)
        model = None
        spec = None
        if args.mode == "pretrained":
            _require(args, "model")
            model = load_model(args.model)
        elif args.mode == "adaptive":
            spec = ClassifierSpec("logistic")
        warmup_n = _optional(args, "warmup_n", int, 60)
        retrain_every = _optional(args, "retrain_every", int, 1)
        if warmup_n < 0:
            raise ConfigError(f"warmup_n must be >= 0, got {warmup_n}")
        if retrain_every < 1:
            raise ConfigError(f"retrain_every must be >= 1, got {retrain_every}")
        for seed in seeds:
            cfg = selection.RealTimeConfig(
                mode=args.mode, budget_s=float(args.budget_s), model=model,
                spec=spec, warmup_n=warmup_n, retrain_every=retrain_every,
                cost=cost, driver=driver)
            res = selection.run_realtime(cfg, seed)
            row = {"seed": seed, "executed_unsafe": res.executed_unsafe,
                   "executed_safe": res.executed_safe,
                   "rejected": res.rejected, "generated": res.generated,
                   **{f"time_{k}": v for k, v in res.time_fractions.items()}}
            if res.post_mortem_accuracy is not None:
                row["post_mortem_accuracy"] = res.post_mortem_accuracy
            rows.append(row)
            (out / f"rep_{seed}.json").write_text(json.dumps(row, indent=2) + "\n")
    else:
        raise ConfigError(f"unknown protocol {args.protocol!r}")

    _aggregate_csv(out / "aggregate.csv", rows)
    print(f"{args.protocol}: {len(rows)} repetitions -> {out}")
    return EXIT_OK


def cmd_can_convert(args, config) -> int:
    _resolve(args, config, {"simulation", "dbc", "mapping", "out", "period_ms"})
    _require(args, "simulation", "out")
    db = canbus.parse_dbc(
        Path(args.dbc).read_text() if args.dbc else canbus.DEFAULT_DBC)
    mapping = canbus.DEFAULT_MAPPING
    if args.mapping:
        entries = json.loads(Path(args.mapping).read_text())
        mapping = canbus.SignalMapping(entries=tuple(
            (e["field"], e["message"], e["signal"], float(e["factor"]))
            for e in entries))
    period = _optional(args, "period_ms", int, 20)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tests = load_dataset(args.simulation)
    converted = 0
    for tc in tests:
        if not tc.outcome.trace:
            continue
        records = canbus.convert_trace(tc.outcome.trace, db, mapping, period)
        canbus.write_playback_csv(records, out / f"{tc.id}.canplayback.csv")
        converted += 1
    print(f"converted {converted} traces -> {out}")
    return EXIT_OK


def cmd_can_play(args, config) -> int:
    _resolve(args, config, {"playback", "target", "pacing"})
    _require(args, "playback", "target")
    records = canbus.read_playback_csv(args.playback)
    pacing = args.pacing or canbus.AS_FAST_AS_POSSIBLE
    sink = canbus.open_sink(args.target)
    try:
        report = canbus.playback(records, sink, pacing)
    finally:
        sink.close()
    print(f"sent {report.frames_sent} frames "
          f"(latency ms mean {report.mean_latency_ms:.4f} "
          f"min {report.min_latency_ms:.4f} max {report.max_latency_ms:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadsift",
        description="Road-geometry test selection toolkit")
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)
        return p

    add("generate", cmd_generate, [
        ("-n", dict(dest="n", type=int, default=None)),
        ("--seed", dict(type=int, default=None)),
        ("--rf", dict(type=float, default=None)),
        ("--mu", dict(type=float, default=None)),
        ("--oob", dict(type=float, default=None)),
        ("--out", dict(default=None)),
        ("--no-traces", dict(dest="keep_traces", action="store_false",
                             default=None)),
    ])
    add("extract-features", cmd_extract_features, [
        ("--roads", dict(default=None)),
        ("--simulation", dict(default=None)),
        ("--out", dict(default=None)),
    ])
    add("benchmark", cmd_benchmark, [
        ("--features", dict(default=None)),
        ("--models", dict(default=None)),
        ("--k", dict(type=int, default=None)),
        ("--seed", dict(type=int, default=None)),
        ("--out", dict(default=None)),
    ])
    add("grid-search", cmd_grid_search, [
        ("--family", dict(default=None)),
        ("--features", dict(default=None)),
        ("--k", dict(type=int, default=None)),
        ("--seed", dict(type=int, default=None)),
        ("--out", dict(default=None)),
    ])
    add("rank-features", cmd_rank_features, [
        ("--features", dict(default=None)),
        ("--out", dict(default=None)),
    ])
    add("predict", cmd_predict, [
        ("--model", dict(default=None)),
        ("--roads", dict(default=None)),
        ("--features", dict(default=None)),
        ("--out", dict(default=None)),
    ])
    add("experiment", cmd_experiment, [
        ("--seed", dict(type=int, default=None)),
        ("--out", dict(default=None)),
    ])
    add("can-convert", cmd_can_convert, [
        ("--simulation", dict(default=None)),
        ("--dbc", dict(default=None)),
        ("--mapping", dict(default=None)),
        ("--period-ms", dict(dest="period_ms", type=int, default=None)),
        ("--out", dict(default=None)),
    ])
    add("can-play", cmd_can_play, [
        ("--playback", dict(default=None)),
        ("--target", dict(default=None)),
        ("--pacing", dict(choices=["fast", "realtime"], default=None)),
    ])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except (ConfigError, ValueError) as exc:
        # bad flags, config keys, input files, parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, OSError) as exc:
        # generation exhaustion, sink failures, IO
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
