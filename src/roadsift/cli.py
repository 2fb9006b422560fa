"""Command-line entry point wiring the library together.

Subcommands: generate, extract-features, benchmark, grid-search,
rank-features, predict, experiment, can-convert, can-play. Every subcommand
accepts --config <json> whose keys are its flags' names, plus the experiment
keys for experiment, each value parsed like its flag (explicit flags win;
unknown keys are rejected, and so are experiment keys the run does not
read). A setting not given takes the library's default. Exit codes: 0
success; 2 a bad flag or setting, or an input file or directory that is
missing, unreadable, not UTF-8, not JSON, nested too deep to parse or
malformed, with its path (and the line where known) in the error; 3 a
runtime failure, such as an output that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import canbus, selection
from .features import (
    LABELS,
    FeatureVector,
    extract_features,
    read_feature_csv,
    write_feature_csv,
)
from .geometry import load_road, save_road
from .inputs import json_files, read_json
from .ml import (
    FAMILIES,
    ClassifierSpec,
    EvalReport,
    FeatureMismatch,
    LabeledDataset,
    canonical_form,
    dataset_from_rows,
    fit,
    grid_search,
    kfold_evaluate,
    load_model,
    oversample_minority,
    rank_features,
    save_model,
    shared_fit_key,
)
from .oracle import (
    NO_TRACE,
    DriverConfig,
    labelled_tests,
    load_dataset,
    save_dataset,
    unsafe_fraction,
)
from .workers import in_order

# unused here: perfbench/tracer.py wraps this name
from .oracle import build_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# the experiment keys each protocol reads; every protocol also reads
# "protocol", and either "seeds" or --seed with "repetitions"
PROTOCOL_KEYS = {
    "fix": ("dataset", "pool", "strategy", "model", "S"),
    "reach": ("dataset", "pool", "strategy", "model", "N", "overhead_s"),
    "realtime": ("mode", "budget_s", "model", "warmup_n", "retrain_every",
                 "rf", "overhead_s"),
}
# keys read only when the run's "mode" (realtime) or "strategy" (fix, reach)
# is one of these
READ_ONLY_WITH = {"model": ("pretrained", "model"),
                  "warmup_n": ("adaptive",), "retrain_every": ("adaptive",)}
# each experiment key's (type, choices), as a flag declares them; type None
# takes the JSON value as it is
EXPERIMENT_KEYS = {
    "protocol": (str, tuple(PROTOCOL_KEYS)), "seeds": (None, None),
    "repetitions": (int, None), "dataset": (str, None), "pool": (None, None),
    "strategy": (str, ("random", "road_length", "model")), "model": (str, None),
    "S": (int, None), "N": (int, None), "overhead_s": (float, None),
    "mode": (str, selection.RealTimeConfig.MODES), "budget_s": (float, None),
    "warmup_n": (int, None), "retrain_every": (int, None), "rf": (float, None),
}
K_FOLDS = 10            # --k when not given; the library has no default


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return obj


def _resolve(args, config: dict, keys: dict):
    """Merge config-file values under explicit CLI flags; reject unknown
    keys. With keys[key] = (type, choices), a value is parsed like its flag:
    the type applied to its text (bool, a switch, takes a JSON boolean; None
    any JSON value), then checked against the choices. Null is not given."""
    unknown = set(config) - set(keys)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if getattr(args, key) is not None or value is None:
            continue
        kind, choices = keys[key]
        try:
            if kind is bool and not isinstance(value, bool):
                raise ValueError
            parsed = value if kind in (bool, None) else kind(str(value))
        except ValueError:
            raise _config_error(args, key, f"invalid {kind.__name__} value: "
                                f"{value!r}") from None
        if choices is not None and parsed not in choices:
            raise _config_error(args, key, f"invalid choice: {parsed!r} (choose "
                                f"from {', '.join(map(repr, choices))})")
        setattr(args, key, parsed)
    return args


def _config_error(args, key: str, message: str) -> ValueError:
    """The error for a refused config value: the config file, the key, why."""
    return ValueError(f"{args.config}: config key {key!r}: {message}")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _one_input(args, first: str, second: str) -> str:
    """The name of the one of two inputs the user gave: not neither, not both."""
    given = [name for name in (first, second) if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError(f"--{first} and --{second} are mutually exclusive"
                         if given else f"need --{first} or --{second}")
    return given[0]


def _given(args, *names, **renamed) -> dict:
    """Keyword arguments for the settings the user gave, by their own name or
    renamed (parameter="setting"); the library's defaults stand for the rest."""
    pairs = [*zip(names, names), *renamed.items()]
    return {param: getattr(args, name) for param, name in pairs
            if getattr(args, name) is not None}


def _labelled_dataset_from_csv(path: str) -> LabeledDataset:
    rows = read_feature_csv(path)
    unlabelled = [tid for tid, _, label in rows if label is None]
    if unlabelled:
        raise ValueError(
            f"{len(unlabelled)} rows without a label in {path} "
            f"(first: {unlabelled[0]})")
    return dataset_from_rows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_generate(args) -> int:
    _require(args, "n", "seed", "out")
    if args.n < 1:
        raise ValueError(f"-n must be >= 1, got {args.n}")
    driver = DriverConfig(**_given(args, "mu", risk_factor="rf", oob_fraction="oob"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    kept = []                   # each test as it is written, without its trace

    def tests():
        for tc in labelled_tests(args.n, driver, args.seed,
                                 **_given(args, "keep_traces")):
            kept.append(replace(tc, outcome=replace(tc.outcome, trace=NO_TRACE)))
            yield tc

    # each row is written as its road is labelled, so at most two traces
    # are held at once; the other artifacts follow once the dataset is in
    # place
    save_dataset(out / "simulation.full.json", tests())
    (out / "roads").mkdir(exist_ok=True)
    for tc in kept:
        save_road(out / "roads" / f"{tc.id}.json", tc.id, tc.road)
    write_feature_csv(
        out / "features.csv",
        [(tc.id, tc.features, tc.outcome.label) for tc in kept])
    print(f"generated {args.n} tests, unsafe fraction "
          f"{unsafe_fraction(kept):.3f}, artifacts in {out}")
    return EXIT_OK


def _road_features(roads: str) -> list[tuple[str, FeatureVector]]:
    """(id, features) of each road file in a directory, in name order; a
    directory that cannot be listed, or a road that cannot be read or
    measured, raises ValueError naming it."""
    rows = []
    for path in json_files(roads):
        road_id, road = load_road(path)
        try:
            rows.append((road_id, extract_features(road)))
        except ValueError as exc:       # the road crosses itself
            raise ValueError(f"{path}: {exc}") from None
    return rows


def cmd_extract_features(args) -> int:
    _require(args, "out")
    if _one_input(args, "roads", "simulation") == "simulation":
        rows = [(tc.id, tc.features, tc.outcome.label)
                for tc in load_dataset(args.simulation, keep_traces=False)]
    else:
        rows = [(road_id, vec, None) for road_id, vec in _road_features(args.roads)]
    write_feature_csv(args.out, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return EXIT_OK


def _family_report(ds: LabeledDataset, family: str, k: int,
                   seed: int) -> EvalReport:
    """One family's K-fold report. Module-level, so that a worker process
    can run it; it calls kfold_evaluate by the name this module imports,
    the name perfbench/tracer.py wraps."""
    return kfold_evaluate(ds, ClassifierSpec(family), k, seed)


def cmd_benchmark(args) -> int:
    _require(args, "features", "seed", "out")
    ds = _labelled_dataset_from_csv(args.features)
    k = K_FOLDS if args.k is None else args.k
    families = list(FAMILIES) if args.models in (None, "all") \
        else [f.strip() for f in args.models.split(",")]
    for i, fam in enumerate(families):
        if fam not in FAMILIES:
            raise ValueError(f"unknown model family {fam!r}")
        if fam in families[:i]:
            raise ValueError(f"model family {fam!r} is given twice")
    out = Path(args.out)

    best = None
    # the families' K-folds run side by side where there are CPUs for them;
    # their reports come back in family order
    with closing(in_order(_family_report, [(ds, fam, k, args.seed)
                                           for fam in families])) as reports:
        for fam, report in zip(families, reports):
            # made once a report is in hand, so a refused run leaves none
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{fam}.report.json").write_text(
                json.dumps(report.as_dict(), indent=2) + "\n")
            print(f"{fam}: weighted F1 {report.weighted_avg_f1:.3f} "
                  f"(unsafe F1 {report.f1_unsafe:.3f})")
            if best is None or report.weighted_avg_f1 > best[1]:
                best = (fam, report.weighted_avg_f1)

    fam = best[0]
    train = oversample_minority(ds, args.seed)
    model = fit(ClassifierSpec(fam), train.X, train.y, ds.feature_names,
                rng_seed=args.seed)
    save_model(model, out / "best_model.json")
    print(f"best model: {fam} -> {out / 'best_model.json'}")
    return EXIT_OK


def cmd_grid_search(args) -> int:
    _require(args, "family", "features", "seed", "out")
    ds = _labelled_dataset_from_csv(args.features)
    k = K_FOLDS if args.k is None else args.k
    cells = grid_search(args.family, ds, k, args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "status", "weighted_avg_f1", "parameters"])
        for rank, cell in enumerate(cells, start=1):
            score = "" if cell.weighted_avg_f1 is None else f"{cell.weighted_avg_f1:.6f}"
            writer.writerow([rank, cell.status, score,
                             json.dumps(cell.params, sort_keys=True)])
    evaluated = [ClassifierSpec(args.family, c.params)
                 for c in cells if c.status == "evaluated"]
    d = ds.X.shape[1]
    forms = {canonical_form(spec, d) for spec in evaluated}
    fits = {shared_fit_key(spec, d) for spec in evaluated}
    print(f"{args.family}: {len(cells)} cells ({len(evaluated)} evaluated, "
          f"{len(forms)} distinct forms, {len(fits)} fits per fold) "
          f"-> {args.out}")
    return EXIT_OK


def cmd_rank_features(args) -> int:
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


def cmd_predict(args) -> int:
    _require(args, "model", "out")
    source = _one_input(args, "roads", "features")
    model = load_model(args.model)
    if source == "features":
        rows = [(tid, vec) for tid, vec, _ in read_feature_csv(args.features)]
    else:
        rows = _road_features(args.roads)
    try:
        X = model.feature_matrix([v for _, v in rows])
    except FeatureMismatch as exc:
        raise FeatureMismatch(f"model file {args.model}: {exc}") from None
    codes = model.predict_matrix(X)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test_id", "predicted"])
        for (tid, _), code in zip(rows, codes.tolist()):
            writer.writerow([tid, LABELS[code]])
    print(f"{len(rows)} predictions -> {args.out}")
    return EXIT_OK


def _aggregate_csv(path: Path, rows: list[dict]) -> None:
    """Mean and stddev of each numeric key over the reps that hold it; a key
    that some reps lack (a real-time rep that never left its warm-up has no
    post_mortem_accuracy) is named with how many hold it: "key (k of n
    reps)"."""
    keys = sorted({k for row in rows for k in row if isinstance(row[k], (int, float))})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "stddev"])
        for key in keys:
            vals = np.array([float(row[key]) for row in rows if key in row])
            name = key if len(vals) == len(rows) else (
                f"{key} ({len(vals)} of {len(rows)} reps)")
            writer.writerow([name, f"{vals.mean():.9g}", f"{vals.std():.9g}"])


def cmd_experiment(args) -> int:
    _require(args, "protocol", "out")
    selector = "mode" if args.protocol == "realtime" else "strategy"
    _require(args, selector)
    choice = getattr(args, selector)
    seeds = args.seeds
    read = {"protocol", *(("seed", "repetitions") if seeds is None else ("seeds",)),
            *(k for k in PROTOCOL_KEYS[args.protocol]
              if k not in READ_ONLY_WITH or choice in READ_ONLY_WITH[k])}
    unread = [k for k in sorted({"seed", *EXPERIMENT_KEYS} - read)
              if getattr(args, k) is not None]
    if unread:
        raise ValueError(f"protocol {args.protocol!r} with {selector} "
                         f"{choice!r} does not read {', '.join(map(repr, unread))}")
    if seeds is None:
        _require(args, "seed")
        reps = 30 if args.repetitions is None else args.repetitions
        if reps < 1:
            raise _config_error(args, "repetitions", f"{reps} is not >= 1")
        seeds = [args.seed + i for i in range(reps)]
    elif not (isinstance(seeds, list) and seeds
              and all(type(seed) is int for seed in seeds)
              and len(set(seeds)) == len(seeds)):
        raise _config_error(args, "seeds", f"{seeds!r} is not a non-empty "
                            "list of distinct integers")
    cost = selection.CostModel(**_given(args, "overhead_s"))

    if args.protocol in ("fix", "reach"):
        _require(args, "dataset", "pool", "S" if args.protocol == "fix" else "N")
        pool_cfg = args.pool
        if not (isinstance(pool_cfg, dict) and pool_cfg.keys() == {"safe", "unsafe"}
                and all(type(n) is int and n >= 0 for n in pool_cfg.values())):
            raise _config_error(args, "pool", f'{pool_cfg!r} is not an object of '
                                'exactly "safe" and "unsafe" counts, each an int >= 0')
        tests = load_dataset(args.dataset, keep_traces=False)
        if args.strategy == "model":
            _require(args, "model")
            strategy = selection.ModelStrategy(load_model(args.model))
        else:
            strategy = {"random": selection.RandomStrategy,
                        "road_length": selection.RoadLengthStrategy}[args.strategy]()

        def repetition(seed):
            pool = selection.build_pool(
                tests, (pool_cfg["safe"], pool_cfg["unsafe"]), seed)
            if args.protocol == "fix":
                res = selection.run_fix(pool, strategy, args.S, seed)
                return {"seed": seed, "unsafe_ratio": res.unsafe_ratio,
                        "drawn": res.drawn, "backfilled": res.backfilled}
            res = selection.run_reach(pool, strategy, args.N, cost, seed)
            return {"seed": seed, "executed_count": res.executed_count,
                    "elapsed_cost_safe": res.elapsed_cost_safe,
                    "elapsed_cost_unsafe": res.elapsed_cost_unsafe,
                    "fallback_used": int(res.fallback_used)}
    else:
        _require(args, "budget_s")
        cfg = selection.RealTimeConfig(
            mode=args.mode, budget_s=args.budget_s,
            model=None if args.model is None else load_model(args.model),
            cost=cost, driver=DriverConfig(**_given(args, risk_factor="rf")),
            **_given(args, "warmup_n", "retrain_every"))

        def repetition(seed):
            res = selection.run_realtime(cfg, seed)
            row = {"seed": seed, "executed_unsafe": res.executed_unsafe,
                   "executed_safe": res.executed_safe,
                   "rejected": res.rejected, "generated": res.generated,
                   **{f"time_{k}": v for k, v in res.time_fractions.items()}}
            if res.post_mortem_accuracy is not None:
                row["post_mortem_accuracy"] = res.post_mortem_accuracy
            return row

    # made only once the config has passed every check
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        rows.append(repetition(seed))
        (out / f"rep_{seed}.json").write_text(json.dumps(rows[-1], indent=2) + "\n")

    _aggregate_csv(out / "aggregate.csv", rows)
    print(f"{args.protocol}: {len(rows)} repetitions -> {out}")
    return EXIT_OK


def cmd_can_convert(args) -> int:
    _require(args, "simulation", "out")
    if args.dbc:
        db = canbus.read_dbc(args.dbc)
    else:
        db = canbus.parse_dbc(canbus.DEFAULT_DBC)
    mapping = (canbus.read_mapping(args.mapping) if args.mapping
               else canbus.DEFAULT_MAPPING)
    try:                        # checked once, so also without traces
        mapping.validate(db, canbus.TRACE_KEYS)
    except ValueError as exc:   # names the mapping, the DBC or both
        files = " with ".join(p for p in (args.mapping, args.dbc) if p)
        raise ValueError(f"{files}: {exc}") from None
    period = _given(args, sample_period_ms="period_ms")
    if period:                  # checked once, so also without traces
        canbus.check_sample_period(**period)
    tests = load_dataset(args.simulation)
    out = Path(args.out)        # so a refused dataset leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    converted = 0
    for tc in tests:
        if not len(tc.outcome.trace):
            continue
        canbus.write_trace_playback(tc.outcome.trace, db, mapping,
                                    out / f"{tc.id}.canplayback.csv", **period)
        converted += 1
    if not converted:
        print(f"{args.simulation} holds no traces (generated with --no-traces?)")
    print(f"converted {converted} traces -> {out}")
    return EXIT_OK


def cmd_can_play(args) -> int:
    _require(args, "playback", "target")
    records = canbus.read_playback_csv(args.playback)
    sink = canbus.open_sink(args.target)
    try:
        report = canbus.playback(records, sink, **_given(args, "pacing"))
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

    def add(name, handler, flags, config_only=()):
        """A subcommand whose config keys are its flags' names, with each
        flag's (type, choices), plus config_only's keys (unset: None)."""
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        actions = [p.add_argument(flag, **kw) for flag, kw in flags]
        keys = {a.dest: (bool if a.nargs == 0 else a.type or str, a.choices)
                for a in actions}
        keys.update(config_only)
        p.set_defaults(handler=handler, config_keys=keys,
                       **dict.fromkeys(config_only))

    add("generate", cmd_generate, [
        ("-n", dict(dest="n", type=int, default=None)),
        ("--seed", dict(type=int, default=None)),
        ("--rf", dict(type=float, default=None)),
        ("--mu", dict(type=float, default=None)),
        ("--oob", dict(type=float, default=None)),
        ("--out", dict(default=None)),
        ("--no-traces", dict(dest="keep_traces", action="store_false", default=None)),
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
        ("--family", dict(choices=FAMILIES, default=None)),
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
    # the experiment definition lives in the config file itself
    add("experiment", cmd_experiment, [
        ("--seed", dict(type=int, default=None)),
        ("--out", dict(default=None)),
    ], config_only=EXPERIMENT_KEYS)
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
        _resolve(args, _load_config(args.config), args.config_keys)
        return args.handler(args)
    except ValueError as exc:
        # bad flags, config keys, input files, parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, OSError) as exc:
        # generation exhaustion, sink failures, writing outputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
