import contextlib
import copy
import inspect
import io
import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roadsift import canbus, cli, oracle
from roadsift.cli import main
from roadsift.features import FEATURE_NAMES, read_feature_csv
from roadsift.ml import FAMILIES, ClassifierSpec, fit, save_model
from roadsift.canbus import DEFAULT_DBC, parse_dbc, decode_signal, read_playback_csv
from roadsift.inputs import read_json
from roadsift.oracle import TRACE_COLUMNS, load_dataset


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small generated dataset reused across CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["generate", "-n", "20", "--rf", "1.5", "--seed", "101",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_models(run_dir, tmp_path_factory):
    """A small valid model file of each family, on two of run_dir's
    features, as parsed JSON."""
    rows = read_feature_csv(run_dir / "features.csv")
    names = FEATURE_NAMES[:2]
    X = [[vec.as_dict()[n] for n in names] for _, vec, _ in rows]
    y = [int(label == "unsafe") for _, _, label in rows]
    path = tmp_path_factory.mktemp("models") / "model.json"
    payloads = {}
    small = {"random_forest": {"I": 5, "depth": 5},
             "gradient_boosting": {"n_estimators": 10}}
    for family in FAMILIES:
        spec = ClassifierSpec(family, small.get(family, {}))
        save_model(fit(spec, X, y, names, 0), path)
        payloads[family] = json.loads(path.read_text())
    return payloads


@pytest.fixture(scope="module")
def full_model(run_dir, tmp_path_factory):
    """A logistic model file on all of run_dir's features."""
    rows = read_feature_csv(run_dir / "features.csv")
    path = tmp_path_factory.mktemp("models") / "full.json"
    save_model(fit(ClassifierSpec("logistic"),
                   [vec.as_array() for _, vec, _ in rows],
                   [int(label == "unsafe") for _, _, label in rows],
                   FEATURE_NAMES, 0), path)
    return path


def _csv_cell(value) -> str:
    """A changed feature table's cell as CSV text: a string as it is, None
    empty, anything else as JSON (NaN as "NaN", which float reads)."""
    if isinstance(value, str):
        return value
    return "" if value is None else json.dumps(value)


def json_paths(node, path=()):
    """The path of every value in a parsed JSON document, the root's ()
    first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


DELETE = object()
# what a node of an input file is replaced with, or DELETE for deleting it
# from its object
NODE_CHANGES = [None, True, "x", [], {}, math.nan, -1, 1e308, DELETE]


def changed_node(data, document, caps=None):
    """A copy of a parsed JSON document with one node, drawn from data,
    replaced by a drawn NODE_CHANGES value or deleted from its object.

    A number put under a key of caps is capped at caps[key]: such values
    (a run's budget, a trace's end time) ask for a run as long as they say,
    which is valid, so they are drawn under a small cap."""
    document = copy.deepcopy(document)
    where = data.draw(st.sampled_from(list(json_paths(document))), label="node")
    change = data.draw(st.sampled_from(NODE_CHANGES), label="change")
    if where and where[-1] in (caps or {}) and type(change) in (int, float):
        change = min(change, caps[where[-1]])
    if not where:
        assume(change is not DELETE)
        return change
    if change is DELETE:
        parent = node_at(document, where[:-1])
        assume(isinstance(parent, dict))
        del parent[where[-1]]
    else:
        node_at(document, where[:-1])[where[-1]] = change
    return document


def changed_bytes(data, blob: bytes) -> bytes:
    """blob cut short at a drawn byte, or with a 0xff byte, which is never
    UTF-8, inserted there."""
    at = data.draw(st.integers(0, len(blob)), label="at")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:at]
    return blob[:at] + b"\xff" + blob[at:]


def changed_json(data, document, caps=None) -> bytes:
    """A JSON document's bytes with one drawn change: changed_node's, or
    changed_bytes' on its text."""
    if data.draw(st.booleans(), label="bytes"):
        return changed_bytes(data, json.dumps(document).encode())
    return json.dumps(changed_node(data, document, caps)).encode()


NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
# what a number token of a text file is replaced with
NUMBER_CHANGES = ["0", "-1", "nan", "inf", "1e308", "x"]


def changed_text(data, text: str) -> bytes:
    """A text file's bytes with one drawn change: a line deleted, a number
    token replaced by a NUMBER_CHANGES value, or changed_bytes' change."""
    kind = data.draw(st.sampled_from(["line", "number", "bytes"]), label="kind")
    if kind == "line":
        lines = text.splitlines(keepends=True)
        del lines[data.draw(st.integers(0, len(lines) - 1), label="line")]
        return "".join(lines).encode()
    if kind == "number":
        start, end = data.draw(st.sampled_from(
            [m.span() for m in NUMBER.finditer(text)]), label="token")
        change = data.draw(st.sampled_from(NUMBER_CHANGES), label="change")
        return (text[:start] + change + text[end:]).encode()
    return changed_bytes(data, text.encode())


def node_at(document, where):
    """The node of a parsed JSON document at path where."""
    for step in where:
        document = document[step]
    return document


def run_main(argv) -> tuple[int, str]:
    """main's exit code and its stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_ran_or_named(code, err, path):
    """Exit 0, or exit 2 with path in the error; never a traceback."""
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert str(path) in err


@pytest.fixture(scope="module")
def tiny_dataset(run_dir):
    """The first two rows of run_dir's dataset, each trace cut to three
    states, as parsed JSON."""
    rows = json.loads((run_dir / "simulation.full.json").read_text())[:2]
    for row in rows:
        row["trace"] = row["trace"][:3]
    return rows


class TestGenerate:
    def test_artifacts_exist(self, run_dir):
        assert (run_dir / "simulation.full.json").exists()
        assert (run_dir / "features.csv").exists()
        assert len(list((run_dir / "roads").glob("*.json"))) == 20

    def test_label_column_populated(self, run_dir):
        lines = (run_dir / "features.csv").read_text().splitlines()
        assert len(lines) == 21
        assert all(line.rsplit(",", 1)[1] in ("safe", "unsafe")
                   for line in lines[1:])

    def test_byte_identical_rerun(self, run_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["generate", "-n", "20", "--rf", "1.5", "--seed", "101",
                     "--out", str(out2)]) == 0
        assert (out2 / "features.csv").read_bytes() == \
            (run_dir / "features.csv").read_bytes()
        assert (out2 / "simulation.full.json").read_bytes() == \
            (run_dir / "simulation.full.json").read_bytes()

    def test_zero_n_is_config_error(self, tmp_path):
        assert main(["generate", "-n", "0", "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 2

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 7, "out": str(tmp_path / "o")}))
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "o" / "features.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 7, "out": str(tmp_path / "o"),
                                   "bogus": 1}))
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_memory_does_not_grow_with_the_dataset(self, tmp_path):
        # rows are written as their roads are labelled and only trace-free
        # tests are held, so 4x the roads must not double the peak
        peaks = {}
        for n in (10, 40):
            tracemalloc.start()
            try:
                code, _ = run_main(["generate", "-n", str(n), "--rf", "1.5",
                                    "--seed", "3", "--out", str(tmp_path / str(n))])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[40] < 2 * peaks[10]

    def test_a_failed_road_leaves_no_dataset(self, tmp_path, monkeypatch):
        label_road = oracle.label_road
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("road 3 failed")
            return label_road(*args)

        monkeypatch.setattr(oracle, "label_road", failing)
        out = tmp_path / "o"
        code, err = run_main(["generate", "-n", "5", "--seed", "1",
                              "--out", str(out)])
        assert (code, err) == (3, "error: road 3 failed\n")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, flags, one_unsafe_row", [
    ("generate", ["-n", "2", "--rf", "-1", "--seed", "1"], False),
    ("generate", ["-n", "2", "--mu", "0", "--seed", "1"], False),
    ("generate", ["-n", "2", "--oob", "2", "--seed", "1"], False),
    ("benchmark", ["--k", "21"], False),          # run_dir holds 20 rows
    ("benchmark", ["--k", "3"], True),
])
def test_a_refused_run_makes_no_output_directory(run_dir, tmp_path, command,
                                                 flags, one_unsafe_row):
    features = run_dir / "features.csv"
    if one_unsafe_row:
        lines = features.read_text().splitlines(keepends=True)
        unsafe = [line for line in lines if line.rstrip().endswith(",unsafe")]
        features = tmp_path / "f.csv"
        features.write_text("".join(line for line in lines
                                    if line not in unsafe[1:]))
    if command == "benchmark":
        flags = [*flags, "--features", str(features), "--seed", "1"]
    out = tmp_path / "o"
    assert main([command, *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_a_repeated_family_is_refused(run_dir, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["benchmark", "--features", str(run_dir / "features.csv"),
                 "--models", "logistic,naive_bayes,logistic", "--seed", "1",
                 "--k", "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: model family 'logistic' is given twice\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("can-play", {"pacing": "slow"}, "pacing"),
    ("generate", {"n": "five"}, "n"),
    ("experiment", {"protocol": "fix", "S": "six"}, "S"),
    ("generate", {"keep_traces": 1}, "keep_traces"),
])
def test_config_value_parsed_like_its_flag(tmp_path, capsys, command, config,
                                           key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_a_flag_wins_over_its_config_value_and_null_is_not_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 7, "mu": None}))
    assert main(["generate", "--config", str(cfg), "-n", "2",
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["generate", "-n", "2", "--seed", "7",
                 "--out", str(tmp_path / "plain")]) == 0
    for name in ("features.csv", "simulation.full.json"):
        assert (tmp_path / "flag" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("argv, error", [
    (["extract-features"], "need --roads or --simulation"),
    (["predict", "--model", "{model}"], "need --roads or --features"),
    (["benchmark", "--features", "{features}", "--models", "bogus",
      "--seed", "1"], "unknown model family 'bogus'"),
], ids=["extract_features", "predict", "benchmark"])
def test_a_missing_or_unknown_input_is_named(run_dir, full_model, tmp_path,
                                             argv, error):
    paths = {"model": full_model, "features": run_dir / "features.csv"}
    out = tmp_path / "o"
    code, err = run_main([arg.format(**paths) for arg in argv]
                         + ["--out", str(out)])
    assert (code, err) == (2, f"error: {error}\n")
    assert not out.exists()


class TestExtractAndPredict:
    def test_extract_from_roads(self, run_dir, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--roads", str(run_dir / "roads"),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        assert all(line.endswith(",") for line in lines[1:])   # unlabelled

    def test_benchmark_and_predict(self, run_dir, tmp_path):
        bench = tmp_path / "bench"
        assert main(["benchmark", "--features", str(run_dir / "features.csv"),
                     "--models", "logistic,naive_bayes", "--k", "3",
                     "--seed", "5", "--out", str(bench)]) == 0
        assert (bench / "logistic.report.json").exists()
        assert (bench / "naive_bayes.report.json").exists()
        model_path = bench / "best_model.json"
        assert model_path.exists()

        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(preds)]) == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "test_id,predicted"
        assert len(lines) == 21

    @pytest.mark.parametrize("family", ["logistic", "naive_bayes",
                                        "decision_tree", "random_forest"])
    def test_predict_is_one_batch(self, run_dir, tmp_path, family,
                                  monkeypatch):
        from roadsift.features import read_feature_csv
        from roadsift.ml import ClassifierSpec, TrainedClassifier, fit, save_model
        from roadsift.ml.models import UNSAFE_CODE
        rows = read_feature_csv(run_dir / "features.csv")
        names = tuple(rows[0][1].as_dict())
        model = fit(ClassifierSpec(family),
                    [list(vec.as_dict().values()) for _, vec, _ in rows],
                    [int(label == "unsafe") for _, _, label in rows], names, 3)
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        def alone(vec):
            return model.predict_matrix(model.feature_matrix([vec]))[0]
        one_row = ["test_id,predicted"] + [
            f"{tid},{'unsafe' if alone(vec) == UNSAFE_CODE else 'safe'}"
            for tid, vec, _ in rows]
        batches = []
        predict_matrix = TrainedClassifier.predict_matrix

        def counted(self, X):
            batches.append(len(X))
            return predict_matrix(self, X)
        monkeypatch.setattr(TrainedClassifier, "predict_matrix", counted)
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(preds)]) == 0
        assert batches == [len(rows)]
        assert preds.read_text().splitlines() == one_row

    def test_predict_is_pure(self, run_dir, tmp_path):
        bench = tmp_path / "bench"
        main(["benchmark", "--features", str(run_dir / "features.csv"),
              "--models", "logistic", "--k", "3", "--seed", "5",
              "--out", str(bench)])
        before = sorted(p.name for p in run_dir.rglob("*"))
        main(["predict", "--model", str(bench / "best_model.json"),
              "--roads", str(run_dir / "roads"), "--out", str(tmp_path / "p.csv")])
        after = sorted(p.name for p in run_dir.rglob("*"))
        assert before == after     # inputs untouched, no trace artifacts

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_model_file_predicts_or_is_named(self, run_dir, tiny_models,
                                                       tmp_path_factory, family,
                                                       data):
        model = tmp_path_factory.getbasetemp() / f"changed_{family}.json"
        model.write_bytes(changed_json(data, tiny_models[family]))
        code, err = run_main(["predict", "--model", str(model),
                              "--features", str(run_dir / "features.csv"),
                              "--out", str(model.with_name("p.csv"))])
        assert_ran_or_named(code, err, model)

    def test_a_naive_bayes_variance_past_the_log_is_named(self, run_dir,
                                                          tiny_models, tmp_path):
        # 2π · 1e308 overflows, and its log would score the class -inf on
        # every row
        payload = copy.deepcopy(tiny_models["naive_bayes"])
        payload["parameters"]["vars"][1][0] = 1e308
        model = tmp_path / "nb.json"
        model.write_text(json.dumps(payload))
        code, err = run_main(["predict", "--model", str(model),
                              "--features", str(run_dir / "features.csv"),
                              "--out", str(tmp_path / "p.csv")])
        assert code == 2 and str(model) in err and "variance" in err

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_road_file_is_measured_or_named(self, run_dir,
                                                      tmp_path_factory, data):
        road = json.loads((run_dir / "roads" / "test_00000.json").read_text())
        roads = tmp_path_factory.getbasetemp() / "changed_roads"
        roads.mkdir(exist_ok=True)
        path = roads / "r.json"
        path.write_bytes(changed_json(data, road))
        code, err = run_main(["extract-features", "--roads", str(roads),
                              "--out", str(roads.with_name("f.csv"))])
        assert_ran_or_named(code, err, path)

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_feature_csv_predicts_or_is_named(self, run_dir,
                                                        full_model,
                                                        tmp_path_factory, data):
        # the CSV as a list of rows of cells, so that json_paths reaches
        # every row and cell; a changed cell is written as _csv_cell says
        table = [line.split(",") for line in
                 (run_dir / "features.csv").read_text().splitlines()]
        changed = changed_node(data, table)
        path = tmp_path_factory.getbasetemp() / "changed_features.csv"
        path.write_text("".join(
            (",".join(map(_csv_cell, row)) if isinstance(row, list)
             else _csv_cell(row)) + "\n"
            for row in (changed if isinstance(changed, list) else [changed])))
        code, err = run_main(["predict", "--model", str(full_model),
                              "--features", str(path),
                              "--out", str(path.with_name("p.csv"))])
        assert_ran_or_named(code, err, path)

    def test_missing_label_is_config_error(self, run_dir, tmp_path):
        unlabelled = tmp_path / "u.csv"
        main(["extract-features", "--roads", str(run_dir / "roads"),
              "--out", str(unlabelled)])
        assert main(["benchmark", "--features", str(unlabelled),
                     "--seed", "1", "--out", str(tmp_path / "b")]) == 2

    def test_feature_mismatch_is_config_error(self, run_dir, tmp_path, capsys):
        model_path = tmp_path / "weird.json"
        import numpy as np
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        save_model(fit(ClassifierSpec("logistic"), X, y, ("a", "b"), 0),
                   model_path)
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert str(model_path) in capsys.readouterr().err


    @pytest.mark.parametrize("parameters", [{}, {"weights": [0.1], "bias": 0.0}])
    def test_invalid_model_parameters_are_config_error(self, run_dir, tmp_path,
                                                       parameters):
        bench = tmp_path / "bench"
        main(["benchmark", "--features", str(run_dir / "features.csv"),
              "--models", "logistic", "--k", "3", "--seed", "5",
              "--out", str(bench)])
        model_path = bench / "best_model.json"
        payload = json.loads(model_path.read_text())
        payload["parameters"] = parameters
        model_path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("tree", [
        {},
        {"leaf": False, "feature": 99, "threshold": 0.0,
         "left": {"n": 1, "ones": 0, "leaf": True},
         "right": {"n": 1, "ones": 1, "leaf": True}},
    ])
    def test_corrupt_tree_is_config_error(self, run_dir, tmp_path, tree):
        bench = tmp_path / "bench"
        main(["benchmark", "--features", str(run_dir / "features.csv"),
              "--models", "decision_tree", "--k", "3", "--seed", "5",
              "--out", str(bench)])
        model_path = bench / "best_model.json"
        payload = json.loads(model_path.read_text())
        payload["parameters"]["tree"] = tree
        model_path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2


class TestGridAndRanking:
    def test_grid_search_j48_row_count(self, run_dir, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["grid-search", "--family", "decision_tree",
                     "--features", str(run_dir / "features.csv"),
                     "--k", "2", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"decision_tree: 100 cells (100 evaluated, 60 distinct forms, "
            f"10 fits per fold) -> {out}\n")
        lines = out.read_text().splitlines()
        assert len(lines) == 101           # header + 100 cells
        assert all("evaluated" in line for line in lines[1:])

    @pytest.mark.parametrize("command", [
        ["grid-search", "--family", "logistic"], ["benchmark"]])
    def test_one_row_class_is_config_error(self, run_dir, tmp_path, capsys,
                                           command):
        lines = (run_dir / "features.csv").read_text().splitlines()
        unsafe = [line for line in lines[1:] if line.endswith(",unsafe")]
        safe = [line for line in lines[1:] if line.endswith(",safe")]
        features = tmp_path / "features.csv"
        features.write_text("\n".join([lines[0], *safe, unsafe[0]]) + "\n")
        capsys.readouterr()
        assert main([*command, "--features", str(features), "--k", "3",
                     "--seed", "1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: the unsafe class has 1 row; "
            "K-fold needs 2 or more of each class\n")

    def test_rank_features_output(self, run_dir, tmp_path):
        out = tmp_path / "ranks.json"
        assert main(["rank-features", "--features", str(run_dir / "features.csv"),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["information_gain"]) == 18
        assert len(payload["correlation"]) == 18


class TestExperiment:
    def test_fix_aggregate(self, run_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "protocol": "fix",
            "dataset": str(run_dir / "simulation.full.json"),
            "pool": {"safe": 8, "unsafe": 4},
            "strategy": "random",
            "S": 6,
            "repetitions": 5,
        }))
        out = tmp_path / "exp_out"
        assert main(["experiment", "--config", str(cfg), "--seed", "11",
                     "--out", str(out)]) == 0
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "metric,mean,stddev"
        assert any(line.startswith("unsafe_ratio,") for line in agg)
        assert len(list(out.glob("rep_*.json"))) == 5

    def test_realtime_aggregate_over_the_reps_that_hold_a_key(self, tmp_path):
        # with seed 1, some of the 30 adaptive reps never leave the warm-up,
        # so their rep_*.json holds no post_mortem_accuracy
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"protocol": "realtime", "mode": "adaptive",
                                   "warmup_n": 3, "rf": 1.5, "budget_s": 100.0}))
        out = tmp_path / "rt"
        assert main(["experiment", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
        reps = [json.loads(p.read_text()) for p in out.glob("rep_*.json")]
        held = [rep["post_mortem_accuracy"] for rep in reps
                if "post_mortem_accuracy" in rep]
        assert len(reps) == 30 and 0 < len(held) < 30
        rows = {row[0]: row[1:] for row in
                (line.split(",") for line in
                 (out / "aggregate.csv").read_text().splitlines()[1:])}
        every = sorted({k for rep in reps for k in rep} - {"post_mortem_accuracy"})
        partial = f"post_mortem_accuracy ({len(held)} of 30 reps)"
        assert sorted(rows) == sorted([*every, partial])
        assert float(rows[partial][0]) == pytest.approx(sum(held) / len(held))

    def test_reach_n_too_large(self, run_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "protocol": "reach",
            "dataset": str(run_dir / "simulation.full.json"),
            "pool": {"safe": 8, "unsafe": 4},
            "strategy": "random",
            "N": 99,
            "repetitions": 2,
        }))
        assert main(["experiment", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("pool", [
        {"safe": 4.9, "unsafe": 2}, {"safe": "many", "unsafe": 2},
        {"safe": 8, "unsafe": -1}, {"safe": True, "unsafe": 2},
        {"safe": 8, "unsafe": 4, "extra": 1}],
        ids=["fraction", "text", "negative", "boolean", "extra_key"])
    def test_pool_counts_are_ints(self, tmp_path, capsys, pool):
        # the dataset does not exist, so only a check made before it is read
        # can name pool
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "protocol": "fix", "dataset": str(tmp_path / "missing.json"),
            "pool": pool, "strategy": "random", "S": 2, "repetitions": 1}))
        capsys.readouterr()
        assert main(["experiment", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "pool" in err and "missing.json" not in err

    def test_reach_zero_overhead_honoured(self, run_dir, tmp_path):
        base = {
            "protocol": "reach",
            "dataset": str(run_dir / "simulation.full.json"),
            "pool": {"safe": 8, "unsafe": 4},
            "strategy": "random",
            "N": 3,
            "repetitions": 3,
        }
        reps = {}
        for name, extra in (("default", {}), ("zero", {"overhead_s": 0})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, **extra}))
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--seed", "2",
                         "--out", str(out)]) == 0
            reps[name] = [json.loads(p.read_text())
                          for p in sorted(out.glob("rep_*.json"))]
        for default, zero in zip(reps["default"], reps["zero"]):
            assert zero["executed_count"] == default["executed_count"]
            cost = {k: v["elapsed_cost_safe"] + v["elapsed_cost_unsafe"]
                    for k, v in (("default", default), ("zero", zero))}
            assert cost["default"] - cost["zero"] == pytest.approx(
                10.0 * default["executed_count"], rel=1e-12)

    def test_adaptive_zero_warmup_honoured(self, tmp_path):
        # with the default warm-up of 60 this budget raises BudgetTooSmall
        cfg = tmp_path / "rt.json"
        cfg.write_text(json.dumps({
            "protocol": "realtime",
            "mode": "adaptive",
            "budget_s": 50.0,
            "warmup_n": 0,
            "repetitions": 1,
        }))
        out = tmp_path / "rt_out"
        assert main(["experiment", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        rep = json.loads(next(out.glob("rep_*.json")).read_text())
        assert rep["generated"] >= 1

    @pytest.mark.parametrize("protocol", ["fix", "realtime"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_config_runs_or_is_refused(self, run_dir, tmp_path_factory,
                                                 protocol, data):
        # a config value is checked where the run reads it, so an error
        # names the key, or the file the value names, rather than always
        # the config file. budget_s asks for a run as long as it says, so
        # it is drawn under a cap of 20 s, a few drives
        config = {
            "fix": {"protocol": "fix",
                    "dataset": str(run_dir / "simulation.full.json"),
                    "strategy": "random", "S": 2,
                    "pool": {"safe": 2, "unsafe": 1}, "seeds": [1]},
            "realtime": {"protocol": "realtime", "mode": "baseline",
                         "budget_s": 20.0, "seeds": [1]},
        }[protocol]
        base = tmp_path_factory.getbasetemp()
        path = base / f"changed_{protocol}.json"
        path.write_bytes(changed_json(data, config, caps={"budget_s": 20.0}))
        code, err = run_main(["experiment", "--config", str(path),
                              "--out", str(base / f"changed_{protocol}")])
        assert code in (0, 2)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: ")

    def test_zero_repetitions_is_config_error(self, run_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "protocol": "fix",
            "dataset": str(run_dir / "simulation.full.json"),
            "pool": {"safe": 8, "unsafe": 4},
            "strategy": "random",
            "S": 6,
            "repetitions": 0,
        }))
        assert main(["experiment", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("S", 1e308), ("repetitions", 0), ("seeds", [1, "2"]),
        ("pool", {"safe": 2, "unsafe": -1}), ("seeds", []), ("seeds", [1, 1])])
    def test_a_refused_config_value_names_file_and_key(self, run_dir, tmp_path,
                                                       key, value):
        config = {"protocol": "fix",
                  "dataset": str(run_dir / "simulation.full.json"),
                  "strategy": "random", "S": 2,
                  "pool": {"safe": 2, "unsafe": 1}, key: value}
        # either seeds, or --seed with repetitions
        seed = ["--seed", "1"] if key == "repetitions" else []
        if key not in ("repetitions", "seeds"):
            config["seeds"] = [1]
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        code, err = run_main(["experiment", "--config", str(cfg), *seed,
                              "--out", str(tmp_path / "o")])
        assert code == 2
        assert err.startswith(f"error: {cfg}: config key {key!r}: ")

    @pytest.mark.parametrize("key, value", [
        ("seeds", []), ("repetitions", 0), ("pool", {"safe": 2, "unsafe": -1})])
    def test_a_refused_config_makes_no_output_directory(self, run_dir, tmp_path,
                                                        key, value):
        config = {"protocol": "fix",
                  "dataset": str(run_dir / "simulation.full.json"),
                  "strategy": "random", "S": 2,
                  "pool": {"safe": 2, "unsafe": 1}, "seeds": [1], key: value}
        seed = []
        if key == "repetitions":
            del config["seeds"]
            seed = ["--seed", "1"]
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(cfg), *seed,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"retrain_every": 0}, {"warmup_n": -1}])
    def test_out_of_range_realtime_setting_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "rt.json"
        cfg.write_text(json.dumps({
            "protocol": "realtime",
            "mode": "adaptive",
            "budget_s": 50.0,
            "warmup_n": 2,
            "repetitions": 1,
            **bad,
        }))
        assert main(["experiment", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("protocol, setting, value", [
        ("fix", "S", 0), ("fix", "S", -3), ("reach", "N", 0), ("reach", "N", -2),
        ("reach", "overhead_s", -50.0), ("realtime", "budget_s", math.nan)],
        ids=["S_zero", "S_negative", "N_zero", "N_negative",
             "overhead_negative", "budget_nan"])
    def test_out_of_range_setting_is_config_error(self, run_dir, tmp_path,
                                                  capsys, protocol, setting,
                                                  value):
        if protocol == "realtime":
            base = {"mode": "baseline", "budget_s": 50.0}
        else:
            base = {"dataset": str(run_dir / "simulation.full.json"),
                    "pool": {"safe": 8, "unsafe": 4}, "strategy": "random",
                    "S" if protocol == "fix" else "N": 3}
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"protocol": protocol, "repetitions": 1,
                                   **base, setting: value}))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 2
        assert setting in capsys.readouterr().err
        assert not list(out.glob("rep_*.json"))

    def test_realtime_fractions_reported(self, tmp_path):
        cfg = tmp_path / "rt.json"
        cfg.write_text(json.dumps({
            "protocol": "realtime",
            "mode": "adaptive",
            "budget_s": 400.0,
            "warmup_n": 6,
            "repetitions": 1,
        }))
        out = tmp_path / "rt_out"
        assert main(["experiment", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        rep = json.loads(next(out.glob("rep_*.json")).read_text())
        fractions = [v for k, v in rep.items() if k.startswith("time_")]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("protocol, extra, flags, key", [
        ("fix", {"budget_s": 100.0}, [], "budget_s"),
        ("fix", {"overhead_s": 5.0}, [], "overhead_s"),
        ("reach", {"S": 6}, [], "S"),
        ("realtime", {"dataset": "sim.json"}, [], "dataset"),
        ("realtime", {"pool": {"safe": 8, "unsafe": 4}}, [], "pool"),
        ("realtime", {"strategy": "random"}, [], "strategy"),
        ("fix", {}, ["--seed", "1"], "seed"),
        ("fix", {"repetitions": 2}, [], "repetitions"),
        ("realtime", {"warmup_n": 5}, [], "warmup_n"),
        ("realtime", {"retrain_every": 3}, [], "retrain_every"),
        ("realtime", {"model": "nonexistent.json"}, [], "model"),
        ("realtime", {"mode": "adaptive", "model": "nonexistent.json"}, [],
         "model"),
        ("fix", {"model": "nonexistent.json"}, [], "model"),
    ])
    def test_key_the_protocol_does_not_read_is_config_error(
            self, run_dir, tmp_path, capsys, protocol, extra, flags, key):
        sim = str(run_dir / "simulation.full.json")
        base = {
            "fix": {"dataset": sim, "pool": {"safe": 8, "unsafe": 4},
                    "strategy": "random", "S": 6},
            "reach": {"dataset": sim, "pool": {"safe": 8, "unsafe": 4},
                      "strategy": "random", "N": 2},
            "realtime": {"mode": "baseline", "budget_s": 100.0},
        }[protocol]
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"protocol": protocol, "seeds": [1],
                                   **base, **extra}))
        capsys.readouterr()
        assert main(["experiment", "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def test_library_defaults_given_equal_omitted(self, run_dir, tmp_path):
        rt = cli.selection.RealTimeConfig(mode="adaptive", budget_s=1.0)
        given = {"overhead_s": rt.cost.overhead_s, "warmup_n": rt.warmup_n,
                 "retrain_every": rt.retrain_every}
        period = inspect.signature(canbus.convert_trace).parameters[
            "sample_period_ms"].default
        outputs = {}
        for name, extra, flags in (("omitted", {}, []),
                                   ("given", given, ["--period-ms", str(period)])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"protocol": "realtime", "mode": "adaptive",
                                       "budget_s": 100.0, "seeds": [3], **extra}))
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg),
                         "--out", str(out / "rt")]) == 0
            assert main(["can-convert", "--simulation",
                         str(run_dir / "simulation.full.json"), *flags,
                         "--out", str(out / "can")]) == 0
            outputs[name] = {p.relative_to(out): p.read_bytes()
                             for p in sorted(out.rglob("*")) if p.is_file()}
        assert outputs["given"] == outputs["omitted"]

    def test_benchmark_select_configs_are_accepted(self, tmp_path, monkeypatch):
        # the benchmark's select workload writes these configs; each must
        # pass every key check and reach its first piece of work
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started
        monkeypatch.setattr(cli, "load_dataset", start)
        monkeypatch.setattr(cli, "load_model", start)
        monkeypatch.setattr(cli.selection, "run_realtime", start)
        select = workloads.Select(1)
        select.setup(lambda command: None, tmp_path)
        assert sorted(select.configs) == ["adaptive", "fix", "pretrained", "reach"]
        for name, path in select.configs.items():
            with pytest.raises(Started):
                main(["experiment", "--config", str(path), "--seed", "1",
                      "--out", str(tmp_path / name)])


@pytest.mark.parametrize("case", ["pool_without_unsafe", "seeds_not_a_list",
                                  "seeds_holding_a_boolean",
                                  "mapping_without_signal",
                                  "factor_holding_a_list",
                                  "factor_as_text_past_a_float",
                                  "factor_true",
                                  "road_without_points",
                                  "road_file_holding_a_list",
                                  "dataset_row_without_label",
                                  "features_without_length"])
def test_malformed_input_is_config_error(run_dir, tmp_path, capsys, case):
    sim = str(run_dir / "simulation.full.json")
    if case == "road_without_points":
        roads = tmp_path / "roads"
        roads.mkdir()
        (roads / "r.json").write_text(json.dumps({"id": "r", "lane_width": 4.0}))
        argv = ["extract-features", "--roads", str(roads),
                "--out", str(tmp_path / "f.csv")]
    elif case == "road_file_holding_a_list":
        roads = tmp_path / "roads"
        roads.mkdir()
        (roads / "r.json").write_text(json.dumps([[0.0, 0.0], [10.0, 0.0]]))
        argv = ["extract-features", "--roads", str(roads),
                "--out", str(tmp_path / "f.csv")]
    elif case == "features_without_length":
        rows = json.loads((run_dir / "simulation.full.json").read_text())
        del rows[0]["features"]["length"]
        bad = tmp_path / "sim.json"
        bad.write_text(json.dumps(rows))
        argv = ["extract-features", "--simulation", str(bad),
                "--out", str(tmp_path / "f.csv")]
    elif case == "dataset_row_without_label":
        rows = json.loads((run_dir / "simulation.full.json").read_text())
        del rows[0]["label"]
        bad = tmp_path / "sim.json"
        bad.write_text(json.dumps(rows))
        argv = ["can-convert", "--simulation", str(bad),
                "--out", str(tmp_path / "c")]
    elif case == "mapping_without_signal":
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([{"field": "speed",
                                        "message": "VEHICLE_DYNAMICS",
                                        "factor": 3.6}]))
        argv = ["can-convert", "--simulation", sim, "--mapping", str(mapping),
                "--out", str(tmp_path / "c")]
    elif case.startswith("factor"):
        factor = {"factor_holding_a_list": [3.6],
                  "factor_as_text_past_a_float": "1e400",
                  "factor_true": True}[case]
        entry = {"field": "speed", "message": "VEHICLE_DYNAMICS",
                 "signal": "speed_kmh", "factor": 3.6}
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([entry, {**entry, "factor": factor}]))
        argv = ["can-convert", "--simulation", sim, "--mapping", str(mapping),
                "--out", str(tmp_path / "c")]
    else:
        exp = {"protocol": "fix", "dataset": sim, "strategy": "random",
               "S": 6, "pool": {"safe": 8, "unsafe": 4}, "seeds": [1, 2]}
        if case == "pool_without_unsafe":
            exp["pool"] = {"safe": 8}
        elif case == "seeds_holding_a_boolean":
            exp["seeds"] = [1, True]
        else:
            exp["seeds"] = 5
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(exp))
        argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in ("road_file_holding_a_list", "features_without_length"):
        assert ("r.json" if case.startswith("road") else "sim.json") in err
    if case.startswith("factor"):
        assert "map.json: entry 1: factor" in err


DEEP = "[" * 200_000        # JSON nested too deep to parse
LONG_INTEGER = "9" * 5000   # past int()'s 4300-digit limit, which json.loads keeps


def _edit_feature_csv(text, case):
    if case == "empty":
        return ""
    header, *rows = (line.split(",") for line in text.splitlines())
    if case == "short_row":
        rows[0] = rows[0][:3]
    elif case == "extra_column":
        rows[0].append("safe")
    elif case == "fractional_count":
        rows[0][3] = "1.5"                    # num_l_turns
    elif case.startswith("direct_distance_"):
        rows[0][1] = case.removeprefix("direct_distance_")
    else:                                     # "capitalised_label"
        rows = [[*row[:-1], row[-1].capitalize()] for row in rows]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


# dataset edits (path from the list of rows, new value), each a value that
# load_dataset refuses
DATASET_EDITS = {
    "trace_speed_empty_text": ((0, "trace", 1, "speed"), ""),
    "trace_speed_null": ((0, "trace", 1, "speed"), None),
    "trace_speed_list": ((0, "trace", 1, "speed"), [1]),
    "trace_speed_text_past_a_float": ((0, "trace", 1, "speed"), "1e400"),
    "trace_speed_true": ((0, "trace", 1, "speed"), True),
    "trace_object": ((0, "trace"), {}),
    "trace_going_back_in_time": ((0, "trace", 2, "t"), -5.0),
    "duration_text": ((0, "duration_s"), "1.5"),
    "duration_true": ((0, "duration_s"), True),
    "duration_nan": ((0, "duration_s"), math.nan),
    "lane_width_text": ((0, "lane_width"), "4"),
    "repeated_id": ((1, "id"), "test_00000"),
    "feature_null": ((0, "features", "length"), None),
    "feature_list": ((0, "features", "length"), [1.0]),
}
# the edits that a trace-free read (FIX, REACH) also refuses
TRACE_FREE_EDITS = [case for case in DATASET_EDITS
                    if not case.startswith("trace_") or case == "trace_object"]


def _edit_dataset(text, case):
    if case == "top_level_object":
        return json.dumps({"a": 1})
    if case == "rows_not_objects":
        return "[1, 2]"
    if case == "rows_holding_lists":
        return '[["x"]]'
    if case == "capitalised_label":
        return text.replace('"label": "unsafe"', '"label": "Unsafe"')
    if case == "nested_too_deep":
        return DEEP
    if case == "integer_past_digit_limit":
        return text.replace('"test_00000"', LONG_INTEGER, 1)
    rows = json.loads(text)
    if case == "road_point_of_one_coordinate":
        rows[0]["road_points"][1] = rows[0]["road_points"][1][:1]
        return json.dumps(rows)
    if case in DATASET_EDITS:
        where, value = DATASET_EDITS[case]
        node_at(rows, where[:-1])[where[-1]] = value
        return json.dumps(rows)
    return text[:-3]                          # "json_syntax_error"


# road files whose road_points is not a list of [x, y] number pairs
BAD_ROAD_POINTS = {
    "road_points_object": {"0": [10, 10], "1": [20, 10], "2": [30, 10]},
    "road_point_of_one_coordinate": [[10, 10], [20], [30, 10]],
    "road_point_of_three_coordinates": [[10, 10], [20, 10, 5], [30, 10]],
    "road_point_holding_text": [[10, 10], [20, "10"], [30, 10]],
    "road_point_past_float": [[10, 10], [10**400, 10], [30, 10]],
}
# road file texts that are not JSON of a road
BAD_ROAD_TEXTS = {"road_json_syntax_error": '{"id": ',
                  "road_nested_too_deep": DEEP,
                  "road_integer_past_digit_limit": f'{{"id": {LONG_INTEGER}}}'}


@pytest.mark.parametrize("command, case", [
    *((command, case) for command in ("benchmark", "predict")
      for case in ("empty", "short_row", "extra_column", "fractional_count",
                   "capitalised_label", "direct_distance_nan",
                   "direct_distance_inf", "direct_distance_-inf",
                   "direct_distance_1e400", "features_missing")),
    *((command, case) for command in ("can-convert", "experiment")
      for case in ("top_level_object", "rows_not_objects",
                   "rows_holding_lists", "capitalised_label",
                   "json_syntax_error", "road_point_of_one_coordinate",
                   "nested_too_deep", "integer_past_digit_limit",
                   "dataset_missing", *TRACE_FREE_EDITS)),
    *(("can-convert", case) for case in DATASET_EDITS
      if case not in TRACE_FREE_EDITS),
    *(("extract-features", case) for case in ("feature_null", "feature_list")),
    *((command, case) for command in ("extract-features", "predict")
      for case in ("road_of_two_points", "road_crossing_itself",
                   *BAD_ROAD_POINTS, *BAD_ROAD_TEXTS, "roads_missing")),
    ("can-convert", "mapping_json_syntax_error"),
    ("can-convert", "mapping_nested_too_deep"),
    ("can-convert", "mapping_missing"),
    ("can-convert", "dbc_bad_signal_line"),
    ("can-convert", "dbc_not_utf8"),
    ("can-convert", "dbc_missing"),
    ("can-play", "empty_playback"),
    ("can-play", "bad_playback_row"),
    ("can-play", "playback_not_utf8"),
    ("can-play", "playback_missing"),
    ("generate", "config_nested_too_deep"),
    ("generate", "config_not_utf8"),
    ("predict", "model_not_utf8"),
])
def test_malformed_input_file_names_itself(run_dir, tmp_path, capsys, command,
                                           case):
    """A missing, unreadable or malformed feature CSV, dataset, road,
    mapping, DBC, playback, config or model file exits 2 with its path in
    the error, and the line where it is known, never with a traceback or
    by reading a bad label as safe."""
    line = None
    if case == "roads_missing":
        bad = tmp_path / "nowhere"
        argv = [command, "--roads", str(bad), "--out", str(tmp_path / "f.csv")]
    elif case.startswith("road_") and command not in ("can-convert", "experiment"):
        bad = tmp_path / "roads" / "r.json"
        bad.parent.mkdir()
        points = BAD_ROAD_POINTS.get(case, (
            [[10, 10], [20, 10]] if case == "road_of_two_points"
            else [[10, 10], [100, 10], [100, 12], [10, 14]]))
        bad.write_text(BAD_ROAD_TEXTS.get(case) or json.dumps(
            {"id": "r", "lane_width": 4.0, "road_points": points}))
        argv = [command, "--roads", str(bad.parent),
                "--out", str(tmp_path / "f.csv")]
    elif case.startswith("mapping_"):
        bad = tmp_path / "map.json"
        if case != "mapping_missing":
            bad.write_text("[1," if case == "mapping_json_syntax_error" else DEEP)
        argv = [command, "--simulation", str(run_dir / "simulation.full.json"),
                "--mapping", str(bad), "--out", str(tmp_path / "c")]
    elif case.startswith("dbc_"):
        bad = tmp_path / "bad.dbc"
        if case != "dbc_missing":
            bad.write_bytes(b"BO_ 256 VEHICLE_DYNAMICS: 8 ECU\n"
                            + (b"SG_ bad\n" if case == "dbc_bad_signal_line"
                               else b" SG_ speed \xff\n"))
            line = 2
        argv = [command, "--simulation", str(run_dir / "simulation.full.json"),
                "--dbc", str(bad), "--out", str(tmp_path / "c")]
    elif command == "can-play":
        bad = tmp_path / f"{case}.canplayback.csv"
        rows = {"bad_playback_row": b"0,zz,2,aabb\n",
                "playback_not_utf8": b"0,100,2,aabb\n20,100,2,aa\xffb\n"}
        if case != "playback_missing":
            bad.write_bytes(canbus.CSV_HEADER.encode() + b"\n" + rows[case]
                            if case in rows else b"")
            line = {"bad_playback_row": 2, "playback_not_utf8": 3}.get(case, 1)
        argv = [command, "--playback", str(bad),
                "--target", f"file://{tmp_path / 'out.bin'}", "--pacing", "fast"]
    elif case.startswith("config_"):
        bad = tmp_path / "cfg.json"
        if case == "config_not_utf8":
            bad.write_bytes(b'{"out": "\xff"}\n')
            line = 1
        else:
            bad.write_text(DEEP)
        argv = [command, "--config", str(bad)]
    elif case == "model_not_utf8":
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"family": "\xff"}\n')
        line = 1
        argv = [command, "--model", str(bad),
                "--features", str(run_dir / "features.csv"),
                "--out", str(tmp_path / "o")]
    elif command in ("benchmark", "predict"):
        bad = tmp_path / f"{case}.csv"
        if case != "features_missing":
            bad.write_text(_edit_feature_csv(
                (run_dir / "features.csv").read_text(), case))
        if case.startswith("direct_distance_"):
            line = 2
        argv = [command, "--features", str(bad), "--out", str(tmp_path / "o")]
        if command == "benchmark":
            argv += ["--models", "naive_bayes", "--k", "3", "--seed", "1"]
    else:
        bad = tmp_path / f"{case}.json"
        if case != "dataset_missing":
            bad.write_text(_edit_dataset(
                (run_dir / "simulation.full.json").read_text(), case))
        argv = [command, "--out", str(tmp_path / "o")]
        if command == "experiment":
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps({
                "protocol": "fix", "dataset": str(bad), "strategy": "random",
                "S": 2, "pool": {"safe": 2, "unsafe": 0}, "seeds": [1]}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--simulation", str(bad)]
    if command == "predict" and "--model" not in argv:
        bench = tmp_path / "bench"
        assert main(["benchmark", "--features", str(run_dir / "features.csv"),
                     "--models", "naive_bayes", "--k", "3", "--seed", "1",
                     "--out", str(bench)]) == 0
        argv += ["--model", str(bench / "best_model.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert line is None or f"line {line}:" in err
    assert "Traceback" not in err

class TestCanCommands:
    def test_convert_and_play(self, run_dir, tmp_path):
        out = tmp_path / "can"
        assert main(["can-convert", "--simulation",
                     str(run_dir / "simulation.full.json"),
                     "--out", str(out)]) == 0
        csvs = sorted(out.glob("*.canplayback.csv"))
        assert len(csvs) == 20

        # first data line decodes back to the trace's first resampled state
        tests = load_dataset(run_dir / "simulation.full.json")
        first = tests[0]
        records = read_playback_csv(out / f"{first.id}.canplayback.csv")
        db = parse_dbc(DEFAULT_DBC)
        sig = db.by_name("VEHICLE_DYNAMICS").signal("speed_kmh")
        dyn = next(r for r in records if r.can_id == 0x100)
        speed = first.outcome.trace[0, TRACE_COLUMNS.index("speed")]
        assert abs(decode_signal(sig, dyn.data) - speed * 3.6) <= 0.005 + 1e-9

        target = tmp_path / "frames.bin"
        assert main(["can-play", "--playback", str(csvs[0]),
                     "--target", f"file://{target}", "--pacing", "fast"]) == 0
        assert target.stat().st_size == sum(9 + r.dlc for r in
                                            read_playback_csv(csvs[0]))

    @pytest.mark.parametrize("period", [0, -20])
    def test_period_below_one_is_config_error(self, run_dir, tmp_path, capsys,
                                              period):
        out = tmp_path / "can"
        capsys.readouterr()
        assert main(["can-convert", "--simulation",
                     str(run_dir / "simulation.full.json"),
                     "--period-ms", str(period), "--out", str(out)]) == 2
        assert "sample_period_ms" in capsys.readouterr().err
        assert not list(out.glob("*.canplayback.csv"))

    @pytest.mark.parametrize("period", [None, 0])
    def test_dataset_without_traces(self, tmp_path, capsys, period):
        # the period is checked before the traces, so also when there are none
        sim = tmp_path / "nt"
        assert main(["generate", "-n", "3", "--no-traces", "--seed", "1",
                     "--out", str(sim)]) == 0
        flags = [] if period is None else ["--period-ms", str(period)]
        capsys.readouterr()
        code = main(["can-convert", "--simulation",
                     str(sim / "simulation.full.json"), *flags,
                     "--out", str(tmp_path / "can")])
        captured = capsys.readouterr()
        if period is None:
            assert code == 0 and "holds no traces" in captured.out
        else:
            assert code == 2 and "sample_period_ms" in captured.err

    @pytest.mark.parametrize("dataset", ["missing", "int_id"])
    def test_a_refused_dataset_makes_no_output_directory(self, tiny_dataset,
                                                         tmp_path, dataset):
        sim = tmp_path / f"{dataset}.json"
        if dataset == "int_id":
            rows = copy.deepcopy(tiny_dataset)
            rows[0]["id"] = 1
            sim.write_text(json.dumps(rows))
        out = tmp_path / "cvt"
        assert main(["can-convert", "--simulation", str(sim),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_dataset_converts_or_is_named(self, tiny_dataset,
                                                    tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        path = base / "changed.full.json"
        path.write_bytes(changed_json(data, tiny_dataset, caps={"t": 5.0}))
        code, err = run_main(["can-convert", "--simulation", str(path),
                              "--out", str(base / "changed_can")])
        assert_ran_or_named(code, err, path)

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_mapping_converts_or_is_named(self, tiny_dataset,
                                                    tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        sim = base / "tiny.full.json"
        sim.write_text(json.dumps(tiny_dataset))
        entries = [dict(zip(("field", "message", "signal", "factor"), entry))
                   for entry in canbus.DEFAULT_MAPPING.entries]
        path = base / "changed_mapping.json"
        path.write_bytes(changed_json(data, entries))
        code, err = run_main(["can-convert", "--simulation", str(sim),
                              "--mapping", str(path),
                              "--out", str(base / "mapped_can")])
        assert_ran_or_named(code, err, path)

    # (text in DEFAULT_DBC, its replacement, the line the error names): a
    # scale, offset or bound no frame can be packed with, a message name or
    # can_id that two messages hold, a signal name that two signals of one
    # message hold, and an id the wire's u32 cannot carry
    @pytest.mark.parametrize("old, new, line", [
        ("(0.01,0)", "(0,0)", 2), ("(0.01,0)", "(0.01,inf)", 2),
        ("(0.01,0)", "(nan,0)", 2), ("(0.01,0)", "(inf,0)", 2),
        ("[0|655.35]", "[nan|655.35]", 2),
        ("BO_ 257 STEERING", "BO_ 257 VEHICLE_DYNAMICS", 4),
        ("BO_ 257 STEERING", "BO_ 256 STEERING", 4),
        ("SG_ brake_pct", "SG_ throttle_pct", 9),
        ("BO_ 256", "BO_ 99999999999999", 1)],
        ids=["scale_0", "offset_inf", "scale_nan", "scale_inf", "min_nan",
             "name_reused", "id_reused", "signal_reused", "id_past_u32"])
    def test_a_bad_dbc_value_names_file_and_line(self, tiny_dataset, tmp_path,
                                                 old, new, line):
        sim = tmp_path / "tiny.full.json"
        sim.write_text(json.dumps(tiny_dataset))
        path = tmp_path / "bad.dbc"
        path.write_text(DEFAULT_DBC.replace(old, new, 1))
        code, err = run_main(["can-convert", "--simulation", str(sim),
                              "--dbc", str(path), "--out", str(tmp_path / "c")])
        assert code == 2 and f"{path}: line {line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", [
        "0,1ffffffffff,2,aabb", "99999999999,100,2,aabb", "-20,100,2,aabb",
        "0,-100,2,aabb", "0,100,9,001122334455667788"],
        ids=["id_past_u32", "timestamp_past_u32", "negative_timestamp",
             "negative_id", "dlc_9"])
    def test_a_bad_playback_value_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.canplayback.csv"
        path.write_text(f"{canbus.CSV_HEADER}\n{row}\n")
        code, err = run_main(["can-play", "--playback", str(path), "--target",
                              f"file://{tmp_path / 'out.bin'}"])
        assert code == 2 and f"{path}, line 2: " in err

    def test_a_port_past_65535_is_refused(self, tmp_path):
        # getaddrinfo wraps a port to 16 bits: 65616 would reach port 80
        path = tmp_path / "one.canplayback.csv"
        path.write_text(f"{canbus.CSV_HEADER}\n0,100,2,aabb\n")
        target = "tcp://localhost:65616"
        code, err = run_main(["can-play", "--playback", str(path),
                              "--target", target])
        assert code == 2 and repr(target) in err

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_dbc_converts_or_is_named(self, tiny_dataset,
                                                tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        sim = base / "tiny.full.json"
        sim.write_text(json.dumps(tiny_dataset))
        path = base / "changed.dbc"
        path.write_bytes(changed_text(data, DEFAULT_DBC))
        code, err = run_main(["can-convert", "--simulation", str(sim),
                              "--dbc", str(path),
                              "--out", str(base / "dbc_can")])
        assert_ran_or_named(code, err, path)

    @settings(max_examples=15)
    @given(data=st.data())
    def test_a_changed_playback_plays_or_is_named(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        path = base / "changed.canplayback.csv"
        path.write_bytes(changed_text(data, f"{canbus.CSV_HEADER}\n"
                                      "0,100,2,aabb\n20,101,8,0011223344556677\n"))
        code, err = run_main(["can-play", "--playback", str(path),
                              "--target", f"file://{base / 'played.bin'}"])
        assert_ran_or_named(code, err, path)

    def test_malformed_dbc_is_config_error(self, run_dir, tmp_path):
        bad = tmp_path / "bad.dbc"
        bad.write_text("BO_ nope\n")
        assert main(["can-convert", "--simulation",
                     str(run_dir / "simulation.full.json"),
                     "--dbc", str(bad), "--out", str(tmp_path / "c")]) == 2


def test_a_mapping_key_not_read_is_refused(run_dir, tmp_path):
    entries = [dict(zip(("field", "message", "signal", "factor"), entry))
               for entry in canbus.DEFAULT_MAPPING.entries]
    entries[1]["offset"] = 100
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(entries))
    code, err = run_main(["can-convert", "--simulation",
                          str(run_dir / "simulation.full.json"),
                          "--mapping", str(mapping),
                          "--out", str(tmp_path / "c")])
    assert code == 2 and f"{mapping}: entry 1: unknown key 'offset'" in err
    assert not (tmp_path / "c").exists()


def json_rows_reference(path, pattern, replacement):
    """What load_dataset's trace-free read reads, the plain way: read_json,
    then every list-valued trace of a top-level row object replaced by
    []."""
    rows = read_json(path)
    for row in rows if isinstance(rows, list) else ():
        if isinstance(row, dict) and isinstance(row.get("trace"), list):
            row["trace"] = []
    return rows


def read_or_refused(path):
    """load_dataset(path, keep_traces=False), or the text of its
    ValueError."""
    try:
        return load_dataset(path, keep_traces=False)
    except ValueError as exc:
        return str(exc)


WHITESPACE = [" ", "\n", "\t", "\r"]


def changed_space(data, text: str) -> bytes:
    """text with one whitespace change inside a drawn row's trace: a
    drawn JSON whitespace character inserted at a drawn position, or a
    whitespace character there deleted."""
    starts = [m.end() for m in re.finditer('"trace": ', text)]
    start = data.draw(st.sampled_from(starts), label="trace")
    at = data.draw(st.integers(start, text.index("\n }", start)), label="at")
    if data.draw(st.booleans(), label="delete"):
        assume(text[at] in WHITESPACE)
        return (text[:at] + text[at + 1:]).encode()
    return (text[:at] + data.draw(st.sampled_from(WHITESPACE), label="space")
            + text[at:]).encode()


class TestTraceFreeRead:
    """load_dataset(keep_traces=False) checks a trace laid out as
    save_dataset writes it as text, and parses any other."""

    @settings(max_examples=100)
    @given(data=st.data())
    def test_a_changed_dataset_reads_as_json_does(self, tiny_dataset,
                                                  tmp_path_factory, data):
        # the saved layout is json.dumps(rows, indent=1) and a newline
        text = json.dumps(tiny_dataset, indent=1) + "\n"
        kind = data.draw(st.sampled_from(["node", "text", "space"]), label="kind")
        if kind == "node":
            blob = (json.dumps(changed_node(data, tiny_dataset), indent=1)
                    + "\n").encode()
        elif kind == "text":           # changed_bytes' changes too
            blob = changed_text(data, text)
        else:
            blob = changed_space(data, text)
        path = tmp_path_factory.getbasetemp() / "trace_free.full.json"
        path.write_bytes(blob)
        with mock.patch.object(oracle, "read_json_cut", json_rows_reference):
            want = read_or_refused(path)
        assert read_or_refused(path) == want

    def test_every_saved_trace_matches_the_pattern(self, run_dir):
        data = (run_dir / "simulation.full.json").read_bytes()
        starts = [m.start() for m in re.finditer(b',\n  "trace": ', data)]
        assert len(starts) == 20
        assert all(oracle._saved_trace().match(data, at) for at in starts)

    def test_a_compact_dataset_gives_the_same_outputs(self, run_dir, full_model,
                                                      tmp_path):
        # no trace of compact JSON has the saved layout, so every trace is
        # parsed and dropped
        saved = run_dir / "simulation.full.json"
        compact = tmp_path / "compact.full.json"
        compact.write_text(json.dumps(json.loads(saved.read_text())))
        assert not oracle._saved_trace().search(compact.read_bytes())
        outputs = {}
        for sim in (saved, compact):
            out = tmp_path / f"{sim.stem}_out"
            out.mkdir()
            assert main(["extract-features", "--simulation", str(sim),
                         "--out", str(out / "features.csv")]) == 0
            for protocol, size in (("fix", {"S": 6}), ("reach", {"N": 3})):
                config = out / f"{protocol}.json"
                config.write_text(json.dumps({
                    "protocol": protocol, "dataset": str(sim),
                    "pool": {"safe": 8, "unsafe": 4}, "strategy": "model",
                    "model": str(full_model), "repetitions": 4, **size}))
                assert main(["experiment", "--config", str(config),
                             "--seed", "12", "--out", str(out / protocol)]) == 0
                config.unlink()
            outputs[sim] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
        assert outputs[saved] == outputs[compact]
        assert outputs[saved][Path("features.csv")] == (
            run_dir / "features.csv").read_bytes()
        assert sum(p.name.startswith("rep_") for p in outputs[saved]) == 8
