import json

import pytest

from roadsift.cli import main
from roadsift.canbus import DEFAULT_DBC, parse_dbc, decode_signal, read_playback_csv
from roadsift.oracle import load_dataset


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small generated dataset reused across CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["generate", "-n", "20", "--rf", "1.5", "--seed", "101",
                 "--out", str(out)])
    assert code == 0
    return out


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

    def test_missing_label_is_config_error(self, run_dir, tmp_path):
        unlabelled = tmp_path / "u.csv"
        main(["extract-features", "--roads", str(run_dir / "roads"),
              "--out", str(unlabelled)])
        assert main(["benchmark", "--features", str(unlabelled),
                     "--seed", "1", "--out", str(tmp_path / "b")]) == 2

    def test_feature_mismatch_is_config_error(self, run_dir, tmp_path):
        model_path = tmp_path / "weird.json"
        import numpy as np
        from roadsift.ml import ClassifierSpec, fit, save_model
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        save_model(fit(ClassifierSpec("logistic"), X, y, ("a", "b"), 0),
                   model_path)
        assert main(["predict", "--model", str(model_path),
                     "--features", str(run_dir / "features.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2


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


class TestGridAndRanking:
    def test_grid_search_j48_row_count(self, run_dir, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["grid-search", "--family", "decision_tree",
                     "--features", str(run_dir / "features.csv"),
                     "--k", "2", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"decision_tree: 100 cells (100 evaluated, 60 distinct fits) -> {out}\n")
        lines = out.read_text().splitlines()
        assert len(lines) == 101           # header + 100 cells
        assert all("evaluated" in line for line in lines[1:])

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
        assert abs(decode_signal(sig, dyn.data)
                   - first.outcome.trace[0].speed * 3.6) <= 0.005 + 1e-9

        target = tmp_path / "frames.bin"
        assert main(["can-play", "--playback", str(csvs[0]),
                     "--target", f"file://{target}", "--pacing", "fast"]) == 0
        assert target.stat().st_size == sum(9 + r.dlc for r in
                                            read_playback_csv(csvs[0]))

    def test_malformed_dbc_is_config_error(self, run_dir, tmp_path):
        bad = tmp_path / "bad.dbc"
        bad.write_text("BO_ nope\n")
        assert main(["can-convert", "--simulation",
                     str(run_dir / "simulation.full.json"),
                     "--dbc", str(bad), "--out", str(tmp_path / "c")]) == 2
