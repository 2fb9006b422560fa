"""The ordered worker map, and benchmark's family K-folds run through it:
worker processes give the outputs of in-process calls, raise where those
raise, and none outlives its reader."""

import multiprocessing
import time
from contextlib import closing
from itertools import count
from unittest.mock import patch

import pytest

from roadsift import workers
from roadsift.cli import kfold_evaluate, main
from roadsift.ml import ClassifierSpec
from roadsift.workers import in_order

from test_golden import data_set_1, data_set_2  # noqa: F401  (fixtures)


def square_late_first(i):
    # the early items finish last, so a pool completes them out of order
    time.sleep(0.02 * max(0, 3 - i))
    return i * i


def fail_at_three(i):
    if i == 3:
        raise KeyError(f"item {i}")
    return i


def no_pool(workers_):
    raise AssertionError("a pool was started")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_in_input_order(cpus):
    with patch.object(workers, "_cpu_count", lambda: cpus):
        assert list(in_order(square_late_first, [(i,) for i in range(10)])) == [
            i * i for i in range(10)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_is_raised_at_its_item(cpus):
    seen = []
    with patch.object(workers, "_cpu_count", lambda: cpus):
        with pytest.raises(KeyError) as info:
            for value in in_order(fail_at_three, [(i,) for i in range(8)]):
                seen.append(value)
    assert seen == [0, 1, 2]
    assert str(info.value) == "'item 3'"
    assert multiprocessing.active_children() == []


def test_closing_an_endless_map_joins_its_workers():
    with patch.object(workers, "_cpu_count", lambda: 2):
        with closing(in_order(square_late_first, zip(count()))) as squares:
            assert [next(squares) for _ in range(5)] == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, items", [(1, 5), (2, 1), (4, 0)])
def test_one_cpu_or_one_item_starts_no_pool(cpus, items):
    with patch.object(workers, "_cpu_count", lambda: cpus), \
            patch.object(workers, "_fork_pool", no_pool):
        assert list(in_order(square_late_first, [(i,) for i in range(items)])) == [
            i * i for i in range(items)]


def bench(capsys, cpus, features, out, *models):
    """benchmark's exit code, stdout and stderr with `cpus` CPUs, and the
    bytes of each file it wrote, by name."""
    capsys.readouterr()
    with patch.object(workers, "_cpu_count", lambda: cpus):
        code = main(["benchmark", "--features", str(features), "--k", "10",
                     "--seed", "160", *models, "--out", str(out)])
    assert multiprocessing.active_children() == []
    stdout, stderr = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
        if out.exists() else {}
    return code, stdout.replace(str(out), "<out>"), stderr, files


@pytest.mark.parametrize("models", [[], ["--models", "random_forest,gradient_boosting"]],
                         ids=["all", "ensembles"])
@pytest.mark.parametrize("data_set", ["data_set_1", "data_set_2"])
def test_benchmark_outputs_do_not_depend_on_the_cpus(request, capsys, tmp_path,
                                                     data_set, models):
    features = request.getfixturevalue(data_set)
    alone = bench(capsys, 1, features, tmp_path / "one", *models)
    pooled = bench(capsys, 2, features, tmp_path / "two", *models)
    assert alone[0] == 0
    assert "best_model.json" in alone[3]
    assert len(alone[3]) == 3 + 4 * (not models)   # reports + best_model.json
    assert pooled == alone


def failing_report(ds, family, k, seed):
    if family == "decision_tree":
        raise ValueError(f"{family} cannot fold {len(ds)} rows")
    return kfold_evaluate(ds, ClassifierSpec(family), k, seed)


def test_a_failing_family_fails_alike_on_any_cpus(capsys, tmp_path, data_set_1,
                                                   monkeypatch):
    monkeypatch.setattr("roadsift.cli._family_report", failing_report)
    alone = bench(capsys, 1, data_set_1, tmp_path / "one")
    pooled = bench(capsys, 2, data_set_1, tmp_path / "two")
    assert alone[0] == 2
    assert alone[2] == "error: decision_tree cannot fold 40 rows\n"
    # the reports before the failing family are written, no others
    assert sorted(alone[3]) == ["logistic.report.json", "naive_bayes.report.json"]
    assert pooled == alone


def test_a_lone_unsafe_row_fails_alike_on_any_cpus(capsys, tmp_path, data_set_1):
    lines = data_set_1.read_text().splitlines(keepends=True)
    safe = [line for line in lines[1:] if line.rstrip().endswith(",safe")]
    unsafe = [line for line in lines[1:] if line.rstrip().endswith(",unsafe")]
    features = tmp_path / "one_unsafe.csv"
    features.write_text("".join([lines[0], *safe, unsafe[0]]))
    alone = bench(capsys, 1, features, tmp_path / "one")
    pooled = bench(capsys, 2, features, tmp_path / "two")
    assert alone[0] == 2
    assert alone[2] == ("error: the unsafe class has 1 row; K-fold needs 2 "
                        "or more of each class\n")
    assert alone[3] == {}
    assert pooled == alone


def test_a_one_family_benchmark_starts_no_pool(capsys, tmp_path, data_set_1):
    with patch.object(workers, "_fork_pool", no_pool):
        code, _, stderr, files = bench(capsys, 2, data_set_1, tmp_path / "b",
                                       "--models", "logistic")
    assert (code, stderr) == (0, "")
    assert sorted(files) == ["best_model.json", "logistic.report.json"]
