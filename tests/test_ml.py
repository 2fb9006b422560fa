import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roadsift.ml import (
    FAMILIES,
    GRID_DOMAINS,
    SAFE_CODE,
    UNSAFE_CODE,
    ClassifierSpec,
    CorruptModelFile,
    EmptySplit,
    FeatureMismatch,
    LabeledDataset,
    SingleClassDataset,
    TooFewRows,
    TrainedClassifier,
    balanced_training_set,
    canonical_form,
    confusion_from_predictions,
    fit,
    fit_many,
    grid_sizes,
    holdout_evaluate,
    information_gain,
    iter_cells,
    kfold_evaluate,
    kfold_evaluate_many,
    label_code,
    label_correlation,
    load_model,
    oversample_minority,
    rank_features,
    report_from_confusion,
    save_model,
    skip_reason,
    split,
    stratified_folds,
)
from roadsift.ml import gridsearch, linear, models, trees
from roadsift.ml.gridsearch import GridCell, grid_search

import reference_logistic
import reference_svm
import reference_trees

NAMES2 = ("f0", "f1")


def make_ds(X, y, names=NAMES2):
    X = np.asarray(X, dtype=float)
    return LabeledDataset(X, np.asarray(y), names,
                          tuple(f"t{i}" for i in range(len(X))))


def separable_ds(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return make_ds(X, y)


def noisy_ds(n=30, d=4, seed=3):
    """Overlapping classes, so pruning and regularisation change models."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=0.8, size=n) > 0).astype(int)
    return make_ds(X, y, tuple(f"f{i}" for i in range(d)))


def xor_ds(per_cluster=100, seed=1):
    rng = np.random.default_rng(seed)
    centers = [(-1, -1, 0), (1, 1, 0), (-1, 1, 1), (1, -1, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        X.append(rng.normal(scale=0.25, size=(per_cluster, 2)) + (cx, cy))
        y.extend([label] * per_cluster)
    return make_ds(np.vstack(X), y)


class TestOversample:
    def test_minority_duplicated_to_balance(self):
        ds = make_ds(np.arange(28).reshape(14, 2), [0] * 10 + [1] * 4)
        out = oversample_minority(ds, 3)
        assert out.class_counts() == (10, 10)
        # additions are duplicates of the four minority rows
        minority_rows = {tuple(r) for r in ds.X[ds.y == 1]}
        for row in out.X[out.y == 1]:
            assert tuple(row) in minority_rows
        # majority rows untouched
        assert np.array_equal(out.X[out.y == 0], ds.X[ds.y == 0])

    def test_balanced_is_fixpoint(self):
        ds = make_ds(np.arange(16).reshape(8, 2), [0, 1] * 4)
        out = oversample_minority(ds, 0)
        assert np.array_equal(out.X, ds.X)

    def test_cautious_split_counts(self):
        # 866 safe / 312 unsafe balances to 866/866
        rng = np.random.default_rng(0)
        ds = make_ds(rng.normal(size=(1178, 2)), [0] * 866 + [1] * 312)
        out = oversample_minority(ds, 1)
        assert out.class_counts() == (866, 866)

    def test_single_class_rejected(self):
        ds = make_ds(np.arange(8).reshape(4, 2), [0, 0, 0, 0])
        with pytest.raises(SingleClassDataset):
            oversample_minority(ds, 0)


class TestSplit:
    def test_stratified_proportions(self):
        ds = separable_ds(100)
        train, test = split(ds, 0.8, 1, oversample_train=False)
        assert len(train) == 80
        assert len(test) == 20
        n_unsafe = int(ds.y.sum())
        assert abs(int(train.y.sum()) - round(0.8 * n_unsafe)) <= 1

    def test_disjoint_exhaustive(self):
        ds = separable_ds(100)
        train, test = split(ds, 0.6, 2, oversample_train=False)
        assert set(train.ids) | set(test.ids) == set(ds.ids)
        assert set(train.ids) & set(test.ids) == set()

    def test_train_oversampled_test_raw(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(100, 2)),
                     [0] * 70 + [1] * 30)
        train, test = split(ds, 0.8, 3)
        n_safe, n_unsafe = train.class_counts()
        assert n_safe == n_unsafe
        ts, tu = test.class_counts()
        assert (ts, tu) == (14, 6)

    def test_same_seed_identical(self):
        ds = separable_ds(60)
        a = split(ds, 0.8, 9)
        b = split(ds, 0.8, 9)
        assert np.array_equal(a[0].X, b[0].X)
        assert a[1].ids == b[1].ids

    def test_balanced_training_set_counts(self):
        # complete set 3095 safe / 2543 unsafe -> balanced 2034 + 2034 train
        rng = np.random.default_rng(4)
        ds = make_ds(rng.normal(size=(5638, 2)), [0] * 3095 + [1] * 2543)
        train, holdout = balanced_training_set(ds, 0.8, 0)
        assert train.class_counts() == (2034, 2034)
        assert len(holdout) == 5638 - 4068
        assert set(train.ids) & set(holdout.ids) == set()


class TestRefusals:
    def test_a_dataset_of_unequal_lengths(self):
        with pytest.raises(ValueError, match="X, y, ids must have equal length"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2), NAMES2,
                           ("a", "b", "c"))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_a_split_fraction_outside_0_1(self, fraction):
        with pytest.raises(ValueError, match="train_fraction must be in"):
            split(separable_ds(20), fraction, 0)

    def test_a_split_with_an_empty_side(self):
        # one row of each class: 0.1 of one row rounds to none
        with pytest.raises(EmptySplit, match="empty side"):
            split(make_ds(np.eye(2), [0, 1]), 0.1, 0)

    def test_too_few_rows_for_a_balanced_training_set(self):
        with pytest.raises(EmptySplit, match="not enough rows"):
            balanced_training_set(make_ds(np.eye(2), [0, 1]), 0.8, 0)

    def test_fewer_than_two_folds(self):
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            kfold_evaluate(separable_ds(20), ClassifierSpec("naive_bayes"), 1, 0)

    def test_fit_many_with_a_seed_count_unlike_its_sets(self):
        ds = separable_ds(20)
        with pytest.raises(ValueError, match="1 seeds for 2 training sets"):
            list(fit_many([ClassifierSpec("naive_bayes")],
                          [(ds.X, ds.y)] * 2, NAMES2, [0]))

    def test_fit_many_with_mixed_families(self):
        ds = separable_ds(20)
        with pytest.raises(ValueError, match="specs of one family"):
            list(fit_many([ClassifierSpec("naive_bayes"),
                           ClassifierSpec("logistic")],
                          [(ds.X, ds.y)], NAMES2, [0]))


class TestKFold:
    def test_fold_partition_laws(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(40, 200))
            n_unsafe = int(rng.integers(10, n - 10))
            y = np.array([1] * n_unsafe + [0] * (n - n_unsafe))
            folds = stratified_folds(y, 10, trial)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            all_idx = np.concatenate(folds)
            assert len(all_idx) == n
            assert len(set(all_idx.tolist())) == n

    def test_ten_folds_of_thousand(self):
        y = np.array([0, 1] * 500)
        folds = stratified_folds(y, 10, 0)
        assert all(len(f) == 100 for f in folds)

    def test_summed_confusion_totals(self):
        ds = separable_ds(200, seed=3)
        report = kfold_evaluate(ds, ClassifierSpec("naive_bayes"), 10, 5)
        assert report.tp + report.fp + report.tn + report.fn == 200

    def test_constant_prediction_accuracy_is_prevalence(self):
        # constant features force every leaf vote to the oversampling tie,
        # which breaks toward unsafe: accuracy equals unsafe prevalence
        X = np.ones((100, 2))
        y = np.array([1] * 30 + [0] * 70)
        ds = make_ds(X, y)
        report = kfold_evaluate(ds, ClassifierSpec("decision_tree"), 10, 1)
        assert report.accuracy == pytest.approx(0.30, abs=1e-12)

    def test_too_few_rows(self):
        ds = separable_ds(8)
        with pytest.raises(TooFewRows):
            kfold_evaluate(ds, ClassifierSpec("naive_bayes"), 10, 0)


class TestFamilies:
    def test_logistic_separable(self):
        train, test = split(separable_ds(400), 0.8, 3)
        model = fit(ClassifierSpec("logistic"), train.X, train.y, NAMES2, 1)
        assert holdout_evaluate(model, test).f1_unsafe >= 0.99

    def test_xor_tree_beats_logistic(self):
        ds = xor_ds()
        train, test = split(ds, 0.8, 5)
        tree = fit(ClassifierSpec("decision_tree", {"M": 1}),
                   train.X, train.y, NAMES2, 1)
        logistic = fit(ClassifierSpec("logistic"), train.X, train.y, NAMES2, 1)
        assert holdout_evaluate(tree, test).accuracy >= 0.95
        assert holdout_evaluate(logistic, test).accuracy <= 0.60

    @pytest.mark.parametrize("family,params", [
        ("naive_bayes", {}),
        ("linear_svm", {}),
        ("random_forest", {"I": 10}),
        ("gradient_boosting", {"n_estimators": 10}),
    ])
    def test_families_learn_separable(self, family, params):
        train, test = split(separable_ds(300, seed=11), 0.8, 3)
        model = fit(ClassifierSpec(family, params), train.X, train.y, NAMES2, 2)
        assert holdout_evaluate(model, test).accuracy >= 0.9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_defaults_lie_in_the_domain(self, family):
        record = models._RECORDS[family]
        assert record.defaults.keys() == record.domain.keys()
        for name, value in record.defaults.items():
            assert any(type(v) is type(value) and v == value
                       for v in record.domain[name])

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(SingleClassDataset):
            fit(ClassifierSpec("logistic"), X, np.zeros(20, dtype=int), NAMES2, 0)

    @pytest.mark.parametrize("predict, parameters", [
        ("_predict_linear", {"weights": [1e308, 1e308], "bias": 0.0}),
        ("_predict_boosting", {"init": 0.0, "learning_rate": 1e308,
                               "trees": [{"leaf": True, "value": 1e308},
                                         {"leaf": True, "value": -1e308}]}),
    ])
    def test_a_nan_score_predicts_unsafe(self, predict, parameters):
        # finite parameters whose score is inf - inf: the tie rule sends
        # an undecided row to unsafe
        owner = linear if predict == "_predict_linear" else trees
        with np.errstate(over="ignore", invalid="ignore"):
            codes = getattr(owner, predict)(parameters, np.array([[2.0, -2.0]]))
        assert codes.tolist() == [UNSAFE_CODE]

    def test_degenerate_forest_matches_plain_tree(self):
        # one tree, all features, no depth/pruning difference: the forest
        # canopy is a single unpruned gain tree
        ds = separable_ds(150, seed=2)
        forest = fit(ClassifierSpec("random_forest", {"I": 5, "K": 0, "M": 1}),
                     ds.X, ds.y, NAMES2, 4)
        [plain] = trees._grow_decision_trees([(ds.X, ds.y)], min_leaf=1)
        plain_pred = trees._tree_predict(plain, ds.X)
        forest_pred = forest.predict_matrix(ds.X)
        # bootstrapped vote agrees with the plain tree on almost all rows
        assert np.mean(plain_pred == forest_pred) >= 0.95

    def test_prediction_determinism(self):
        ds = separable_ds(120, seed=9)
        model = fit(ClassifierSpec("random_forest", {"I": 10}),
                    ds.X, ds.y, NAMES2, 6)
        a = model.predict_matrix(ds.X)
        b = model.predict_matrix(ds.X)
        assert np.array_equal(a, b)

    def test_standardization_invariance(self):
        # rescaling a feature column in train and test together leaves
        # logistic and svm predictions unchanged
        ds = separable_ds(200, seed=4)
        scaled_X = ds.X.copy()
        scaled_X[:, 1] *= 1000.0
        scaled = make_ds(scaled_X, ds.y)
        for family in ("logistic", "linear_svm"):
            m0 = fit(ClassifierSpec(family), ds.X, ds.y, NAMES2, 1)
            m1 = fit(ClassifierSpec(family), scaled.X, scaled.y, NAMES2, 1)
            assert np.array_equal(m0.predict_matrix(ds.X),
                                  m1.predict_matrix(scaled.X))

    def test_naive_bayes_priors_after_oversampling(self):
        ds = make_ds(np.random.default_rng(2).normal(size=(90, 2)),
                     [0] * 60 + [1] * 30)
        balanced = oversample_minority(ds, 5)
        model = fit(ClassifierSpec("naive_bayes"), balanced.X, balanced.y,
                    NAMES2, 0)
        assert model.parameters["priors"] == [0.5, 0.5]

    def test_feature_mismatch(self):
        ds = separable_ds(60)
        model = fit(ClassifierSpec("logistic"), ds.X, ds.y, NAMES2, 0)
        with pytest.raises(FeatureMismatch):
            model.predict_matrix(
                model.feature_matrix([{"f0": 1.0, "wrong_name": 2.0}]))[0]
        with pytest.raises(FeatureMismatch):
            model.predict_matrix(np.zeros((3, 5)))

    def test_hyperparameter_domain_enforced(self):
        with pytest.raises(ValueError):
            ClassifierSpec("decision_tree", {"M": 3})     # 3 not in the grid
        with pytest.raises(ValueError):
            ClassifierSpec("logistic", {"nope": 1})
        with pytest.raises(ValueError):
            ClassifierSpec("unknown_family")

    @pytest.mark.parametrize("family,params", [
        ("logistic", {"dual": 0}),             # bool domain, int value
        ("decision_tree", {"M": 1.0}),         # int domain, float value
        ("random_forest", {"K": False}),       # int domain, bool value
    ])
    def test_hyperparameter_type_must_match_domain(self, family, params):
        with pytest.raises(ValueError, match="not in declared domain"):
            ClassifierSpec(family, params)


NAMES18 = tuple(f"f{i}" for i in range(18))
SCALES18 = np.random.default_rng(20).lognormal(size=18)


@pytest.fixture(scope="module")
def models18():
    """One model per family on 18 features of unequal scale."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 18)) * SCALES18
    y = (X[:, :3].sum(axis=1) + rng.normal(size=120) > 0).astype(np.int64)
    small = {"random_forest": {"I": 10}, "gradient_boosting": {"n_estimators": 10}}
    return [fit(ClassifierSpec(family, small.get(family, {})), X, y, NAMES18, 0)
            for family in FAMILIES]


def onto_linear_boundary(model, X):
    """X moved along the weights onto a linear model's decision boundary,
    where the last bits of a score decide its sign."""
    mean, std = model.standardization
    w = np.asarray(model.parameters["weights"])
    Z = (X - mean) / std
    Z = Z - np.outer(Z @ w + model.parameters["bias"], w / (w @ w))
    return Z * std + mean


class TestBatchIndependence:
    @settings(max_examples=40)
    @given(st.integers(1, 400), st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(0, 400), max_size=6))
    def test_any_split_predicts_as_whole(self, models18, n, seed, cuts):
        X = np.random.default_rng(seed).normal(size=(n, 18)) * SCALES18
        bounds = sorted({0, n, *(c for c in cuts if c < n)})
        for model in models18:
            rows = X
            if model.spec.family in ("logistic", "linear_svm"):
                rows = onto_linear_boundary(model, X)
            whole = model.predict_matrix(rows)
            parts = [model.predict_matrix(rows[a:b])
                     for a, b in zip(bounds, bounds[1:])]
            alone = [model.predict_matrix(rows[i:i + 1]) for i in range(n)]
            fortran = model.predict_matrix(np.asfortranarray(rows))
            for other in (np.concatenate(parts), np.concatenate(alone), fortran):
                assert np.array_equal(other, whole), model.spec.family


class TestMetrics:
    def test_reference_confusion_matrix(self):
        report = report_from_confusion(tp=40, fp=260, tn=549, fn=10)
        assert report.precision_unsafe == pytest.approx(40 / 300, abs=1e-12)
        assert report.recall_unsafe == pytest.approx(40 / 50, abs=1e-12)
        assert report.accuracy == pytest.approx(589 / 859, abs=1e-12)
        f1 = 2 * (40 / 300) * 0.8 / ((40 / 300) + 0.8)
        assert report.f1_unsafe == pytest.approx(f1, abs=1e-12)

    def test_weighted_f1_is_support_weighted(self):
        report = report_from_confusion(tp=30, fp=10, tn=40, fn=20)
        support_u, support_s = 50, 50
        expected = (support_u * report.f1_unsafe + support_s * report.f1_safe) / 100
        assert report.weighted_avg_f1 == pytest.approx(expected, abs=1e-12)

    def test_rates_in_unit_interval(self):
        report = report_from_confusion(tp=0, fp=0, tn=5, fn=5)
        for value in (report.precision_unsafe, report.recall_unsafe,
                      report.f1_unsafe, report.accuracy):
            assert 0.0 <= value <= 1.0

    def test_confusion_from_predictions(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 1, 0, 1])
        assert confusion_from_predictions(y_true, y_pred) == (2, 1, 1, 1)


class TestGrids:
    def test_grid_sizes_match_declared_lists(self):
        sizes = grid_sizes()
        assert sizes["decision_tree"] == 100
        assert sizes["random_forest"] == 500
        assert sizes["gradient_boosting"] == 108
        assert sizes["logistic"] == 120
        assert sizes["linear_svm"] == 8

    def test_total_over_700(self):
        swept = ("decision_tree", "random_forest", "gradient_boosting",
                 "logistic", "linear_svm")
        assert sum(grid_sizes()[f] for f in swept) >= 700

    def test_logistic_skip_rules(self):
        cells = iter_cells("logistic")
        skipped = [c for c in cells if skip_reason("logistic", c)]
        assert len(skipped) == 81
        # dual=True only with liblinear + l2
        for c in cells:
            if c["dual"] and not (c["solver"] == "liblinear" and c["penalty"] == "l2"):
                assert skip_reason("logistic", c) is not None

    def test_svm_skip_rules(self):
        cells = iter_cells("linear_svm")
        skipped = [c for c in cells if skip_reason("linear_svm", c)]
        assert len(skipped) == 4
        assert skip_reason("linear_svm",
                           {"penalty": "l1", "loss": "hinge", "dual": False})

    def test_grid_search_ranked_output(self):
        ds = separable_ds(60, seed=6)
        cells = grid_search("linear_svm", ds, 2, 0)
        assert len(cells) == 8
        evaluated = [c for c in cells if c.status == "evaluated"]
        assert len(evaluated) == 4
        scores = [c.weighted_avg_f1 for c in evaluated]
        assert scores == sorted(scores, reverse=True)
        assert all(c.weighted_avg_f1 is None for c in cells[4:])


def naive_grid_search(family, ds, k, rng_seed):
    """Per-cell reference: one K-fold run for every valid cell."""
    evaluated, skipped = [], []
    for params in iter_cells(family):
        reason = skip_reason(family, params)
        if reason is not None:
            skipped.append(GridCell(params, f"skipped: {reason}", None))
            continue
        report = kfold_evaluate(ds, ClassifierSpec(family, params), k, rng_seed)
        evaluated.append(GridCell(params, "evaluated", report.weighted_avg_f1))

    def rank(cell):
        p = cell.params
        return (-cell.weighted_avg_f1, p.get("I", p.get("n_estimators", 0)),
                p.get("depth", 0), sorted((n, str(v)) for n, v in p.items()))
    return sorted(evaluated, key=rank) + skipped


def small_ensemble_cells(family):
    """Valid cells whose ensembles have at most 10 members."""
    return [c for c in iter_cells(family) if skip_reason(family, c) is None
            and c.get("I", 5) in (5, 10) and c.get("n_estimators", 10) == 10]


class TestCanonicalForm:
    def test_distinct_forms_on_eighteen_features(self):
        distinct = {
            family: len({canonical_form(ClassifierSpec(family, c), 18)
                         for c in iter_cells(family)
                         if skip_reason(family, c) is None})
            for family in FAMILIES}
        assert distinct == {"logistic": 12, "naive_bayes": 1,
                            "decision_tree": 60, "random_forest": 300,
                            "gradient_boosting": 48, "linear_svm": 3}

    @pytest.mark.parametrize("family", [f for f in FAMILIES if GRID_DOMAINS[f]])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_ignored_hyperparameters_leave_the_model_unchanged(self, family, data):
        ds = noisy_ds()
        d = ds.X.shape[1]
        cell = data.draw(st.sampled_from(small_ensemble_cells(family)))
        form = canonical_form(ClassifierSpec(family, cell), d)
        twins = [c for c in iter_cells(family) if c != cell
                 and canonical_form(ClassifierSpec(family, c), d) == form]
        assume(twins)
        twin = data.draw(st.sampled_from(twins))
        seed = data.draw(st.integers(0, 2**16))
        a = fit(ClassifierSpec(family, cell), ds.X, ds.y, ds.feature_names, seed)
        b = fit(ClassifierSpec(family, twin), ds.X, ds.y, ds.feature_names, seed)
        assert a.parameters == b.parameters
        if a.standardization is None:
            assert b.standardization is None
        else:
            for mine, theirs in zip(a.standardization, b.standardization):
                assert np.array_equal(mine, theirs)

    # calls of the shared work in a 3-fold search: one solve per fold and
    # penalty, one fit per fold and form, one call per M and R growing the
    # three folds' trees
    @pytest.mark.parametrize("family,distinct,owner,shared_work,calls", [
        ("logistic", 12, linear, "_logistic_solve", 3 * 4),
        ("linear_svm", 3, linear, "_fit_linear_svm", 3 * 3),
        ("decision_tree", 60, trees, "_grow_decision_trees", 10)],
        ids=["logistic-12", "linear_svm-3", "decision_tree-60"])
    def test_grid_search_matches_per_cell_reference(self, family, distinct,
                                                    owner, shared_work, calls,
                                                    monkeypatch):
        ds = noisy_ds()
        scored, runs = [], []
        kfold = gridsearch.kfold_evaluate_many
        work = getattr(owner, shared_work)

        def kfold_counted(ds, specs, *args):
            scored.append(len(specs))
            return kfold(ds, specs, *args)

        def counted(*args):
            runs.append(args)
            return work(*args)
        monkeypatch.setattr(gridsearch, "kfold_evaluate_many", kfold_counted)
        monkeypatch.setattr(owner, shared_work, counted)
        if family == "linear_svm":      # the family's record holds the function
            monkeypatch.setitem(models._RECORDS, family, models._RECORDS[
                family]._replace(fit=models._alone(counted)))
        cells = grid_search(family, ds, 3, 7)
        assert scored == [distinct]
        assert len(runs) == calls
        if family == "decision_tree":
            assert all(len(sets) == 3 for sets, _ in runs)
        monkeypatch.undo()
        assert cells == naive_grid_search(family, ds, 3, 7)

    @pytest.mark.parametrize("family", ["logistic", "decision_tree",
                                        "gradient_boosting"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_shared_work_matches_each_form_alone(self, family, data):
        d = data.draw(st.integers(2, 5), label="d")
        ds = noisy_ds(n=data.draw(st.integers(12, 40), label="n"), d=d,
                      seed=data.draw(st.integers(0, 99), label="rows"))
        assume(min(ds.class_counts()) >= 2)
        firsts = {}
        for cell in small_ensemble_cells(family):
            spec = ClassifierSpec(family, cell)
            firsts.setdefault(canonical_form(spec, d), spec)
        every = list(firsts.values())
        picks = data.draw(st.lists(st.sampled_from(range(len(every))),
                                   min_size=1, max_size=12, unique=True),
                          label="specs")
        specs = [every[i] for i in picks]
        k = data.draw(st.integers(2, 5), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        assert kfold_evaluate_many(ds, specs, k, seed) == [
            kfold_evaluate(ds, spec, k, seed) for spec in specs]
        shared = {j: model for _, j, model in
                  fit_many(specs, [(ds.X, ds.y)], ds.feature_names, [seed])}
        for j, spec in enumerate(specs):
            alone = fit(spec, ds.X, ds.y, ds.feature_names, seed)
            assert json.dumps(shared[j].parameters) == json.dumps(alone.parameters)


@st.composite
def oversampled_folds(draw, d=None):
    """A small matrix shaped like an oversampled training fold: columns
    quantised to a few levels, so values tie, and duplicated rows
    appended. d columns, or a drawn number."""
    n = draw(st.integers(2, 30))
    if d is None:
        d = draw(st.integers(1, 12))
    levels = draw(st.lists(st.sampled_from([2, 3, 5, 40]), min_size=d, max_size=d))
    scale = draw(st.sampled_from([0.5, 1.0 / 3.0, 7.25]))
    codes = draw(st.lists(st.lists(st.integers(0, 39), min_size=d, max_size=d),
                          min_size=n, max_size=n))
    X = (np.asarray(codes) % levels) * scale
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    extra = draw(st.lists(st.integers(0, n - 1), max_size=30))
    rows = np.concatenate([np.arange(n), extra]).astype(int)
    return X[rows], y[rows]


# grid domains for the reference comparison: full where fitting is cheap,
# small ensembles otherwise; a forest of 100 trees spans several blocks of
# trees grown together
PRESORT_DOMAINS = {
    "decision_tree": GRID_DOMAINS["decision_tree"],
    "random_forest": {**GRID_DOMAINS["random_forest"], "I": [5, 100]},
    "gradient_boosting": {**GRID_DOMAINS["gradient_boosting"],
                          "n_estimators": [10]},
}

# the multi-set comparison: a forest of one block is enough there, as its
# sets are fitted one at a time
MULTI_SET_DOMAINS = {**PRESORT_DOMAINS,
                     "random_forest": {**GRID_DOMAINS["random_forest"],
                                       "I": [5]}}


class TestPresortedGrowth:
    @pytest.mark.parametrize("family", list(PRESORT_DOMAINS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_matches_per_node_reference(self, family, data):
        X, y = data.draw(oversampled_folds())
        spec = ClassifierSpec(family, {
            name: data.draw(st.sampled_from(values), label=name)
            for name, values in PRESORT_DOMAINS[family].items()})
        seed = data.draw(st.integers(0, 2**16), label="seed")
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        if family == "random_forest":   # some forests span several blocks
            assert max(PRESORT_DOMAINS[family]["I"]) > trees._TREE_BLOCK
        fast = fit(spec, X, y, names, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "_grow_decision_trees",
                       reference_trees.grow_decision_trees)
            for name, fit_one in (
                    ("random_forest", reference_trees.fit_random_forest),
                    ("gradient_boosting", reference_trees.fit_gradient_boosting)):
                mp.setitem(models._RECORDS, name, models._RECORDS[name]._replace(
                    fit=models._alone(fit_one)))
            slow = fit(spec, X, y, names, seed)
        assert json.dumps(fast.parameters) == json.dumps(slow.parameters)

    @pytest.mark.parametrize("family", list(MULTI_SET_DOMAINS))
    @settings(max_examples=50)
    @given(data=st.data())
    def test_sets_fitted_together_match_each_alone(self, family, data):
        d = data.draw(st.integers(1, 12), label="d")
        sets = data.draw(st.lists(oversampled_folds(d), min_size=2, max_size=5),
                         label="sets")
        assume(len({len(y) for _, y in sets}) > 1)
        specs = data.draw(st.lists(st.builds(
            lambda params: ClassifierSpec(family, params),
            st.fixed_dictionaries({
                name: st.sampled_from(values)
                for name, values in MULTI_SET_DOMAINS[family].items()})),
            min_size=1, max_size=3), label="specs")
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=len(sets),
                                   max_size=len(sets)), label="seeds")
        names = tuple(f"f{i}" for i in range(d))
        together = {(i, j): model for i, j, model in
                    fit_many(specs, sets, names, seeds)}
        assert len(together) == len(sets) * len(specs)
        for (i, j), model in together.items():
            X, y = sets[i]
            alone = fit(specs[j], X, y, names, seeds[i])
            assert json.dumps(model.parameters) == json.dumps(alone.parameters)

    @pytest.mark.parametrize("family, params", [
        ("decision_tree", {"M": 1}), ("random_forest", {"M": 1}),
        ("gradient_boosting", {"n_estimators": 10})],
        ids=["decision_tree", "random_forest", "gradient_boosting"])
    def test_cut_between_adjacent_floats(self, family, params):
        # the midpoint of these two values rounds up to the larger one
        a = 1.0 + 2.0**-52
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        X = np.array([[a], [a], [b], [b], [a], [b]])
        y = np.array([0, 0, 1, 1, 0, 1])
        model = fit(ClassifierSpec(family, params), X, y, ("f0",), 0)
        assert model.predict_matrix(X).tolist() == y.tolist()
        tree = model.parameters.get("tree") or model.parameters["trees"][0]
        assert tree["threshold"] == a

    @settings(max_examples=200)
    @given(data=st.data())
    def test_winners_follow_the_tie_rule(self, data):
        # scores at and just under the best, where the candidate that wins
        # depends on the ones before it
        m = data.draw(st.integers(1, 4), label="nodes")
        levels = [-np.inf, 0.25, 0.5 - 3e-15, 0.5 - 1.5e-15, 0.5 - 0.5e-15,
                  0.5, 0.5 + 0.5e-15, 0.5 + 1.5e-15]
        top = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(levels), min_size=m, max_size=m),
            min_size=1, max_size=6), label="top"))
        expected = []
        for column in top.T.tolist():
            best = won = None
            for j, value in enumerate(column):
                if value > -np.inf and (best is None or value > best + 1e-15):
                    best, won = value, j
            expected.append(-1 if won is None else won)
        assert trees._winners(top).tolist() == expected

    def test_forest_memory_grows_with_the_block(self):
        # a block of trees holds a presorted index of d * n entries a tree;
        # growing all four blocks' trees at once would hold four of them
        rng = np.random.default_rng(0)
        n, d = 2000, 18
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.8 * rng.normal(size=n) > 0.3).astype(np.int64)
        index_bytes = 8 * d * n * trees._TREE_BLOCK
        tracemalloc.start()
        try:
            params, _ = trees._fit_random_forest(
                X, y, (4 * trees._TREE_BLOCK, 4, 3, 1), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(params["trees"]) == 4 * trees._TREE_BLOCK
        assert peak < 3 * index_bytes

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="trees._raise_heap_bounds acts on glibc's malloc")
    def test_boosting_rounds_keep_their_pages(self):
        # in a fresh process, where no other test's frees have raised
        # glibc's bounds first: without trees._raise_heap_bounds the second
        # K-fold takes about 140k minor faults, with it a few dozen
        code = textwrap.dedent("""\
            import resource
            from roadsift.ml import ClassifierSpec, dataset_from_tests, kfold_evaluate
            from roadsift.oracle import DriverConfig, build_dataset
            ds = dataset_from_tests(
                build_dataset(100, DriverConfig(), 5, keep_traces=False))
            spec = ClassifierSpec("gradient_boosting")
            kfold_evaluate(ds, spec, 10, 6)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            kfold_evaluate(ds, spec, 10, 6)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        assert int(done.stdout) < 10_000

    @pytest.mark.parametrize("loss", ["log_loss", "exponential"])
    def test_leaf_values_are_the_margin_update(self, loss, monkeypatch):
        # two sets of unequal size, grown stage by stage together
        ds = oversample_minority(noisy_ds(n=40, d=5), 2)
        X = np.round(ds.X * 2.0) / 2.0              # tied values
        sets = [(X[::2], ds.y[::2]), (X, ds.y)]
        stages, updates = [], []
        grow, set_values = trees._grow_trees, trees._set_leaf_values

        def grown(*args, **kwargs):
            stage, leaves = grow(*args, **kwargs)
            stages.append(stage)
            return stage, leaves

        def valued(leaves, index, grad, hess, fitted):
            set_values(leaves, index, grad, hess, fitted)
            updates.append(fitted.copy())
        monkeypatch.setattr(trees, "_grow_trees", grown)
        monkeypatch.setattr(trees, "_set_leaf_values", valued)
        spec = ClassifierSpec("gradient_boosting",
                              {"n_estimators": 10, "loss": loss})
        fitted_models = [model for _, _, model in
                         fit_many([spec], sets, ds.feature_names, [0, 1])]
        assert len(stages) == len(updates) == 10
        start = 0
        for t, ((Xs, _), model) in enumerate(zip(sets, fitted_models)):
            assert [stage[t] for stage in stages] == model.parameters["trees"]
            rows = slice(start, start + len(Xs))
            start += len(Xs)
            for stage, fitted in zip(stages, updates):
                assert fitted[rows].tobytes() == (
                    trees._reg_tree_predict(stage[t], Xs).tobytes())


@st.composite
def separable_matrices(draw):
    """A small matrix with columns quantised to a few levels, one constant
    column, and labels from a linear rule, so both classes are linearly
    separable."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 6))
    levels = draw(st.lists(st.sampled_from([2, 3, 5, 40]), min_size=d, max_size=d))
    codes = draw(st.lists(st.lists(st.integers(0, 39), min_size=d, max_size=d),
                          min_size=n, max_size=n))
    X = (np.asarray(codes) % levels) * draw(st.sampled_from([0.5, 7.25]))
    X = np.insert(X, draw(st.integers(0, d)), 3.0, axis=1)
    rule = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    score = X @ np.asarray(rule, dtype=float)
    cuts = np.unique(score)
    assume(len(cuts) >= 2)
    i = draw(st.integers(0, len(cuts) - 2))
    y = (score > 0.5 * (cuts[i] + cuts[i + 1])).astype(np.int64)
    return X, y


LOGISTIC_FORMS = [(penalty, max_iter)
                  for penalty in GRID_DOMAINS["logistic"]["penalty"]
                  for max_iter in GRID_DOMAINS["logistic"]["max_iter"]]


def assert_caps_read_one_path(Xs, y, penalty, caps):
    """The solve reported at each cap equals a solve capped there alone."""
    shared = linear._logistic_solve(Xs, y, penalty, caps)
    assert len(shared) == len(caps)
    for cap, (w, b, steps, converged) in zip(caps, shared):
        [(w1, b1, steps1, converged1)] = linear._logistic_solve(
            Xs, y, penalty, [cap])
        assert w.tobytes() == w1.tobytes() and b == b1
        assert (steps, converged) == (steps1, converged1)
    return shared


# solver settings that end the solve on the seven rows below before it
# converges: one line-search try fails at an overshooting Newton step, and
# a step tolerance of 0.1 stops the solve once its moves are small
STALLS = [({"_MAX_HALVINGS": 1}, "none"), ({"_MAX_HALVINGS": 1}, "l1"),
          ({"_STEP_TOL": 0.1}, "l2"), ({"_STEP_TOL": 0.1}, "elasticnet")]
SEVEN_X = np.array([[8, -12], [-20, -13], [10, -19], [10, 13], [13, -16],
                    [6, -11], [19, -9]], dtype=float)
SEVEN_Y = np.array([0, 1, 0, 1, 0, 1, 0])


class TestLogisticSolver:
    @settings(max_examples=40)
    @given(data=separable_matrices(), penalty=st.sampled_from(
               GRID_DOMAINS["logistic"]["penalty"]),
           caps=st.lists(st.integers(0, 30), min_size=1, max_size=4,
                         unique=True).map(sorted),
           stop=st.sampled_from([{}] + [stop for stop, _ in STALLS]))
    def test_caps_truncate_one_path(self, data, penalty, caps, stop):
        X, y = data
        mean, std = linear._standardize_fit(X)
        with pytest.MonkeyPatch.context() as mp:
            for name, value in stop.items():
                mp.setattr(linear, name, value)
            assert_caps_read_one_path((X - mean) / std, y, penalty, caps)

    @pytest.mark.parametrize("stop, penalty", STALLS)
    def test_caps_after_a_stall(self, stop, penalty, monkeypatch):
        for name, value in stop.items():
            monkeypatch.setattr(linear, name, value)
        mean, std = linear._standardize_fit(SEVEN_X)
        shared = assert_caps_read_one_path((SEVEN_X - mean) / std, SEVEN_Y,
                                           penalty, [3, 10, 100, 1000])
        *_, (_, _, steps, converged) = shared
        assert not converged and 3 < steps < 10
        assert shared[1][2:] == shared[3][2:]

    @pytest.mark.parametrize("penalty", ["none", "l1"])
    def test_caps_cut_at_ten(self, penalty):
        mean, std = linear._standardize_fit(SEVEN_X)
        shared = assert_caps_read_one_path((SEVEN_X - mean) / std, SEVEN_Y,
                                           penalty, [10, 100, 1000])
        assert shared[0][2:] == (10, False)
        assert shared[1][3] and shared[1][2:] == shared[2][2:]

    @pytest.mark.parametrize("form", LOGISTIC_FORMS, ids=lambda f: f"{f[0]}-{f[1]}")
    @settings(max_examples=25)
    @given(data=separable_matrices())
    def test_no_worse_than_gradient_descent(self, form, data):
        X, y = data
        penalty, max_iter = form
        mean, std = linear._standardize_fit(X)
        Xs = (X - mean) / std
        [(w, b, steps, converged)] = linear._logistic_solve(
            Xs, y, penalty, [max_iter])
        ref, _ = reference_logistic.fit_logistic(X, y, form, 0)
        objective = reference_logistic.objective
        assert objective(Xs, y, w, b, penalty) <= (
            objective(Xs, y, ref["weights"], ref["bias"], penalty) + 1e-12)
        assert steps <= max_iter and np.all(np.isfinite(w))
        # Newton needs about 20 steps here even on separable rows
        assert converged or max_iter < 100
        if converged:
            assert reference_logistic.kkt_residual(Xs, y, w, b, penalty) < 2e-8

    def test_fit_wraps_the_solver(self):
        ds = noisy_ds()
        for penalty in GRID_DOMAINS["logistic"]["penalty"]:
            model = fit(ClassifierSpec("logistic", {"penalty": penalty}),
                        ds.X, ds.y, ds.feature_names)
            mean, std = model.standardization
            [(w, b, _, converged)] = linear._logistic_solve(
                (ds.X - mean) / std, ds.y, penalty, [1000])
            assert converged
            assert model.parameters == {"weights": w.tolist(), "bias": b}

    def test_every_step_lowers_the_objective(self):
        # on these separable rows a full Newton step overshoots at step 6
        X = np.array([[8, -12], [-20, -13], [10, -19], [10, 13], [13, -16],
                      [6, -11], [19, -9]], dtype=float)
        y = np.array([0, 1, 0, 1, 0, 1, 0])
        mean, std = linear._standardize_fit(X)
        Xs = (X - mean) / std
        values = [reference_logistic.objective(
            Xs, y, *linear._logistic_solve(Xs, y, "none", [k])[0][:2], "none")
            for k in range(11)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_separable_unpenalised_stops_on_the_gradient(self):
        # the weights of an unpenalised fit grow without bound on separable
        # rows, so no step is ever small; only the gradient test ends it
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 18))
        y = (X @ rng.normal(size=18) > 0).astype(np.int64)
        mean, std = linear._standardize_fit(X)
        [(w, b, steps, converged)] = linear._logistic_solve(
            (X - mean) / std, y, "none", [1000])
        assert converged and steps <= 50
        assert np.all(np.isfinite(w)) and math.isfinite(b)
        names = tuple(f"f{i}" for i in range(18))
        model = fit(ClassifierSpec("logistic", {"penalty": "none"}), X, y, names)
        assert np.array_equal(model.predict_matrix(X), y)


@st.composite
def overlapping_matrices(draw):
    """Small matrices with labels drawn apart from the rows, so the classes
    overlap; rows and columns may repeat."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 6))
    X = np.asarray(draw(st.lists(st.lists(st.integers(-9, 9), min_size=d,
                                          max_size=d),
                                 min_size=n, max_size=n)), dtype=float)
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(0 < y.sum() < n)
    return X * draw(st.sampled_from([0.5, 7.25])), y


# the forms valid grid cells reach: every (penalty, loss) but l1 + hinge
SVM_FORMS = sorted({canonical_form(ClassifierSpec("linear_svm", cell), 1)
                    for cell in iter_cells("linear_svm")
                    if skip_reason("linear_svm", cell) is None})


class TestLinearSvmSolver:
    @pytest.mark.parametrize("form", SVM_FORMS, ids="-".join)
    @settings(max_examples=30, deadline=None)
    @given(data=st.one_of(separable_matrices(), overlapping_matrices()))
    def test_no_worse_than_subgradient_descent(self, form, data):
        X, y = data
        penalty, loss = form
        mean, std = linear._standardize_fit(X)
        Xs = (X - mean) / std
        w, b, _, converged = linear._svm_solve(Xs, y, *form)
        ref, _ = reference_svm.fit_linear_svm(X, y, form, 0)
        objective = reference_svm.objective(Xs, y, w, b, *form)
        assert converged
        assert objective <= reference_svm.objective(
            Xs, y, ref["weights"], ref["bias"], *form) + 1e-12
        if loss == "squared_hinge":
            assert reference_svm.kkt_residual(Xs, y, w, b, penalty) < 2e-8
        elif penalty == "l2":
            beta, *_ = linear._hinge_dual_solve(Xs, y)
            assert np.all((beta >= 0.0) & (beta <= 1.0 / len(y)))
            assert abs(objective - reference_svm.dual_objective(Xs, y, beta)) < 1e-8

    @pytest.mark.parametrize("form", [("l2", "hinge")], ids="-".join)
    def test_hinge_memory_grows_with_rows_times_features(self, form):
        # on 3000 rows one n×n float64 matrix takes 72 MB
        rng = np.random.default_rng(0)
        n = 3000
        X = rng.normal(size=(n, 18))
        y = (X[:, 0] + 0.8 * rng.normal(size=n) > 0.3).astype(float)
        mean, std = linear._standardize_fit(X)
        Xs = (X - mean) / std
        tracemalloc.start()
        try:
            w, b, _, converged = linear._svm_solve(Xs, y, *form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert peak < 8 * n * n / 4
        beta, *_ = linear._hinge_dual_solve(Xs, y)
        assert abs(reference_svm.objective(Xs, y, w, b, *form)
                   - reference_svm.dual_objective(Xs, y, beta)) < 1e-8

    def test_fit_wraps_the_solver(self):
        ds = noisy_ds()
        for penalty, loss in SVM_FORMS:
            spec = ClassifierSpec("linear_svm", {"penalty": penalty, "loss": loss})
            model = fit(spec, ds.X, ds.y, ds.feature_names)
            mean, std = model.standardization
            w, b, _, _ = linear._svm_solve((ds.X - mean) / std, ds.y, penalty, loss)
            assert model.parameters == {"weights": w.tolist(), "bias": b}

    def test_l1_with_hinge_is_refused(self, tmp_path):
        ds = noisy_ds()
        params = {"penalty": "l1", "loss": "hinge"}
        with pytest.raises(ValueError, match="l1 with hinge is unsupported"):
            fit(ClassifierSpec("linear_svm", params), ds.X, ds.y,
                ds.feature_names)
        with pytest.raises(ValueError, match="l1 with hinge is unsupported"):
            linear._svm_solve(ds.X, ds.y, "l1", "hinge")
        assert skip_reason("linear_svm", {**params, "dual": False}) == \
            "l1 with hinge is unsupported"
        # a stored l1 + hinge model still loads and predicts from its weights
        other = fit(ClassifierSpec("linear_svm", {"penalty": "l1"}),
                    ds.X, ds.y, ds.feature_names)
        stored = TrainedClassifier(ClassifierSpec("linear_svm", params),
                                   other.feature_names, other.standardization,
                                   other.parameters)
        save_model(stored, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.spec == stored.spec
        assert np.array_equal(loaded.predict_matrix(ds.X),
                              other.predict_matrix(ds.X))

    @pytest.mark.parametrize("cell", iter_cells("linear_svm"),
                             ids=lambda c: "-".join(map(str, c.values())))
    def test_fit_refuses_exactly_the_forms_no_valid_cell_reaches(self, cell):
        # keeps models and gridsearch.skip_reason from drifting apart
        ds = noisy_ds()
        spec = ClassifierSpec("linear_svm", cell)
        if canonical_form(spec, 1) in SVM_FORMS:
            fit(spec, ds.X, ds.y, ds.feature_names)
        else:
            with pytest.raises(ValueError, match="unsupported"):
                fit(spec, ds.X, ds.y, ds.feature_names)


class TestLabels:
    def test_only_the_two_verdicts_decode(self):
        from roadsift.oracle import SAFE, UNSAFE
        assert (label_code(SAFE), label_code(UNSAFE)) == (SAFE_CODE, UNSAFE_CODE)
        for label in ("Unsafe", "SAFE", "", None, 1, ["unsafe"]):
            with pytest.raises(ValueError, match="neither"):
                label_code(label)

    def test_importing_ml_leaves_the_oracle_unloaded(self):
        code = "import sys, roadsift.ml; sys.exit('roadsift.oracle' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestRanking:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(0)
        y = np.array([0, 1] * 50)
        X = np.column_stack([y.astype(float), rng.normal(size=100)])
        ds = make_ds(X, y)
        result = rank_features(ds)
        ig = dict(result.information_gain)
        corr = dict(result.correlation)
        assert ig["f0"] == pytest.approx(1.0, abs=1e-12)   # H(label) = 1 bit
        assert corr["f0"] == pytest.approx(1.0, abs=1e-12)
        assert result.information_gain[0][0] == "f0"

    def test_constant_feature_scores_zero(self):
        y = np.array([0, 1] * 30)
        X = np.column_stack([np.full(60, 3.14), y + 0.0])
        ds = make_ds(X, y)
        assert information_gain(X[:, 0], y) == pytest.approx(0.0, abs=1e-12)
        assert label_correlation(X[:, 0], y) == 0.0

    def test_threshold_subsets(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 200)
        X = np.column_stack([y + rng.normal(scale=0.1, size=200),
                             rng.normal(size=200)])
        result = rank_features(make_ds(X, y))
        assert "f0" in result.ig_selected
        assert "f0" in result.correlation_selected

    def test_single_class_rejected(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(20, 2)), [1] * 20)
        with pytest.raises(SingleClassDataset):
            rank_features(ds)


CLASS_LEAF = {"n": 1, "ones": 0, "leaf": True}
VALUE_LEAF = {"leaf": True, "value": 0.5}
NB_PAYLOAD = {"priors": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 1.0]],
              "vars": [[1.0, 1.0], [1.0, 1.0]]}


def split_node(leaf, feature=0, threshold=0.0, **children):
    """A tree node splitting one of two features, with two `leaf` children
    unless children replaces left or right."""
    return {"leaf": False, "feature": feature, "threshold": threshold,
            "left": leaf, "right": leaf, **children}


class TestPersistence:
    def test_roundtrip_identical_predictions(self, tmp_path):
        ds = separable_ds(150, seed=8)
        for family, params in [("logistic", {}), ("decision_tree", {}),
                               ("random_forest", {"I": 5}),
                               ("gradient_boosting", {"n_estimators": 10}),
                               ("naive_bayes", {}), ("linear_svm", {})]:
            model = fit(ClassifierSpec(family, params), ds.X, ds.y, NAMES2, 3)
            path = tmp_path / f"{family}.json"
            save_model(model, path)
            back = load_model(path)
            probe = np.random.default_rng(1).normal(size=(100, 2))
            assert np.array_equal(model.predict_matrix(probe),
                                  back.predict_matrix(probe))

    def test_truncated_file(self, tmp_path):
        ds = separable_ds(40)
        model = fit(ClassifierSpec("logistic"), ds.X, ds.y, NAMES2, 0)
        path = tmp_path / "m.json"
        save_model(model, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_nesting_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"parameters": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(CorruptModelFile, match="cannot read"):
            load_model(path)

    def test_version_mismatch_detail(self, tmp_path):
        ds = separable_ds(40)
        model = fit(ClassifierSpec("logistic"), ds.X, ds.y, NAMES2, 0)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile, match="format_version"):
            load_model(path)

    @pytest.mark.parametrize("family,edit", [
        ("logistic", {"hyperparameters": {"dual": 0}}),
        ("decision_tree", {"hyperparameters": {"M": 1.0}}),
        ("random_forest", {"hyperparameters": {"I": 5, "K": False}}),
        ("logistic", {"hyperparameters": []}),
        ("logistic", {"parameters": {}}),
        ("logistic", {"parameters": []}),
        ("linear_svm", {"parameters": {"weights": [0.5], "bias": 0.0}}),
        ("naive_bayes", {"parameters": {"priors": [0.5, 0.5]}}),
        ("gradient_boosting", {"parameters": {"init": 0.0, "trees": []}}),
        ("decision_tree", {"parameters": {"tree": {}}}),
        ("decision_tree", {"parameters": {"tree": [CLASS_LEAF]}}),
        ("decision_tree", {"parameters": {"tree": {**CLASS_LEAF, "leaf": 1}}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, feature=99)}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, feature=2)}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, feature=-1)}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, feature=True)}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, threshold="0")}}),
        ("decision_tree", {"parameters": {"tree": split_node(CLASS_LEAF, right=None)}}),
        ("decision_tree", {"parameters": {"tree": split_node(
            CLASS_LEAF, right=split_node(CLASS_LEAF, left={"n": 1, "leaf": True}))}}),
        ("random_forest", {"parameters": {"trees": []}}),
        ("random_forest", {"parameters": {"trees": [
            CLASS_LEAF, split_node(CLASS_LEAF, feature=7)]}}),
        ("gradient_boosting", {"parameters": {"init": 0.0, "learning_rate": 0.1,
                                              "trees": [CLASS_LEAF]}}),
        ("gradient_boosting", {"parameters": {"init": 0.0, "learning_rate": 0.1,
                                              "trees": [split_node(
                                                  VALUE_LEAF, right={"leaf": True})]}}),
        ("gradient_boosting", {"parameters": {"init": 0.0, "learning_rate": "0.1",
                                              "trees": [VALUE_LEAF]}}),
        ("gradient_boosting", {"parameters": {"init": 0.0, "learning_rate": 0.1,
                                              "trees": [{**VALUE_LEAF,
                                                         "value": math.nan}]}}),
        ("logistic", {"format_version": True}),
        ("logistic", {"feature_names": [["f0"], "f1"]}),
        ("logistic", {"feature_names": ["f0", "f0"]}),
        ("logistic", {"standardization": {"mean": [0.5], "std": [1.0, 1.0]}}),
        ("logistic", {"standardization": {"mean": [0.5, 0.5], "std": [1.0]}}),
        ("logistic", {"standardization": {"mean": [0.5, 0.5], "std": [0.0, 0.0]}}),
        ("logistic", {"standardization": {"mean": [0.5, 0.5], "std": ["1", "1"]}}),
        ("logistic", {"standardization": {"mean": [0.5, 0.5], "std": None}}),
        ("logistic", {"standardization": {"mean": [0.5, math.inf],
                                          "std": [1.0, 1.0]}}),
        ("logistic", {"parameters": {"weights": ["0.5", "0.5"], "bias": 0.0}}),
        ("logistic", {"parameters": {"weights": [0.5, 0.5], "bias": "0.0"}}),
        ("linear_svm", {"parameters": {"weights": [0.5, math.nan], "bias": 0.0}}),
        ("linear_svm", {"parameters": {"weights": [0.5, 10**400], "bias": 0.0}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD, "priors": [1.0]}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD, "priors": [0.5, 1.5]}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD, "priors": ["0.5", "0.5"]}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD, "means": [[0.0, 1.0]]}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD, "means": [[0.0], [1.0]]}}),
        ("naive_bayes", {"parameters": {**NB_PAYLOAD,
                                        "vars": [[1.0, -1.0], [1.0, 1.0]]}}),
    ])
    def test_invalid_payload_is_corrupt(self, tmp_path, family, edit):
        ds = separable_ds(40)
        params = {"random_forest": {"I": 5},
                  "gradient_boosting": {"n_estimators": 10}}.get(family, {})
        model = fit(ClassifierSpec(family, params), ds.X, ds.y, NAMES2, 0)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload.update(edit)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile):
            load_model(path)

    @pytest.mark.parametrize("family,parameters", [
        ("decision_tree", {"tree": split_node(
            CLASS_LEAF, feature=1, right=split_node(CLASS_LEAF))}),
        ("random_forest", {"trees": [CLASS_LEAF, split_node(CLASS_LEAF, 1)]}),
        ("gradient_boosting", {"init": 0, "learning_rate": 0.1,
                               "trees": [split_node(VALUE_LEAF, 1, -2)]}),
    ])
    def test_handmade_trees_load_and_predict(self, tmp_path, family, parameters):
        payload = {"format_version": 1, "family": family, "hyperparameters": {},
                   "feature_names": list(NAMES2), "standardization": None,
                   "parameters": parameters}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        model = load_model(path)
        assert model.predict_matrix(np.zeros((3, 2))).shape == (3,)
