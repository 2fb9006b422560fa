import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roadsift.ml import (
    FAMILIES,
    GRID_DOMAINS,
    ClassifierSpec,
    CorruptModelFile,
    FeatureMismatch,
    LabeledDataset,
    SingleClassDataset,
    TooFewRows,
    balanced_training_set,
    canonical_form,
    confusion_from_predictions,
    fit,
    grid_sizes,
    holdout_evaluate,
    information_gain,
    iter_cells,
    kfold_evaluate,
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
from roadsift.ml import gridsearch
from roadsift.ml.gridsearch import GridCell, grid_search

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

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(SingleClassDataset):
            fit(ClassifierSpec("logistic"), X, np.zeros(20, dtype=int), NAMES2, 0)

    def test_degenerate_forest_matches_plain_tree(self):
        # one tree, all features, no depth/pruning difference: the forest
        # canopy is a single unpruned gain tree
        from roadsift.ml.models import _grow_class_tree, _tree_predict
        ds = separable_ds(150, seed=2)
        forest = fit(ClassifierSpec("random_forest", {"I": 5, "K": 0, "M": 1}),
                     ds.X, ds.y, NAMES2, 4)
        plain = _grow_class_tree(ds.X, ds.y, min_leaf=1, max_depth=0)
        plain_pred = _tree_predict(plain, ds.X)
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
            model.predict_features({"f0": 1.0, "wrong_name": 2.0})
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

    @pytest.mark.parametrize("family,distinct", [
        ("logistic", 12), ("linear_svm", 3), ("decision_tree", 60)])
    def test_grid_search_matches_per_cell_reference(self, family, distinct,
                                                    monkeypatch):
        ds = noisy_ds()
        runs = []

        def counted(*args):
            runs.append(args[1])
            return kfold_evaluate(*args)
        monkeypatch.setattr(gridsearch, "kfold_evaluate", counted)
        cells = grid_search(family, ds, 3, 7)
        assert len(runs) == distinct
        assert cells == naive_grid_search(family, ds, 3, 7)


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
