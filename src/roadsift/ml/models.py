"""Classifier families, trained from scratch on feature matrices.

Six families: logistic regression, Gaussian naive Bayes, an entropy-gain
decision tree with C4.5-style pruning knobs, a random forest, a linear SVM,
and gradient-boosted depth-3 trees. Unsafe is the positive class (1)
everywhere; every tie breaks toward unsafe, the fail-safe direction.

A family is one record, a _Family in _RECORDS, which holds all that is
particular to it, from its grid domain to its predictor. FAMILIES and
GRID_DOMAINS are derived from the records.

All training is deterministic. The tree families' fitters, the grower
they share and the tree format are in trees.py; the linear families'
solvers are in linear.py. Naive Bayes, the records and the public API are
here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..features import FEATURE_NAMES, SAFE_CODE, UNSAFE_CODE
from ..inputs import is_number, is_vector, read_json
from .linear import (
    _fit_linear_svm,
    _fit_logistic,
    _linear_svm_skip,
    _logistic_skip,
    _predict_linear,
)
from .trees import (
    _check_trees,
    _fit_decision_tree,
    _fit_gradient_boosting,
    _fit_random_forest,
    _predict_boosting,
    _predict_forest,
    _tree_predict,
)

MODEL_FORMAT_VERSION = 1


class SingleClassDataset(ValueError):
    """Training data must contain both classes."""


class FeatureMismatch(ValueError):
    """Prediction input does not match the model's feature names."""


class CorruptModelFile(ValueError):
    """Model file is unreadable, incomplete, out of its declared domains, or
    has the wrong version."""


@dataclass(frozen=True)
class ClassifierSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _RECORDS:
            raise ValueError(f"unknown family {self.family!r}")
        domain = _RECORDS[self.family].domain
        merged = dict(_RECORDS[self.family].defaults)
        for name, value in self.hyperparameters.items():
            if name not in domain:
                raise ValueError(
                    f"{self.family} has no hyperparameter {name!r}")
            if not any(type(v) is type(value) and v == value
                       for v in domain[name]):
                raise ValueError(
                    f"{self.family}.{name}={value!r} not in declared domain {domain[name]}")
            merged[name] = value
        object.__setattr__(self, "hyperparameters", merged)


# ---------------------------------------------------------------------------
# families. A family is one _Family record, at the end of this section,
# which joins its fitter, predictor and payload check with its grid. A
# fitter receives a list of training sets (X, y), one seed each, and forms
# with one key and nothing else of the specs. It yields one (parameters,
# standardization or None) per set and form, set by set, each set's forms
# in order.

def _alone(fit_one):
    """The fitter of a family whose forms share no work (share key: the
    form itself), each form fitted set by set by fit_one(X, y, form,
    seed)."""
    def fit_sets(sets, forms, seeds):
        for (X, y), seed in zip(sets, seeds):
            for form in forms:
                yield fit_one(X, y, form, seed)
    return fit_sets


def _payload(parameters, *keys):
    """The values of keys in a loaded payload; ValueError naming those it
    lacks."""
    missing = [key for key in keys if key not in parameters]
    if missing:
        raise ValueError(f"parameters lack {missing}")
    return [parameters[key] for key in keys]


def _check_linear(p, d):
    weights, bias = _payload(p, "weights", "bias")
    if not is_vector(weights, d):
        raise ValueError(f"weights is not a list of {d} finite numbers")
    if not is_number(bias):
        raise ValueError("bias is not a finite number")


def _fit_naive_bayes(X, y, form, seed):
    params = {"priors": [], "means": [], "vars": []}
    n = len(y)
    for cls in (SAFE_CODE, UNSAFE_CODE):
        rows = X[y == cls]
        params["priors"].append(len(rows) / n)
        params["means"].append(rows.mean(axis=0).tolist())
        params["vars"].append(np.maximum(rows.var(axis=0), 1e-9).tolist())
    return params, None


def _predict_naive_bayes(p, X):
    priors, means, variances = (np.asarray(p[key], dtype=np.float64)
                                for key in ("priors", "means", "vars"))
    scores = []
    for cls in (SAFE_CODE, UNSAFE_CODE):
        ll = -0.5 * np.sum(
            np.log(2.0 * np.pi * variances[cls])
            + (X - means[cls]) ** 2 / variances[cls], axis=1)
        scores.append(ll + math.log(max(priors[cls], 1e-300)))
    return (scores[UNSAFE_CODE] >= scores[SAFE_CODE]).astype(np.int64)


def _check_naive_bayes(p, d):
    priors, means, variances = _payload(p, "priors", "means", "vars")
    if not (is_vector(priors, 2) and all(0.0 <= q <= 1.0 for q in priors)):
        raise ValueError("priors is not 2 numbers in [0, 1]")
    for name, rows in (("means", means), ("vars", variances)):
        if not (isinstance(rows, list) and len(rows) == 2
                and all(is_vector(row, d) for row in rows)):
            raise ValueError(f"{name} is not 2 lists of {d} finite numbers")
    # prediction takes the log of 2π·var, which must stay finite
    if not all(v > 0.0 and math.isfinite(2.0 * math.pi * v)
               for row in variances for v in row):
        raise ValueError("a variance is not positive, or 2π times it is "
                         "not finite")


def _decision_tree_form(hp, d):
    # reduced-error pruning scores a held-out prune set and never reads C
    if hp["R"] == "yes":
        return (hp["M"], "yes", hp["S"])
    return (hp["C"], hp["M"], "no", hp["S"])

def _forest_split_features(K: int, d: int) -> int:
    """Features drawn at each forest split: K, or isqrt(d) when K is 0,
    never more than the d there are."""
    return min(K or math.isqrt(d), d)


def _gradient_boosting_form(hp, d):
    # deviance is log_loss and mse is squared_error under another name
    return (hp["loss"] == "exponential", hp["learning_rate"],
            hp["n_estimators"], hp["criterion"] == "friedman_mse")


def _check_boosting(p, d):
    init, trees, learning_rate = _payload(p, "init", "trees", "learning_rate")
    if not (is_number(init) and is_number(learning_rate)):
        raise ValueError("init or learning_rate is not a finite number")
    _check_trees(trees, True, d)


class _Family(NamedTuple):
    """One model family. domain lists the values of each hyperparameter,
    which grid_search sweeps, and defaults holds the value a spec leaves
    unset. form(hyperparameters, d) is the canonical form, share(form) the
    key of the work forms share, and fit the fitter of forms with one key.
    predict(parameters, X) gives the class codes of standardised rows X,
    and check(parameters, d) raises TypeError or ValueError unless a loaded
    payload is one that predict reads on d features. skip(cell) is why
    grid_search skips a cell, or None, and tie(cell) the (estimators,
    depth) it ranks cells of equal F1 by, fewest first."""
    domain: dict[str, list]
    defaults: dict
    form: Callable[[dict, int], tuple]
    fit: Callable
    predict: Callable[[dict, np.ndarray], np.ndarray]
    check: Callable[[dict, int], None]
    share: Callable[[tuple], object] = lambda form: form
    skip: Callable[[dict], str | None] = lambda cell: None
    tie: Callable[[dict], tuple] = lambda cell: (0, 0)


# in this order, which breaks ties between families in benchmark's ranking
_RECORDS = {
    "logistic": _Family(
        domain={"penalty": ["l1", "l2", "elasticnet", "none"],
                "dual": [True, False],
                "max_iter": [10, 100, 1000],
                "solver": ["newton-cg", "lbfgs", "liblinear", "sag", "saga"]},
        defaults={"penalty": "l2", "dual": False, "max_iter": 1000,
                  "solver": "lbfgs"},
        form=lambda hp, d: (hp["penalty"], hp["max_iter"]),
        # the max_iter caps truncate one solve of the penalty's objective
        share=lambda form: form[0],
        fit=_fit_logistic, predict=_predict_linear,
        check=_check_linear, skip=_logistic_skip),
    "naive_bayes": _Family(
        domain={}, defaults={}, form=lambda hp, d: (),
        fit=_alone(_fit_naive_bayes), predict=_predict_naive_bayes,
        check=_check_naive_bayes),
    "decision_tree": _Family(
        domain={"C": [0.001, 0.01, 0.05, 0.1, 0.5],
                "M": [1, 10, 20, 50, 100],
                "R": ["yes", "no"],
                "S": ["yes", "no"]},
        defaults={"C": 0.1, "M": 10, "R": "no", "S": "no"},
        form=_decision_tree_form,
        # one grown tree per min-leaf and pruning kind; each form prunes it
        share=lambda form: form[-3:-1],
        fit=_fit_decision_tree,
        predict=lambda p, X: _tree_predict(p["tree"], X),
        check=lambda p, d: _check_trees(_payload(p, "tree"), False, d)),
    "random_forest": _Family(
        domain={"I": [5, 10, 100, 1000, 2000],
                "K": [0, 10, 100, 500, 1000],
                "depth": [0, 5, 10, 20],
                "M": [1, 10, 20, 50, 100]},
        defaults={"I": 100, "K": 0, "depth": 0, "M": 1},
        form=lambda hp, d: (hp["I"], _forest_split_features(hp["K"], d),
                            hp["depth"], hp["M"]),
        fit=_alone(_fit_random_forest), predict=_predict_forest,
        check=lambda p, d: _check_trees(*_payload(p, "trees"), False, d),
        tie=lambda cell: (cell["I"], cell["depth"])),
    "gradient_boosting": _Family(
        domain={"loss": ["log_loss", "deviance", "exponential"],
                "learning_rate": [0.01, 0.1, 0.2, 0.4],
                "n_estimators": [10, 100, 1000],
                "criterion": ["friedman_mse", "squared_error", "mse"]},
        defaults={"loss": "log_loss", "learning_rate": 0.1,
                  "n_estimators": 100, "criterion": "friedman_mse"},
        form=_gradient_boosting_form, fit=_fit_gradient_boosting,
        predict=_predict_boosting, check=_check_boosting,
        tie=lambda cell: (cell["n_estimators"], 0)),
    "linear_svm": _Family(
        domain={"penalty": ["l1", "l2"],
                "loss": ["hinge", "squared_hinge"],
                "dual": [True, False]},
        defaults={"penalty": "l2", "loss": "squared_hinge", "dual": False},
        form=lambda hp, d: (hp["penalty"], hp["loss"]),
        fit=_alone(_fit_linear_svm), predict=_predict_linear,
        check=_check_linear, skip=_linear_svm_skip),
}

FAMILIES = tuple(_RECORDS)
# hyperparameter domains; grid-search sweeps exactly these lists
GRID_DOMAINS = {name: family.domain for name, family in _RECORDS.items()}


def canonical_form(spec: ClassifierSpec, n_features: int) -> tuple:
    """The hyperparameter values spec's fitter reads on n_features columns.

    The fitter sees nothing else of the spec, so two specs of one family
    with equal forms train identical models on the same data and seed.
    """
    return _RECORDS[spec.family].form(spec.hyperparameters, n_features)


def shared_fit_key(spec: ClassifierSpec, n_features: int):
    """The key of the work fit_many shares between spec and other specs of
    its family on n_features columns: one logistic solve per penalty, one
    grown tree per decision-tree min-leaf and pruning kind, one fit per
    form otherwise. fit_many does one such fit per distinct key."""
    return _RECORDS[spec.family].share(canonical_form(spec, n_features))


# ---------------------------------------------------------------------------
# public surface

@dataclass
class TrainedClassifier:
    spec: ClassifierSpec
    feature_names: tuple[str, ...]
    standardization: tuple[np.ndarray, np.ndarray] | None
    parameters: dict

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Class codes (0 safe / 1 unsafe) for an (n, d) matrix in the
        model's feature order."""
        if X.shape[1] != len(self.feature_names):
            raise FeatureMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        # C order, so each row's sums in the predictor run over its
        # contiguous values alike in any batch
        X = np.ascontiguousarray(X, dtype=np.float64)
        if self.standardization is not None:
            mean, std = self.standardization
            X = (X - mean) / std
        return _RECORDS[self.spec.family].predict(self.parameters, X)

    def feature_matrix(self, rows) -> np.ndarray:
        """(n, d) matrix in the model's feature order from a list of n
        FeatureVectors. Raises FeatureMismatch when the model reads a name
        that is not a feature."""
        names = self.feature_names
        missing = [n for n in names if n not in FEATURE_NAMES]
        if missing:
            raise FeatureMismatch(f"missing features: {missing}")
        values = attrgetter(*names) if names else lambda row: ()
        return np.array([values(row) for row in rows],
                        dtype=float).reshape(len(rows), len(names))


def fit_many(specs: list[ClassifierSpec], sets, feature_names: tuple[str, ...],
             seeds: list[int]):
    """Train one classifier per spec, all of one family, on each training
    set (X, y) of sets with its seed in seeds. Yields (set index, spec
    index, model) one model at a time, group by group of equal
    shared_fit_key, so work the specs share is done once and only one
    group's models are held at once; the tree families grow a group's
    trees for every set together. Each model equals fit(spec, X, y,
    feature_names, seed) alone. Requires both classes in every y."""
    if len(seeds) != len(sets):
        raise ValueError(f"{len(seeds)} seeds for {len(sets)} training sets")
    sets = [(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64))
            for X, y in sets]
    if any(len(np.unique(y)) < 2 for _, y in sets):
        raise SingleClassDataset("training data contains a single class")
    families = {spec.family for spec in specs}
    if len(families) != 1:
        raise ValueError(f"fit_many needs specs of one family, got {families}")
    family = _RECORDS[families.pop()]
    forms = [family.form(spec.hyperparameters, sets[0][0].shape[1])
             for spec in specs]
    groups: dict = {}
    for j, f in enumerate(forms):
        groups.setdefault(family.share(f), []).append(j)
    names = tuple(feature_names)
    for group in groups.values():
        fitted = family.fit(sets, [forms[j] for j in group], seeds)
        every = ((i, j) for i in range(len(sets)) for j in group)
        for (i, j), (params, standardization) in zip(every, fitted):
            yield i, j, TrainedClassifier(spec=specs[j], feature_names=names,
                                          standardization=standardization,
                                          parameters=params)


def fit(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray,
        feature_names: tuple[str, ...], rng_seed: int = 0) -> TrainedClassifier:
    """Train one classifier. Requires both classes in y."""
    [(_, _, model)] = fit_many([spec], [(X, y)], feature_names, [rng_seed])
    return model


def save_model(model: TrainedClassifier, path: str | Path) -> None:
    std = None
    if model.standardization is not None:
        std = {"mean": model.standardization[0].tolist(),
               "std": model.standardization[1].tolist()}
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.spec.family,
        "hyperparameters": model.spec.hyperparameters,
        "feature_names": list(model.feature_names),
        "standardization": std,
        "parameters": model.parameters,
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_model(path: str | Path) -> TrainedClassifier:
    try:
        payload = read_json(path)
    except ValueError as exc:         # read_json's message names the file
        raise CorruptModelFile(f"cannot read model file {exc}") from None
    if not isinstance(payload, dict):
        raise CorruptModelFile(f"model file {path} is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise CorruptModelFile(
            f"model file {path} has format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    try:
        if not isinstance(payload["hyperparameters"], dict):
            raise TypeError("hyperparameters is not a JSON object")
        spec = ClassifierSpec(payload["family"], payload["hyperparameters"])
        names = payload["feature_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise ValueError("feature_names is not a list of distinct strings")
        d = len(names)
        std = payload["standardization"]
        standardization = None
        if std is not None:
            if not (isinstance(std, dict) and std.keys() == {"mean", "std"}
                    and is_vector(std["mean"], d) and is_vector(std["std"], d)
                    and all(s > 0.0 for s in std["std"])):
                raise ValueError("standardization is neither null nor a mean "
                                 f"and a positive std of {d} finite numbers")
            standardization = (np.asarray(std["mean"], dtype=np.float64),
                               np.asarray(std["std"], dtype=np.float64))
        parameters = payload["parameters"]
        if not isinstance(parameters, dict):
            raise TypeError("parameters is not a JSON object")
        _RECORDS[spec.family].check(parameters, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(f"model file {path} is invalid: {exc}") from exc
    return TrainedClassifier(spec=spec, feature_names=tuple(names),
                             standardization=standardization,
                             parameters=parameters)
