"""Classifier families, trained from scratch on feature matrices.

Six families: logistic regression, Gaussian naive Bayes, an entropy-gain
decision tree with C4.5-style pruning knobs, a random forest, a linear SVM,
and gradient-boosted depth-3 trees. Unsafe is the positive class (1)
everywhere; every tie breaks toward unsafe, the fail-safe direction.

All training is deterministic: full-batch optimizers, seeded bootstraps and
feature subsampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

SAFE_CODE = 0
UNSAFE_CODE = 1

MODEL_FORMAT_VERSION = 1

# hyperparameter domains; grid-search sweeps exactly these lists
GRID_DOMAINS: dict[str, dict[str, list]] = {
    "logistic": {
        "penalty": ["l1", "l2", "elasticnet", "none"],
        "dual": [True, False],
        "max_iter": [10, 100, 1000],
        "solver": ["newton-cg", "lbfgs", "liblinear", "sag", "saga"],
    },
    "naive_bayes": {},
    "decision_tree": {
        "C": [0.001, 0.01, 0.05, 0.1, 0.5],
        "M": [1, 10, 20, 50, 100],
        "R": ["yes", "no"],
        "S": ["yes", "no"],
    },
    "random_forest": {
        "I": [5, 10, 100, 1000, 2000],
        "K": [0, 10, 100, 500, 1000],
        "depth": [0, 5, 10, 20],
        "M": [1, 10, 20, 50, 100],
    },
    "gradient_boosting": {
        "loss": ["log_loss", "deviance", "exponential"],
        "learning_rate": [0.01, 0.1, 0.2, 0.4],
        "n_estimators": [10, 100, 1000],
        "criterion": ["friedman_mse", "squared_error", "mse"],
    },
    "linear_svm": {
        "penalty": ["l1", "l2"],
        "loss": ["hinge", "squared_hinge"],
        "dual": [True, False],
    },
}

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "logistic": {"penalty": "l2", "dual": False, "max_iter": 1000, "solver": "lbfgs"},
    "naive_bayes": {},
    "decision_tree": {"C": 0.1, "M": 10, "R": "no", "S": "no"},
    "random_forest": {"I": 100, "K": 0, "depth": 0, "M": 1},
    "gradient_boosting": {"loss": "log_loss", "learning_rate": 0.1,
                          "n_estimators": 100, "criterion": "friedman_mse"},
    "linear_svm": {"penalty": "l2", "loss": "squared_hinge", "dual": False},
}

FAMILIES = tuple(GRID_DOMAINS)


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
        if self.family not in GRID_DOMAINS:
            raise ValueError(f"unknown family {self.family!r}")
        domain = GRID_DOMAINS[self.family]
        merged = dict(DEFAULT_HYPERPARAMETERS[self.family])
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
# standardization

def _standardize_fit(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


# ---------------------------------------------------------------------------
# decision trees (shared by the tree, the forest, and boosting)

def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def _best_gain_split(X, y, feature_idx, min_leaf):
    """Best (gain, feature, threshold) over candidate features; information
    gain with entropy, thresholds at midpoints of consecutive distinct
    values. Returns None when no split has positive gain."""
    n = len(y)
    parent = _binary_entropy(np.array([y.mean()]))[0]
    best = None
    for j in feature_idx:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        cum = np.cumsum(ys)
        pos = np.nonzero(xs[1:] > xs[:-1])[0]        # split between pos, pos+1
        if len(pos) == 0:
            continue
        nl = pos + 1
        keep = (nl >= min_leaf) & (n - nl >= min_leaf)
        if not np.any(keep):
            continue
        nl = nl[keep]
        pos = pos[keep]
        ones_l = cum[pos]
        ones_r = cum[-1] - ones_l
        nr = n - nl
        h = (nl * _binary_entropy(ones_l / nl)
             + nr * _binary_entropy(ones_r / nr)) / n
        gain = parent - h
        k = int(np.argmax(gain))
        if gain[k] > 1e-12 and (best is None or gain[k] > best[0] + 1e-15):
            thr = 0.5 * (xs[pos[k]] + xs[pos[k] + 1])
            best = (float(gain[k]), int(j), float(thr))
    return best


def _grow_class_tree(X, y, min_leaf, max_depth, rng=None, k_features=0, depth=0):
    n = len(y)
    ones = int(y.sum())
    node = {"n": n, "ones": ones}
    pure = ones == 0 or ones == n
    if pure or n < 2 * min_leaf or (max_depth and depth >= max_depth):
        node["leaf"] = True
        return node
    d = X.shape[1]
    if k_features and k_features < d and rng is not None:
        feature_idx = np.sort(rng.choice(d, size=k_features, replace=False))
    else:
        feature_idx = np.arange(d)
    split = _best_gain_split(X, y, feature_idx, min_leaf)
    if split is None:
        node["leaf"] = True
        return node
    _, j, thr = split
    mask = X[:, j] <= thr
    node.update(leaf=False, feature=j, threshold=thr)
    node["left"] = _grow_class_tree(X[mask], y[mask], min_leaf, max_depth,
                                    rng, k_features, depth + 1)
    node["right"] = _grow_class_tree(X[~mask], y[~mask], min_leaf, max_depth,
                                     rng, k_features, depth + 1)
    return node


def _leaf_label(node) -> int:
    ones = node["ones"]
    return UNSAFE_CODE if 2 * ones >= node["n"] else SAFE_CODE


def _tree_predict_one(node, x) -> int:
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return _leaf_label(node)


def _tree_predict(node, X) -> np.ndarray:
    return np.array([_tree_predict_one(node, x) for x in X], dtype=np.int64)


def _pessimistic_errors(node, z: float) -> float:
    """C4.5-style upper confidence bound on the error count of a node
    treated as a leaf."""
    n = node["n"]
    if n == 0:
        return 0.0
    errs = min(node["ones"], n - node["ones"])
    f = errs / n
    if z <= 0.0:
        return errs
    ub = (f + z * z / (2 * n)
          + z * math.sqrt(f * (1 - f) / n + z * z / (4 * n * n))) / (1 + z * z / n)
    return ub * n


def _subtree_pessimistic_errors(node, z: float) -> float:
    if node["leaf"]:
        return _pessimistic_errors(node, z)
    return (_subtree_pessimistic_errors(node["left"], z)
            + _subtree_pessimistic_errors(node["right"], z))


def _pessimistic_prune(node, z: float):
    if node["leaf"]:
        return node
    node["left"] = _pessimistic_prune(node["left"], z)
    node["right"] = _pessimistic_prune(node["right"], z)
    as_leaf = _pessimistic_errors(node, z)
    as_tree = _subtree_pessimistic_errors(node, z)
    if as_leaf <= as_tree + 1e-9:
        return {"n": node["n"], "ones": node["ones"], "leaf": True}
    return node


def _prune_set_errors(node, X, y) -> int:
    if len(y) == 0:
        return 0
    pred = _tree_predict(node, X)
    return int(np.sum(pred != y))


def _reduced_error_prune(node, X, y):
    """Bottom-up: collapse a subtree to a leaf whenever that does not
    increase the error on the held-out prune set."""
    if node["leaf"] or len(y) == 0:
        return node
    mask = X[:, node["feature"]] <= node["threshold"]
    node["left"] = _reduced_error_prune(node["left"], X[mask], y[mask])
    node["right"] = _reduced_error_prune(node["right"], X[~mask], y[~mask])
    leaf = {"n": node["n"], "ones": node["ones"], "leaf": True}
    errs_leaf = int(np.sum(y != _leaf_label(leaf)))
    errs_tree = _prune_set_errors(node, X, y)
    return leaf if errs_leaf <= errs_tree else node


def _subtree_raise(node, X, y, z: float):
    """Try replacing an internal node with its more-populated child,
    re-scoring the node's own training rows through the raised subtree."""
    if node["leaf"]:
        return node
    mask = X[:, node["feature"]] <= node["threshold"]
    node["left"] = _subtree_raise(node["left"], X[mask], y[mask], z)
    node["right"] = _subtree_raise(node["right"], X[~mask], y[~mask], z)
    if node["left"]["leaf"] and node["right"]["leaf"]:
        return node
    child = node["left"] if node["left"]["n"] >= node["right"]["n"] else node["right"]
    if len(y) == 0:
        return node
    raised_errs = int(np.sum(_tree_predict(child, X) != y))
    raised_pess = raised_errs + (z * math.sqrt(len(y)) * 0.5 if z > 0 else 0.0)
    current = _prune_set_errors(node, X, y)
    if raised_pess <= current:
        return child
    return node


# ---------------------------------------------------------------------------
# regression trees for boosting

def _best_sse_split(X, g, min_leaf, friedman: bool):
    n = len(g)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        gs = g[order]
        cum = np.cumsum(gs)
        pos = np.nonzero(xs[1:] > xs[:-1])[0]
        if len(pos) == 0:
            continue
        nl = pos + 1
        keep = (nl >= min_leaf) & (n - nl >= min_leaf)
        if not np.any(keep):
            continue
        nl = nl[keep]
        pos = pos[keep]
        sum_l = cum[pos]
        sum_r = cum[-1] - sum_l
        nr = n - nl
        if friedman:
            diff = sum_l / nl - sum_r / nr
            score = (nl * nr) / (nl + nr) * diff * diff
        else:
            score = sum_l * sum_l / nl + sum_r * sum_r / nr
        k = int(np.argmax(score))
        if best is None or score[k] > best[0] + 1e-15:
            thr = 0.5 * (xs[pos[k]] + xs[pos[k] + 1])
            best = (float(score[k]), int(j), float(thr))
    return best


def _grow_reg_tree(X, grad, hess, max_depth, min_leaf, friedman, depth=0):
    node = {}
    if depth >= max_depth or len(grad) < 2 * min_leaf:
        node["leaf"] = True
        node["value"] = float(grad.sum() / max(hess.sum(), 1e-12))
        return node
    split = _best_sse_split(X, grad, min_leaf, friedman)
    if split is None:
        node["leaf"] = True
        node["value"] = float(grad.sum() / max(hess.sum(), 1e-12))
        return node
    _, j, thr = split
    mask = X[:, j] <= thr
    node.update(leaf=False, feature=j, threshold=thr)
    node["left"] = _grow_reg_tree(X[mask], grad[mask], hess[mask],
                                  max_depth, min_leaf, friedman, depth + 1)
    node["right"] = _grow_reg_tree(X[~mask], grad[~mask], hess[~mask],
                                   max_depth, min_leaf, friedman, depth + 1)
    return node


def _reg_tree_predict(node, X) -> np.ndarray:
    out = np.empty(len(X))
    for i, x in enumerate(X):
        nd = node
        while not nd["leaf"]:
            nd = nd["left"] if x[nd["feature"]] <= nd["threshold"] else nd["right"]
        out[i] = nd["value"]
    return out


# ---------------------------------------------------------------------------
# family fitters; each returns the opaque parameter payload. Beside each
# fitter sits the canonical form of its hyperparameters on d features; the
# fitter receives that form and nothing else of the spec.

def _logistic_form(hp, d):
    return (hp["penalty"], hp["max_iter"])


def _fit_logistic(X, y, form, seed):
    penalty, max_iter = form
    mean, std = _standardize_fit(X)
    Xs = (X - mean) / std
    n, d = Xs.shape
    w = np.zeros(d)
    b = 0.0
    alpha = 1e-4
    l2 = alpha if penalty in ("l2", "elasticnet") else 0.0
    l1 = alpha if penalty in ("l1", "elasticnet") else 0.0
    sigma_max = float(np.linalg.norm(Xs, 2)) if n else 1.0
    lip = sigma_max ** 2 / (4.0 * n) + 2.0 * l2 + 1.0 / (4.0 * n)
    lr = 1.0 / max(lip, 1e-12)
    for _ in range(max_iter):
        z = Xs @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        grad_w = Xs.T @ err / n + 2.0 * l2 * w
        grad_b = float(err.mean())
        w_new = w - lr * grad_w
        if l1 > 0.0:
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - lr * l1, 0.0)
        b_new = b - lr * grad_b
        step = max(float(np.max(np.abs(w_new - w))), abs(b_new - b))
        w, b = w_new, b_new
        if step < 1e-6:
            break
    return {"weights": w.tolist(), "bias": b}, (mean, std)


def _linear_svm_form(hp, d):
    return (hp["penalty"], hp["loss"])


def _fit_linear_svm(X, y, form, seed):
    penalty, loss = form
    mean, std = _standardize_fit(X)
    Xs = (X - mean) / std
    n, d = Xs.shape
    yy = 2.0 * y - 1.0
    w = np.zeros(d)
    b = 0.0
    alpha = 1e-3
    squared = loss == "squared_hinge"
    l1 = penalty == "l1"
    for t in range(1000):
        lr = 0.5 / math.sqrt(t + 1.0)
        margin = 1.0 - yy * (Xs @ w + b)
        active = margin > 0.0
        if squared:
            coef = 2.0 * margin * active
        else:
            coef = active.astype(float)
        grad_w = -(Xs * (coef * yy)[:, None]).sum(axis=0) / n
        grad_b = -float((coef * yy).mean())
        if l1:
            grad_w = grad_w + alpha * np.sign(w)
        else:
            grad_w = grad_w + 2.0 * alpha * w
        w = w - lr * grad_w
        b = b - lr * grad_b
    return {"weights": w.tolist(), "bias": b}, (mean, std)


def _naive_bayes_form(hp, d):
    return ()


def _fit_naive_bayes(X, y, form, seed):
    params = {"priors": [], "means": [], "vars": []}
    n = len(y)
    for cls in (SAFE_CODE, UNSAFE_CODE):
        rows = X[y == cls]
        params["priors"].append(len(rows) / n)
        params["means"].append(rows.mean(axis=0).tolist())
        params["vars"].append(np.maximum(rows.var(axis=0), 1e-9).tolist())
    return params, None


def _decision_tree_form(hp, d):
    # reduced-error pruning scores a held-out prune set and never reads C
    if hp["R"] == "yes":
        return (hp["M"], "yes", hp["S"])
    return (hp["C"], hp["M"], "no", hp["S"])


def _fit_decision_tree(X, y, form, seed):
    min_leaf, reduced_error, subtree_raise = form[-3:]
    if reduced_error == "yes":
        rng = np.random.default_rng(seed)
        prune_idx = []
        for cls in (SAFE_CODE, UNSAFE_CODE):
            idx = np.flatnonzero(y == cls)
            idx = idx[rng.permutation(len(idx))]
            prune_idx.extend(idx[: max(1, len(idx) // 5)])
        prune_mask = np.zeros(len(y), dtype=bool)
        prune_mask[prune_idx] = True
        tree = _grow_class_tree(X[~prune_mask], y[~prune_mask], min_leaf, 0)
        tree = _reduced_error_prune(tree, X[prune_mask], y[prune_mask])
        if subtree_raise == "yes":
            tree = _subtree_raise(tree, X[prune_mask], y[prune_mask], 0.0)
    else:
        confidence = form[0]
        z = NormalDist().inv_cdf(1.0 - confidence) if confidence < 0.5 else 0.0
        tree = _grow_class_tree(X, y, min_leaf, 0)
        tree = _pessimistic_prune(tree, z)
        if subtree_raise == "yes":
            tree = _subtree_raise(tree, X, y, z)
    return {"tree": tree}, None


def _forest_split_features(K: int, d: int) -> int:
    """Features drawn at each forest split: K, or isqrt(d) when K is 0,
    never more than the d there are."""
    return min(K or math.isqrt(d), d)


def _random_forest_form(hp, d):
    return (hp["I"], _forest_split_features(hp["K"], d), hp["depth"], hp["M"])


def _fit_random_forest(X, y, form, seed):
    n_trees, k, depth, min_leaf = form
    n = len(y)
    seeds = np.random.SeedSequence(seed).generate_state(n_trees)
    trees = []
    for ts in seeds:
        rng = np.random.default_rng(int(ts))
        boot = rng.integers(0, n, n)
        trees.append(_grow_class_tree(X[boot], y[boot], min_leaf, depth,
                                      rng=rng, k_features=k))
    return {"trees": trees}, None


def _gradient_boosting_form(hp, d):
    # deviance is log_loss and mse is squared_error under another name
    return (hp["loss"] == "exponential", hp["learning_rate"],
            hp["n_estimators"], hp["criterion"] == "friedman_mse")


def _fit_gradient_boosting(X, y, form, seed):
    exponential, lr, n_estimators, friedman = form
    yy = 2.0 * y - 1.0
    p1 = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    if exponential:
        f0 = 0.5 * math.log(p1 / (1.0 - p1))
    else:
        f0 = math.log(p1 / (1.0 - p1))
    f = np.full(len(y), f0)
    trees = []
    for _ in range(n_estimators):
        if exponential:
            e = np.exp(-yy * f)
            grad = yy * e
            hess = e
        else:
            p = 1.0 / (1.0 + np.exp(-f))
            grad = y - p
            hess = np.maximum(p * (1.0 - p), 1e-12)
        tree = _grow_reg_tree(X, grad, hess, max_depth=3, min_leaf=1,
                              friedman=friedman)
        f = f + lr * _reg_tree_predict(tree, X)
        trees.append(tree)
    return {"init": f0, "trees": trees, "learning_rate": lr}, None


# family -> (canonical form of its hyperparameters on d features, fitter that
# reads only that form and returns (parameters, standardization or None))
_FAMILY_FITS = {
    "logistic": (_logistic_form, _fit_logistic),
    "naive_bayes": (_naive_bayes_form, _fit_naive_bayes),
    "decision_tree": (_decision_tree_form, _fit_decision_tree),
    "random_forest": (_random_forest_form, _fit_random_forest),
    "gradient_boosting": (_gradient_boosting_form, _fit_gradient_boosting),
    "linear_svm": (_linear_svm_form, _fit_linear_svm),
}


def canonical_form(spec: ClassifierSpec, n_features: int) -> tuple:
    """The hyperparameter values spec's fitter reads on n_features columns.

    The fitter sees nothing else of the spec, so two specs of one family
    with equal forms train identical models on the same data and seed.
    """
    form, _ = _FAMILY_FITS[spec.family]
    return form(spec.hyperparameters, n_features)


# ---------------------------------------------------------------------------
# public surface

@dataclass
class TrainedClassifier:
    spec: ClassifierSpec
    feature_names: tuple[str, ...]
    standardization: tuple[np.ndarray, np.ndarray] | None
    parameters: dict

    def _apply_standardization(self, X: np.ndarray) -> np.ndarray:
        if self.standardization is None:
            return X
        mean, std = self.standardization
        return (X - mean) / std

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Class codes (0 safe / 1 unsafe) for an (n, d) matrix in the
        model's feature order."""
        if X.shape[1] != len(self.feature_names):
            raise FeatureMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        X = self._apply_standardization(np.asarray(X, dtype=np.float64))
        family = self.spec.family
        p = self.parameters
        if family in ("logistic", "linear_svm"):
            z = X @ np.asarray(p["weights"]) + p["bias"]
            return (z >= 0.0).astype(np.int64)
        if family == "naive_bayes":
            priors = np.asarray(p["priors"])
            means = np.asarray(p["means"])
            variances = np.asarray(p["vars"])
            scores = []
            for cls in (SAFE_CODE, UNSAFE_CODE):
                ll = -0.5 * np.sum(
                    np.log(2.0 * np.pi * variances[cls])
                    + (X - means[cls]) ** 2 / variances[cls], axis=1)
                scores.append(ll + math.log(max(priors[cls], 1e-300)))
            return (scores[UNSAFE_CODE] >= scores[SAFE_CODE]).astype(np.int64)
        if family == "decision_tree":
            return _tree_predict(p["tree"], X)
        if family == "random_forest":
            votes = np.zeros(len(X), dtype=np.int64)
            for tree in p["trees"]:
                votes += _tree_predict(tree, X)
            return (2 * votes >= len(p["trees"])).astype(np.int64)
        if family == "gradient_boosting":
            f = np.full(len(X), p["init"])
            for tree in p["trees"]:
                f = f + p["learning_rate"] * _reg_tree_predict(tree, X)
            return (f >= 0.0).astype(np.int64)
        raise ValueError(f"unknown family {family!r}")

    def predict_features(self, features) -> int:
        """Class code for one feature mapping (dict or FeatureVector)."""
        if hasattr(features, "as_dict"):
            features = features.as_dict()
        missing = [n for n in self.feature_names if n not in features]
        if missing:
            raise FeatureMismatch(f"missing features: {missing}")
        row = np.array([[features[n] for n in self.feature_names]])
        return int(self.predict_matrix(row)[0])


def fit(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray,
        feature_names: tuple[str, ...], rng_seed: int = 0) -> TrainedClassifier:
    """Train one classifier. Requires both classes in y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("training data contains a single class")
    _, fitter = _FAMILY_FITS[spec.family]
    params, standardization = fitter(X, y, canonical_form(spec, X.shape[1]),
                                     rng_seed)
    return TrainedClassifier(spec=spec, feature_names=tuple(feature_names),
                             standardization=standardization, parameters=params)


def predict(model: TrainedClassifier, features) -> str:
    """Label one feature vector: "unsafe" or "safe"."""
    code = model.predict_features(features)
    return "unsafe" if code == UNSAFE_CODE else "safe"


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


# the parameter keys predict_matrix reads, per family
_PARAMETER_KEYS = {
    "logistic": ("weights", "bias"),
    "naive_bayes": ("priors", "means", "vars"),
    "decision_tree": ("tree",),
    "random_forest": ("trees",),
    "gradient_boosting": ("init", "trees", "learning_rate"),
    "linear_svm": ("weights", "bias"),
}


def _check_parameters(family: str, parameters, n_features: int) -> None:
    """Raise TypeError or ValueError when a loaded payload lacks what
    predict_matrix reads, or a linear model's weights miss a feature."""
    if not isinstance(parameters, dict):
        raise TypeError("parameters is not a JSON object")
    keys = _PARAMETER_KEYS[family]
    missing = [key for key in keys if key not in parameters]
    if missing:
        raise ValueError(f"{family} parameters lack {missing}")
    if "weights" in keys and len(parameters["weights"]) != n_features:
        raise ValueError(f"{len(parameters['weights'])} weights for "
                         f"{n_features} features")


def load_model(path: str | Path) -> TrainedClassifier:
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise CorruptModelFile(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptModelFile(f"model file {path} is not a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise CorruptModelFile(
            f"model file {path} has format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    try:
        if not isinstance(payload["hyperparameters"], dict):
            raise TypeError("hyperparameters is not a JSON object")
        spec = ClassifierSpec(payload["family"], payload["hyperparameters"])
        feature_names = tuple(payload["feature_names"])
        std = payload["standardization"]
        standardization = None
        if std is not None:
            standardization = (np.asarray(std["mean"]), np.asarray(std["std"]))
        parameters = payload["parameters"]
        _check_parameters(spec.family, parameters, len(feature_names))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(f"model file {path} is invalid: {exc}") from exc
    return TrainedClassifier(spec=spec, feature_names=feature_names,
                             standardization=standardization,
                             parameters=parameters)
