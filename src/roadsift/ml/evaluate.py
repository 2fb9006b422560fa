"""Dataset handling and evaluation: rebalancing, splits, K-fold, metrics.

Unsafe is the positive class. Training partitions are rebalanced by random
oversampling of the minority class; held-out data is never rebalanced, so
reported rates reflect the underlying distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import (
    FEATURE_NAMES,
    SAFE_CODE,
    UNSAFE_CODE,
    class_heads,
    label_code,
    shuffled_classes,
)
from .models import (
    ClassifierSpec,
    SingleClassDataset,
    TrainedClassifier,
    fit,  # unused here; perfbench/tracer.py wraps it under this name
    fit_many,
)


class EmptySplit(ValueError):
    """A requested split would leave one side empty."""


class TooFewRows(ValueError):
    """Dataset too small for the requested fold count, or a class too small
    for every training fold to hold it."""


@dataclass(frozen=True)
class LabeledDataset:
    X: np.ndarray                 # (n, d)
    y: np.ndarray                 # (n,), 0 safe / 1 unsafe
    feature_names: tuple[str, ...]
    ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        if len(self.X) != len(self.y) or len(self.y) != len(self.ids):
            raise ValueError("X, y, ids must have equal length")

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(self.X[idx], self.y[idx], self.feature_names,
                              tuple(self.ids[i] for i in idx))

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.y == SAFE_CODE)), int(np.sum(self.y == UNSAFE_CODE))


def dataset_from_rows(rows) -> LabeledDataset:
    """Build the matrix view from labelled (id, FeatureVector, label) rows.
    Raises ValueError on a label other than "safe" or "unsafe"."""
    return LabeledDataset(
        np.array([vec.as_array() for _, vec, _ in rows]),
        np.array([label_code(label) for _, _, label in rows]),
        FEATURE_NAMES, tuple(tid for tid, _, _ in rows))


def dataset_from_tests(tests) -> LabeledDataset:
    """Build the matrix view from labelled TestCase records."""
    return dataset_from_rows([(tc.id, tc.features, tc.outcome.label) for tc in tests])


def oversample_minority(ds: LabeledDataset, rng_seed: int) -> LabeledDataset:
    """Duplicate uniformly-sampled minority rows until the classes balance.
    Majority rows are untouched; existing rows all stay."""
    n_safe, n_unsafe = ds.class_counts()
    if n_safe == 0 or n_unsafe == 0:
        raise SingleClassDataset("both classes required for oversampling")
    if n_safe == n_unsafe:
        return ds
    minority = UNSAFE_CODE if n_unsafe < n_safe else SAFE_CODE
    deficit = abs(n_safe - n_unsafe)
    pool = np.flatnonzero(ds.y == minority)
    rng = np.random.default_rng(rng_seed)
    extra = rng.choice(pool, size=deficit, replace=True)
    idx = np.concatenate([np.arange(len(ds)), extra])
    return ds.subset(idx)


def split(ds: LabeledDataset, train_fraction: float, rng_seed: int,
          oversample_train: bool = True) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified seeded train/test split; the train side is oversampled to
    balance, the test side keeps the raw distribution."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_mask = class_heads(ds.y, rng_seed,
                             lambda n: int(round(train_fraction * n)))
    if train_mask.all() or not train_mask.any():
        raise EmptySplit("split leaves an empty side")
    train = ds.subset(np.flatnonzero(train_mask))
    test = ds.subset(np.flatnonzero(~train_mask))
    if oversample_train:
        train = oversample_minority(train, rng_seed + 1)
    return train, test


def balanced_training_set(ds: LabeledDataset, train_fraction: float,
                          rng_seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Balanced training set: train_fraction of the minority class per side,
    the majority under-sampled to match. Returns (train, holdout)."""
    n_safe, n_unsafe = ds.class_counts()
    per_class = int(train_fraction * min(n_safe, n_unsafe))
    if per_class < 1:
        raise EmptySplit("not enough rows for a balanced training set")
    train_mask = class_heads(ds.y, rng_seed, lambda n: per_class)
    return ds.subset(np.flatnonzero(train_mask)), ds.subset(np.flatnonzero(~train_mask))


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision_unsafe: float
    recall_unsafe: float
    f1_unsafe: float
    precision_safe: float
    recall_safe: float
    f1_safe: float
    weighted_avg_f1: float

    def as_dict(self) -> dict:
        return {
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "accuracy": self.accuracy,
            "unsafe": {"precision": self.precision_unsafe,
                       "recall": self.recall_unsafe, "f1": self.f1_unsafe},
            "safe": {"precision": self.precision_safe,
                     "recall": self.recall_safe, "f1": self.f1_safe},
            "weighted_avg_f1": self.weighted_avg_f1,
        }


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def report_from_confusion(tp: int, fp: int, tn: int, fn: int) -> EvalReport:
    """All rates from the four counts; unsafe = positive class."""
    total = tp + fp + tn + fn
    precision_u = _rate(tp, tp + fp)
    recall_u = _rate(tp, tp + fn)
    f1_u = _rate(2 * precision_u * recall_u, precision_u + recall_u)
    precision_s = _rate(tn, tn + fn)
    recall_s = _rate(tn, tn + fp)
    f1_s = _rate(2 * precision_s * recall_s, precision_s + recall_s)
    support_u = tp + fn
    support_s = tn + fp
    weighted = _rate(support_u * f1_u + support_s * f1_s, support_u + support_s)
    return EvalReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=_rate(tp + tn, total),
        precision_unsafe=precision_u, recall_unsafe=recall_u, f1_unsafe=f1_u,
        precision_safe=precision_s, recall_safe=recall_s, f1_safe=f1_s,
        weighted_avg_f1=weighted)


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.count_nonzero((y_pred == UNSAFE_CODE) & (y_true == UNSAFE_CODE)))
    fp = int(np.count_nonzero((y_pred == UNSAFE_CODE) & (y_true == SAFE_CODE)))
    tn = int(np.count_nonzero((y_pred == SAFE_CODE) & (y_true == SAFE_CODE)))
    fn = int(np.count_nonzero((y_pred == SAFE_CODE) & (y_true == UNSAFE_CODE)))
    return tp, fp, tn, fn


def stratified_folds(y: np.ndarray, k: int, rng_seed: int) -> list[np.ndarray]:
    """k disjoint, exhaustive, stratified folds with sizes differing by at
    most one."""
    # deal round-robin, the unsafe class on from where the safe class
    # stopped, so fold sizes stay within one of each other overall
    order = np.concatenate(shuffled_classes(y, rng_seed))
    return [np.sort(order[j::k]) for j in range(k)]


def kfold_evaluate_many(ds: LabeledDataset, specs: list[ClassifierSpec],
                        k: int, rng_seed: int) -> list[EvalReport]:
    """Stratified K-fold of several specs of one family: train folds
    oversampled, held-out fold raw; each spec's confusion summed across
    folds, rates derived once at the end. The K training sets are built
    first and fit_many takes them all in one call: it shares work across
    the specs, and the tree families grow the K folds' trees together.
    Each model is scored on its held-out fold as it comes and dropped.
    Report i equals kfold_evaluate(ds, specs[i], k, rng_seed)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(ds) < k:
        raise TooFewRows(f"dataset of {len(ds)} rows cannot make {k} folds")
    for name, count in zip(("safe", "unsafe"), ds.class_counts()):
        # the training side of the fold holding a lone row lacks its class
        if count < 2:
            raise TooFewRows(
                f"the {name} class has {count} {'row' if count == 1 else 'rows'}; "
                f"K-fold needs 2 or more of each class")
    folds = stratified_folds(ds.y, k, rng_seed)
    sets = []
    mask = np.ones(len(ds), dtype=bool)
    for i, fold in enumerate(folds):
        mask[:] = True
        mask[fold] = False
        train = oversample_minority(ds.subset(np.flatnonzero(mask)),
                                    rng_seed + 1000 + i)
        sets.append((train.X, train.y))
    confusion = np.zeros((len(specs), 4), dtype=np.int64)
    for i, j, model in fit_many(specs, sets, ds.feature_names,
                                [rng_seed + 2000 + i for i in range(k)]):
        pred = model.predict_matrix(ds.X[folds[i]])
        confusion[j] += confusion_from_predictions(ds.y[folds[i]], pred)
    return [report_from_confusion(*map(int, counts)) for counts in confusion]


def kfold_evaluate(ds: LabeledDataset, spec: ClassifierSpec, k: int,
                   rng_seed: int) -> EvalReport:
    """Stratified K-fold of one spec; see kfold_evaluate_many."""
    return kfold_evaluate_many(ds, [spec], k, rng_seed)[0]


def holdout_evaluate(model: TrainedClassifier, test: LabeledDataset) -> EvalReport:
    pred = model.predict_matrix(test.X)
    return report_from_confusion(*confusion_from_predictions(test.y, pred))
