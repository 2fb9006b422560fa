"""Classifier training, evaluation, tuning, and persistence."""

from ..features import SAFE_CODE, UNSAFE_CODE, label_code
from .evaluate import (
    EmptySplit,
    EvalReport,
    LabeledDataset,
    TooFewRows,
    balanced_training_set,
    confusion_from_predictions,
    dataset_from_rows,
    dataset_from_tests,
    holdout_evaluate,
    kfold_evaluate,
    kfold_evaluate_many,
    oversample_minority,
    report_from_confusion,
    split,
    stratified_folds,
)
from .gridsearch import GridCell, grid_search, grid_sizes, iter_cells, skip_reason
from .models import (
    FAMILIES,
    GRID_DOMAINS,
    ClassifierSpec,
    CorruptModelFile,
    FeatureMismatch,
    SingleClassDataset,
    TrainedClassifier,
    canonical_form,
    fit,
    fit_many,
    load_model,
    save_model,
    shared_fit_key,
)
from .ranking import (
    CORRELATION_THRESHOLD,
    IG_THRESHOLD,
    RankingResult,
    information_gain,
    label_correlation,
    rank_features,
)
