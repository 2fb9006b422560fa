"""Classifier training, evaluation, tuning, and persistence."""

from .evaluate import (
    EmptySplit,
    EvalReport,
    LabeledDataset,
    TooFewRows,
    balanced_training_set,
    confusion_from_predictions,
    dataset_from_tests,
    holdout_evaluate,
    kfold_evaluate,
    oversample_minority,
    report_from_confusion,
    split,
    stratified_folds,
)
from .gridsearch import GridCell, grid_search, grid_sizes, iter_cells, skip_reason
from .models import (
    DEFAULT_HYPERPARAMETERS,
    FAMILIES,
    GRID_DOMAINS,
    SAFE_CODE,
    UNSAFE_CODE,
    ClassifierSpec,
    CorruptModelFile,
    FeatureMismatch,
    SingleClassDataset,
    TrainedClassifier,
    canonical_form,
    fit,
    load_model,
    predict,
    save_model,
)
from .ranking import (
    CORRELATION_THRESHOLD,
    IG_THRESHOLD,
    RankingResult,
    information_gain,
    label_correlation,
    rank_features,
)
