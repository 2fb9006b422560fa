"""Exhaustive hyperparameter grid evaluation.

Every cartesian-product cell is enumerated; cells invalid by construction
(penalty/solver/dual conflicts mirroring the underlying library rules) are
reported as skipped rather than evaluated. Evaluated cells are scored by
K-fold weighted average F1 and ranked descending, ties broken by fewer
estimators, then smaller depth, then lexicographic parameters.

Many cells name the same model: a fitter reads only its family's canonical
form of the hyperparameters (``models.canonical_form``). Logistic regression
ignores ``dual`` and ``solver``; the linear SVM ignores ``dual``; the
decision tree ignores ``C`` when ``R`` is "yes"; the random forest reads
``K`` only as the number of features it draws (``K`` of 0 is isqrt(d), and
no more than d are drawn); gradient boosting treats ``deviance`` as
``log_loss`` and ``mse`` as ``squared_error``. Each distinct form is K-fold
evaluated once per search, and every cell is still reported with its score.

The distinct forms share one K-fold run, which hands all K training sets
to ``models.fit_many`` at once, and they share work
(``models.shared_fit_key``): logistic regression solves once per fold and
penalty, and the caps of ``max_iter`` read that one solve at their step;
the decision tree grows once per ``M`` and ``R``, the K folds' trees
together in one grower call, and each ``C`` and ``S`` prunes its fold's
tree. Other families fit each form on its own; boosting also grows the K
folds' trees together, stage by stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .evaluate import (
    LabeledDataset,
    kfold_evaluate,  # unused here; perfbench/tracer.py wraps it under this name
    kfold_evaluate_many,
)
from .models import GRID_DOMAINS, ClassifierSpec, canonical_form


@dataclass(frozen=True)
class GridCell:
    params: dict
    status: str                   # "evaluated" | "skipped: <reason>"
    weighted_avg_f1: float | None


def iter_cells(family: str) -> list[dict]:
    """All cartesian-product cells of the family's declared grid."""
    domain = GRID_DOMAINS[family]
    if not domain:
        return [{}]
    names = list(domain)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(domain[n] for n in names))]


def skip_reason(family: str, params: dict) -> str | None:
    """Reason a cell cannot be trained, or None when it is valid.

    Logistic: dual only with liblinear+l2, l1 needs liblinear or saga,
    elasticnet needs saga, penalty none not with liblinear. SVM: hinge needs
    l2+dual, l1 needs squared_hinge without dual, l2+squared_hinge runs
    either way.
    """
    if family == "logistic":
        penalty, solver, dual = params["penalty"], params["solver"], params["dual"]
        if dual and not (solver == "liblinear" and penalty == "l2"):
            return "dual only supported by liblinear with l2"
        if penalty == "l1" and solver not in ("liblinear", "saga"):
            return f"l1 not supported by {solver}"
        if penalty == "elasticnet" and solver != "saga":
            return f"elasticnet not supported by {solver}"
        if penalty == "none" and solver == "liblinear":
            return "liblinear requires a penalty"
    if family == "linear_svm":
        penalty, loss, dual = params["penalty"], params["loss"], params["dual"]
        if penalty == "l1" and loss == "hinge":
            return "l1 with hinge is unsupported"
        if penalty == "l1" and dual:
            return "l1 requires the primal form"
        if penalty == "l2" and loss == "hinge" and not dual:
            return "hinge with l2 requires the dual form"
    return None


def _tie_key(params: dict):
    estimators = params.get("I", params.get("n_estimators", 0))
    depth = params.get("depth", 0)
    return (estimators, depth, sorted((k, str(v)) for k, v in params.items()))


def grid_search(family: str, ds: LabeledDataset, k: int,
                rng_seed: int) -> list[GridCell]:
    """Evaluate the family's full grid by K-fold; returns evaluated cells
    ranked by weighted F1 descending, then the skipped cells. Cells with
    the same canonical form share one score, and all forms share one
    K-fold run."""
    valid, skipped = [], []
    specs: dict[tuple, ClassifierSpec] = {}  # canonical form -> its first cell
    for params in iter_cells(family):
        reason = skip_reason(family, params)
        if reason is not None:
            skipped.append(GridCell(params, f"skipped: {reason}", None))
            continue
        spec = ClassifierSpec(family, params)
        form = canonical_form(spec, ds.X.shape[1])
        specs.setdefault(form, spec)
        valid.append((params, form))
    reports = kfold_evaluate_many(ds, list(specs.values()), k, rng_seed)
    scores = {form: report.weighted_avg_f1
              for form, report in zip(specs, reports)}
    evaluated = [GridCell(params, "evaluated", scores[form])
                 for params, form in valid]
    evaluated.sort(key=lambda c: (-c.weighted_avg_f1, _tie_key(c.params)))
    return evaluated + skipped


def grid_sizes() -> dict[str, int]:
    return {family: len(iter_cells(family)) for family in GRID_DOMAINS}
