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
from .models import _RECORDS, GRID_DOMAINS, ClassifierSpec, canonical_form


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
    """Reason a cell cannot be trained, or None when it is valid: the
    family's skip rule (logistic regression's penalty, solver and dual
    conflicts; the linear SVM's penalty, loss and dual conflicts)."""
    return _RECORDS[family].skip(params)


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
    tie = _RECORDS[family].tie
    evaluated.sort(key=lambda c: (-c.weighted_avg_f1, tie(c.params),
                                  sorted((k, str(v)) for k, v in c.params.items())))
    return evaluated + skipped


def grid_sizes() -> dict[str, int]:
    return {family: len(iter_cells(family)) for family in GRID_DOMAINS}
