"""The linear SVM as first written: 1000 full-batch subgradient steps from
zero with step size 0.5/sqrt(t+1). Kept as the reference the solvers in
roadsift.ml.linear must do no worse than on the same objective.

fit_linear_svm stands in for linear._fit_linear_svm (the fitter of the
linear_svm record in models._RECORDS); objective evaluates the penalised
mean hinge loss that both minimise, kkt_residual the optimality of a
squared-hinge fit, and dual_objective the value of the l2 + hinge dual at
given multipliers, all independently of the package.
"""

import math

import numpy as np

from roadsift.ml.linear import _standardize_fit

ALPHA = 1e-3


def _margins(Xs, y, w, b):
    """1 - y·z per row, with y in {-1, +1}."""
    yy = 2.0 * np.asarray(y) - 1.0
    return 1.0 - yy * (Xs @ np.asarray(w, dtype=float) + b)


def objective(Xs, y, w, b, penalty, loss):
    """Mean hinge (or squared hinge) loss of the standardised rows plus
    ALPHA·‖w‖² (l2) or ALPHA·‖w‖₁ (l1)."""
    w = np.asarray(w, dtype=float)
    hinge = np.maximum(_margins(Xs, y, w, b), 0.0)
    value = (hinge * hinge if loss == "squared_hinge" else hinge).mean()
    reg = w @ w if penalty == "l2" else np.abs(w).sum()
    return float(value + ALPHA * reg)


def kkt_residual(Xs, y, w, b, penalty):
    """Largest entry of the minimum-norm subgradient of the squared-hinge
    objective at (w, b); for a weight under l1, the distance of its smooth
    gradient from -ALPHA·sign(w) (a point of [-ALPHA, ALPHA] at zero)."""
    w = np.asarray(w, dtype=float)
    yy = 2.0 * np.asarray(y) - 1.0
    coef = -2.0 * yy * np.maximum(_margins(Xs, y, w, b), 0.0) / len(yy)
    gw = Xs.T @ coef
    if penalty == "l2":
        sub = np.abs(gw + 2.0 * ALPHA * w)
    else:
        sub = np.where(w == 0.0, np.maximum(np.abs(gw) - ALPHA, 0.0),
                       np.abs(gw + ALPHA * np.sign(w)))
    return float(max(np.max(sub, initial=0.0), abs(coef.sum())))


def dual_objective(Xs, y, beta):
    """Value of the dual of the l2 + hinge objective at multipliers beta in
    [0, 1/n] with sum(beta·y) = 0 (y in {-1, +1}): sum(beta) minus
    ‖Σ beta·y·x‖² / (4·ALPHA). Each such beta bounds the optimum from below."""
    yy = 2.0 * np.asarray(y) - 1.0
    v = Xs.T @ (np.asarray(beta) * yy)
    return float(np.sum(beta) - (v @ v) / (4.0 * ALPHA))


def fit_linear_svm(X, y, form, seed):
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
