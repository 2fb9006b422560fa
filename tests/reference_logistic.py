"""Logistic regression as first written: full-batch (proximal) gradient
descent from zero that stops when no coordinate moves by 1e-6 or after
max_iter steps. Kept as the reference the converged solver in
roadsift.ml.linear must do no worse than on the same objective.

l1_model_minimiser is the feature-sign search of the proximal Newton
step as first written: it starts every call from theta's signs, from no
weight at all when theta is zero, and indexes by boolean masks. The
package's _l1_model_minimiser must return the same bits.

fit_logistic fits one form on one set, as linear._fit_logistic (the fitter
of the logistic record in models._RECORDS) does for each; objective
evaluates the penalised mean log-loss that both minimise, independently of
the package.
"""

import numpy as np

from roadsift.ml.linear import _GRAD_TOL, _INNER_SOLVES, _standardize_fit

ALPHA = 1e-4


def penalties(penalty):
    """(l1, l2) strengths of a logistic penalty name."""
    l2 = ALPHA if penalty in ("l2", "elasticnet") else 0.0
    l1 = ALPHA if penalty in ("l1", "elasticnet") else 0.0
    return l1, l2


def objective(Xs, y, w, b, penalty):
    """Mean log-loss of the standardised rows plus l2·‖w‖² plus l1·‖w‖₁."""
    l1, l2 = penalties(penalty)
    w = np.asarray(w, dtype=float)
    z = Xs @ w + b
    loss = np.logaddexp(0.0, np.where(y == 1, -z, z)).mean()
    return float(loss + l2 * (w @ w) + l1 * np.abs(w).sum())


def kkt_residual(Xs, y, w, b, penalty):
    """Largest entry of the minimum-norm subgradient of objective at (w, b):
    the gradient for l2 and none; for a weight under l1, the distance of
    its smooth gradient from -l1·sign(w) (a point of [-l1, l1] at zero)."""
    l1, l2 = penalties(penalty)
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        err = 1.0 / (1.0 + np.exp(-(Xs @ w + b))) - y
    gw = Xs.T @ err / len(y) + 2.0 * l2 * w
    sub = np.where(w == 0.0, np.maximum(np.abs(gw) - l1, 0.0),
                   np.abs(gw + l1 * np.sign(w)))
    return float(max(np.max(sub, initial=0.0), abs(err.mean())))


def fit_logistic(X, y, form, seed):
    penalty, max_iter = form
    mean, std = _standardize_fit(X)
    Xs = (X - mean) / std
    n, d = Xs.shape
    w = np.zeros(d)
    b = 0.0
    l1, l2 = penalties(penalty)
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


def l1_model_minimiser(H, g, theta, l1):
    """Minimiser u of the Newton model g·(u - theta) + (u - theta)·H·(u -
    theta)/2 + l1·‖u_w‖₁ of the objective around theta, by feature-sign
    search (Lee, Battle, Raina & Ng, NIPS 2006) from theta's signs.

    On a sign pattern the l1 term is linear, so the pattern's minimiser is
    one linear solve in its free coordinates: the bias and the nonzero
    weights. A step toward it stops where a weight would change sign, and
    that weight drops out at zero. Once the minimiser keeps its pattern, the
    zero weight whose model gradient exceeds l1 the most joins with the sign
    that lowers the model. Every move lowers the model. Ends when no zero
    weight's model gradient exceeds l1, or after _INNER_SOLVES solves."""
    m = len(theta)
    c = g - H @ theta               # the model's smooth gradient is c + H u
    u = theta.copy()
    s = np.sign(u)
    s[-1] = 0.0
    free = s != 0.0
    free[-1] = True
    for _ in range(_INNER_SOLVES):
        target = np.zeros(m)
        target[free] = np.linalg.solve(H[np.ix_(free, free)],
                                       -(c + l1 * s)[free])
        flips = np.flatnonzero(free[:-1] & (np.sign(target[:-1]) != s[:-1]))
        if flips.size:
            cross = u[flips] / (u[flips] - target[flips])
            first = float(cross.min())
            u = u + first * (target - u)
            gone = flips[cross <= first]
            u[gone] = 0.0
            s[gone] = 0.0
            free[gone] = False
            continue
        u = target
        grad = c + H @ u
        excess = np.where(free, -np.inf, np.abs(grad) - l1)
        j = int(excess.argmax())
        if excess[j] <= 1e-3 * _GRAD_TOL:
            break
        s[j] = -np.sign(grad[j])
        free[j] = True
    return u
