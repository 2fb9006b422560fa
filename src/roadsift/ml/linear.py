"""The linear families' solvers: logistic regression and the linear SVM.

Both fit standardised columns and predict the sign of a row's score.
Logistic regression and the squared-hinge linear SVM are solved to the
optimum of their penalised losses by damped (proximal) Newton steps
(_newton_solve); the l2 + hinge SVM by an interior-point method on its dual
(_hinge_dual_solve), and l1 + hinge, which the grid skips, is refused.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# standardization

def _standardize_fit(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _predict_linear(p, X):
    # a row sum, not X @ w: BLAS orders the sum by batch shape, and a row's
    # score must not depend on the rows scored with it
    w = np.asarray(p["weights"], dtype=np.float64)
    z = (X * w).sum(axis=1) + p["bias"]
    return (~(z < 0.0)).astype(np.int64)      # a NaN score is unsafe too


# The solvers' fixed settings. They say how closely the one objective of a
# form is solved, so they are constants and not hyperparameters.
_LOGISTIC_ALPHA = 1e-4      # strength of each penalty the form switches on
_SVM_ALPHA = 1e-3           # strength of the linear SVM's penalty
_GRAD_TOL = 1e-8            # converged: every (sub)gradient entry below this
_STEP_TOL = 1e-12           # stalled: no coordinate moved by more than this
_ARMIJO = 1e-4              # fraction of the predicted decrease a step keeps
_MAX_HALVINGS = 40          # line-search halvings before the solver stalls
_INNER_SOLVES = 100         # linear solves per l1 Newton step
_DAMPING = 1e-10            # Hessian diagonal shift, relative to its largest
_SVM_NEWTON_STEPS = 100     # Newton steps of a squared-hinge fit
_GAP_TOL = 1e-10            # converged: hinge primal minus dual below this
_IPM_STEPS = 100            # interior-point steps of an l2 + hinge fit
_TO_BOUNDARY = 0.995        # share of the way to the boundary a step goes


def _min_norm_subgradient(g, theta, l1):
    """Smallest element of the subdifferential of the objective at theta,
    given the gradient g of its smooth part; the bias (last) is never
    penalised."""
    if not l1:
        return g
    w, gw = theta[:-1], g[:-1]
    sub = np.where(w > 0.0, gw + l1, gw - l1)
    at_zero = np.sign(gw) * np.maximum(np.abs(gw) - l1, 0.0)
    return np.append(np.where(w == 0.0, at_zero, sub), g[-1])


def _l1_model_minimiser(H, g, theta, l1):
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


class _RowLoss(NamedTuple):
    """A convex loss of each row's signed score s = (1 - 2y)·z, which grows
    as the row's score z points away from its label y: the mean over rows,
    and each row's first and (generalised) second derivative in s."""
    mean: Callable[[np.ndarray], float]
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _log_loss(s):
    return np.logaddexp(0.0, s).mean()


def _expit(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _log_loss_derivatives(s):
    # the logistic 1 / (1 + exp(-s)) with libm's exp, an element at a time:
    # numpy's vectorised exp rounds some arguments differently, and the
    # fitted weights (and so the grid CSVs) would change in their last bits
    q = np.fromiter(map(_expit, s.tolist()), np.float64, len(s))
    return q, q * (1.0 - q)


def _squared_hinge(s):
    m = np.maximum(1.0 + s, 0.0)
    return (m * m).mean()


def _squared_hinge_derivatives(s):
    # the second derivative jumps at the hinge; the generalised Hessian
    # takes it as 0 there (Keerthi & DeCoste, JMLR 2005)
    m = np.maximum(1.0 + s, 0.0)
    return 2.0 * m, 2.0 * (m > 0.0)


_LOG_LOSS = _RowLoss(_log_loss, _log_loss_derivatives)
_SQUARED_HINGE = _RowLoss(_squared_hinge, _squared_hinge_derivatives)


def _newton_solve(Xs, y, loss, l1, l2, caps):
    """Minimise the mean row loss + l2·‖w‖² + l1·‖w‖₁ over weights w and an
    unpenalised bias b on the standardised rows Xs; returns one (w, b,
    steps, converged) for each step cap in the ascending list caps.

    Each step takes the Newton quadratic model of the row loss at the
    current point (IRLS for the log-loss). Without an l1 term the step
    solves one (d+1)×(d+1) linear system; with one, _l1_model_minimiser
    minimises the model plus the l1 term. A backtracking (Armijo) line
    search on the true objective damps the step. The solve stops as
    converged when every entry of the minimum-norm subgradient is below
    _GRAD_TOL, and as stalled when the line search finds no decrease or the
    step moves no coordinate by more than _STEP_TOL; a cap ends it, not
    converged, after that many steps. The gradient test is what ends an
    unpenalised fit on separable rows, whose weights grow without bound.

    The path is deterministic, so a smaller cap only truncates it: the solve
    runs once, to the largest cap, and reports for each cap the iterate at
    that step, or the final one when the solve ended before it.
    """
    n, d = Xs.shape
    A = np.hstack([Xs, np.ones((n, 1))])
    sign = 1.0 - 2.0 * y
    ridge = np.append(np.full(d, 2.0 * l2), 0.0)

    def objective(theta):
        w = theta[:-1]
        value = loss.mean(sign * (A @ theta))
        return float(value + l2 * (w @ w) + l1 * np.abs(w).sum())

    theta = np.zeros(d + 1)
    f = objective(theta)
    moved = math.inf
    reports = []
    converged = False
    for steps in range(caps[-1] + 1):
        slope, curvature = loss.derivatives(sign * (A @ theta))
        g = A.T @ (sign * slope) / n + ridge * theta
        kkt = float(np.max(np.abs(_min_norm_subgradient(g, theta, l1))))
        if kkt < _GRAD_TOL:
            converged = True
            break
        if steps == caps[len(reports)]:
            reports.append((theta[:-1], float(theta[-1]), steps, False))
            if len(reports) == len(caps):
                return reports
        if moved <= _STEP_TOL:
            break
        H = (A.T * (curvature / n)) @ A
        H[np.diag_indices_from(H)] += ridge + _DAMPING * H.diagonal().max()
        if l1:
            step = _l1_model_minimiser(H, g, theta, l1) - theta
            w, sw = theta[:-1], step[:-1]
            decrease = float(g @ step) + l1 * float(
                np.abs(w + sw).sum() - np.abs(w).sum())
        else:
            step = -np.linalg.solve(H, g)
            decrease = float(g @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * step
            f_trial = objective(trial)
            if f_trial <= f + _ARMIJO * t * decrease:
                break
            t *= 0.5
        else:
            break
        moved = float(np.max(np.abs(trial - theta)))
        theta, f = trial, f_trial
    final = (theta[:-1], float(theta[-1]), steps, converged)
    return reports + [final] * (len(caps) - len(reports))


def _logistic_solve(Xs, y, penalty, caps):
    """_newton_solve of the mean log-loss with the penalty's l1 and l2
    terms, each of strength _LOGISTIC_ALPHA."""
    l1 = _LOGISTIC_ALPHA if penalty in ("l1", "elasticnet") else 0.0
    l2 = _LOGISTIC_ALPHA if penalty in ("l2", "elasticnet") else 0.0
    return _newton_solve(Xs, y, _LOG_LOSS, l1, l2, caps)


def _fit_logistic(sets, forms, seeds):
    """Penalised logistic regression on standardised columns: mean log-loss
    plus 1e-4·‖w‖² (l2, elasticnet) plus 1e-4·‖w‖₁ (l1, elasticnet), with an
    unpenalised bias. l2 and none take damped Newton (IRLS) steps; l1 and
    elasticnet take the same steps with the l1 term kept exact in each
    step's quadratic model (a proximal Newton method, as in glmnet), with
    the same line search. max_iter caps the Newton steps; the fit stops
    early once every entry of the (minimum-norm sub)gradient is below 1e-8.
    The forms share a penalty, and one _logistic_solve a set serves every
    cap."""
    penalty = forms[0][0]
    caps = sorted({max_iter for _, max_iter in forms})
    for X, y in sets:
        mean, std = _standardize_fit(X)
        solved = dict(zip(caps, _logistic_solve((X - mean) / std, y, penalty,
                                                caps)))
        for _, max_iter in forms:
            w, b, _, _ = solved[max_iter]
            yield {"weights": w.tolist(), "bias": b}, (mean, std)


def _logistic_skip(params):
    """Dual only with liblinear + l2, l1 needs liblinear or saga, elasticnet
    needs saga, penalty none not with liblinear."""
    penalty, solver, dual = params["penalty"], params["solver"], params["dual"]
    if dual and not (solver == "liblinear" and penalty == "l2"):
        return "dual only supported by liblinear with l2"
    if penalty == "l1" and solver not in ("liblinear", "saga"):
        return f"l1 not supported by {solver}"
    if penalty == "elasticnet" and solver != "saga":
        return f"elasticnet not supported by {solver}"
    if penalty == "none" and solver == "liblinear":
        return "liblinear requires a penalty"
    return None


def _hinge_weights(Xs, y, beta):
    """The l2 + hinge SVM's weights at dual multipliers beta:
    Σ beta·(2y - 1)·x / (2·_SVM_ALPHA)."""
    return Xs.T @ (beta * (2.0 * y - 1.0)) / (2.0 * _SVM_ALPHA)


def _step_length(x, dx):
    """_TO_BOUNDARY of the largest t with x + t·dx >= 0 (x > 0), at most 1."""
    shrinking = dx < 0.0
    limit = float(np.min(-x[shrinking] / dx[shrinking], initial=np.inf))
    return min(1.0, _TO_BOUNDARY * limit)


def _hinge_dual_solve(Xs, y):
    """Minimise mean hinge loss + _SVM_ALPHA·‖w‖² over w and an unpenalised
    bias b through its dual; returns (beta, b, steps, converged), where the
    weights are _hinge_weights(Xs, y, beta).

    With a = n·beta and G the rows of Xs times their sign y' = 2y - 1, the
    dual is the QP min a·Q·a/2 - Σa over 0 <= a <= 1 with y'·a = 0, where
    Q = U·Uᵀ and U = G/√(2·_SVM_ALPHA·n). Its primal-dual interior-point
    solve (Mehrotra's predictor-corrector) carries the slack s = 1 - a, the
    multipliers z of a >= 0 and v of s >= 0, and the multiplier b of the
    equality, which is the bias. It starts inside the box on the equality;
    each step solves the bordered system [[Q + D, y'], [y'ᵀ, 0]] (D
    diagonal) twice, for the affine direction and for the centred,
    corrected one, and goes _TO_BOUNDARY of the way to the boundary, at
    most the full step. Q has rank at most d, so by Sherman–Morrison–
    Woodbury the system reduces to the (d+1)×(d+1) one Eᵀ·D⁻¹·E + I_d,
    with E = [U, y'], followed by one round of iterative refinement against
    the full system: each step costs O(n·d²) time and O(n·d) memory, and Q
    is never formed. The solve stops as converged when the primal objective
    at (weights, b) exceeds the dual's at beta by less than _GAP_TOL, and
    not converged after _IPM_STEPS steps.
    """
    n, d = Xs.shape
    sign = 2.0 * y - 1.0
    G = Xs * sign[:, None]
    # Q = U·Uᵀ; E borders U with the signs
    U = G / math.sqrt(2.0 * _SVM_ALPHA * n)
    E = np.column_stack([U, sign])
    ones = np.ones(n)
    # each class's multipliers sum to half the smaller class's size
    unsafe = np.count_nonzero(y)
    class_size = np.where(y == 1, unsafe, n - unsafe)
    a = 0.5 * min(unsafe, n - unsafe) / class_size
    s = 1.0 - a
    z, v = ones.copy(), ones.copy()
    b = 0.0
    converged = False
    for steps in range(_IPM_STEPS + 1):
        w = _hinge_weights(Xs, y, a / n)
        Qa = G @ w
        hinge = np.maximum(1.0 - sign * (Xs @ w + b), 0.0).mean()
        primal = hinge + _SVM_ALPHA * (w @ w)
        dual = (a.sum() - 0.5 * (a @ Qa)) / n
        if primal - dual < _GAP_TOL:
            converged = True
            break
        if steps == _IPM_STEPS:
            break
        r_dual = Qa - ones + b * sign - z + v
        r_eq = sign @ a
        r_box = a + s - ones
        mu = (a @ z + s @ v) / (2 * n)
        D_inv = 1.0 / (z / a + v / s)
        DE = E * D_inv[:, None]
        core = E.T @ DE
        core[np.diag_indices(d)] += 1.0

        def bordered(r, r_b):
            # [[Q + D, y'], [y'ᵀ, 0]]·[da, db] = [r, r_b] through `core`
            reduced = DE.T @ r
            reduced[d] -= r_b
            step = np.linalg.solve(core, reduced)
            return D_inv * r - DE @ step, step[d]

        def direction(t_low, t_up):
            # Newton step toward a·z = t_low, s·v = t_up and zero residuals
            rhs = -r_dual + (t_low - a * z) / a - (t_up - s * v + v * r_box) / s
            da, db = bordered(rhs, -r_eq)
            # near the optimum D spans many orders of magnitude and the
            # reduced solve alone stalls the gap above _GAP_TOL; one round
            # of iterative refinement against the full system restores it
            res = rhs - (U @ (U.T @ da) + da / D_inv + sign * db)
            fix_a, fix_b = bordered(res, -r_eq - sign @ da)
            da, db = da + fix_a, db + fix_b
            ds = -r_box - da
            dz = (t_low - a * z - z * da) / a
            dv = (t_up - s * v - v * ds) / s
            t = _step_length(np.concatenate([a, s, z, v]),
                             np.concatenate([da, ds, dz, dv]))
            return da, ds, db, dz, dv, t

        da, ds, _, dz, dv, t = direction(0.0, 0.0)
        mu_affine = ((a + t * da) @ (z + t * dz)
                     + (s + t * ds) @ (v + t * dv)) / (2 * n)
        centre = (mu_affine / mu) ** 3 * mu
        da, ds, db, dz, dv, t = direction(centre - da * dz, centre - ds * dv)
        a, s, b, z, v = a + t * da, s + t * ds, b + t * db, z + t * dz, v + t * dv
    return a / n, float(b), steps, converged


# the linear SVM's fit and its grid refuse l1 + hinge in these words
_L1_HINGE = "l1 with hinge is unsupported"


def _svm_solve(Xs, y, penalty, loss):
    """(w, b, steps, converged) of the linear SVM of the form on the
    standardised rows Xs; see _fit_linear_svm. Refuses l1 + hinge, as
    the grid's skip rule does."""
    if loss == "hinge":
        if penalty == "l1":
            raise ValueError(_L1_HINGE)
        beta, b, steps, converged = _hinge_dual_solve(Xs, y)
        return _hinge_weights(Xs, y, beta), b, steps, converged
    l1, l2 = (_SVM_ALPHA, 0.0) if penalty == "l1" else (0.0, _SVM_ALPHA)
    [solved] = _newton_solve(Xs, y, _SQUARED_HINGE, l1, l2,
                             [_SVM_NEWTON_STEPS])
    return solved


def _fit_linear_svm(X, y, form, seed):
    """Linear SVM on standardised columns: mean hinge (or squared hinge)
    loss plus 1e-3·‖w‖² (l2) or 1e-3·‖w‖₁ (l1), with an unpenalised bias,
    solved to its optimum. The squared hinge is smooth, so _newton_solve
    takes (proximal) Newton steps with its generalised Hessian, as for the
    logistic fit. The hinge is not: l2 + hinge solves the dual QP by an
    interior-point method (_hinge_dual_solve). l1 + hinge is refused
    (ValueError), as in the grid."""
    mean, std = _standardize_fit(X)
    w, b, _, _ = _svm_solve((X - mean) / std, y, *form)
    return {"weights": w.tolist(), "bias": b}, (mean, std)


def _linear_svm_skip(params):
    """Hinge needs l2 and the dual form, l1 needs squared_hinge without
    dual, l2 + squared_hinge runs either way."""
    penalty, loss, dual = params["penalty"], params["loss"], params["dual"]
    if penalty == "l1" and loss == "hinge":
        return _L1_HINGE
    if penalty == "l1" and dual:
        return "l1 requires the primal form"
    if penalty == "l2" and loss == "hinge" and not dual:
        return "hinge with l2 requires the dual form"
    return None
