"""Per-node tree growth as first written: every node argsorts each candidate
feature again. Kept as the reference the presorted growth in
roadsift.ml.trees must match byte for byte.

grow_decision_trees stands in for trees._grow_decision_trees (the decision
tree looks that name up when it fits); fit_random_forest and
fit_gradient_boosting stand in for the fitters of the forest and boosting
records in models._RECORDS, fitting one training set. Each tree here grows
to the end before the next starts, where trees grows a forest's trees, a
K-fold's decision trees and a K-fold's boosting stage together.
"""

import math

import numpy as np

from roadsift.ml.trees import _binary_entropy, _reg_tree_predict


def best_gain_split(X, y, feature_idx, min_leaf):
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
            if thr >= xs[pos[k] + 1]:       # two adjacent floats
                thr = xs[pos[k]]
            best = (float(gain[k]), int(j), float(thr))
    return best


def grow_class_tree(X, y, min_leaf, max_depth, rng=None, k_features=0, depth=0):
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
    split = best_gain_split(X, y, feature_idx, min_leaf)
    if split is None:
        node["leaf"] = True
        return node
    _, j, thr = split
    mask = X[:, j] <= thr
    node.update(leaf=False, feature=j, threshold=thr)
    node["left"] = grow_class_tree(X[mask], y[mask], min_leaf, max_depth,
                                   rng, k_features, depth + 1)
    node["right"] = grow_class_tree(X[~mask], y[~mask], min_leaf, max_depth,
                                    rng, k_features, depth + 1)
    return node


def grow_decision_trees(sets, min_leaf):
    return [grow_class_tree(X, y, min_leaf, 0) for X, y in sets]


def fit_random_forest(X, y, form, seed):
    n_trees, k, depth, min_leaf = form
    n = len(y)
    trees = []
    for ts in np.random.SeedSequence(seed).generate_state(n_trees):
        rng = np.random.default_rng(int(ts))
        boot = rng.integers(0, n, n)
        trees.append(grow_class_tree(X[boot], y[boot], min_leaf, depth,
                                     rng=rng, k_features=k))
    return {"trees": trees}, None


def best_sse_split(X, g, min_leaf, friedman: bool):
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
            if thr >= xs[pos[k] + 1]:       # two adjacent floats
                thr = xs[pos[k]]
            best = (float(score[k]), int(j), float(thr))
    return best


def grow_reg_tree(X, grad, hess, max_depth, min_leaf, friedman, depth=0):
    node = {}
    if depth >= max_depth or len(grad) < 2 * min_leaf:
        node["leaf"] = True
        node["value"] = float(grad.sum() / max(hess.sum(), 1e-12))
        return node
    split = best_sse_split(X, grad, min_leaf, friedman)
    if split is None:
        node["leaf"] = True
        node["value"] = float(grad.sum() / max(hess.sum(), 1e-12))
        return node
    _, j, thr = split
    mask = X[:, j] <= thr
    node.update(leaf=False, feature=j, threshold=thr)
    node["left"] = grow_reg_tree(X[mask], grad[mask], hess[mask],
                                 max_depth, min_leaf, friedman, depth + 1)
    node["right"] = grow_reg_tree(X[~mask], grad[~mask], hess[~mask],
                                  max_depth, min_leaf, friedman, depth + 1)
    return node


def fit_gradient_boosting(X, y, form, seed):
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
        tree = grow_reg_tree(X, grad, hess, max_depth=3, min_leaf=1,
                             friedman=friedman)
        f = f + lr * _reg_tree_predict(tree, X)
        trees.append(tree)
    return {"init": f0, "trees": trees, "learning_rate": lr}, None
