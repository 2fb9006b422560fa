"""Classifier families, trained from scratch on feature matrices.

Six families: logistic regression, Gaussian naive Bayes, an entropy-gain
decision tree with C4.5-style pruning knobs, a random forest, a linear SVM,
and gradient-boosted depth-3 trees. Unsafe is the positive class (1)
everywhere; every tie breaks toward unsafe, the fail-safe direction.

A family is one record, a _Family in _RECORDS, which holds all that is
particular to it, from its grid domain to its predictor. FAMILIES,
GRID_DOMAINS and DEFAULT_HYPERPARAMETERS are derived from the records.

All training is deterministic. Logistic regression and the squared-hinge
linear SVM are solved to the optimum of their penalised losses by damped
(proximal) Newton steps (_newton_solve); the l2 + hinge SVM by an
interior-point method on its dual (_hinge_dual_solve), and l1 + hinge, which
the grid skips, is refused; the ensembles draw seeded bootstraps and
feature subsets. All three tree families come from one grower, _grow_trees,
which grows many trees together: each round scores the cuts of one node
from every tree at once, by entropy gain for the classification trees and
by squared error or Friedman's improvement for boosting's regression trees.
It grows a forest's trees in blocks, and the trees of every training set
handed to fit_many at once (a K-fold's folds): the decision trees of one
share group in one call, boosting's stage t of every set in one call.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from ..features import FEATURE_NAMES, SAFE_CODE, UNSAFE_CODE
from ..inputs import is_number, is_vector, read_json

MODEL_FORMAT_VERSION = 1


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
        if self.family not in _RECORDS:
            raise ValueError(f"unknown family {self.family!r}")
        domain = _RECORDS[self.family].domain
        merged = dict(_RECORDS[self.family].defaults)
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
# the stratified draw of splits, folds and prune sets

def shuffled_classes(y, seed) -> list[np.ndarray]:
    """Each class's row indices in a seeded order, safe class first."""
    rng = np.random.default_rng(seed)
    classes = [np.flatnonzero(y == cls) for cls in (SAFE_CODE, UNSAFE_CODE)]
    return [idx[rng.permutation(len(idx))] for idx in classes]


def class_heads(y, seed, size) -> np.ndarray:
    """The mask of the first size(n) rows of each class of n rows, in
    shuffled_classes(y, seed) order."""
    mask = np.zeros(len(y), dtype=bool)
    for idx in shuffled_classes(y, seed):
        mask[idx[:size(len(idx))]] = True
    return mask


# ---------------------------------------------------------------------------
# decision trees (shared by the tree, the forest, and boosting)

def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def _presort(X: np.ndarray) -> np.ndarray:
    """Presorted index of X: row f lists the row numbers by ascending
    X[:, f], ties by ascending row number, as a (d, n) array."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _stack(sets):
    """The rows of every (X, y) of sets one below the other, and the
    presorted index of each set beside the others': set i's is _presort of
    its X offset by its first row, so its ties keep the set's own row
    order. Returns (X, y, index, lo, size); set i owns the rows and index
    columns lo[i] .. lo[i] + size[i]."""
    size = np.array([len(y) for _, y in sets])
    lo = size.cumsum() - size
    index = np.concatenate([_presort(X) + start
                            for (X, _), start in zip(sets, lo.tolist())], axis=1)
    return (np.concatenate([X for X, _ in sets]),
            np.concatenate([y for _, y in sets]), index, lo, size)


# A forest's trees grow together in blocks of at most this many. A block
# holds a presorted index of d * n entries a tree, so the working memory of
# a fit grows with the block and the rows, not with I.
_TREE_BLOCK = 32
# A round scores and partitions its nodes in runs of about this many cells
# (rows times features, padding included), so its temporaries stay small
# however large the nodes of the block are.
_ROUND_CELLS = 1 << 16


def _raise_heap_bounds() -> None:
    """Free one 4 MB block, once a process, so that glibc's malloc keeps the
    tree searches' temporaries on its heap.

    glibc maps a block above its mmap threshold (128 kB at the start) afresh
    and, when such a block is freed, raises the threshold to its size and
    the bound past which it trims its heap's top to twice that. Boosting's
    rounds allocate temporaries of a few hundred kB each, several a round;
    at the start bounds they are mapped or trimmed and faulted in again
    every round: a 10-fold boosting K-fold on 40 generated roads took 33k
    page faults and about 15% more time (2-vCPU x86-64 Linux), against 200
    faults after this call. The block's pages are never touched, and other allocators just
    free it."""
    np.empty(1 << 19)


_raise_heap_bounds()


def _chunks(size, width):
    """Index arrays of consecutive runs of nodes whose size * width cells
    add up to about _ROUND_CELLS a run; a larger node is a run alone."""
    if size.sum() * width <= _ROUND_CELLS:
        return [slice(None)]
    run = (size.cumsum() * width - 1) // _ROUND_CELLS
    return np.split(np.arange(len(size)),
                    np.flatnonzero(run[1:] != run[:-1]) + 1)


def _ragged(lo, size):
    """The ranges lo[i] .. lo[i] + size[i] concatenated, and where each
    range starts and ends in the concatenation."""
    ends = size.cumsum()
    starts = ends - size
    return np.arange(ends[-1]) + (lo - starts).repeat(size), starts, ends


def _winners(top):
    """For each node, a column of top whose rows are its candidate features
    in ascending order and hold each one's best cut score (-inf without a
    valid cut), the row whose cut the node takes, or -1 when none has a
    valid cut: a later candidate must beat the best so far by more than
    1e-15."""
    best = top.max(axis=0)
    # the rule settles on a score within 1e-15 of the best, or the best
    # would have beaten it. When every candidate that close scores the best
    # itself, the first of them wins; otherwise the rule is walked.
    near = top + 1e-15 >= best
    won = np.where(best > -np.inf, near.argmax(axis=0), -1)
    for i in np.flatnonzero((near & (top < best)).any(axis=0)).tolist():
        settled = None
        for j, value in enumerate(top[:, i].tolist()):
            if value > -np.inf and (settled is None or value > settled + 1e-15):
                settled, won[i] = value, j
    return won


def _threshold(below, above):
    """The threshold of a cut between the sorted values below and above:
    their midpoint, unless it rounds up to above (two adjacent floats),
    which would send the rows of that value left too; then below."""
    mid = 0.5 * (below + above)
    return np.where(mid < above, mid, below)


def _picks(m, node, *columns):
    """Per node of m, the tuple of its entries in columns, or None for the
    nodes not in node."""
    picks = [None] * m
    for i, cut in zip(node.tolist(), zip(*(c.tolist() for c in columns))):
        picks[i] = cut
    return picks


def _best_gain_cuts(Xt, y, index, lo, size, ones, features, min_leaf):
    """(feature, threshold, rows on the left, class-1 rows on the left) of
    each node's best cut, or None when no cut has positive gain. Xt is X
    transposed and C-ordered. Node i owns columns lo[i] .. lo[i] + size[i]
    of index, the presorted index of its tree (rows of X by feature), and
    holds ones[i] rows of class 1. Its candidates are the features in row i
    of features, ascending, or every feature when features is None.
    Information gain with entropy, each candidate's first maximal cut
    competing as in _winners, thresholds by _threshold.

    All nodes are scored as one (candidates, columns) array, a node's
    columns next to each other and no padding: a cut after a column leaves
    the node's columns up to it on the left. Flat take is used throughout,
    as it is much faster than fancy indexing on two axes."""
    cols, starts, ends = _ragged(lo, size)
    width = len(cols)
    if features is None:
        feature = np.arange(len(Xt))[:, None]
    else:
        feature = features.T.repeat(size, axis=1)
    rows = index.take(feature * index.shape[1] + cols)
    xs = Xt.take(rows + feature * Xt.shape[1])
    # the running count of ones restarts at each node's first column; the
    # labels are integers, so this is exact
    cum = y.take(rows)
    cum[:, starts[1:]] -= ones[:-1]
    cum.cumsum(axis=1, out=cum)
    nl = np.arange(1, width + 1) - starts.repeat(size)
    # a valid cut lies between distinct values and leaves min_leaf rows a
    # side; only the valid cuts are scored
    valid = np.zeros(xs.shape, dtype=bool)
    np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
    valid &= (nl >= min_leaf) & (size.repeat(size) - nl >= min_leaf)
    at = np.flatnonzero(valid)
    col = at % width
    node = np.searchsorted(ends, col, side="right")
    ones_l = cum.take(at)
    nl = nl.take(col)
    n = size.take(node)
    nr = n - nl
    # the entropies of every left part, every right part and every node
    v = len(at)
    h = _binary_entropy(np.concatenate(
        (ones_l / nl, (ones.take(node) - ones_l) / nr, ones / size)))
    # parent - (nl * H(left) + nr * H(right)) / n, operation by operation
    gain = nl * h[:v]
    gain += nr * h[v:2 * v]
    gain /= n
    np.subtract(h[2 * v:].take(node), gain, out=gain)
    gain[gain <= 1e-12] = -np.inf
    score = np.full(xs.shape, -np.inf)
    score.put(at, gain)
    # each (candidate, node) segment's first maximal cut
    top = np.maximum.reduceat(score, starts, axis=1)
    at_top = np.where(score == top.repeat(size, axis=1), np.arange(width),
                      width)
    first = np.minimum.reduceat(at_top, starts, axis=1)
    won = _winners(top)
    node = np.flatnonzero(won >= 0)
    r = won[node]
    col = first[r, node]
    cut = r * width + col
    return _picks(len(size), node, r if features is None else features[node, r],
                  _threshold(xs.take(cut), xs.take(cut + 1)),
                  col + 1 - starts.take(node), cum.take(cut))


def _best_sse_cuts(Xt, g, index, lo, size, sums, features, min_leaf,
                   friedman):
    """As _best_gain_cuts, for a regression tree on the float targets g
    (boosting's gradients): (feature, threshold, rows on the left, sum of g
    on the left) of each node's best cut, or None when it has no valid
    cut. A cut scores Friedman's improvement or the reduction in the
    squared error of g, and every valid cut competes. sums is unused: each
    candidate's running sum gives its own node total.

    A flat running sum over nodes next to each other is exact only for
    integers, so the nodes are scored as one padded (candidates, nodes,
    widest node) block: a node's rows, then zeros, which leave its running
    sums as a sum over its rows alone gives them."""
    m, width = len(size), int(size.max())
    c = np.arange(width)
    cols = lo[:, None] + np.minimum(c, size[:, None] - 1)
    if features is None:
        feature = np.arange(len(Xt))[:, None, None]
    else:
        feature = features.T[:, :, None]
    rows = index.take(feature * index.shape[1] + cols)
    xs = Xt.take(rows + feature * Xt.shape[1])
    cum = g.take(rows)
    cum[:, c >= size[:, None]] = 0.0
    cum.cumsum(axis=2, out=cum)
    nl = c + 1
    valid = np.zeros(xs.shape, dtype=bool)
    np.greater(xs[..., 1:], xs[..., :-1], out=valid[..., :-1])
    valid &= (nl >= min_leaf) & (size[:, None] - nl >= min_leaf)
    at = np.flatnonzero(valid)
    seg = at // width                       # (candidate, node) of each cut
    sum_l = cum.take(at)
    sum_r = cum[:, np.arange(m), size - 1].take(seg) - sum_l
    nl = nl.take(at % width)
    nr = size.take(seg % m) - nl
    if friedman:
        diff = sum_l / nl - sum_r / nr
        gain = (nl * nr) / (nl + nr) * diff * diff
    else:
        gain = sum_l * sum_l / nl + sum_r * sum_r / nr
    score = np.full(xs.shape, -np.inf)
    score.put(at, gain)
    won = _winners(score.max(axis=2))
    node = np.flatnonzero(won >= 0)
    r = won[node]
    col = score.argmax(axis=2)[r, node]
    cut = (r * m + node) * width + col
    return _picks(m, node, r if features is None else features[node, r],
                  _threshold(xs.take(cut), xs.take(cut + 1)), col + 1,
                  cum.take(cut))


class _Criterion(NamedTuple):
    """How a tree grows. cuts scores the cuts of a run of nodes (as
    _best_gain_cuts). labels says that the targets are 0/1 class labels:
    then a node records its rows n and its class-1 rows ones, a pure node
    is a leaf without a search, and a run's nodes are scored side by side,
    since running sums of integers are exact. Otherwise (float targets) a
    node records nothing while it grows, and a run is scored padded to its
    widest node, which counts at that width against _ROUND_CELLS."""
    cuts: Callable[..., list]
    labels: bool


_ENTROPY = _Criterion(_best_gain_cuts, True)
_SQUARED_ERROR = _Criterion(
    functools.partial(_best_sse_cuts, friedman=False), False)
_FRIEDMAN = _Criterion(functools.partial(_best_sse_cuts, friedman=True), False)


def _partition_ranges(Xt, index, lo, size, feature, threshold):
    """Partition columns lo[i] .. lo[i] + size[i] of the presorted index in
    place, in every row stably: the rows with X[:, feature[i]] <=
    threshold[i] first (Xt is X transposed and C-ordered)."""
    cols = _ragged(lo, size)[0]
    part = index.take(cols, axis=1)
    feature = feature.repeat(size)
    left = Xt.take(part + feature * Xt.shape[1]) <= threshold.repeat(size)
    # row feature[i] of a range is sorted by that feature, so its left rows
    # come first: there, in every row, the left rows go
    head = left.take(feature * len(cols) + np.arange(len(cols)))
    d = len(index)
    index[:, cols[head]] = part[left].reshape(d, -1)
    index[:, cols[~head]] = part[~left].reshape(d, -1)


def _grow_trees(X, target, index, lo, size, criterion, min_leaf, max_depth,
                rngs=None, k_features=0):
    """Trees on the rows of (X, target), one per entry of lo and size,
    grown together by criterion. Tree t owns columns lo[t] .. lo[t] +
    size[t] of index, its presorted index: row f lists its rows of X by
    ascending X[:, f], a row as often as its sample holds it. With rngs and
    0 < k_features < d, each node of tree t draws k_features candidate
    features from rngs[t] (the forest's feature subsampling), otherwise
    every feature is one.

    Each tree grows depth first from its own stack, so it draws in its own
    preorder, as if grown alone. Every round takes each tree's next node to
    search (every such node of its stack when it draws nothing), scores the
    cuts of all those nodes together and partitions together the nodes that
    have a child to search. A node owns a column range of index, and
    partitioning it reorders that range in place.

    Returns the roots and every leaf as (node, row, lo, size): columns lo ..
    lo + size of row `row` of index hold the leaf's rows. That row is the
    parent's split feature (0 for a root); it lists the parent's left rows
    first even where the parent's range was never partitioned."""
    d = X.shape[1]
    draw = rngs is not None and 0 < k_features < d
    Xt = np.ascontiguousarray(X.T)
    labels = criterion.labels
    leaves = []

    def searches(node, row, lo, size, s, depth):
        """Whether node needs a split search; otherwise it becomes a leaf."""
        if ((labels and (s == 0 or s == size)) or size < 2 * min_leaf
                or (max_depth and depth >= max_depth)):
            node["leaf"] = True
            leaves.append((node, row, lo, size))
            return False
        return True

    cols, starts, _ = _ragged(lo, size)
    # a tree on no rows (a reduced-error tree whose rows were all held
    # out) sums to 0; reduceat would give it the next tree's first row
    sums = np.zeros(len(size), dtype=target.dtype)
    rows = size > 0
    if rows.any():
        sums[rows] = np.add.reduceat(target.take(index[0].take(cols)),
                                     starts[rows])
    trees, stacks = [], []
    for root in zip(lo.tolist(), size.tolist(), sums.tolist()):
        tree = {"n": root[1], "ones": root[2]} if labels else {}
        trees.append(tree)
        stacks.append([(tree, 0, *root, 0)] if searches(tree, 0, *root, 0)
                      else [])
    while True:
        searched, features = [], []
        for t, stack in enumerate(stacks):
            while stack:
                searched.append((t, *stack.pop()))
                if draw:
                    features.append(rngs[t].choice(d, size=k_features,
                                                   replace=False))
                    break
        if not searched:
            return trees, leaves
        lo, size = np.array([entry[3:5] for entry in searched]).T
        sums = np.array([entry[5] for entry in searched])
        features = np.sort(features, axis=1) if draw else None
        width = k_features if draw else d
        cuts = []
        for run in _chunks(size if labels else np.full_like(size, size.max()),
                           width):
            cuts += criterion.cuts(
                Xt, target, index, lo[run], size[run], sums[run],
                None if features is None else features[run], min_leaf)
        split = []
        for (t, node, row, lo, size, s, depth), cut in zip(searched, cuts):
            if cut is None:
                node["leaf"] = True
                leaves.append((node, row, lo, size))
                continue
            j, thr, n_left, s_left = cut
            left, right = (({"n": n_left, "ones": s_left},
                             {"n": size - n_left, "ones": s - s_left})
                            if labels else ({}, {}))
            node.update(leaf=False, feature=j, threshold=thr, left=left,
                        right=right)
            deeper = [child for child in (
                (right, j, lo + n_left, size - n_left, s - s_left, depth + 1),
                (left, j, lo, n_left, s_left, depth + 1)) if searches(*child)]
            if deeper:
                stacks[t] += deeper
                split.append((lo, size, j, thr))
        if split:
            lo, size, feature, threshold = map(np.array, zip(*split))
            for run in _chunks(size, d):
                _partition_ranges(Xt, index, lo[run], size[run], feature[run],
                                  threshold[run])


def _grow_decision_trees(sets, min_leaf):
    """One entropy-gain classification tree per (X, y) of sets, every
    feature a candidate at every node, grown together."""
    X, y, index, lo, size = _stack(sets)
    trees, _ = _grow_trees(X, y, index, lo, size, _ENTROPY, min_leaf, 0)
    return trees


def _leaf_label(node) -> int:
    ones = node["ones"]
    return UNSAFE_CODE if 2 * ones >= node["n"] else SAFE_CODE


def _leaf(node, x):
    """The leaf of the tree under node that row x falls into."""
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def _tree_predict(node, X) -> np.ndarray:
    return np.array([_leaf_label(_leaf(node, x)) for x in X], dtype=np.int64)


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


# The pruners below never modify the tree they are given: a node whose
# children change is copied, so several prunings can start from one grown
# tree, and unchanged subtrees are shared between the results.

def _with_children(node, left, right):
    return {**node, "left": left, "right": right}


def _collapsed(node):
    return {"n": node["n"], "ones": node["ones"], "leaf": True}


def _pessimistic_prune(node, z: float):
    """Bottom-up: collapse a subtree to a leaf whenever its pessimistic
    error as a leaf is no larger than its leaves' sum. Returns the pruned
    node and that sum over its leaves."""
    if node["leaf"]:
        return node, _pessimistic_errors(node, z)
    left, errs_left = _pessimistic_prune(node["left"], z)
    right, errs_right = _pessimistic_prune(node["right"], z)
    as_leaf = _pessimistic_errors(node, z)
    as_tree = errs_left + errs_right
    if as_leaf <= as_tree + 1e-9:
        return _collapsed(node), as_leaf
    return _with_children(node, left, right), as_tree


def _reduced_error_prune(node, X, y):
    """Bottom-up: collapse a subtree to a leaf whenever that does not
    increase the error on the held-out prune set. Returns the pruned node
    and its error count on (X, y)."""
    if node["leaf"]:
        return node, int(np.count_nonzero(y != _leaf_label(node)))
    if len(y) == 0:
        return node, 0
    mask = X[:, node["feature"]] <= node["threshold"]
    left, errs_left = _reduced_error_prune(node["left"], X[mask], y[mask])
    right, errs_right = _reduced_error_prune(node["right"], X[~mask], y[~mask])
    leaf = _collapsed(node)
    errs_leaf = int(np.count_nonzero(y != _leaf_label(leaf)))
    errs_tree = errs_left + errs_right
    if errs_leaf <= errs_tree:
        return leaf, errs_leaf
    return _with_children(node, left, right), errs_tree


def _subtree_raise(node, X, y, z: float):
    """Try replacing an internal node with its more-populated child,
    re-scoring the node's own training rows through the raised subtree.
    Returns the node kept and its error count on (X, y)."""
    if node["leaf"]:
        return node, int(np.count_nonzero(y != _leaf_label(node)))
    mask = X[:, node["feature"]] <= node["threshold"]
    left, errs_left = _subtree_raise(node["left"], X[mask], y[mask], z)
    right, errs_right = _subtree_raise(node["right"], X[~mask], y[~mask], z)
    node = _with_children(node, left, right)
    current = errs_left + errs_right
    if (left["leaf"] and right["leaf"]) or len(y) == 0:
        return node, current
    child = left if left["n"] >= right["n"] else right
    raised_errs = int(np.count_nonzero(_tree_predict(child, X) != y))
    raised_pess = raised_errs + (z * math.sqrt(len(y)) * 0.5 if z > 0 else 0.0)
    if raised_pess <= current:
        return child, raised_errs
    return node, current


# ---------------------------------------------------------------------------
# regression trees for boosting

def _set_leaf_values(leaves, index, grad, hess, fitted):
    """Give each leaf of _grow_trees its value, sum(grad) / sum(hess) over
    its rows in ascending order, and write that value into fitted at those
    rows.

    The leaves' rows are gathered side by side, smallest leaf first, so the
    leaves of one size form one C-ordered block; the row sums of a block
    add each leaf's values as a sum over that leaf alone does."""
    nodes, row, lo, size = zip(*leaves)
    size = np.array(size)
    by_size = np.argsort(size, kind="stable")
    size = size[by_size]
    cols, starts, ends = _ragged(
        (np.array(row) * index.shape[1] + np.array(lo))[by_size], size)
    # leaf k's rows, ascending: sorted as k * n + row, they stay together
    shift = np.arange(len(size)).repeat(size) * len(fitted)
    rows = np.sort(index.take(cols) + shift) - shift
    both = np.stack((grad, hess)).take(rows, axis=1)
    sums = np.empty((2, len(size)))
    first = np.flatnonzero(np.diff(size, prepend=0))
    for a, b in zip(first.tolist(), first[1:].tolist() + [len(size)]):
        sums[:, a:b] = both[:, starts[a]:ends[b - 1]].reshape(
            2, b - a, -1).sum(axis=2)
    values = sums[0] / np.maximum(sums[1], 1e-12)
    fitted[rows] = values.repeat(size)
    for k, value in zip(by_size.tolist(), values.tolist()):
        nodes[k]["value"] = value


def _reg_tree_predict(node, X) -> np.ndarray:
    return np.array([_leaf(node, x)["value"] for x in X], dtype=np.float64)


def _check_trees(trees, boosting: bool, n_features: int) -> None:
    """Raise ValueError unless trees is a non-empty list and every node of
    each tree is an object with a bool leaf; an internal node splits on an
    int feature below n_features at a finite threshold and has left and
    right; a leaf holds a finite value (boosting) or int counts n and
    ones. The walk keeps an explicit stack, so a deep tree cannot exhaust
    the interpreter's recursion limit."""
    if not isinstance(trees, list) or not trees:
        raise ValueError("trees is not a non-empty list")
    stack = list(trees)
    while stack:
        node = stack.pop()
        if not isinstance(node, dict) or not isinstance(node.get("leaf"), bool):
            raise ValueError("tree node is not an object with a bool 'leaf'")
        if not node["leaf"]:
            feature = node.get("feature")
            if type(feature) is not int or not 0 <= feature < n_features:
                raise ValueError(f"tree node splits on feature {feature!r}, "
                                 f"not one of {n_features}")
            if not is_number(node.get("threshold")):
                raise ValueError("tree node has no finite threshold")
            stack += (node.get("left"), node.get("right"))
        elif boosting:
            if not is_number(node.get("value")):
                raise ValueError("tree leaf has no finite value")
        elif type(node.get("n")) is not int or type(node.get("ones")) is not int:
            raise ValueError("tree leaf lacks int counts n and ones")


# ---------------------------------------------------------------------------
# families. A family is one _Family record, at the end of this section,
# which joins the fitter, predictor and payload check below with its grid. A
# fitter receives a list of training sets (X, y), one seed each, and forms
# with one key and nothing else of the specs. It yields one (parameters,
# standardization or None) per set and form, set by set, each set's forms
# in order.

def _alone(fit_one):
    """The fitter of a family whose forms share no work (share key: the
    form itself), each form fitted set by set by fit_one(X, y, form,
    seed)."""
    def fit_sets(sets, forms, seeds):
        for (X, y), seed in zip(sets, seeds):
            for form in forms:
                yield fit_one(X, y, form, seed)
    return fit_sets


def _payload(parameters, *keys):
    """The values of keys in a loaded payload; ValueError naming those it
    lacks."""
    missing = [key for key in keys if key not in parameters]
    if missing:
        raise ValueError(f"parameters lack {missing}")
    return [parameters[key] for key in keys]


def _predict_linear(p, X):
    # a row sum, not X @ w: BLAS orders the sum by batch shape, and a row's
    # score must not depend on the rows scored with it
    w = np.asarray(p["weights"], dtype=np.float64)
    z = (X * w).sum(axis=1) + p["bias"]
    return (~(z < 0.0)).astype(np.int64)      # a NaN score is unsafe too


def _check_linear(p, d):
    weights, bias = _payload(p, "weights", "bias")
    if not is_vector(weights, d):
        raise ValueError(f"weights is not a list of {d} finite numbers")
    if not is_number(bias):
        raise ValueError("bias is not a finite number")


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


def _fit_naive_bayes(X, y, form, seed):
    params = {"priors": [], "means": [], "vars": []}
    n = len(y)
    for cls in (SAFE_CODE, UNSAFE_CODE):
        rows = X[y == cls]
        params["priors"].append(len(rows) / n)
        params["means"].append(rows.mean(axis=0).tolist())
        params["vars"].append(np.maximum(rows.var(axis=0), 1e-9).tolist())
    return params, None


def _predict_naive_bayes(p, X):
    priors, means, variances = (np.asarray(p[key], dtype=np.float64)
                                for key in ("priors", "means", "vars"))
    scores = []
    for cls in (SAFE_CODE, UNSAFE_CODE):
        ll = -0.5 * np.sum(
            np.log(2.0 * np.pi * variances[cls])
            + (X - means[cls]) ** 2 / variances[cls], axis=1)
        scores.append(ll + math.log(max(priors[cls], 1e-300)))
    return (scores[UNSAFE_CODE] >= scores[SAFE_CODE]).astype(np.int64)


def _check_naive_bayes(p, d):
    priors, means, variances = _payload(p, "priors", "means", "vars")
    if not (is_vector(priors, 2) and all(0.0 <= q <= 1.0 for q in priors)):
        raise ValueError("priors is not 2 numbers in [0, 1]")
    for name, rows in (("means", means), ("vars", variances)):
        if not (isinstance(rows, list) and len(rows) == 2
                and all(is_vector(row, d) for row in rows)):
            raise ValueError(f"{name} is not 2 lists of {d} finite numbers")
    # prediction takes the log of 2π·var, which must stay finite
    if not all(v > 0.0 and math.isfinite(2.0 * math.pi * v)
               for row in variances for v in row):
        raise ValueError("a variance is not positive, or 2π times it is "
                         "not finite")


def _decision_tree_form(hp, d):
    # reduced-error pruning scores a held-out prune set and never reads C
    if hp["R"] == "yes":
        return (hp["M"], "yes", hp["S"])
    return (hp["C"], hp["M"], "no", hp["S"])


def _prune_mask(y, seed):
    """The rows reduced-error pruning holds out: a seeded fifth of each
    class, at least one row."""
    return class_heads(y, seed, lambda n: max(1, n // 5))


def _fit_decision_tree(sets, forms, seeds):
    """Every set's tree grows in one _grow_decision_trees call; each form
    then prunes its set's tree."""
    min_leaf, reduced_error = forms[0][-3:-1]
    if reduced_error == "yes":
        masks = [_prune_mask(y, seed) for (_, y), seed in zip(sets, seeds)]
        trees = _grow_decision_trees(
            [(X[~mask], y[~mask]) for (X, y), mask in zip(sets, masks)],
            min_leaf)
        for tree, (X, y), mask in zip(trees, sets, masks):
            Xp, yp = X[mask], y[mask]
            pruned, _ = _reduced_error_prune(tree, Xp, yp)
            for *_, subtree_raise in forms:
                if subtree_raise == "yes":
                    yield {"tree": _subtree_raise(pruned, Xp, yp, 0.0)[0]}, None
                else:
                    yield {"tree": pruned}, None
    else:
        for tree, (X, y) in zip(_grow_decision_trees(sets, min_leaf), sets):
            for confidence, *_, subtree_raise in forms:
                z = NormalDist().inv_cdf(1.0 - confidence) if confidence < 0.5 else 0.0
                pruned, _ = _pessimistic_prune(tree, z)
                if subtree_raise == "yes":
                    pruned, _ = _subtree_raise(pruned, X, y, z)
                yield {"tree": pruned}, None


def _forest_split_features(K: int, d: int) -> int:
    """Features drawn at each forest split: K, or isqrt(d) when K is 0,
    never more than the d there are."""
    return min(K or math.isqrt(d), d)


def _bootstrap_index(order, counts):
    """The presorted index of one bootstrap sample per row of counts, side
    by side: order (_presort(X)) with row r of X repeated counts[t, r]
    times in tree t's columns."""
    index = np.empty((len(order), counts.size), dtype=np.intp)
    for f, rows in enumerate(order):
        index[f] = np.repeat(np.tile(rows, len(counts)),
                             counts[:, rows].ravel())
    return index


def _fit_random_forest(X, y, form, seed):
    n_trees, k, depth, min_leaf = form
    n = len(y)
    order = _presort(X)
    seeds = np.random.SeedSequence(seed).generate_state(n_trees)
    trees = []
    for block in np.array_split(seeds, -(-n_trees // _TREE_BLOCK)):
        rngs = [np.random.default_rng(int(ts)) for ts in block]
        counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n)
                           for rng in rngs])
        grown, _ = _grow_trees(X, y, _bootstrap_index(order, counts),
                               np.arange(len(rngs)) * n, np.full(len(rngs), n),
                               _ENTROPY, min_leaf, depth, rngs, k)
        trees += grown
    return {"trees": trees}, None


def _predict_forest(p, X):
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in p["trees"]:
        votes += _tree_predict(tree, X)
    return (2 * votes >= len(p["trees"])).astype(np.int64)


def _gradient_boosting_form(hp, d):
    # deviance is log_loss and mse is squared_error under another name
    return (hp["loss"] == "exponential", hp["learning_rate"],
            hp["n_estimators"], hp["criterion"] == "friedman_mse")


def _fit_gradient_boosting(sets, forms, seeds):
    """Stage-wise boosting (Friedman 2001) of depth-3 regression trees on
    the gradients of the log-loss or the exponential loss; a leaf holds
    sum(grad) / sum(hess) over its rows. Stage t of every set grows in one
    _grow_trees call on the stacked rows. The forms share a key, so they
    are equal, and one fit serves them all."""
    exponential, lr, n_estimators, friedman = forms[0]
    X, y, order, lo, size = _stack(sets)
    inits = []
    for _, y_set in sets:
        p1 = float(np.clip(y_set.mean(), 1e-6, 1 - 1e-6))
        log_odds = math.log(p1 / (1.0 - p1))
        inits.append(0.5 * log_odds if exponential else log_odds)
    yy = 2.0 * y - 1.0
    f = np.repeat(inits, size)
    criterion = _FRIEDMAN if friedman else _SQUARED_ERROR
    fitted = np.empty(len(y))
    trees = [[] for _ in sets]
    for _ in range(n_estimators):
        if exponential:
            e = np.exp(-yy * f)
            grad = yy * e
            hess = e
        else:
            p = 1.0 / (1.0 + np.exp(-f))
            grad = y - p
            hess = np.maximum(p * (1.0 - p), 1e-12)
        index = order.copy()
        stage, leaves = _grow_trees(X, grad, index, lo, size, criterion, 1, 3)
        _set_leaf_values(leaves, index, grad, hess, fitted)
        f = f + lr * fitted
        for grown, tree in zip(trees, stage):
            grown.append(tree)
    for init, grown in zip(inits, trees):
        for _ in forms:
            yield {"init": init, "trees": grown, "learning_rate": lr}, None


def _predict_boosting(p, X):
    f = np.full(len(X), float(p["init"]))
    for tree in p["trees"]:
        f = f + p["learning_rate"] * _reg_tree_predict(tree, X)
    return (~(f < 0.0)).astype(np.int64)      # a NaN score is unsafe too


def _check_boosting(p, d):
    init, trees, learning_rate = _payload(p, "init", "trees", "learning_rate")
    if not (is_number(init) and is_number(learning_rate)):
        raise ValueError("init or learning_rate is not a finite number")
    _check_trees(trees, True, d)


class _Family(NamedTuple):
    """One model family. domain lists the values of each hyperparameter,
    which grid_search sweeps, and defaults holds the value a spec leaves
    unset. form(hyperparameters, d) is the canonical form, share(form) the
    key of the work forms share, and fit the fitter of forms with one key.
    predict(parameters, X) gives the class codes of standardised rows X,
    and check(parameters, d) raises TypeError or ValueError unless a loaded
    payload is one that predict reads on d features. skip(cell) is why
    grid_search skips a cell, or None, and tie(cell) the (estimators,
    depth) it ranks cells of equal F1 by, fewest first."""
    domain: dict[str, list]
    defaults: dict
    form: Callable[[dict, int], tuple]
    fit: Callable
    predict: Callable[[dict, np.ndarray], np.ndarray]
    check: Callable[[dict, int], None]
    share: Callable[[tuple], object] = lambda form: form
    skip: Callable[[dict], str | None] = lambda cell: None
    tie: Callable[[dict], tuple] = lambda cell: (0, 0)


# in this order, which breaks ties between families in benchmark's ranking
_RECORDS = {
    "logistic": _Family(
        domain={"penalty": ["l1", "l2", "elasticnet", "none"],
                "dual": [True, False],
                "max_iter": [10, 100, 1000],
                "solver": ["newton-cg", "lbfgs", "liblinear", "sag", "saga"]},
        defaults={"penalty": "l2", "dual": False, "max_iter": 1000,
                  "solver": "lbfgs"},
        form=lambda hp, d: (hp["penalty"], hp["max_iter"]),
        # the max_iter caps truncate one solve of the penalty's objective
        share=lambda form: form[0],
        fit=_fit_logistic, predict=_predict_linear,
        check=_check_linear, skip=_logistic_skip),
    "naive_bayes": _Family(
        domain={}, defaults={}, form=lambda hp, d: (),
        fit=_alone(_fit_naive_bayes), predict=_predict_naive_bayes,
        check=_check_naive_bayes),
    "decision_tree": _Family(
        domain={"C": [0.001, 0.01, 0.05, 0.1, 0.5],
                "M": [1, 10, 20, 50, 100],
                "R": ["yes", "no"],
                "S": ["yes", "no"]},
        defaults={"C": 0.1, "M": 10, "R": "no", "S": "no"},
        form=_decision_tree_form,
        # one grown tree per min-leaf and pruning kind; each form prunes it
        share=lambda form: form[-3:-1],
        fit=_fit_decision_tree,
        predict=lambda p, X: _tree_predict(p["tree"], X),
        check=lambda p, d: _check_trees(_payload(p, "tree"), False, d)),
    "random_forest": _Family(
        domain={"I": [5, 10, 100, 1000, 2000],
                "K": [0, 10, 100, 500, 1000],
                "depth": [0, 5, 10, 20],
                "M": [1, 10, 20, 50, 100]},
        defaults={"I": 100, "K": 0, "depth": 0, "M": 1},
        form=lambda hp, d: (hp["I"], _forest_split_features(hp["K"], d),
                            hp["depth"], hp["M"]),
        fit=_alone(_fit_random_forest), predict=_predict_forest,
        check=lambda p, d: _check_trees(*_payload(p, "trees"), False, d),
        tie=lambda cell: (cell["I"], cell["depth"])),
    "gradient_boosting": _Family(
        domain={"loss": ["log_loss", "deviance", "exponential"],
                "learning_rate": [0.01, 0.1, 0.2, 0.4],
                "n_estimators": [10, 100, 1000],
                "criterion": ["friedman_mse", "squared_error", "mse"]},
        defaults={"loss": "log_loss", "learning_rate": 0.1,
                  "n_estimators": 100, "criterion": "friedman_mse"},
        form=_gradient_boosting_form, fit=_fit_gradient_boosting,
        predict=_predict_boosting, check=_check_boosting,
        tie=lambda cell: (cell["n_estimators"], 0)),
    "linear_svm": _Family(
        domain={"penalty": ["l1", "l2"],
                "loss": ["hinge", "squared_hinge"],
                "dual": [True, False]},
        defaults={"penalty": "l2", "loss": "squared_hinge", "dual": False},
        form=lambda hp, d: (hp["penalty"], hp["loss"]),
        fit=_alone(_fit_linear_svm), predict=_predict_linear,
        check=_check_linear, skip=_linear_svm_skip),
}

FAMILIES = tuple(_RECORDS)
# hyperparameter domains; grid-search sweeps exactly these lists
GRID_DOMAINS = {name: family.domain for name, family in _RECORDS.items()}
DEFAULT_HYPERPARAMETERS = {name: family.defaults
                           for name, family in _RECORDS.items()}


def canonical_form(spec: ClassifierSpec, n_features: int) -> tuple:
    """The hyperparameter values spec's fitter reads on n_features columns.

    The fitter sees nothing else of the spec, so two specs of one family
    with equal forms train identical models on the same data and seed.
    """
    return _RECORDS[spec.family].form(spec.hyperparameters, n_features)


def shared_fit_key(spec: ClassifierSpec, n_features: int):
    """The key of the work fit_many shares between spec and other specs of
    its family on n_features columns: one logistic solve per penalty, one
    grown tree per decision-tree min-leaf and pruning kind, one fit per
    form otherwise. fit_many does one such fit per distinct key."""
    return _RECORDS[spec.family].share(canonical_form(spec, n_features))


# ---------------------------------------------------------------------------
# public surface

@dataclass
class TrainedClassifier:
    spec: ClassifierSpec
    feature_names: tuple[str, ...]
    standardization: tuple[np.ndarray, np.ndarray] | None
    parameters: dict

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Class codes (0 safe / 1 unsafe) for an (n, d) matrix in the
        model's feature order."""
        if X.shape[1] != len(self.feature_names):
            raise FeatureMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        # C order, so each row's sums in the predictor run over its
        # contiguous values alike in any batch
        X = np.ascontiguousarray(X, dtype=np.float64)
        if self.standardization is not None:
            mean, std = self.standardization
            X = (X - mean) / std
        return _RECORDS[self.spec.family].predict(self.parameters, X)

    def feature_matrix(self, rows) -> np.ndarray:
        """(n, d) matrix in the model's feature order from a list of n
        FeatureVectors. Raises FeatureMismatch when the model reads a name
        that is not a feature."""
        names = self.feature_names
        missing = [n for n in names if n not in FEATURE_NAMES]
        if missing:
            raise FeatureMismatch(f"missing features: {missing}")
        values = attrgetter(*names) if names else lambda row: ()
        return np.array([values(row) for row in rows],
                        dtype=float).reshape(len(rows), len(names))


def fit_many(specs: list[ClassifierSpec], sets, feature_names: tuple[str, ...],
             seeds: list[int]):
    """Train one classifier per spec, all of one family, on each training
    set (X, y) of sets with its seed in seeds. Yields (set index, spec
    index, model) one model at a time, group by group of equal
    shared_fit_key, so work the specs share is done once and only one
    group's models are held at once; the tree families grow a group's
    trees for every set together. Each model equals fit(spec, X, y,
    feature_names, seed) alone. Requires both classes in every y."""
    if len(seeds) != len(sets):
        raise ValueError(f"{len(seeds)} seeds for {len(sets)} training sets")
    sets = [(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64))
            for X, y in sets]
    if any(len(np.unique(y)) < 2 for _, y in sets):
        raise SingleClassDataset("training data contains a single class")
    families = {spec.family for spec in specs}
    if len(families) != 1:
        raise ValueError(f"fit_many needs specs of one family, got {families}")
    family = _RECORDS[families.pop()]
    forms = [family.form(spec.hyperparameters, sets[0][0].shape[1])
             for spec in specs]
    groups: dict = {}
    for j, f in enumerate(forms):
        groups.setdefault(family.share(f), []).append(j)
    names = tuple(feature_names)
    for group in groups.values():
        fitted = family.fit(sets, [forms[j] for j in group], seeds)
        every = ((i, j) for i in range(len(sets)) for j in group)
        for (i, j), (params, standardization) in zip(every, fitted):
            yield i, j, TrainedClassifier(spec=specs[j], feature_names=names,
                                          standardization=standardization,
                                          parameters=params)


def fit(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray,
        feature_names: tuple[str, ...], rng_seed: int = 0) -> TrainedClassifier:
    """Train one classifier. Requires both classes in y."""
    [(_, _, model)] = fit_many([spec], [(X, y)], feature_names, [rng_seed])
    return model


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


def load_model(path: str | Path) -> TrainedClassifier:
    try:
        payload = read_json(path)
    except ValueError as exc:         # read_json's message names the file
        raise CorruptModelFile(f"cannot read model file {exc}") from None
    if not isinstance(payload, dict):
        raise CorruptModelFile(f"model file {path} is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise CorruptModelFile(
            f"model file {path} has format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    try:
        if not isinstance(payload["hyperparameters"], dict):
            raise TypeError("hyperparameters is not a JSON object")
        spec = ClassifierSpec(payload["family"], payload["hyperparameters"])
        names = payload["feature_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise ValueError("feature_names is not a list of distinct strings")
        d = len(names)
        std = payload["standardization"]
        standardization = None
        if std is not None:
            if not (isinstance(std, dict) and std.keys() == {"mean", "std"}
                    and is_vector(std["mean"], d) and is_vector(std["std"], d)
                    and all(s > 0.0 for s in std["std"])):
                raise ValueError("standardization is neither null nor a mean "
                                 f"and a positive std of {d} finite numbers")
            standardization = (np.asarray(std["mean"], dtype=np.float64),
                               np.asarray(std["std"], dtype=np.float64))
        parameters = payload["parameters"]
        if not isinstance(parameters, dict):
            raise TypeError("parameters is not a JSON object")
        _RECORDS[spec.family].check(parameters, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(f"model file {path} is invalid: {exc}") from exc
    return TrainedClassifier(spec=spec, feature_names=tuple(names),
                             standardization=standardization,
                             parameters=parameters)
