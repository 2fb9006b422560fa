"""The tree format, and the fitters and predictors of the three tree
families: the decision tree, the random forest and gradient boosting.

A tree is a nested dict. Every node holds a bool leaf; a split node holds
its feature, threshold, left and right. A classification tree's nodes hold
their rows n and class-1 rows ones, and a boosting tree's leaves their
value. Model files store the dicts as they are.

The ensembles draw seeded bootstraps and feature subsets. All three tree
families come from one grower, _grow_trees, which grows many trees
together: each round scores the cuts of one node from every tree at once,
by entropy gain for the classification trees and by squared error or
Friedman's improvement for boosting's regression trees. It grows a forest's
trees in blocks, and the trees of every training set handed to fit_many at
once (a K-fold's folds): the decision trees of one share group in one call,
boosting's stage t of every set in one call.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from ..features import SAFE_CODE, UNSAFE_CODE, class_heads
from ..inputs import is_number


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
    every round. In a fresh process (2-vCPU x86-64 Linux, glibc 2.36), a
    warm 10-fold boosting K-fold on 300 generated roads took 231k-398k minor
    faults and 1.2-1.9 s without this call, against 4-25 faults and 0.9-1.1
    s after it; on 100 roads, 136k-142k faults against 5-27. The block's
    pages are never touched, and other allocators just free it."""
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
    squared error of g, and every valid cut competes on every feature.
    sums is unused: each candidate's running sum gives its own node total;
    so is features: only the forest draws them, through _best_gain_cuts.

    A flat running sum over nodes next to each other is exact only for
    integers, so the nodes are scored as one padded (candidates, nodes,
    widest node) block: a node's rows, then zeros, which leave its running
    sums as a sum over its rows alone gives them."""
    m, width = len(size), int(size.max())
    c = np.arange(width)
    cols = lo[:, None] + np.minimum(c, size[:, None] - 1)
    feature = np.arange(len(Xt))[:, None, None]
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
    return _picks(m, node, r, _threshold(xs.take(cut), xs.take(cut + 1)),
                  col + 1, cum.take(cut))


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
# the tree families' fitters and predictors

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
