"""Leaf-wise gradient-boosted regression trees for squared loss.

Each boosting round fits a tree to the current residuals (the negative
gradient of squared loss). Trees grow best-first: the leaf with the
largest split gain anywhere in the tree is expanded next, under joint
constraints on depth, leaf count, and minimum leaf population.

Split scoring uses score(S) = -(sum r)^2 / (|S| + lambda_l2) with
gain = score(parent) - score(left) - score(right), and leaf values
sum(r) / (|S| + lambda_l2). Candidate thresholds are midpoints between
consecutive distinct sorted feature values (exact enumeration; the data
here is small enough that histogram binning buys nothing). X is fixed
within a fit, so each feature is sorted once per fit (a stable sort), a
column constant over the fit's rows is dropped, and every leaf keeps its
rows in each other feature's order: the exact greedy search over
presorted columns of XGBoost (Chen & Guestrin 2016). A leaf scores only
the boundaries between distinct values, of all features at once; one
argmax in (feature, position) order breaks ties to the lowest feature,
then the lowest threshold. Each leaf finds those boundaries once, when it
is made, as flat positions into its (features x rows) prefix sums; a
round only gathers the residuals, sums and scores them.

Because X is fixed, a split path from the root (one feature, threshold
and side per level) always leads to the same rows, and later trees often
repeat an earlier tree's upper splits. So a fit keeps the leaves it has
made, keyed by path, and a tree that takes a known path reuses the leaf
instead of dividing its parent again. The root lives for the whole fit;
any other leaf is dropped once 4 trees in a row have not used it, since
with no bound the kept leaves grow with every tree (a fit of 200 trees
held about 3x the memory of one of 50). Each round adds eta times each
leaf's value to the predictions of the rows it holds, without re-walking
the tree.

Shapley values are exact and computed by leaf paths: each tree is a set
of leaves, each with one interval per feature, and each (leaf, background
row) pair is a game with a closed-form value. The cost is
O(trees x leaves x background rows x features). Trees with the same leaf
count and number of features split on form a group, evaluated at once on
(trees, background rows, leaves, features) arrays, so the number of numpy
calls grows with the groups, not the trees; each tree's terms are then
summed in tree order, as a loop over trees would sum them.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GbmHyperparams",
    "TreeNode",
    "RegressionTree",
    "GbmModel",
    "SplitImportance",
    "ShapleyResult",
    "fit_gbm",
    "predict_gbm_batch",
    "split_importance",
    "shapley_values",
]

@dataclass
class GbmHyperparams:
    n_trees: int = 50
    max_depth: int = 3
    lambda_l2: float = 10.0
    num_leaves: int = 7
    min_data_in_leaf: int = 70
    eta: float = 0.1

    def __post_init__(self):
        for name, low in (("n_trees", 0), ("max_depth", 1), ("num_leaves", 2),
                          ("min_data_in_leaf", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0 <= self.lambda_l2 <= sys.float_info.max:
            raise ValueError("lambda_l2 must be finite and >= 0")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1)."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    n_samples: int = 0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class RegressionTree:
    nodes: list[TreeNode] = field(default_factory=list)
    split_gains: list[float] = field(default_factory=list)

    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        # (node, the rows that reach it); a stack, so no depth is too deep.
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                out[idx] = node.value
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack += [(node.right, idx[~go_left]), (node.left, idx[go_left])]
        return out


@dataclass
class GbmModel:
    base_score: float
    trees: list[RegressionTree]
    eta: float
    hyperparams: GbmHyperparams
    n_features: int
    feature_names: list[str] | None = None


@dataclass
class SplitImportance:
    """How often each feature is chosen to split, over all trees."""

    counts: np.ndarray
    percentages: np.ndarray
    feature_names: list[str] | None = None


@dataclass
class ShapleyResult:
    phi: np.ndarray
    base_value: float


def _leaf_value(residual_sum: float, count: int, lam: float) -> float:
    return residual_sum / (count + lam)


def _score(residual_sum: float, count: int, lam: float) -> float:
    return -(residual_sum * residual_sum) / (count + lam)


# A leaf other than the root leaves the memo once this many trees in a
# row have not used it.
_MEMO_TREES = 4


class _Leaf(NamedTuple):
    """A leaf's rows ascending and, when it has a scorable boundary, what
    its split search needs: per live feature the same rows in sort order
    and their values, as (features x rows) arrays; the boundaries as flat
    positions into the (features x n-m) prefix sums; and the score
    denominators (rows + lambda_l2) left and right of each."""

    idx: np.ndarray
    order: np.ndarray | None = None
    sorted_vals: np.ndarray | None = None
    pos: np.ndarray | None = None
    den_left: np.ndarray | None = None
    den_right: np.ndarray | None = None


def _make_leaf(idx, order, sorted_vals, hp: GbmHyperparams) -> _Leaf:
    """The leaf of rows `idx` (sorted as `order`), with its boundaries."""
    n, m = idx.size, hp.min_data_in_leaf
    if n < 2 * m:
        return _Leaf(idx)
    # Position b splits the sorted rows after b; only b in [m-1, n-m-1]
    # leaves m rows each side, and no threshold falls between equal values.
    scorable = sorted_vals[:, : n - m] != sorted_vals[:, 1 : n - m + 1]
    scorable[:, : m - 1] = False
    pos = np.flatnonzero(scorable)
    if pos.size == 0:
        return _Leaf(idx)
    n_left = pos % (n - m) + 1
    return _Leaf(idx, order, sorted_vals, pos, n_left + hp.lambda_l2,
                 (n - n_left) + hp.lambda_l2)


def _best_split(r, leaf: _Leaf, total: float, hp: GbmHyperparams):
    """Best (gain, i, threshold) for one leaf whose residuals sum to
    `total`, splitting its i-th live feature; the first maximum in
    (feature, position) order wins. None when the leaf has no boundary or
    no gain is positive."""
    if leaf.pos is None:
        return None
    n = leaf.idx.size
    width = n - hp.min_data_in_leaf
    parent_score = _score(total, n, hp.lambda_l2)
    sum_left = np.cumsum(r.take(leaf.order[:, :width]), axis=1).take(leaf.pos)
    gains = parent_score + sum_left**2 / leaf.den_left + (total - sum_left) ** 2 / leaf.den_right
    k = int(np.argmax(gains))  # first max -> lowest feature, then threshold
    if not gains[k] > 0:
        return None
    i, j = divmod(int(leaf.pos[k]), width)
    return float(gains[k]), i, float((leaf.sorted_vals[i, j] + leaf.sorted_vals[i, j + 1]) / 2.0)


def _divide(leaf: _Leaf, sides, goes_left, hp: GbmHyperparams):
    """The two children of a split leaf, each feature's sort order kept;
    `goes_left` is a scratch mask over X's rows, all False before and after."""
    goes_left[sides[0]] = True
    mask = goes_left.take(leaf.order.ravel())
    goes_left[sides[0]] = False
    n_features = leaf.order.shape[0]
    return [
        _make_leaf(side_idx, leaf.order.ravel().compress(side).reshape(n_features, -1),
                   leaf.sorted_vals.ravel().compress(side).reshape(n_features, -1), hp)
        if side_idx.size >= 2 * hp.min_data_in_leaf else _Leaf(side_idx)
        for side_idx, side in zip(sides, (mask, ~mask))
    ]


def _children(Xt, path, leaf: _Leaf, feature, threshold, searched, memo, t,
              goes_left, hp: GbmHyperparams):
    """The (path, leaf) of both children of `leaf` split at (feature,
    threshold): from the memo when an earlier tree made them, else divided
    out of `leaf` (holding only their rows when they are never `searched`)."""
    paths = [path + ((feature, threshold, side),) for side in (True, False)]
    if paths[0] not in memo:
        go_left = Xt[feature].take(leaf.idx) <= threshold
        sides = leaf.idx.compress(go_left), leaf.idx.compress(~go_left)
        kids = _divide(leaf, sides, goes_left, hp) if searched else map(_Leaf, sides)
        memo.update((p, [t, kid]) for p, kid in zip(paths, kids))
    for p in paths:
        memo[p][0] = t
    return [(p, memo[p][1]) for p in paths]


def _grow_tree(Xt, r, root, live, memo, t, goes_left, hp: GbmHyperparams):
    """Tree `t`, fit to residuals `r`, and each of its leaves' rows."""
    n = root.idx.size
    lam = hp.lambda_l2
    tree = RegressionTree()
    total = float(r.sum())
    tree.nodes.append(TreeNode(value=_leaf_value(total, n, lam), n_samples=n, depth=0))
    # Every leaf with its split path, its rows and its best split (None
    # when it cannot be expanded). Leaves at max_depth are never searched,
    # so their rows are not divided out of the parent's arrays either.
    leaves = {0: ((), root, _best_split(r, root, total, hp))}

    n_leaves = 1
    while n_leaves < hp.num_leaves:
        chosen_id, chosen = None, None
        for node_id in sorted(leaves):  # creation order breaks leaf ties
            cand = leaves[node_id][2]
            if cand is not None and (chosen is None or cand[0] > chosen[0]):
                chosen_id, chosen = node_id, cand
        if chosen is None:
            break
        gain, i, threshold = chosen
        parent = tree.nodes[chosen_id]
        parent.feature = int(live[i])
        parent.threshold = threshold
        tree.split_gains.append(gain)
        child_depth = parent.depth + 1
        path, leaf, _ = leaves.pop(chosen_id)
        for child_path, child in _children(Xt, path, leaf, parent.feature, threshold,
                                           child_depth < hp.max_depth, memo, t,
                                           goes_left, hp):
            total = float(r.take(child.idx).sum())
            tree.nodes.append(
                TreeNode(
                    value=_leaf_value(total, child.idx.size, lam),
                    n_samples=child.idx.size,
                    depth=child_depth,
                )
            )
            leaves[len(tree.nodes) - 1] = (child_path, child, _best_split(r, child, total, hp))
        parent.left = len(tree.nodes) - 2
        parent.right = len(tree.nodes) - 1
        n_leaves += 1
    return tree, {node_id: leaf.idx for node_id, (_, leaf, _) in leaves.items()}


def fit_gbm(x_list, y_list, hp: GbmHyperparams | None = None,
            feature_names: list[str] | None = None) -> GbmModel:
    """Boosted ensemble: base score plus eta-shrunk residual trees."""
    if hp is None:
        hp = GbmHyperparams()
    X = np.asarray(x_list, dtype=np.float64)
    y = np.asarray(y_list, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty 2-dimensional design matrix")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {y.shape[0]} targets")
    if not np.isfinite(X).all():
        raise ValueError("design matrix must be finite")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")

    # X is fixed within a fit: sort each feature once, as (features x rows).
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(X, axis=0, kind="stable").T
    sorted_vals = np.take_along_axis(Xt, order, axis=1)
    live = np.flatnonzero(sorted_vals[:, 0] != sorted_vals[:, -1])  # can split
    too_few = X.shape[0] < 2 * hp.min_data_in_leaf
    if too_few or live.size == 0:
        reason = (f"only {X.shape[0]} examples with min_data_in_leaf="
                  f"{hp.min_data_in_leaf}" if too_few else "every feature is constant")
        warnings.warn(f"{reason}: no split is possible and the model degenerates"
                      " to its base score", stacklevel=2)
    root = _make_leaf(np.arange(X.shape[0]), order[live], sorted_vals[live], hp)
    # Split path -> [last tree that used it, leaf]. X is fixed, so a path
    # always leads to the same rows; the root is kept apart for the fit.
    memo: dict[tuple, list] = {}
    goes_left = np.zeros(X.shape[0], dtype=bool)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    trees: list[RegressionTree] = []
    for t in range(hp.n_trees):
        tree, leaf_rows = _grow_tree(Xt, y - pred, root, live, memo, t, goes_left, hp)
        trees.append(tree)
        for node_id, rows in leaf_rows.items():
            pred[rows] += hp.eta * tree.nodes[node_id].value
        for path in [p for p, (used, _) in memo.items() if used <= t - _MEMO_TREES]:
            del memo[path]
    return GbmModel(
        base_score=base,
        trees=trees,
        eta=hp.eta,
        hyperparams=hp,
        n_features=X.shape[1],
        feature_names=feature_names,
    )


def predict_gbm_batch(model: GbmModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.eta * tree.predict_batch(X)
    return out


def split_importance(model: GbmModel) -> SplitImportance:
    """Split counts per feature and their share of all splits."""
    counts = np.zeros(model.n_features, dtype=np.int64)
    for tree in model.trees:
        for node in tree.nodes:
            if not node.is_leaf:
                counts[node.feature] += 1
    total = counts.sum()
    percentages = (
        counts / total * 100.0 if total > 0 else np.zeros(model.n_features)
    )
    return SplitImportance(
        counts=counts, percentages=percentages, feature_names=model.feature_names
    )


def _leaf_boxes(tree: RegressionTree):
    """The features `tree` splits on, and each leaf's value and interval
    (lo, hi] on each, as lists. A left child caps hi at the threshold, a
    right child raises lo to it: a contradictory path's interval holds no
    row."""
    used = sorted({n.feature for n in tree.nodes if not n.is_leaf})
    column = {f: c for c, f in enumerate(used)}
    values, bounds = [], []
    stack = [(0, [-math.inf] * len(used), [math.inf] * len(used))]
    while stack:
        node_id, lo, hi = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            values.append(node.value)
            bounds.append((lo, hi))
            continue
        c = column[node.feature]
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[c], right_lo[c] = min(hi[c], node.threshold), max(lo[c], node.threshold)
        stack += [(node.right, right_lo, hi), (node.left, lo, left_hi)]
    return used, values, bounds


# A group is evaluated in blocks of at most this many (tree, background
# row, leaf, feature) membership tests, so memory does not grow with the
# number of trees.
_BLOCK = 1 << 20


def shapley_values(model: GbmModel, x, background) -> ShapleyResult:
    """Exact interventional Shapley attribution, computed by leaf paths.

    v(S) is the mean model output over background rows with the features
    in S taken from x. The game is linear, so phi sums one game per tree,
    leaf and background row z: the hybrid row reaches the leaf iff every
    feature lies in the leaf's interval at x or at z. With a features that
    only x satisfies and b that only z satisfies, each x-only feature gains
    v (a-1)! b! / (a+b)!, each z-only feature loses v a! (b-1)! / (a+b)!,
    and v(empty set) holds the leaf when a = 0 (interventional TreeSHAP,
    Lundberg et al. 2020). Cost: O(trees x leaves x background x features).

    Trees with the same leaf count and number of features split on form a
    group, whose leaf boxes stack into (trees, leaves, features) arrays, so
    each step runs once per group rather than once per tree. Each tree's
    base term and phi contributions are then added in tree order, so every
    sum runs in the same order as a tree-at-a-time loop.
    """
    x = np.asarray(x, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    m = x.shape[0]
    if m != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {m}")
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-dimensional array")
    if bg.shape[1] != m:
        raise ValueError("background feature count must match x")
    if not (np.isfinite(x).all() and np.isfinite(bg).all()):
        raise ValueError("x and background must be finite")  # (lo, hi] misplaces -inf, NaN

    boxes = [_leaf_boxes(tree) for tree in model.trees]
    groups: dict[tuple[int, int], list[int]] = {}
    for t, (used, values, _) in enumerate(boxes):
        groups.setdefault((len(values), len(used)), []).append(t)
    # weight[a, b] = (a-1)! b! / (a+b)!, rounded once; a + b <= k always.
    k = max((k for _, k in groups), default=0)
    weight = np.array([[1 / (a * math.comb(a + b, b)) if a else 0.0
                        for b in range(k + 1)] for a in range(k + 1)])
    n = bg.shape[0]
    terms = [None] * len(boxes)  # per tree: used, base term, phi gains, phi losses
    for (n_leaves, n_used), members in groups.items():
        step = max(1, _BLOCK // (n * n_leaves * max(n_used, 1)))
        for start in range(0, len(members), step):
            block = members[start:start + step]
            used = np.array([boxes[t][0] for t in block], np.intp)
            values = np.array([boxes[t][1] for t in block], np.float64)[:, None]
            bounds = np.array([boxes[t][2] for t in block], np.float64)
            lo, hi = bounds[:, None, :, 0], bounds[:, None, :, 1]
            xu = x[used][:, None, None]
            x_in = (lo < xu) & (xu <= hi)  # trees x 1 x leaves x features
            z = bg[:, used].transpose(1, 0, 2)[:, :, None]
            z_in = (lo < z) & (z <= hi)  # trees x background rows x leaves x features
            x_only, z_only = x_in & ~z_in, z_in & ~x_in
            reach = (x_in | z_in).all(axis=3)
            a, b = x_only.sum(axis=3), z_only.sum(axis=3)
            # With a = 0, each background row reaches exactly one leaf: its own.
            base = np.where(reach & (a == 0), values, 0.0).sum(axis=2).mean(axis=1)
            v = np.where(reach, values, 0.0) * (model.eta / n)
            gains = np.einsum("gnl,gnlf->gf", v * weight[a, b], x_only)
            losses = np.einsum("gnl,gnlf->gf", v * weight[b, a], z_only)
            for i, t in enumerate(block):
                terms[t] = used[i], base[i], gains[i], losses[i]
    phi = np.zeros(m, dtype=np.float64)
    base_value = model.base_score
    for used, base, gains, losses in terms:
        base_value += model.eta * base
        phi[used] += gains
        phi[used] -= losses
    return ShapleyResult(phi=phi, base_value=float(base_value))
