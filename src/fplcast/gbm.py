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
within a fit, so each feature is sorted once per fit (a stable sort) and
every leaf keeps its rows in each feature's order: the exact greedy
search over presorted columns of XGBoost (Chen & Guestrin 2016). A leaf
searches all features in one array pass. Ties break to the lowest
feature index, then the lowest threshold.

Shapley values are exact and computed by leaf paths: each tree is a set
of leaves, each with one interval per feature, and each (leaf, background
row) pair is a game with a closed-form value. The cost is
O(trees x leaves x background rows x features).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GbmHyperparams",
    "TreeNode",
    "RegressionTree",
    "GbmModel",
    "SplitImportance",
    "ShapleyResult",
    "fit_gbm",
    "predict_gbm",
    "predict_gbm_batch",
    "split_importance",
    "shapley_values",
    "structural_violations",
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
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.lambda_l2 < 0:
            raise ValueError("lambda_l2 must be >= 0")
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be >= 1")
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
        self._eval(0, np.arange(X.shape[0]), X, out)
        return out

    def _eval(self, node_id: int, idx: np.ndarray, X: np.ndarray, out: np.ndarray):
        node = self.nodes[node_id]
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = X[idx, node.feature] <= node.threshold
        self._eval(node.left, idx[go_left], X, out)
        self._eval(node.right, idx[~go_left], X, out)


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


def _best_split(X, r, leaf, hp: GbmHyperparams):
    """Best (gain, feature, threshold, left_idx, right_idx) for one leaf.

    `leaf` is (idx, order, sorted_vals): the leaf's rows ascending, and
    per feature the same rows in sort order with their values, as
    (features x rows) arrays. Every feature is searched at once. Ties
    break to the lowest feature index, then the lowest threshold (first
    maximum in the ascending threshold scan). Returns None when no split
    has positive gain under the min-leaf constraint.
    """
    idx, order, sorted_vals = leaf
    n = idx.size
    m = hp.min_data_in_leaf
    if n < 2 * m or order.shape[0] == 0:
        return None
    total = float(r[idx].sum())
    parent_score = _score(total, n, hp.lambda_l2)
    # Column j splits the sorted rows after j; only j in [m-1, n-m-1]
    # leaves at least m rows on each side.
    sum_left = np.cumsum(r[order[:, : n - m]], axis=1)[:, m - 1 :]
    sum_right = total - sum_left
    n_left = np.arange(m, n - m + 1)
    n_right = n - n_left
    gains = (
        parent_score
        + sum_left**2 / (n_left + hp.lambda_l2)
        + sum_right**2 / (n_right + hp.lambda_l2)
    )
    # No threshold falls between equal values.
    gains[sorted_vals[:, m - 1 : n - m] == sorted_vals[:, m : n - m + 1]] = -np.inf
    cols = np.argmax(gains, axis=1)  # first max -> lowest threshold
    feature_gains = gains[np.arange(gains.shape[0]), cols]
    f = int(np.argmax(feature_gains))  # first max -> lowest feature
    if not feature_gains[f] > 0:
        return None
    b = m - 1 + int(cols[f])
    threshold = float((sorted_vals[f, b] + sorted_vals[f, b + 1]) / 2.0)
    go_left = X[idx, f] <= threshold
    return float(feature_gains[f]), f, threshold, idx[go_left], idx[~go_left]


def _divide(leaf, left_idx, right_idx, n_rows: int):
    """The two children of a split leaf, each feature's sort order kept."""
    _, order, sorted_vals = leaf
    goes_left = np.zeros(n_rows, dtype=bool)
    goes_left[left_idx] = True
    mask = goes_left[order]
    n_features = order.shape[0]
    return tuple(
        (side_idx, order[side].reshape(n_features, -1),
         sorted_vals[side].reshape(n_features, -1))
        for side_idx, side in ((left_idx, mask), (right_idx, ~mask))
    )


def _grow_tree(X, r, order, sorted_vals, hp: GbmHyperparams) -> RegressionTree:
    n = X.shape[0]
    lam = hp.lambda_l2
    root = (np.arange(n), order, sorted_vals)
    tree = RegressionTree()
    tree.nodes.append(
        TreeNode(value=_leaf_value(float(r.sum()), n, lam), n_samples=n, depth=0)
    )
    # Every leaf with its rows and its precomputed best split (None when
    # it cannot be expanded). Leaves at max_depth are never searched, so
    # their rows are not divided out of the parent's arrays either.
    leaves = {0: (root, _best_split(X, r, root, hp))}

    n_leaves = 1
    while n_leaves < hp.num_leaves:
        chosen_id, chosen = None, None
        for node_id in sorted(leaves):  # creation order breaks leaf ties
            cand = leaves[node_id][1]
            if cand is not None and (chosen is None or cand[0] > chosen[0]):
                chosen_id, chosen = node_id, cand
        if chosen is None:
            break
        gain, feat, threshold, left_idx, right_idx = chosen
        parent = tree.nodes[chosen_id]
        child_depth = parent.depth + 1
        for side_idx in (left_idx, right_idx):
            tree.nodes.append(
                TreeNode(
                    value=_leaf_value(float(r[side_idx].sum()), side_idx.size, lam),
                    n_samples=side_idx.size,
                    depth=child_depth,
                )
            )
        parent.feature = feat
        parent.threshold = threshold
        parent.left = len(tree.nodes) - 2
        parent.right = len(tree.nodes) - 1
        tree.split_gains.append(gain)

        leaf, _ = leaves.pop(chosen_id)
        if child_depth < hp.max_depth:
            left, right = _divide(leaf, left_idx, right_idx, n)
            leaves[parent.left] = (left, _best_split(X, r, left, hp))
            leaves[parent.right] = (right, _best_split(X, r, right, hp))
        else:
            leaves[parent.left] = leaves[parent.right] = (None, None)
        n_leaves += 1
    return tree


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
    if X.shape[0] < 2 * hp.min_data_in_leaf:
        warnings.warn(
            f"only {X.shape[0]} examples with min_data_in_leaf="
            f"{hp.min_data_in_leaf}: no split is possible and the model "
            "degenerates to its base score",
            stacklevel=2,
        )

    # X is fixed within a fit: sort each feature once, as (features x rows).
    order = np.argsort(X, axis=0, kind="stable").T
    sorted_vals = np.take_along_axis(X.T, order, axis=1)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    trees: list[RegressionTree] = []
    for _ in range(hp.n_trees):
        residual = y - pred
        tree = _grow_tree(X, residual, order, sorted_vals, hp)
        trees.append(tree)
        pred += hp.eta * tree.predict_batch(X)
    return GbmModel(
        base_score=base,
        trees=trees,
        eta=hp.eta,
        hyperparams=hp,
        n_features=X.shape[1],
        feature_names=feature_names,
    )


def predict_gbm(model: GbmModel, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {x.shape[-1]}")
    return float(predict_gbm_batch(model, x.reshape(1, -1))[0])


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
    (lo, hi] on each. A left child caps hi at the threshold, a right child
    raises lo to it: a contradictory path's interval holds no row."""
    used = sorted({n.feature for n in tree.nodes if not n.is_leaf})
    column = {f: c for c, f in enumerate(used)}
    leaves = []
    stack = [(0, np.full(len(used), -np.inf), np.full(len(used), np.inf))]
    while stack:
        node_id, lo, hi = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            leaves.append((node.value, lo, hi))
            continue
        c = column[node.feature]
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[c], right_lo[c] = min(hi[c], node.threshold), max(lo[c], node.threshold)
        stack += [(node.right, right_lo, hi), (node.left, lo, left_hi)]
    values, lows, highs = zip(*leaves)
    return np.array(used, np.intp), np.array(values), np.array(lows), np.array(highs)


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
    # weight[a, b] = (a-1)! b! / (a+b)!, rounded once; a + b <= k always.
    k = max((used.size for used, *_ in boxes), default=0)
    weight = np.array([[1 / (a * math.comb(a + b, b)) if a else 0.0
                        for b in range(k + 1)] for a in range(k + 1)])
    phi = np.zeros(m, dtype=np.float64)
    base_value = model.base_score
    for used, values, lo, hi in boxes:
        x_in = (lo < x[used]) & (x[used] <= hi)  # leaves x features
        z = bg[:, None, used]
        z_in = (lo < z) & (z <= hi)  # background rows x leaves x features
        x_only, z_only = x_in & ~z_in, z_in & ~x_in
        reach = (x_in | z_in).all(axis=2)
        a, b = x_only.sum(axis=2), z_only.sum(axis=2)
        # With a = 0, each background row reaches exactly one leaf: its own.
        base_value += model.eta * np.where(reach & (a == 0), values, 0.0).sum(axis=1).mean()
        v = np.where(reach, values, 0.0) * (model.eta / bg.shape[0])
        phi[used] += np.einsum("nl,nlf->f", v * weight[a, b], x_only)
        phi[used] -= np.einsum("nl,nlf->f", v * weight[b, a], z_only)
    return ShapleyResult(phi=phi, base_value=float(base_value))


def structural_violations(model: GbmModel) -> list[str]:
    """Walk every tree, reporting any violated growth constraint.

    Checks depth, leaf count, minimum leaf population (single-node trees
    exempt: an unsplittable root holds the whole dataset), positive
    recorded gains, and child-link consistency.
    """
    hp = model.hyperparams
    problems = []
    for t, tree in enumerate(model.trees):
        leaves = [n for n in tree.nodes if n.is_leaf]
        if not leaves:
            problems.append(f"tree {t}: no leaves")
        if len(leaves) > hp.num_leaves:
            problems.append(f"tree {t}: {len(leaves)} leaves > {hp.num_leaves}")
        for i, node in enumerate(tree.nodes):
            if node.depth > hp.max_depth:
                problems.append(f"tree {t} node {i}: depth {node.depth}")
            if node.is_leaf:
                if len(tree.nodes) > 1 and node.n_samples < hp.min_data_in_leaf:
                    problems.append(
                        f"tree {t} node {i}: leaf population {node.n_samples}"
                        f" < {hp.min_data_in_leaf}"
                    )
            else:
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                if left.n_samples + right.n_samples != node.n_samples:
                    problems.append(f"tree {t} node {i}: child populations")
                if left.depth != node.depth + 1 or right.depth != node.depth + 1:
                    problems.append(f"tree {t} node {i}: child depths")
        if len(tree.split_gains) != len(tree.nodes) - len(leaves):
            problems.append(f"tree {t}: gain trace length mismatch")
        for g, gain in enumerate(tree.split_gains):
            if gain <= 0:
                problems.append(f"tree {t} split {g}: non-positive gain {gain}")
    return problems
