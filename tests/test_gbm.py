import itertools
import math
import tracemalloc
import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplcast import gbm
from fplcast.dataset import FeatureTier, Players, generate_synthetic_season
from fplcast.gbm import (
    GbmHyperparams,
    GbmModel,
    RegressionTree,
    TreeNode,
    fit_gbm,
    predict_gbm_batch,
    shapley_values,
    split_importance,
    _leaf_value,
    _score,
)
from fplcast.harness import sliding_design
from fplcast.ingest import Position
from fplcast.serialize import ModelContext, read_gbm, write_gbm

from conftest import structural_violations

TOY_HP = dict(n_trees=1, max_depth=3, num_leaves=2, min_data_in_leaf=1, eta=1.0)


def toy_model(lambda_l2=0.0):
    hp = GbmHyperparams(lambda_l2=lambda_l2, **TOY_HP)
    return fit_gbm([[0.0], [0.0], [1.0], [1.0]], [0.0, 0.0, 10.0, 10.0], hp)


def best_root_gain_oracle(X, y, lam):
    """Exhaustive gain over every (feature, midpoint threshold) at the root
    of the first tree (residuals = y - mean)."""
    r = np.asarray(y, dtype=float) - np.mean(y)
    X = np.asarray(X, dtype=float)
    n = len(r)

    def score(resid):
        return -(resid.sum() ** 2) / (len(resid) + lam)

    best = -np.inf
    for f in range(X.shape[1]):
        for t in np.unique(X[:, f])[:-1]:
            uniq = np.unique(X[:, f])
            nxt = uniq[np.searchsorted(uniq, t) + 1]
            threshold = (t + nxt) / 2
            left = r[X[:, f] <= threshold]
            right = r[X[:, f] > threshold]
            if len(left) == 0 or len(right) == 0:
                continue
            best = max(best, score(r) - score(left) - score(right))
    return best


class TestFitGbm:
    def test_toy_reproduces_targets_exactly(self):
        model = toy_model(lambda_l2=0.0)
        assert model.base_score == 5.0
        preds = predict_gbm_batch(model, [[0.0], [0.0], [1.0], [1.0]])
        assert list(preds) == [0.0, 0.0, 10.0, 10.0]
        [tree] = model.trees
        leaf_values = sorted(n.value for n in tree.nodes if n.is_leaf)
        assert leaf_values == [-5.0, 5.0]

    def test_toy_with_l2_shrinks_leaves(self):
        model = toy_model(lambda_l2=2.0)
        # Leaf value sum(r)/(|S| + lam) = +-10/4 = +-2.5.
        preds = predict_gbm_batch(model, [[0.0], [0.0], [1.0], [1.0]])
        np.testing.assert_allclose(preds, [2.5, 2.5, 7.5, 7.5])

    def test_zero_trees_predicts_mean(self):
        hp = GbmHyperparams(n_trees=0, min_data_in_leaf=1)
        model = fit_gbm([[1.0], [2.0], [3.0]], [1.0, 5.0, 9.0], hp)
        assert predict_gbm_batch(model, [[7.0]])[0] == 5.0

    def test_first_split_gain_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X = rng.normal(size=(25, 3))
            y = rng.normal(size=25)
            hp = GbmHyperparams(
                n_trees=1, max_depth=1, num_leaves=2, min_data_in_leaf=1,
                lambda_l2=float(rng.choice([0.0, 1.0, 10.0])), eta=1.0,
            )
            model = fit_gbm(X, y, hp)
            [tree] = model.trees
            if not tree.split_gains:
                continue
            oracle = best_root_gain_oracle(X, y, hp.lambda_l2)
            assert tree.split_gains[0] == pytest.approx(oracle, rel=1e-12)

    def test_leaf_wise_expands_highest_gain_leaf(self):
        # After the root split, the right group {0, 10, 0, 10}-ish has far
        # more to gain than the near-constant left group; best-first growth
        # must therefore split the right child while the left stays a leaf.
        X = np.array([[0.0], [0.5], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([1.0, 1.1, 0.0, 10.0, 0.0, 10.0])
        hp = GbmHyperparams(
            n_trees=1, max_depth=5, num_leaves=3, min_data_in_leaf=1,
            lambda_l2=0.0, eta=1.0,
        )
        [tree] = fit_gbm(X, y, hp).trees
        root = tree.nodes[0]
        assert not root.is_leaf
        assert tree.nodes[root.left].is_leaf
        assert not tree.nodes[root.right].is_leaf
        assert tree.split_gains[0] >= tree.split_gains[1]

    def test_training_mse_non_increasing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = X[:, 0] * 3 + rng.normal(size=200)
        hp = GbmHyperparams(n_trees=50, min_data_in_leaf=5, lambda_l2=1.0, eta=0.3)
        model = fit_gbm(X, y, hp)
        pred = np.full(len(y), model.base_score)
        last = float(np.mean((y - pred) ** 2))
        for tree in model.trees:
            pred += model.eta * tree.predict_batch(X)
            current = float(np.mean((y - pred) ** 2))
            assert current <= last + 1e-12
            last = current

    def test_structural_constraints_hold_at_defaults(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(500, 5))
        y = X[:, 1] - 2 * X[:, 3] + rng.normal(size=500)
        model = fit_gbm(X, y, GbmHyperparams())
        assert structural_violations(model) == []
        assert any(len(t.split_gains) > 0 for t in model.trees)

    def test_structural_constraints_hold_under_random_hyperparams(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(30, 200))
            X = rng.normal(size=(n, int(rng.integers(1, 5))))
            y = rng.normal(size=n) * rng.uniform(0.5, 5)
            hp = GbmHyperparams(
                n_trees=int(rng.integers(1, 8)),
                max_depth=int(rng.integers(1, 5)),
                lambda_l2=float(rng.choice([0.0, 1.0, 10.0])),
                num_leaves=int(rng.integers(2, 9)),
                min_data_in_leaf=int(rng.integers(1, 21)),
                eta=float(rng.uniform(0.05, 1.0)),
            )
            model = fit_gbm(X, y, hp)
            assert structural_violations(model) == []

    def test_degenerate_small_data_warns_and_predicts_base(self):
        hp = GbmHyperparams()  # min_data_in_leaf 70 >> 6 rows
        with pytest.warns(UserWarning, match="base score"):
            model = fit_gbm(np.zeros((6, 2)), np.arange(6.0), hp)
        assert predict_gbm_batch(model, [[0.0, 0.0]])[0] == pytest.approx(2.5)

    @pytest.mark.parametrize("n, m, reason", [
        (8, 1, "every feature is constant"),
        (6, 70, "only 6 examples with min_data_in_leaf=70"),  # and constant
    ])
    def test_constant_design_warns_once_and_predicts_base(self, n, m, reason):
        X = np.column_stack([np.full(n, 2.0), [-0.0, 0.0] * (n // 2)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_gbm(X, np.arange(float(n)), GbmHyperparams(min_data_in_leaf=m))
        assert [str(w.message) for w in caught] == [
            f"{reason}: no split is possible and the model degenerates to its base score"
        ]
        assert all(len(t.nodes) == 1 for t in model.trees)
        assert predict_gbm_batch(model, [[5.0, 1.0]])[0] == pytest.approx((n - 1) / 2)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, pytest.param(10**400, id="int_too_large_for_a_float")])
    def test_rejects_non_finite_or_negative_lambda_l2(self, lam):
        with pytest.raises(ValueError, match="lambda_l2"):
            GbmHyperparams(lambda_l2=lam)

    @pytest.mark.parametrize("name", ["n_trees", "max_depth", "num_leaves",
                                      "min_data_in_leaf"])
    @pytest.mark.parametrize("value", [np.nan, 2.5, 3.0, True, np.float64(3)])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GbmHyperparams(**{name: value})

    @pytest.mark.parametrize("kind", [int, np.int32, np.int64])
    def test_accepts_python_and_numpy_integer_counts(self, kind):
        hp = GbmHyperparams(n_trees=kind(2), max_depth=kind(2), num_leaves=kind(3),
                            min_data_in_leaf=kind(1))
        model = fit_gbm(np.arange(8.0).reshape(4, 2), np.arange(4.0), hp)
        assert len(model.trees) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_gbm(np.zeros((0, 2)), np.zeros(0), GbmHyperparams())
        with pytest.raises(ValueError):
            fit_gbm([[0.0]], [np.nan], GbmHyperparams(min_data_in_leaf=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_design(self, bad):
        X = np.arange(8.0).reshape(4, 2)
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_gbm(X, np.arange(4.0), GbmHyperparams(min_data_in_leaf=1))


def season_design(seed, n_players, n_weeks):
    """The w3 full-tier design of a synthetic season's midfielders."""
    rows, strengths = generate_synthetic_season(seed=seed, n_players=n_players,
                                                n_weeks=n_weeks)
    mid = rows.take(rows.position == Position.MID)
    X, y = sliding_design(Players(mid, strengths).windows(3, FeatureTier.FULL))
    assert X.shape[1] == 19
    return X, y


# The exact split search as it stood before presorting: one stable argsort
# per feature per candidate leaf, one feature at a time. fit_gbm must grow
# the same trees, bit for bit.


def _best_split(X, r, idx, hp: GbmHyperparams):
    """Best (gain, feature, threshold, left_idx, right_idx) for one leaf.

    Ties break to the lowest feature index, then the lowest threshold
    (first maximum in the ascending threshold scan). Returns None when no
    split has positive gain under the min-leaf constraint.
    """
    n = idx.size
    if n < 2 * hp.min_data_in_leaf:
        return None
    total = float(r[idx].sum())
    parent_score = _score(total, n, hp.lambda_l2)
    best = None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum = np.cumsum(r[idx][order])
        boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundaries.size == 0:
            continue
        n_left = boundaries + 1
        n_right = n - n_left
        ok = (n_left >= hp.min_data_in_leaf) & (n_right >= hp.min_data_in_leaf)
        if not ok.any():
            continue
        boundaries = boundaries[ok]
        n_left = n_left[ok]
        n_right = n_right[ok]
        sum_left = cum[boundaries]
        sum_right = total - sum_left
        gains = (
            parent_score
            + sum_left**2 / (n_left + hp.lambda_l2)
            + sum_right**2 / (n_right + hp.lambda_l2)
        )
        k = int(np.argmax(gains))  # first max -> lowest threshold
        if gains[k] <= 0:
            continue
        if best is None or gains[k] > best[0]:
            threshold = float((sv[boundaries[k]] + sv[boundaries[k] + 1]) / 2.0)
            go_left = vals <= threshold
            best = (float(gains[k]), f, threshold, idx[go_left], idx[~go_left])
    return best


def _grow_tree(X, r, hp: GbmHyperparams) -> RegressionTree:
    n = X.shape[0]
    lam = hp.lambda_l2
    all_idx = np.arange(n)
    tree = RegressionTree()
    tree.nodes.append(
        TreeNode(value=_leaf_value(float(r.sum()), n, lam), n_samples=n, depth=0)
    )
    # Leaves eligible for expansion, each with its precomputed best split.
    leaf_rows: dict[int, np.ndarray] = {0: all_idx}
    candidates = {0: _best_split(X, r, all_idx, hp) if hp.max_depth > 0 else None}

    n_leaves = 1
    while n_leaves < hp.num_leaves:
        chosen_id, chosen = None, None
        for node_id in sorted(leaf_rows):  # creation order breaks leaf ties
            cand = candidates.get(node_id)
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

        del leaf_rows[chosen_id], candidates[chosen_id]
        for child_id, side_idx in (
            (parent.left, left_idx),
            (parent.right, right_idx),
        ):
            leaf_rows[child_id] = side_idx
            candidates[child_id] = (
                _best_split(X, r, side_idx, hp)
                if child_depth < hp.max_depth
                else None
            )
        n_leaves += 1
    return tree


def oracle_fit(X, y, hp: GbmHyperparams) -> tuple[float, list[RegressionTree]]:
    """fit_gbm's boosting loop over the per-leaf-argsort trees."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    trees = []
    for _ in range(hp.n_trees):
        tree = _grow_tree(X, y - pred, hp)
        trees.append(tree)
        pred += hp.eta * tree.predict_batch(X)
    return base, trees


def assert_same_model_file(model: GbmModel, base: float, trees: list[RegressionTree]):
    """The model file of `model` is that of the oracle's trees, gains and all."""
    ctx = ModelContext(w=3, tier="full", position="MID")
    oracle = GbmModel(base, trees, model.eta, model.hyperparams, model.n_features)
    assert write_gbm(model, ctx) == write_gbm(oracle, ctx)


def assert_same_trees(model: GbmModel, base: float, trees: list[RegressionTree]):
    assert model.base_score == base
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        assert got.split_gains == want.split_gains
        assert len(got.nodes) == len(want.nodes)
        for a, b in zip(got.nodes, want.nodes):
            assert (a.feature, a.threshold, a.left, a.right, a.value,
                    a.n_samples, a.depth) == (b.feature, b.threshold, b.left,
                                              b.right, b.value, b.n_samples,
                                              b.depth)


TENTHS = st.integers(-15, 15).map(lambda k: k / 10)


@st.composite
def tied_problems(draw):
    """Designs of one-decimal values (so values tie), plus a constant
    column, a column holding both -0.0 and 0.0, and a duplicated column
    (so gains tie across features)."""
    n = draw(st.integers(2, 48))
    f = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(TENTHS, min_size=f, max_size=f),
                         min_size=n, max_size=n))
    zeros = draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5]), min_size=n, max_size=n))
    zeros[0], zeros[-1] = -0.0, 0.0
    X = np.column_stack([np.full(n, 0.7), zeros, np.array(rows)])
    X = np.column_stack([X, X[:, 2]])
    X = X[:, draw(st.permutations(range(X.shape[1])))]
    y = np.array(draw(st.lists(st.one_of(TENTHS, st.floats(-10, 10)),
                               min_size=n, max_size=n)))
    hp = GbmHyperparams(
        n_trees=draw(st.integers(1, 12)),
        max_depth=draw(st.integers(1, 5)),
        num_leaves=draw(st.integers(2, 31)),
        min_data_in_leaf=draw(st.integers(1, n // 2 + 2)),
        lambda_l2=draw(st.sampled_from([0.0, 1.0, 10.0])),
        eta=draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    return X, y, hp


class TestPresortedSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    def test_trees_equal_per_leaf_argsort_oracle(self, problem):
        X, y, hp = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rows < 2 * min_data_in_leaf
            model = fit_gbm(X, y, hp)
        assert_same_trees(model, *oracle_fit(X, y, hp))

    # 50 trees: fit_gbm reuses a leaf first built trees earlier, and
    # rebuilds one its memo has dropped.
    @pytest.mark.parametrize("min_data_in_leaf", [20, 70])
    @pytest.mark.parametrize("lambda_l2", [1.0, 10.0])
    def test_w9_full_tier_design_with_constant_columns_equals_oracle(
        self, min_data_in_leaf, lambda_l2
    ):
        rows, strengths = generate_synthetic_season(seed=5, n_players=80, n_weeks=24)
        mid = rows.take(rows.position == Position.MID)
        X, y = sliding_design(Players(mid, strengths).windows(9, FeatureTier.FULL))
        assert X.shape[1] == 19
        assert (X == X[0]).all(axis=0).sum() == 6  # saves, cards, own goals, penalties
        hp = GbmHyperparams(n_trees=50, min_data_in_leaf=min_data_in_leaf,
                            lambda_l2=lambda_l2)
        model = fit_gbm(X, y, hp)
        assert sum(len(t.split_gains) for t in model.trees) > 0
        oracle = oracle_fit(X, y, hp)
        assert_same_trees(model, *oracle)
        assert_same_model_file(model, *oracle)

    def test_all_constant_design_equals_oracle(self):
        X = np.column_stack([np.full(12, 0.7), [0.0, -0.0, 0.0] * 4, np.full(12, -3.0)])
        y = np.arange(12.0) ** 2
        hp = GbmHyperparams(n_trees=3, min_data_in_leaf=1, lambda_l2=0.0)
        with pytest.warns(UserWarning, match="every feature is constant"):
            model = fit_gbm(X, y, hp)
        assert_same_trees(model, *oracle_fit(X, y, hp))

    def test_no_boundary_inside_the_min_leaf_range_equals_oracle(self):
        # Each column's only boundary leaves fewer than 5 rows on one side.
        X = np.column_stack([[0.0] * 3 + [1.0] * 17, [0.0] * 16 + [2.0] * 4,
                             [1.0] * 4 + [0.0] * 16])
        y = np.arange(20.0)
        hp = GbmHyperparams(n_trees=3, min_data_in_leaf=5, lambda_l2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every column can split somewhere
            model = fit_gbm(X, y, hp)
        assert all(len(t.nodes) == 1 for t in model.trees)
        assert_same_trees(model, *oracle_fit(X, y, hp))

    @pytest.mark.parametrize("min_data_in_leaf", [20, 70])
    def test_full_tier_season_design_equals_oracle(self, min_data_in_leaf):
        X, y = season_design(seed=5, n_players=60, n_weeks=20)
        hp = GbmHyperparams(n_trees=50, min_data_in_leaf=min_data_in_leaf, lambda_l2=1.0)
        model = fit_gbm(X, y, hp)
        assert sum(len(t.split_gains) for t in model.trees) > 0
        oracle = oracle_fit(X, y, hp)
        assert_same_trees(model, *oracle)
        assert_same_model_file(model, *oracle)

    def test_later_trees_reuse_leaves_instead_of_dividing(self, monkeypatch):
        X, y = season_design(seed=5, n_players=60, n_weeks=20)
        hp = GbmHyperparams(n_trees=50, min_data_in_leaf=20, lambda_l2=1.0)
        divides = []
        divide = gbm._divide
        monkeypatch.setattr(gbm, "_divide", lambda *a: divides.append(1) or divide(*a))
        model = fit_gbm(X, y, hp)
        # Without reuse, a split above the last level divides its leaf.
        dividing = sum(not node.is_leaf and node.depth + 1 < hp.max_depth
                       for tree in model.trees for node in tree.nodes)
        assert 0 < len(divides) < dividing
        assert_same_trees(model, *oracle_fit(X, y, hp))
        divides.clear()
        monkeypatch.setattr(gbm, "_MEMO_TREES", 0)  # each tree forgets the last
        assert_same_trees(fit_gbm(X, y, hp), model.base_score, model.trees)
        assert len(divides) == dividing

    def test_leaf_memo_stays_bounded_as_trees_grow(self):
        # The memo drops a leaf no recent tree used, so a fit's traced peak
        # does not grow with n_trees (it did, about 3x, with no bound).
        X, y = season_design(seed=3, n_players=200, n_weeks=38)
        X, y = X[:1400], y[:1400]
        peaks = {}
        for n_trees in (50, 200):
            tracemalloc.start()
            try:
                fit_gbm(X, y, GbmHyperparams(n_trees=n_trees, min_data_in_leaf=20))
                peaks[n_trees] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 1.25 * peaks[50], peaks


class TestPredictGbm:
    def test_empty_tree_list_gives_base(self):
        model = GbmModel(3.25, [], 0.1, GbmHyperparams(), n_features=2)
        assert predict_gbm_batch(model, [[0.0, 0.0]])[0] == 3.25

    def test_toy_at_zero(self):
        assert predict_gbm_batch(toy_model(), [[0.0]])[0] == 0.0

    def test_batch_equals_a_walk_per_row(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(200, 4)).round(1)  # tied values, as in season designs
        y = X[:, 0] - 2 * X[:, 1] * X[:, 2] + rng.normal(size=200)
        hp = GbmHyperparams(n_trees=5, max_depth=6, num_leaves=20, min_data_in_leaf=3)
        model = fit_gbm(X, y, hp)
        assert max(node.depth for tree in model.trees for node in tree.nodes) >= 4
        for tree in model.trees:
            walked = []
            for x in X:
                node = tree.nodes[0]
                while not node.is_leaf:
                    node = tree.nodes[node.left if x[node.feature] <= node.threshold
                                      else node.right]
                walked.append(node.value)
            np.testing.assert_array_equal(tree.predict_batch(X), walked)

    def test_eta_scaling_doubles_margin(self):
        base_model = toy_model()
        doubled = GbmModel(
            base_model.base_score,
            base_model.trees,
            base_model.eta * 2,
            base_model.hyperparams,
            n_features=1,
        )
        x = [1.0]
        margin = predict_gbm_batch(base_model, [x])[0] - base_model.base_score
        margin2 = predict_gbm_batch(doubled, [x])[0] - doubled.base_score
        assert margin2 == pytest.approx(2 * margin)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_gbm_batch(toy_model(), [[1.0, 2.0]])


class TestSplitImportance:
    def test_single_split_is_hundred_percent(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 5))
        y = (X[:, 3] > 0).astype(float) * 8
        hp = GbmHyperparams(
            n_trees=1, max_depth=1, num_leaves=2, min_data_in_leaf=1, lambda_l2=0.0
        )
        imp = split_importance(fit_gbm(X, y, hp))
        assert imp.counts[3] == 1 and imp.counts.sum() == 1
        assert imp.percentages[3] == pytest.approx(100.0)

    def test_two_distinct_splits_half_each(self):
        tree_a = RegressionTree(
            nodes=[
                TreeNode(feature=0, threshold=0.0, left=1, right=2, n_samples=4),
                TreeNode(value=1.0, n_samples=2, depth=1),
                TreeNode(value=-1.0, n_samples=2, depth=1),
            ],
            split_gains=[1.0],
        )
        tree_b = RegressionTree(
            nodes=[
                TreeNode(feature=1, threshold=0.0, left=1, right=2, n_samples=4),
                TreeNode(value=1.0, n_samples=2, depth=1),
                TreeNode(value=-1.0, n_samples=2, depth=1),
            ],
            split_gains=[1.0],
        )
        model = GbmModel(0.0, [tree_a, tree_b], 1.0, GbmHyperparams(), n_features=2)
        imp = split_importance(model)
        np.testing.assert_allclose(imp.percentages, [50.0, 50.0])

    def test_no_trees_gives_zeros(self):
        model = GbmModel(0.0, [], 1.0, GbmHyperparams(), n_features=3)
        imp = split_importance(model)
        assert imp.counts.sum() == 0
        np.testing.assert_array_equal(imp.percentages, np.zeros(3))


def shapley_oracle(model, x, background):
    """Direct subset enumeration with per-row predictions; the slow,
    obviously-correct route."""
    m = len(x)

    def v(subset):
        total = 0.0
        for b in background:
            hybrid = np.array(b, dtype=float)
            for j in subset:
                hybrid[j] = x[j]
            total += predict_gbm_batch(model, [hybrid])[0]
        return total / len(background)

    phi = np.zeros(m)
    for j in range(m):
        others = [i for i in range(m) if i != j]
        for size in range(m):
            weight = factorial(size) * factorial(m - size - 1) / factorial(m)
            for subset in itertools.combinations(others, size):
                phi[j] += weight * (v(subset + (j,)) - v(subset))
    return phi, v(())


def enumeration_oracle(model, x, background):
    """Vectorized subset enumeration: every hybrid row of every subset
    through predict_gbm_batch, then row means. The exact floats
    shapley_values must reproduce."""
    x = np.asarray(x, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    m = x.shape[0]
    n_subsets = 1 << m
    n_bg = bg.shape[0]
    masks = np.arange(n_subsets, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)  # subsets x m

    v = np.empty(n_subsets, dtype=np.float64)
    chunk = max(1, (1 << 22) // max(1, n_bg * m))  # cap hybrid matrix size
    for start in range(0, n_subsets, chunk):
        stop = min(start + chunk, n_subsets)
        take_x = np.repeat(bits[start:stop], n_bg, axis=0)
        hybrid = np.where(take_x, x[None, :], np.tile(bg, (stop - start, 1)))
        preds = predict_gbm_batch(model, hybrid)
        v[start:stop] = preds.reshape(stop - start, n_bg).mean(axis=1)

    sizes = bits.sum(axis=1)
    fact = [math.factorial(i) for i in range(m + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)], dtype=np.float64
    )
    phi = np.zeros(m, dtype=np.float64)
    for j in range(m):
        without_j = masks[~bits[:, j]]
        with_j = without_j | (1 << j)
        w = weight_by_size[sizes[without_j]]
        phi[j] = float(np.sum(w * (v[with_j] - v[without_j])))
    return phi, float(v[0])


def per_tree_game_oracle(model, x, background):
    """One 2^k subset game per tree over the k features it splits on: a
    tree's other features are dummies in its game, and Shapley values are
    linear in the game, so phi sums the trees' values."""
    x = np.asarray(x, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    n_bg, m = bg.shape
    block = max(1, (1 << 22) // max(1, n_bg * m))  # cap hybrid matrix size
    phi = np.zeros(m, dtype=np.float64)
    base_value = model.base_score
    for tree in model.trees:
        used = np.array(sorted({n.feature for n in tree.nodes if not n.is_leaf}), np.intp)
        k = used.size
        masks = np.arange(1 << k)
        bits = ((masks[:, None] >> np.arange(k)) & 1).astype(bool)  # subsets x k
        v = np.empty(1 << k, dtype=np.float64)
        for start in range(0, 1 << k, block):
            subsets = bits[start : start + block]
            take_x = np.repeat(subsets, n_bg, axis=0)
            hybrid = np.tile(bg, (len(subsets), 1))
            hybrid[:, used] = np.where(take_x, x[used], hybrid[:, used])
            preds = tree.predict_batch(hybrid).reshape(-1, n_bg)
            v[start : start + block] = model.eta * preds.mean(axis=1)
        base_value += v[0]

        sizes = bits.sum(axis=1)
        fact = [math.factorial(i) for i in range(k + 1)]
        weight_by_size = np.array(
            [fact[s] * fact[k - s - 1] / fact[k] for s in range(k)], dtype=np.float64
        )
        for j in range(k):
            without_j = masks[~bits[:, j]]
            w = weight_by_size[sizes[without_j]]
            phi[used[j]] += float(np.sum(w * (v[without_j | (1 << j)] - v[without_j])))
    return phi, float(base_value)


def per_tree_reference(model, x, background):
    """shapley_values as one tree at a time: each tree's leaf boxes as
    arrays, copied at every node, and one pass of numpy calls per tree. The
    grouped evaluation must give these floats bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)

    def leaf_boxes(tree):
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
            left_hi[c] = min(hi[c], node.threshold)
            right_lo[c] = max(lo[c], node.threshold)
            stack += [(node.right, right_lo, hi), (node.left, lo, left_hi)]
        values, lows, highs = zip(*leaves)
        return np.array(used, np.intp), np.array(values), np.array(lows), np.array(highs)

    boxes = [leaf_boxes(tree) for tree in model.trees]
    k = max((used.size for used, *_ in boxes), default=0)
    weight = np.array([[1 / (a * math.comb(a + b, b)) if a else 0.0
                        for b in range(k + 1)] for a in range(k + 1)])
    phi = np.zeros(x.shape[0], dtype=np.float64)
    base_value = model.base_score
    for used, values, lo, hi in boxes:
        x_in = (lo < x[used]) & (x[used] <= hi)
        z = bg[:, None, used]
        z_in = (lo < z) & (z <= hi)
        x_only, z_only = x_in & ~z_in, z_in & ~x_in
        reach = (x_in | z_in).all(axis=2)
        a, b = x_only.sum(axis=2), z_only.sum(axis=2)
        base_value += model.eta * np.where(reach & (a == 0), values, 0.0).sum(axis=1).mean()
        v = np.where(reach, values, 0.0) * (model.eta / bg.shape[0])
        phi[used] += np.einsum("nl,nlf->f", v * weight[a, b], x_only)
        phi[used] -= np.einsum("nl,nlf->f", v * weight[b, a], z_only)
    return phi, float(base_value)


def assert_bit_equal_to_per_tree_reference(model, x, background):
    result = shapley_values(model, x, background)
    phi, base_value = per_tree_reference(model, x, background)
    assert result.phi.tobytes() == phi.tobytes()
    assert result.base_value == base_value


def assert_equals_enumeration_oracle(model, x, background):
    """Leaf paths, per-tree games and whole-model enumeration sum the same
    terms in other orders, so the floats agree to rounding, not bit for bit."""
    result = shapley_values(model, x, background)
    for oracle in (enumeration_oracle, per_tree_game_oracle):
        phi, base_value = oracle(model, x, background)
        np.testing.assert_allclose(result.phi, phi, rtol=0, atol=1e-12)
        assert result.base_value == pytest.approx(base_value, rel=0, abs=1e-12)


def assert_efficient(model, x, background):
    """base_value is the mean output over the background, and phi sums to
    the prediction's distance from it."""
    result = shapley_values(model, x, background)
    assert result.base_value == pytest.approx(
        float(predict_gbm_batch(model, background).mean()), rel=0, abs=1e-12
    )
    assert abs(result.base_value + result.phi.sum() - predict_gbm_batch(model, [x])[0]) <= 1e-10
    return result


# A small pool, so thresholds often equal x or background values.
POOL = [-1.0, -0.5, 0.0, 0.1, 0.5, 1.0]


@st.composite
def hand_built_trees(draw, m):
    """A tree over m features: a single leaf, a random tree, a path that
    splits on every feature, or a path that splits on one feature twice."""
    nodes: list[TreeNode] = []
    thresholds = st.one_of(st.sampled_from(POOL), st.floats(-1.5, 1.5))

    def add_leaf(depth):
        nodes.append(TreeNode(value=draw(st.floats(-10, 10)), depth=depth))
        return len(nodes) - 1

    def add_split(feature, depth, grow_left, grow_right):
        i = len(nodes)
        nodes.append(TreeNode(feature=feature, threshold=draw(thresholds), depth=depth))
        nodes[i].left = grow_left(depth + 1)
        nodes[i].right = grow_right(depth + 1)
        return i

    def grow_random(depth):
        if depth >= 4 or not draw(st.booleans()):
            return add_leaf(depth)
        return add_split(draw(st.integers(0, m - 1)), depth, grow_random, grow_random)

    def grow_path(features):
        def grow(depth):
            if depth == len(features):
                return add_leaf(depth)
            if draw(st.booleans()):
                return add_split(features[depth], depth, grow, add_leaf)
            return add_split(features[depth], depth, add_leaf, grow)
        return grow

    kind = draw(st.sampled_from(["leaf", "random", "every_feature", "repeat"]))
    if kind == "leaf":
        add_leaf(0)
    elif kind == "random":
        grow_random(0)
    elif kind == "every_feature":
        grow_path(draw(st.permutations(range(m))))(0)
    else:
        f = draw(st.integers(0, m - 1))
        grow_path([f, draw(st.integers(0, m - 1)), f])(0)
    return RegressionTree(nodes=nodes)


@st.composite
def shapley_problems(draw):
    m = draw(st.integers(1, 10))
    model = GbmModel(
        base_score=draw(st.floats(-5, 5)),
        trees=draw(st.lists(hand_built_trees(m), max_size=6)),
        eta=draw(st.sampled_from([0.1, 0.3, 1.0])),
        hyperparams=GbmHyperparams(),
        n_features=m,
    )
    values = st.lists(st.sampled_from(POOL), min_size=m, max_size=m)
    background = np.array(draw(st.lists(values, min_size=1, max_size=6)))
    if draw(st.booleans()):
        x = background[draw(st.integers(0, len(background) - 1))].copy()
    else:
        x = np.array(draw(values))
    return model, x, background


@st.composite
def fitted_shapley_problems(draw):
    """A fitted model on rounded features (so values tie and x or a
    background row can sit on a threshold), with single-leaf trees mixed in
    among the fitted ones, an x that is sometimes a training row, and 1-150
    background rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    n_rows = draw(st.integers(20, 200))
    X = np.round(rng.normal(size=(n_rows, m)), draw(st.integers(0, 1)))
    y = X @ rng.normal(size=m) + rng.normal(size=n_rows)
    hp = GbmHyperparams(
        n_trees=draw(st.integers(0, 40)), max_depth=draw(st.integers(1, 6)),
        num_leaves=draw(st.integers(2, 31)), min_data_in_leaf=draw(st.integers(1, 20)),
        lambda_l2=draw(st.sampled_from([0.0, 1.0, 10.0])),
        eta=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate-tree warnings
        model = fit_gbm(X, y, hp)
    for _ in range(draw(st.integers(0, 3))):
        leaf = RegressionTree(nodes=[TreeNode(value=draw(st.floats(-5, 5)))])
        model.trees.insert(draw(st.integers(0, len(model.trees))), leaf)
    n_bg = draw(st.integers(1, 150))
    background = X[rng.integers(0, n_rows, n_bg)]
    x = X[rng.integers(0, n_rows)] if draw(st.booleans()) else rng.normal(size=m).round(1)
    return model, x, background


def path_tree(features):
    """A tree whose split d reads features[d] at threshold 0: its left child
    is a leaf valued d, its right child the next split (or a leaf at -1)."""
    nodes = []
    for depth, feature in enumerate(features):
        i = len(nodes)
        nodes.append(TreeNode(feature=feature, left=i + 1, right=i + 2, depth=depth))
        nodes.append(TreeNode(value=float(depth), depth=depth + 1))
    nodes.append(TreeNode(value=-1.0, depth=len(features)))
    return RegressionTree(nodes=nodes, split_gains=[1.0] * len(features))


def sixteen_feature_model():
    """19 features; one tree is a path of splits on 16 of them."""
    hp = GbmHyperparams(n_trees=1, max_depth=16, num_leaves=17, min_data_in_leaf=1, eta=1.0)
    return GbmModel(0.5, [path_tree(range(16))], 1.0, hp, n_features=19)


def fitted_small_model(seed, n_features=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, n_features))
    y = X[:, 0] * 2 - X[:, 1] + rng.normal(size=60) * 0.2
    hp = GbmHyperparams(
        n_trees=5, max_depth=2, num_leaves=4, min_data_in_leaf=5, lambda_l2=1.0,
        eta=0.5,
    )
    return fit_gbm(X, y, hp), X


def symmetrized(model, j, jprime):
    """A model exactly invariant under swapping features j and jprime:
    every tree plus its feature-swapped twin, all leaf values halved."""
    swapped = []
    for tree in model.trees:
        twin_nodes = []
        for node in tree.nodes:
            feature = node.feature
            if feature == j:
                feature = jprime
            elif feature == jprime:
                feature = j
            twin_nodes.append(
                TreeNode(
                    feature=feature,
                    threshold=node.threshold,
                    left=node.left,
                    right=node.right,
                    value=node.value / 2.0,
                    n_samples=node.n_samples,
                    depth=node.depth,
                )
            )
        swapped.append(RegressionTree(nodes=twin_nodes, split_gains=list(tree.split_gains)))
    halved = []
    for tree in model.trees:
        halved_nodes = [
            TreeNode(
                feature=n.feature,
                threshold=n.threshold,
                left=n.left,
                right=n.right,
                value=n.value / 2.0,
                n_samples=n.n_samples,
                depth=n.depth,
            )
            for n in tree.nodes
        ]
        halved.append(RegressionTree(nodes=halved_nodes, split_gains=list(tree.split_gains)))
    return GbmModel(
        model.base_score,
        halved + swapped,
        model.eta,
        model.hyperparams,
        model.n_features,
    )


class TestShapley:
    def test_constant_model_all_zero(self):
        model = GbmModel(4.0, [], 1.0, GbmHyperparams(), n_features=3)
        result = shapley_values(model, [1.0, 2.0, 3.0], np.zeros((5, 3)))
        np.testing.assert_array_equal(result.phi, np.zeros(3))
        assert result.base_value == 4.0

    def test_matches_brute_force_oracle(self):
        model, X = fitted_small_model(seed=20)
        x = X[7]
        background = X[:6]
        result = shapley_values(model, x, background)
        phi_oracle, base_oracle = shapley_oracle(model, x, background)
        np.testing.assert_allclose(result.phi, phi_oracle, atol=1e-10)
        assert result.base_value == pytest.approx(base_oracle, abs=1e-12)

    def test_single_stump_hand_case(self):
        stump = RegressionTree(
            nodes=[
                TreeNode(feature=0, threshold=0.5, left=1, right=2, n_samples=4),
                TreeNode(value=-3.0, n_samples=2, depth=1),
                TreeNode(value=7.0, n_samples=2, depth=1),
            ],
            split_gains=[1.0],
        )
        model = GbmModel(1.0, [stump], 1.0, GbmHyperparams(), n_features=3)
        background = np.zeros((4, 3))  # all rows fall left
        x = np.array([1.0, 9.0, 9.0])  # falls right
        result = shapley_values(model, x, background)
        assert result.phi[0] == pytest.approx(7.0 - (-3.0))
        assert result.phi[1] == 0.0 and result.phi[2] == 0.0
        assert result.base_value == pytest.approx(1.0 + (-3.0))

    def test_efficiency(self):
        model, X = fitted_small_model(seed=21)
        x = X[3]
        background = X[10:40]
        result = shapley_values(model, x, background)
        full = predict_gbm_batch(model, [x])[0]
        assert result.phi.sum() == pytest.approx(full - result.base_value, abs=1e-10)

    def test_dummy_feature_exactly_zero(self):
        model, X = fitted_small_model(seed=22)
        used = {
            n.feature for t in model.trees for n in t.nodes if not n.is_leaf
        }
        unused = [j for j in range(model.n_features) if j not in used]
        assert unused, "fixture must leave some feature unused"
        result = shapley_values(model, X[0], X[1:20])
        for j in unused:
            assert result.phi[j] == 0.0

    def test_symmetry_for_duplicated_features(self):
        model, X = fitted_small_model(seed=23)
        j, jprime = 0, 2
        sym = symmetrized(model, j, jprime)
        x = X[5].copy()
        background = X[10:30].copy()
        x[jprime] = x[j]
        background[:, jprime] = background[:, j]
        result = shapley_values(sym, x, background)
        assert result.phi[j] == pytest.approx(result.phi[jprime], abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(shapley_problems())
    def test_equals_enumeration_oracle_on_hand_built_trees(self, problem):
        assert_equals_enumeration_oracle(*problem)

    @settings(max_examples=150, deadline=None)
    @given(fitted_shapley_problems())
    def test_bit_equal_to_the_per_tree_reference(self, problem):
        assert_bit_equal_to_per_tree_reference(*problem)

    @settings(max_examples=100, deadline=None)
    @given(shapley_problems())
    def test_bit_equal_to_the_per_tree_reference_on_hand_built_trees(self, problem):
        assert_bit_equal_to_per_tree_reference(*problem)

    @pytest.mark.parametrize("n_features", [1, 3])
    def test_bit_equal_to_the_per_tree_reference_past_8192_terms_a_tree(self, n_features):
        """Background rows x leaves beyond numpy's 8192-element buffer,
        where a one-feature group's products reduce to a single sum."""
        rng = np.random.default_rng(30 + n_features)
        X = rng.normal(size=(2000, n_features))
        hp = GbmHyperparams(n_trees=12, max_depth=8, num_leaves=31, min_data_in_leaf=3)
        model = fit_gbm(X, np.sin(3 * X[:, 0]) + rng.normal(size=2000) * 0.1, hp)
        assert max(t.n_leaves() for t in model.trees) * 1000 > 8192
        assert_bit_equal_to_per_tree_reference(model, X[0], X[:1000])

    def test_groups_split_into_blocks_give_the_same_bits(self, monkeypatch):
        model, X = fitted_small_model(seed=29)
        model.trees += model.trees  # several trees per group
        expected = shapley_values(model, X[0], X[1:40])
        monkeypatch.setattr(gbm, "_BLOCK", 1)  # one tree per block
        result = shapley_values(model, X[0], X[1:40])
        assert result.phi.tobytes() == expected.phi.tobytes()
        assert result.base_value == expected.base_value

    def test_equals_enumeration_oracle_over_several_chunks(self):
        model, X = fitted_small_model(seed=24, n_features=10)
        background = np.random.default_rng(24).normal(size=(450, 10))
        assert (1 << 22) // (450 * 10) < 1 << 10  # more than one chunk
        assert_equals_enumeration_oracle(model, X[0], background)

    def test_equals_enumeration_oracle_on_a_12_feature_season_design(self):
        rows, strengths = generate_synthetic_season(seed=5, n_players=60, n_weeks=20)
        mid = rows.take(rows.position == Position.MID)
        X, y = sliding_design(Players(mid, strengths).windows(3, FeatureTier.FULL))
        X = X[:, list(range(11)) + [18]]  # full[:11] and difficulty
        model = fit_gbm(X, y)
        assert sum(len(t.split_gains) for t in model.trees) > 0
        background = X[np.random.default_rng(5).choice(len(X), 40, replace=False)]
        assert_equals_enumeration_oracle(model, X[0], background)

    def test_equals_enumeration_oracle_on_a_12_feature_path_tree(self):
        model = GbmModel(0.2, [path_tree([3, 0, 7, 1, 9, 4, 11, 2, 6, 10, 5, 8])], 0.3,
                         GbmHyperparams(), n_features=12)
        rng = np.random.default_rng(25)
        background = rng.normal(size=(100, 12))
        assert (1 << 12) * 100 * 12 > 1 << 22  # the per-tree oracle takes two blocks
        assert_equals_enumeration_oracle(model, rng.normal(size=12), background)

    def test_tree_on_sixteen_features_matches_per_tree_oracle(self):
        model = sixteen_feature_model()
        rng = np.random.default_rng(27)
        x, background = rng.normal(size=19), rng.normal(size=(8, 19))
        result = assert_efficient(model, x, background)
        phi, base_value = per_tree_game_oracle(model, x, background)
        np.testing.assert_allclose(result.phi, phi, rtol=0, atol=1e-12)
        assert result.base_value == pytest.approx(base_value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("num_leaves", [31, 63])
    def test_efficient_on_a_fitted_full_tier_model(self, num_leaves):
        rows, strengths = generate_synthetic_season(seed=6, n_players=120, n_weeks=20)
        mid = rows.take(rows.position == Position.MID)
        X, y = sliding_design(Players(mid, strengths).windows(3, FeatureTier.FULL))
        hp = GbmHyperparams(n_trees=20, max_depth=8, num_leaves=num_leaves,
                            min_data_in_leaf=3)
        model = fit_gbm(X, y, hp)
        assert max(t.n_leaves() for t in model.trees) == num_leaves
        background = X[np.random.default_rng(6).choice(len(X), 50, replace=False)]
        for x in X[:3]:
            assert_efficient(model, x, background)

    def test_efficient_with_200_features(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(300, 200))
        hp = GbmHyperparams(n_trees=10, max_depth=6, num_leaves=31, min_data_in_leaf=5)
        model = fit_gbm(X, X[:, 0] - 2 * X[:, 1] + X[:, 150] * X[:, 7], hp)
        model.trees.append(path_tree(rng.permutation(200)))
        assert_efficient(model, rng.normal(size=200), X[:20])

    def test_nineteen_features_in_small_trees(self):
        rng = np.random.default_rng(26)
        trees = [path_tree(rng.choice(19, 6, replace=False)) for _ in range(8)]
        model = GbmModel(0.5, trees, 0.1, GbmHyperparams(), n_features=19)
        x, background = rng.normal(size=19), rng.normal(size=(30, 19))
        assert_efficient(model, x, background)

    def test_empty_background_rejected(self):
        model = GbmModel(0.0, [], 1.0, GbmHyperparams(), n_features=2)
        with pytest.raises(ValueError):
            shapley_values(model, np.zeros(2), np.zeros((0, 2)))

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    @pytest.mark.parametrize("where", ["x", "background"])
    def test_non_finite_input_rejected(self, value, where):
        model = sixteen_feature_model()
        x, background = np.zeros(19), np.zeros((3, 19))
        (x if where == "x" else background[1])[4] = value
        with pytest.raises(ValueError, match="finite"):
            shapley_values(model, x, background)


class TestGbmSerialization:
    def test_round_trip_preserves_predictions(self):
        model, X = fitted_small_model(seed=30, n_features=3)
        ctx = ModelContext(w=3, tier="pts_minutes", position="FWD")
        parsed, parsed_ctx = read_gbm(write_gbm(model, ctx))
        np.testing.assert_array_equal(
            predict_gbm_batch(parsed, X), predict_gbm_batch(model, X)
        )
        assert parsed.hyperparams == model.hyperparams
        assert parsed_ctx.position == "FWD"
        assert structural_violations(parsed) == []

    def test_round_trip_preserves_gain_trace(self):
        model, _ = fitted_small_model(seed=31, n_features=3)
        ctx = ModelContext(w=3, tier="pts_minutes", position="GK")
        parsed, _ = read_gbm(write_gbm(model, ctx))
        for a, b in zip(parsed.trees, model.trees):
            assert a.split_gains == b.split_gains
