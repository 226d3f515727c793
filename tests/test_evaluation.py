import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fplcast.dataset import WindowSet
from fplcast.evaluation import (
    average_ranks,
    extreme_examples,
    mse,
    spearman_by_gameweek,
    spearman_tied,
)
from fplcast.ingest import CanonicalPlayerKey, Position

from conftest import concat_windows


def rank_oracle(values):
    """Counting-based average ranks: independent of the sort-based path."""
    values = list(values)
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # Occupied positions are smaller+1 .. smaller+equal; take their mean.
        ranks.append(smaller + (equal + 1) / 2)
    return np.array(ranks)


def spearman_oracle(y, yhat):
    ry, rz = rank_oracle(y), rank_oracle(yhat)
    if np.ptp(ry) == 0 or np.ptp(rz) == 0:
        return None
    return float(np.corrcoef(ry, rz)[0, 1])


class TestMse:
    def test_identical_vectors(self):
        assert mse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        assert mse([0, 0], [1, 3]) == pytest.approx(5.0)  # (1 + 9) / 2

    def test_joint_permutation_invariant(self):
        y = [3.0, 1.0, 4.0, 1.0]
        yhat = [2.0, 2.0, 5.0, 0.0]
        assert mse(y, yhat) == pytest.approx(mse(y[::-1], yhat[::-1]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        y, yhat = rng.normal(size=20), rng.normal(size=20)
        assert mse(y, yhat) > 0
        assert mse(y, y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestAverageRanks:
    def test_strict_order(self):
        np.testing.assert_array_equal(average_ranks([10, 20, 30]), [1, 2, 3])

    def test_pair_tie(self):
        np.testing.assert_array_equal(average_ranks([1, 1, 2]), [1.5, 1.5, 3])

    def test_all_equal(self):
        np.testing.assert_array_equal(average_ranks([7, 7, 7, 7]), [2.5] * 4)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_matches_counting_oracle(self, values):
        np.testing.assert_allclose(average_ranks(values), rank_oracle(values))

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=30))
    def test_ranks_sum_invariant(self, values):
        # Average ranking preserves the total 1 + 2 + ... + n.
        n = len(values)
        assert average_ranks(values).sum() == pytest.approx(n * (n + 1) / 2)


class TestSpearmanTied:
    def test_identical_ranking_is_one(self):
        assert spearman_tied([3, 1, 4], [30, 10, 40]) == pytest.approx(1.0)

    def test_hand_value_minus_half(self):
        assert spearman_tied([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_hand_value_with_ties(self):
        # ranks y = [1.5, 1.5, 3], yhat = [1, 2, 3]:
        # cov 0.5, sd_y sqrt(0.5), sd_yhat sqrt(2/3) -> 0.5 * sqrt(3)
        assert spearman_tied([1, 1, 2], [1, 2, 3]) == pytest.approx(0.8660, abs=1e-4)

    def test_all_ties_is_none(self):
        assert spearman_tied([5, 5, 5], [1, 2, 3]) is None
        assert spearman_tied([1, 2, 3], [5, 5, 5]) is None

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 10, size=40)
        z = rng.integers(0, 10, size=40)
        assert spearman_tied(y, z) == pytest.approx(spearman_tied(z, y))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 10, size=30).astype(float)
        z = rng.normal(size=30)
        base = spearman_tied(y, z)
        assert spearman_tied(np.exp(y / 3), z) == pytest.approx(base, abs=1e-12)
        assert spearman_tied(y, 100 * z + 7) == pytest.approx(base, abs=1e-12)

    def test_oracle_equivalence_heavy_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            y = rng.integers(0, 10, size=50)
            z = rng.integers(0, 10, size=50)
            expected = spearman_oracle(y, z)
            got = spearman_tied(y, z)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman_tied([1], [2])


class TestSpearmanByGameweek:
    def test_averages_over_weeks(self):
        gw = [1, 1, 1, 2, 2, 2]
        y = [1, 2, 3, 3, 2, 1]
        yhat = [1, 2, 3, 1, 2, 3]
        # Week 1 rho = 1, week 2 rho = -1.
        assert spearman_by_gameweek(gw, y, yhat) == pytest.approx(0.0)

    def test_skips_degenerate_weeks(self):
        gw = [1, 1, 2, 2]
        y = [5, 5, 1, 2]
        yhat = [1, 2, 1, 2]
        assert spearman_by_gameweek(gw, y, yhat) == pytest.approx(1.0)

    def test_all_degenerate_is_none(self):
        assert spearman_by_gameweek([1, 1], [3, 3], [1, 2]) is None


def _example(y, d=0, points=(1.0, 2.0, 3.0), name="someone"):
    """A one-window set."""
    key = CanonicalPlayerKey(name, Position.MID)
    return WindowSet(
        X=np.array([[[p] for p in points]]),
        d=np.array([d]),
        y=np.array([y]),
        players=(key,),
        target_gameweek=np.array([5]),
    )


class TestExtremeExamples:
    def test_outlier_dominates_worst(self):
        # The classic failure shape: a 21-point week predicted low.
        examples = concat_windows([_example(21), _example(2), _example(1)])
        predictions = [2.2, 2.0, 1.0]
        result = extreme_examples(examples, predictions, 2)
        worst_y, worst_pred, worst_err, _, _ = result.worst[0]
        assert worst_y == 21 and worst_pred == 2.2
        assert worst_err == pytest.approx((21 - 2.2) ** 2)
        assert result.worst[0][2] >= result.worst[1][2]

    def test_perfect_predictions_have_zero_best(self):
        examples = concat_windows([_example(3), _example(5)])
        result = extreme_examples(examples, [3.0, 5.0], 1)
        assert result.best[0][2] == 0.0

    def test_k_equals_n_covers_everything(self):
        examples = concat_windows([_example(1), _example(2), _example(9)])
        result = extreme_examples(examples, [1.0, 1.0, 1.0], 3)
        assert len(result.worst) == 3 and len(result.best) == 3

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            extreme_examples(_example(1), [1.0], 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            extreme_examples(_example(1), [1.0], -1)

    def test_k_zero_lists_nothing(self):
        examples = concat_windows([_example(1), _example(2), _example(9)])
        result = extreme_examples(examples, [1.0, 1.0, 1.0], 0)
        assert result.worst == [] and result.best == []

    def test_records_window_points_and_difficulty(self):
        [entry] = extreme_examples(
            _example(4, d=-2, points=(2.0, 3.0, 2.0)), [4.0], 1
        ).best
        assert entry[3] == -2
        assert entry[4] == [2.0, 3.0, 2.0]

    def test_tie_broken_by_index(self):
        examples = concat_windows([_example(1), _example(1)])
        result = extreme_examples(examples, [2.0, 2.0], 1)
        assert result.worst[0] == result.best[0]
