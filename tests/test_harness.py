import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplcast.dataset import (
    FeatureTier,
    Players,
    assign_splits,
    generate_synthetic_season,
)
from fplcast.harness import (
    CvConfig,
    GridSpec,
    TrialResult,
    cross_validate,
    derive_seed,
    run_grid,
    select_final,
    top_k_summary,
    train_family,
)
from fplcast import harness
from fplcast.evaluation import mse
from fplcast.ingest import Position, TeamLookupError
from fplcast.serialize import ModelContext

from conftest import first_players, row_keys

RIDGE_GRID = GridSpec(family="ridge", axes={"lambda": [0.1, 1.0], "w": [2, 3]})


@pytest.fixture
def mid_setup(mid_rows, small_season):
    _, strengths = small_season
    splits = assign_splits(mid_rows, seed=3)
    return mid_rows, strengths, splits


@pytest.fixture
def mid_players(mid_setup):
    rows, strengths, splits = mid_setup
    return Players(rows, strengths, splits.assignments)


class TestGridSpec:
    def test_cartesian_size(self):
        assert len(RIDGE_GRID.configurations()) == 4

    def test_one_by_one_grid(self):
        grid = GridSpec(family="ridge", axes={"lambda": [1.0]})
        assert len(grid.configurations()) == 1

    def test_fixed_values_merge(self):
        grid = GridSpec(family="cnn", axes={"k": [1, 2]}, fixed={"epochs": 3})
        assert all(c["epochs"] == 3 for c in grid.configurations())

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(family="ridge", axes={"lambda": []})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(family="lstm", axes={})


class TestRunGrid:
    def test_one_trial_per_configuration(self, mid_players):
        results = run_grid(RIDGE_GRID, mid_players, seed=1)
        assert len(results) == 4
        assert all(r.error is None for r in results)
        assert all(r.val_mse is not None for r in results)

    def test_sorted_by_validation_mse(self, mid_players):
        results = run_grid(RIDGE_GRID, mid_players, seed=1)
        vals = [r.val_mse for r in results]
        assert vals == sorted(vals)

    def test_infeasible_kernel_recorded_not_fatal(self, mid_players):
        grid = GridSpec(
            family="cnn",
            axes={"k": [1, 2], "w": [1]},
            fixed={"epochs": 2, "filters": 2, "hidden": 2},
        )
        results = run_grid(grid, mid_players, seed=2)
        failed = [r for r in results if r.error is not None]
        ok = [r for r in results if r.error is None]
        assert len(failed) == 1 and len(ok) == 1
        assert "kernel" in failed[0].error
        assert results[-1].error is not None  # failures sort last

    def test_deterministic_rerun(self, mid_players):
        a = run_grid(RIDGE_GRID, mid_players, seed=5)
        b = run_grid(RIDGE_GRID, mid_players, seed=5)
        assert [r.config for r in a] == [r.config for r in b]
        assert [r.val_mse for r in a] == pytest.approx(
            [r.val_mse for r in b], abs=1e-12
        )

    # Ridge's best is its second configuration, so the first one's model is
    # beaten; the cnn grid has a failed trial.
    @pytest.mark.parametrize("grid", [
        RIDGE_GRID,
        GridSpec(family="cnn", axes={"k": [1, 2], "w": [1, 2]},
                 fixed={"epochs": 2, "filters": 2, "hidden": 2}),
    ], ids=["ridge", "cnn"])
    def test_only_the_best_trial_keeps_its_model(self, mid_players, grid):
        results = run_grid(grid, mid_players, seed=2)
        assert results[0].fitted is not None
        assert all(r.fitted is None for r in results[1:])

    def test_tied_trials_leave_the_model_on_the_first(self, mid_players):
        grid = GridSpec(family="ridge", axes={"lambda": [1.0, 1.0]}, fixed={"w": 3})
        first, second = run_grid(grid, mid_players, seed=3)
        assert first.val_mse == second.val_mse
        assert first.fitted is not None and second.fitted is None

    @pytest.mark.parametrize("family, key, value", [
        ("gbm", "min_data_in_leaf", 20.5),
        ("gbm", "num_leaves", 7.9),
        ("gbm", "n_trees", True),
        ("ridge", "lambda", "10"),
        ("ridge", "w", 3.0),
        ("cnn", "activation", 1),
        *(pytest.param(family, key, 10**400, id=f"{family}-{key}-int_too_large_for_a_float")
          for family, key in [("ridge", "lambda"), ("gbm", "eta"), ("cnn", "learning_rate")]),
    ])
    def test_mistyped_value_fails_its_trial(self, mid_players, family, key, value):
        grid = GridSpec(family=family, axes={key: [value]}, fixed={"epochs": 1})
        [result] = run_grid(grid, mid_players, seed=1)
        assert result.error.startswith(f"ValueError: {key} must be of type")

    def test_numpy_and_python_integers_are_accepted(self, mid_players):
        def val_mse(config):
            grid = GridSpec(family="gbm", axes={"w": [3]}, fixed=config)
            [result] = run_grid(grid, mid_players, seed=1)
            assert result.error is None
            return result.val_mse

        typed = {"min_data_in_leaf": 20, "lambda_l2": 10.0}
        assert val_mse({"min_data_in_leaf": np.int64(20), "lambda_l2": 10}) == val_mse(typed)

    def test_seed_isolation_across_axis_edits(self):
        touched = {"lambda": 0.1, "w": 2}
        other = {"lambda": 1.0, "w": 2}
        seed = 9
        assert derive_seed(seed, touched) == derive_seed(seed, dict(touched))
        assert derive_seed(seed, touched) != derive_seed(seed, other)


class TestPlayersWindows:
    def test_flip_negates_copies(self, mid_setup):
        rows, strengths, splits = mid_setup
        args = (rows, strengths, splits.assignments)
        plain = Players(*args).windows(3, FeatureTier.PTSONLY, "train")
        before = list(plain.d)
        flipped = [
            Players(*args, flip_difficulty=True).windows(3, FeatureTier.PTSONLY, "train")
            for _ in range(2)
        ]
        assert any(before)
        assert {splits.assignments[p] for p in plain.players} == {"train"}
        for run in flipped:
            assert list(run.d) == [-d for d in before]
            assert list(run.y) == list(plain.y)
        assert list(plain.d) == before


def trial(val, error=None):
    return TrialResult(
        config={}, train_mse=val, val_mse=val, test_mse=None, seed=0, wall_time=0.0,
        error=error,
    )


class TestTopKSummary:
    def test_k_one_is_best_trial(self):
        mean, worst = top_k_summary([trial(3.0), trial(1.0), trial(2.0)], 1)
        assert (mean, worst) == (1.0, 1.0)

    def test_all_equal(self):
        mean, worst = top_k_summary([trial(2.5)] * 4, 3)
        assert (mean, worst) == (2.5, 2.5)

    def test_hand_case(self):
        results = [trial(v) for v in (4.0, 2.0, 1.0, 3.0)]
        mean, worst = top_k_summary(results, 2)
        assert (mean, worst) == (1.5, 2.0)

    def test_failed_trials_excluded(self):
        results = [trial(1.0), trial(None, error="boom")]
        with pytest.raises(ValueError):
            top_k_summary(results, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="top-k"):
            top_k_summary([trial(1.0), trial(2.0)], k)


class TestCrossValidate:
    def test_every_player_in_one_fold(self, mid_rows):
        from fplcast.harness import _assign_folds

        cv = CvConfig(k=5, seed=1)
        players = Players(mid_rows)
        folds = _assign_folds(players, cv)
        assert len(folds) == len(players.keys) == len(set(row_keys(mid_rows)))
        assert set(folds) == set(range(5))

    def test_fold_assignment_deterministic(self, mid_rows):
        from fplcast.harness import _assign_folds

        cv = CvConfig(k=4, seed=2)
        assert _assign_folds(Players(mid_rows), cv) == _assign_folds(Players(mid_rows), cv)

    @pytest.mark.parametrize(
        "cv", [CvConfig(strat_on="bogus"), CvConfig(n_bins=0)], ids=["strat_on", "n_bins"],
    )
    def test_bad_binning_rejected(self, mid_rows, small_season, cv):
        _, strengths = small_season
        with pytest.raises(ValueError):
            cross_validate("ridge", {"lambda": 1.0}, Players(mid_rows, strengths), cv)

    def test_folds_ignore_the_split_map(self, mid_players):
        cv = CvConfig(k=3, seed=4)
        config = {"lambda": 1.0, "w": 3}
        unsplit = Players(mid_players.rows, mid_players.strengths)
        assert cross_validate("ridge", config, mid_players, cv) == cross_validate(
            "ridge", config, unsplit, cv
        )

    def test_two_fold_symmetric_run(self, mid_rows, small_season):
        _, strengths = small_season
        cv = CvConfig(k=2, seed=3)
        train_err, val_err = cross_validate(
            "ridge", {"lambda": 1.0, "w": 3}, Players(mid_rows, strengths), cv
        )
        assert np.isfinite(train_err) and np.isfinite(val_err)
        # Same data family on both folds: errors in the same ballpark.
        assert val_err < 4 * train_err + 10

    def test_too_few_players(self, mid_rows, small_season):
        _, strengths = small_season
        with pytest.raises(ValueError):
            cross_validate(
                "ridge", {"lambda": 1.0}, Players(first_players(mid_rows, 3), strengths),
                CvConfig(k=5),
            )


FINAL_GRIDS = {
    "ridge": GridSpec(family="ridge", axes={"lambda": [0.1, 10.0], "w": [2, 3]}),
    "gbm": GridSpec(
        family="gbm", axes={"eta": [0.05, 0.1], "w": [3, 4]},
        fixed={"n_trees": 10, "min_data_in_leaf": 10},
    ),
    "cnn": GridSpec(
        family="cnn", axes={"k": [1, 2], "w": [3]},
        fixed={"epochs": 3, "filters": 2, "hidden": 3},
    ),
}


class TestSelectFinal:
    def test_scores_the_kept_model_without_fitting(self, mid_players, monkeypatch):
        results = run_grid(RIDGE_GRID, mid_players, seed=5)

        def no_fit(*args, **kwargs):
            raise AssertionError("select_final fitted a model")

        monkeypatch.setattr(harness, "train_family", no_fit)
        final = select_final(results, mid_players)
        assert final.fitted is results[0].fitted
        assert final.test_mse is not None and np.isfinite(final.test_mse)

    @pytest.mark.parametrize("family", sorted(FINAL_GRIDS))
    def test_kept_model_equals_a_refit(self, mid_players, family):
        """The oracle is the refit that select_final used to run: the best
        configuration trained again with its stored seed."""
        results = run_grid(FINAL_GRIDS[family], mid_players, seed=7)
        final = select_final(results, mid_players)
        best = results[0]
        w, tier = harness._window_spec(best.config)
        train_ex, val_ex, test_ex = (
            mid_players.windows(w, tier, s) for s in ("train", "validation", "test")
        )
        refit, train_pred, val_pred = train_family(
            family, best.config, train_ex, val_ex, best.seed
        )
        fam = harness.FAMILIES[family]
        predictions = harness.predict(fam, refit.model, refit.scaler, test_ex)
        assert final.test_mse == mse(test_ex.y, predictions)
        assert (final.train_mse, final.val_mse) == (
            mse(train_ex.y, train_pred), mse(val_ex.y, val_pred)
        )

        def model_file(f):
            return fam.write(f.model, ModelContext(w, tier.value, "MID", f.scaler))

        assert model_file(final.fitted) == model_file(refit)
        assert final.fitted.curve == refit.curve

    def test_single_trial_selected_with_test_mse(self, mid_players):
        grid = GridSpec(family="ridge", axes={"lambda": [1.0]}, fixed={"w": 3})
        results = run_grid(grid, mid_players, seed=4)
        final = select_final(results, mid_players)
        assert final.test_mse is not None and np.isfinite(final.test_mse)
        assert final.config == results[0].config

    def test_selection_is_argmin_of_val(self, mid_players):
        results = run_grid(RIDGE_GRID, mid_players, seed=5)
        final = select_final(results, mid_players)
        best = min(r.val_mse for r in results if r.error is None)
        assert final.config == next(
            r.config for r in results if r.val_mse == best
        )

    def test_no_successful_trials(self, mid_players):
        failed = [trial(None, error="kernel 2 exceeds window 1")]
        with pytest.raises(ValueError):
            select_final(failed, mid_players)

    def test_holdout_untouched_during_search(self, mid_rows, small_season):
        """Poison the test players' rows so that merely building their
        windows raises; the grid must run clean anyway."""
        _, strengths = small_season
        splits = assign_splits(mid_rows, seed=6)
        test = [splits.assignments[key] == "test" for key in row_keys(mid_rows)]
        poisoned = mid_rows.replace(opponent=np.where(test, "ghost town fc", mid_rows.opponent))
        players = Players(poisoned, strengths, splits.assignments)
        results = run_grid(RIDGE_GRID, players, seed=6)
        assert all(r.error is None for r in results)
        with pytest.raises((KeyError, TeamLookupError)):
            select_final(results, players)


class TestTrainFamilyContract:
    def test_families_agree_on_interface(self, mid_setup):
        rows, strengths, splits = mid_setup
        players = Players(rows, strengths, splits.assignments)
        train_ex, val_ex = (
            players.windows(3, FeatureTier.PTSONLY, target)
            for target in ("train", "validation")
        )
        for family, config in (
            ("ridge", {"lambda": 1.0, "w": 3}),
            ("gbm", {"min_data_in_leaf": 10, "w": 3}),
            ("cnn", {"epochs": 2, "filters": 2, "hidden": 2, "w": 3}),
        ):
            fitted, train_pred, val_pred = train_family(
                family, config, train_ex, val_ex, seed=11
            )
            assert fitted.family == family
            assert train_pred.shape == (len(train_ex),) and val_pred.shape == (len(val_ex),)
            assert np.isfinite(train_pred).all() and np.isfinite(val_pred).all()
            assert (fitted.curve is not None) == (family == "cnn")
            if family != "cnn":
                assert fitted.model.feature_names[-1] == "difficulty_gap"


# Built once for the property below: a function-scoped fixture would be
# shared by every example Hypothesis draws.
_ROWS, _STRENGTHS = generate_synthetic_season(seed=11, n_players=60, n_weeks=16)
_MID = _ROWS.take(_ROWS.position == Position.MID)
_MID_PLAYERS = Players(_MID, _STRENGTHS, assign_splits(_MID, seed=3).assignments)


@st.composite
def small_trials(draw):
    """(family, trial config): a small fit of any family, with w, tier and
    the family's parameters drawn."""
    family = draw(st.sampled_from(sorted(harness.FAMILIES)))
    w = draw(st.integers(1, 4))
    config = {"w": w, "tier": draw(st.sampled_from([t.value for t in FeatureTier]))}
    if family == "ridge":
        config["lambda"] = draw(st.floats(1e-3, 100.0))
    elif family == "gbm":
        config.update(
            n_trees=draw(st.integers(0, 6)), max_depth=draw(st.integers(1, 3)),
            num_leaves=draw(st.integers(2, 6)), min_data_in_leaf=draw(st.integers(1, 40)),
            lambda_l2=draw(st.floats(0.0, 10.0)), eta=draw(st.floats(0.01, 1.0)),
        )
    else:
        config.update(
            k=draw(st.integers(1, w)), filters=draw(st.integers(1, 4)),
            hidden=draw(st.integers(1, 4)),
            activation=draw(st.sampled_from(["relu", "tanh"])),
            epochs=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, 64)),
            lambda1=draw(st.floats(0.0, 0.1)), lambda2=draw(st.floats(0.0, 0.1)),
        )
    return family, config


class TestTrainFamilyPredictions:
    @settings(max_examples=40, deadline=None)
    @given(small_trials(), st.integers(0, 2**31 - 1))
    def test_equal_a_second_pass_bit_for_bit(self, trial, seed):
        """The oracle is the second pass that train_family's callers ran:
        predicting each set again with the fitted model and scaler."""
        family, config = trial
        w, tier = harness._window_spec(config)
        train_ex, val_ex = (
            _MID_PLAYERS.windows(w, tier, s) for s in ("train", "validation")
        )
        fitted, train_pred, val_pred = train_family(family, config, train_ex, val_ex, seed)
        for windows, predictions in ((train_ex, train_pred), (val_ex, val_pred)):
            oracle = harness.predict(
                harness.FAMILIES[family], fitted.model, fitted.scaler, windows
            )
            assert predictions.dtype == oracle.dtype
            assert predictions.tobytes() == oracle.tobytes()
