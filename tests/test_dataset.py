from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fplcast.dataset import (
    FeatureTier,
    Players,
    WindowSet,
    apply_scaler,
    _SYNTH_TEAMS,
    _largest_remainder,
    _synth_name,
    assign_splits,
    fit_scaler,
    generate_synthetic_season,
    sliding_average,
    stratified_bins,
)
from fplcast.harness import FAMILIES, sliding_design
from fplcast.serialize import write_raw_csv
from fplcast.ingest import (
    GAMEWEEK_SCHEMA,
    NUMERIC_STATS,
    CanonicalPlayerKey,
    GameweekTable,
    Position,
    TeamLookupError,
    compute_difficulty,
)

from conftest import (
    Series,
    assert_every_column_is_an_array,
    assert_tables_equal,
    build_series,
    concat_windows,
    make_table,
    row_keys,
    runs,
)


def mitrovic_rows():
    """The two-week worked window plus the following (target) match."""
    # The third week is the target: 2 points against a weaker side
    # (difficulty -1).
    return make_table(
        gameweek=[1, 2, 3], kickoff_order=[0, 1, 2], total_points=[1, 12, 2],
        goals_scored=[0, 2, 0], assists=0,
        opponent=["arsenal", "liverpool", "brentford"],
    )


def build_windows(
    series: Series,
    w: int,
    tier: FeatureTier,
    strengths: dict[str, dict[str, int]],
) -> WindowSet:
    """Slide a w-week window over the series; the week after each window
    supplies the target points and difficulty.

    Windows never span a season boundary. A (season-local) series shorter
    than w+1 rows yields nothing.
    """
    if w < 1:
        raise ValueError(f"window size must be >= 1, got {w}")
    columns = tier.columns()
    table = series.table
    feats = table.matrix(columns)
    windows, d, targets = [], [], []
    for run in runs(table.season):
        if run.stop - run.start < w + 1:
            continue
        # Window i holds rows i..i+w-1 and predicts row i+w.
        windows.append(sliding_window_view(feats[run], w, axis=0)[:-1].transpose(0, 2, 1))
        targets.append(table.take(slice(run.start + w, run.stop)))
        d.append(compute_difficulty(targets[-1], strengths))
    if not targets:
        return WindowSet.empty(w, len(columns))
    target = GameweekTable.concat(targets)
    return WindowSet(
        X=np.concatenate(windows),
        d=np.concatenate(d),
        y=target.total_points,
        players=np.array([series.key] * len(target), dtype=object),
        target_gameweek=target.gameweek,
    )


class TestFeatureTier:
    def test_each_tier_is_a_prefix_of_the_numeric_stats(self):
        assert len(NUMERIC_STATS) == 18
        widths = [len(tier.columns()) for tier in FeatureTier]
        assert widths == [1, 2, 6, 18]
        for tier, width in zip(FeatureTier, widths):
            assert tier.columns() == list(NUMERIC_STATS[:width])
        assert FeatureTier.PTS_ICT.columns()[2:] == [
            "influence", "creativity", "threat", "ict_index"]
        for smaller, larger in zip(FeatureTier, list(FeatureTier)[1:]):
            assert larger.columns()[: len(smaller.columns())] == smaller.columns()


class TestBuildWindows:
    def test_worked_example(self, strengths):
        tier = FeatureTier.FULL
        windows = Players(mitrovic_rows(), strengths).windows(2, tier)
        assert len(windows) == 1
        assert windows.y[0] == 2
        assert windows.d[0] == -1
        assert windows.target_gameweek[0] == 3
        cols = tier.columns()
        assert windows.X.shape == (1, 2, len(cols))
        points = windows.X[0, :, cols.index("total_points")]
        goals = windows.X[0, :, cols.index("goals_scored")]
        assert list(points) == [1.0, 12.0]
        assert list(goals) == [0.0, 2.0]

    def test_series_of_length_w_yields_nothing(self, strengths):
        rows = mitrovic_rows().take(slice(0, 2))
        assert len(Players(rows, strengths).windows(2, FeatureTier.PTSONLY)) == 0

    def test_series_of_length_w_plus_one_yields_one(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(2, FeatureTier.PTSONLY)
        assert len(windows) == 1

    def test_count_identity(self, strengths):
        rows = make_table(
            gameweek=list(range(1, 11)), kickoff_order=list(range(10)),
            opponent="arsenal",
        )
        for w in (1, 2, 5, 9):
            assert len(Players(rows, strengths).windows(w, FeatureTier.PTSONLY)) == 10 - w

    def test_windows_never_cross_seasons(self, strengths):
        rows = make_table(
            season=["2020-21"] * 3 + ["2021-22"] * 3,
            gameweek=[1, 2, 3] * 2, kickoff_order=[0, 1, 2] * 2,
        )
        tables = {"2020-21": dict(strengths["2021-22"]), **strengths}
        windows = Players(rows, tables).windows(2, FeatureTier.PTSONLY)
        # One per season segment; none spanning gameweeks 3->1.
        assert len(windows) == 2
        assert list(windows.target_gameweek) == [3, 3]

    def test_w_below_one_rejected(self, strengths):
        with pytest.raises(ValueError):
            Players(mitrovic_rows(), strengths).windows(0, FeatureTier.PTSONLY)


class TestWindowSet:
    def test_take_selects_rows_by_index_or_mask(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(1, FeatureTier.PTSONLY)
        picked = windows.take([1])
        assert len(picked) == 1
        assert (picked.y[0], picked.d[0]) == (windows.y[1], windows.d[1])
        masked = windows.take(windows.target_gameweek == 3)
        np.testing.assert_array_equal(masked.X, picked.X)
        _same_keys(masked.players, picked.players)

    def test_concat_keeps_order(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(1, FeatureTier.PTSONLY)
        both = concat_windows([windows.take([1]), windows.take([0])])
        assert list(both.target_gameweek) == [3, 2]
        np.testing.assert_array_equal(both.X, windows.X[::-1])

    def test_players_stay_an_object_array_of_keys(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(1, FeatureTier.PTSONLY)
        for picked in (
            windows, windows.take([1, 0]), windows.take(windows.target_gameweek == 3),
            windows.take(slice(1, None)), windows.take([]), WindowSet.empty(1, 1),
            concat_windows([windows.take([1]), WindowSet.empty(1, 1), windows]),
        ):
            assert type(picked.players) is np.ndarray and picked.players.dtype == object
            assert picked.players.shape == (len(picked),)
            assert all(type(key) is CanonicalPlayerKey for key in picked.players.tolist())

    def test_empty_has_window_shape(self):
        empty = WindowSet.empty(3, 2)
        assert len(empty) == 0 and not empty
        assert empty.X.shape == (0, 3, 2)


def _per_window_windows(series_list, w, tier):
    """Each window sliced from its own series' feature rows, one at a time."""
    out = []
    for series in series_list:
        table = series.table
        for season in sorted(set(table.season)):
            rows = [i for i, s in enumerate(table.season) if s == season]
            feats = np.array(
                [[float(getattr(table, c)[i]) for c in tier.columns()] for i in rows]
            )
            out.extend(feats[i - w : i].copy() for i in range(w, len(rows)))
    return out


def _zscore(x, scaler):
    """One window or mean vector z-scored on its own."""
    z = (x - scaler.mean) / np.where(scaler.std > 0, scaler.std, 1.0)
    z[..., scaler.std == 0] = 0.0
    return z


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _oracle(series_list, strengths, split_map, w, tier, split, flip):
    """Players.windows by the per-series oracle and concat_windows."""
    parts = [
        build_windows(s, w, tier, strengths)
        for s in series_list
        if split is None or split_map.get(s.key) == split
    ]
    if not parts:
        return WindowSet.empty(w, len(tier.columns()))
    windows = concat_windows(parts)
    return WindowSet(windows.X, -windows.d if flip else windows.d, windows.y,
                     windows.players, windows.target_gameweek)


def _same_keys(a, b):
    """Two player-key columns: object arrays of equal keys."""
    assert a.dtype == b.dtype == object
    assert a.tolist() == b.tolist()


def _same_windows(a, b):
    _same_keys(a.players, b.players)
    for name in ("X", "d", "y", "target_gameweek"):
        _same_bits(getattr(a, name), getattr(b, name))


_SEASONS = ("2020-21", "2021-22", "2022-23")
_TEAMS = ("arsenal", "brentford", "fulham", "liverpool")


@st.composite
def multi_season_players(draw):
    """The rows of 1-4 players, each with 1-3 season runs of 0-8 rows (a
    season may come back after another), and a strength table for every
    season."""
    parts = []
    for p in range(draw(st.integers(1, 4))):
        seasons = []
        for season in draw(st.lists(st.sampled_from(_SEASONS), min_size=1, max_size=3)):
            seasons += [season] * draw(st.integers(0, 8))
        n = len(seasons)
        ints = st.lists(st.integers(-5, 24), min_size=n, max_size=n)
        teams = st.lists(st.sampled_from(_TEAMS), min_size=n, max_size=n)
        parts.append(make_table(
            player_name=f"p{p}", position=Position.MID,
            season=seasons, gameweek=list(range(1, n + 1)), kickoff_order=list(range(n)),
            total_points=draw(ints), minutes=draw(ints), team=draw(teams),
            opponent=draw(teams),
            influence=draw(st.lists(st.floats(0, 100), min_size=n, max_size=n)),
        ))
    return GameweekTable.concat(parts), draw(season_strengths())


@st.composite
def season_strengths(draw):
    """A strength table for every one of _SEASONS."""
    ratings = st.lists(st.integers(1, 5), min_size=len(_TEAMS), max_size=len(_TEAMS))
    return {
        season: dict(zip(_TEAMS, draw(ratings)))
        for season in _SEASONS
    }


# One synthetic season's rows, shared by the window-selection property.
_SEASON_ROWS, _STRENGTHS = generate_synthetic_season(seed=5, n_players=24, n_weeks=8)
_SEASON_KEYS = Players(_SEASON_ROWS).keys.tolist()


class TestPlayersWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["train", "validation", "test", None]),
            min_size=len(_SEASON_KEYS), max_size=len(_SEASON_KEYS),
        ),
        st.integers(1, 4),
        st.sampled_from(list(FeatureTier)),
        st.sampled_from(["train", "validation", "test"]),
        st.booleans(),
    )
    def test_split_is_a_row_selection_of_every_window(self, labels, w, tier, split, flip):
        """A split's windows are the windows of every player with the other
        players' rows dropped, in order, under either difficulty sign."""
        split_map = {key: label for key, label in zip(_SEASON_KEYS, labels) if label}
        players = Players(_SEASON_ROWS, _STRENGTHS, split_map, flip)
        every = players.windows(w, tier)
        picked = players.windows(w, tier, split)
        expected = every.take([split_map.get(key) == split for key in every.players])
        _same_keys(picked.players, expected.players)
        for name in ("X", "d", "y", "target_gameweek"):
            _same_bits(getattr(picked, name), getattr(expected, name))

    @settings(max_examples=150, deadline=None)
    @given(
        multi_season_players(),
        st.lists(st.sampled_from(["train", "validation", "test", None]), max_size=4),
        st.integers(1, 9),
        st.sampled_from(list(FeatureTier)),
        st.sampled_from([None, "train", "validation", "test"]),
        st.booleans(),
    )
    def test_matches_the_per_series_oracle(self, drawn, labels, w, tier, split, flip):
        """Every column is bit-equal to the per-series oracle's, over
        several seasons, windows longer than some runs and players the
        split map leaves out."""
        rows, strengths = drawn
        series_list = build_series(rows)
        split_map = {s.key: label for s, label in zip(series_list, labels) if label}
        players = Players(rows, strengths, split_map, flip)
        _same_windows(
            players.windows(w, tier, split),
            _oracle(series_list, strengths, split_map, w, tier, split, flip),
        )

    @pytest.mark.parametrize("unrated", [None, (0, 0), (0, 2), (0, 5), (0, 7),
                                         (1, 0), (1, 2), (1, 5), (1, 7)])
    @pytest.mark.parametrize("missing", [None, "2020-21", "2021-22"])
    def test_fails_where_the_oracle_fails(self, missing, unrated):
        """Two players over two seasons of 4 rows: a missing season table or
        an unrated opponent raises what the oracle raises, or nothing when
        no target row needs it (the first w rows of a run)."""
        opponents = ["arsenal"] * 16
        if unrated is not None:
            opponents[8 * unrated[0] + unrated[1]] = "nowhere"
        rows = make_table(
            player_name=["p0"] * 8 + ["p1"] * 8, opponent=opponents,
            season=(["2020-21"] * 4 + ["2021-22"] * 4) * 2, gameweek=[1, 2, 3, 4] * 4,
            kickoff_order=[0, 1, 2, 3] * 4,
        )
        series_list = build_series(rows)
        strengths = {
            season: {"fulham": 3, "arsenal": 4}
            for season in ("2020-21", "2021-22") if season != missing
        }
        outcomes = []
        for windows in (
            lambda: Players(rows, strengths).windows(2, FeatureTier.PTSONLY),
            lambda: _oracle(series_list, strengths, {}, 2, FeatureTier.PTSONLY, None, False),
        ):
            try:
                outcomes.append(windows())
            except (KeyError, TeamLookupError) as exc:
                outcomes.append((type(exc), exc.args))
        gathered, expected = outcomes
        if isinstance(expected, WindowSet):
            _same_windows(gathered, expected)
        else:
            assert gathered == expected

    def test_every_window_under_either_sign(self):
        tier = FeatureTier.PTSONLY
        whole = concat_windows(
            [build_windows(s, 3, tier, _STRENGTHS) for s in build_series(_SEASON_ROWS)]
        )
        _same_bits(Players(_SEASON_ROWS, _STRENGTHS).windows(3, tier).d, whole.d)
        flipped = Players(_SEASON_ROWS, _STRENGTHS, flip_difficulty=True)
        _same_bits(flipped.windows(3, tier).d, -whole.d)

    def test_split_needs_a_split_map(self):
        with pytest.raises(ValueError):
            Players(_SEASON_ROWS, _STRENGTHS).windows(3, FeatureTier.PTSONLY, "train")


class TestColumnarOracle:
    """The columnar design paths against the per-window computation:
    each window's mean, each z-scored on its own, then d appended."""

    @pytest.fixture(scope="class")
    def season(self):
        return generate_synthetic_season(seed=7, n_players=40, n_weeks=14)

    @pytest.mark.parametrize("scaled", [False, True], ids=["raw", "scaled"])
    @pytest.mark.parametrize("w", [1, 3, 9])
    @pytest.mark.parametrize("tier", list(FeatureTier), ids=lambda t: t.value)
    def test_matches_per_window_path(self, season, tier, w, scaled):
        rows, strengths = season
        windows = Players(rows, strengths).windows(w, tier)
        per_window = _per_window_windows(build_series(rows), w, tier)
        _same_bits(windows.X, np.stack(per_window))

        means = [x.mean(axis=0) for x in per_window]
        mean_scaler = window_scaler = None
        if scaled:
            mean_scaler = fit_scaler(sliding_average(windows))
            window_scaler = fit_scaler(windows.X)
            for scaler, stacked in (
                (mean_scaler, np.vstack(means)),
                (window_scaler, np.vstack(per_window)),
            ):
                _same_bits(scaler.mean, stacked.mean(axis=0))
                _same_bits(scaler.std, stacked.std(axis=0))
            means = [_zscore(m, mean_scaler) for m in means]
            per_window = [_zscore(x, window_scaler) for x in per_window]

        A, y = sliding_design(windows, mean_scaler)
        _same_bits(A, np.array(
            [np.concatenate([m, [float(d)]]) for m, d in zip(means, windows.d)]
        ))
        _same_bits(y, np.array([float(v) for v in windows.y]))
        scaled, targets = FAMILIES["cnn"].design(windows, window_scaler)
        _same_bits(scaled.X, np.stack(per_window))
        assert scaled.d is windows.d and scaled.y is windows.y and targets is windows.y


class TestFeatureTiers:
    def test_tier_contents_nest(self):
        pts = FeatureTier.PTSONLY.columns()
        pm = FeatureTier.PTS_MINUTES.columns()
        ict = FeatureTier.PTS_ICT.columns()
        full = FeatureTier.FULL.columns()
        assert pts == ["total_points"]
        assert pm[: len(pts)] == pts and "minutes" in pm
        assert set(ict) >= {"influence", "creativity", "threat", "ict_index"}
        assert set(full) >= set(ict) and len(full) == 18

    def test_points_always_first(self):
        for tier in FeatureTier:
            assert tier.columns()[0] == "total_points"


class TestSlidingAverage:
    def test_worked_example_means(self, strengths):
        tier = FeatureTier.FULL
        windows = Players(mitrovic_rows(), strengths).windows(2, tier)
        [sa] = sliding_average(windows)
        cols = tier.columns()
        assert sa[cols.index("total_points")] == pytest.approx(6.5)
        assert sa[cols.index("goals_scored")] == pytest.approx(1.0)
        assert sa[cols.index("assists")] == pytest.approx(0.0)
        [row], [y] = sliding_design(windows)
        assert row[-1] == windows.d[0] and y == windows.y[0]

    def test_constant_window(self, strengths):
        rows = make_table(gameweek=[1, 2, 3, 4], kickoff_order=[0, 1, 2, 3],
                          total_points=4)
        windows = Players(rows, strengths).windows(3, FeatureTier.PTSONLY)
        assert sliding_average(windows).tolist() == [[4.0]]

    def test_w1_is_identity(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(1, FeatureTier.PTSONLY)
        np.testing.assert_array_equal(sliding_average(windows), windows.X[:, 0, :])

    def test_exact_mean_of_columns(self, strengths):
        windows = Players(mitrovic_rows(), strengths).windows(2, FeatureTier.FULL)
        np.testing.assert_allclose(
            sliding_average(windows), windows.X.sum(axis=1) / 2, rtol=0, atol=0
        )


def _players(points_of: dict[str, list[int]]) -> GameweekTable:
    """The rows of one forward per name, one gameweek per point score."""
    return GameweekTable.concat([
        make_table(
            player_name=name,
            gameweek=list(range(1, len(points) + 1)),
            kickoff_order=list(range(len(points))),
            total_points=list(points),
        )
        for name, points in points_of.items()
    ])


class TestAssignSplits:
    def make_players(self, n):
        return _players({f"player {i:02d}": [i % 7, 2, 5] for i in range(n)})

    def test_twenty_players_single_bin(self):
        splits = assign_splits(
            self.make_players(20), (0.6, 0.25, 0.15), n_bins=1, seed=3
        )
        counts = {"train": 0, "validation": 0, "test": 0}
        for split in splits.values():
            counts[split] += 1
        assert counts == {"train": 12, "validation": 5, "test": 3}

    def test_partition_property(self):
        rows = self.make_players(23)
        splits = assign_splits(rows, seed=5)
        assert set(splits) == set(row_keys(rows))

    def test_single_player_goes_to_train(self):
        with pytest.warns(UserWarning):
            splits = assign_splits(self.make_players(1), seed=0)
        assert list(splits.values()) == ["train"]

    def test_deterministic(self):
        players = self.make_players(17)
        a = assign_splits(players, seed=9)
        b = assign_splits(players, seed=9)
        assert a == b

    def test_seed_changes_assignment(self):
        players = self.make_players(40)
        a = assign_splits(players, seed=1)
        b = assign_splits(players, seed=2)
        assert a != b

    def test_per_bin_counts_near_targets(self):
        players = self.make_players(37)
        splits = assign_splits(players, (0.6, 0.25, 0.15), n_bins=4, seed=2)
        counts = {"train": 0, "validation": 0, "test": 0}
        for split in splits.values():
            counts[split] += 1
        # Largest-remainder keeps each bin within 1 of target, so the
        # total stays within n_bins of the global target.
        assert abs(counts["train"] - 0.6 * 37) < 4
        assert abs(counts["validation"] - 0.25 * 37) < 4
        assert abs(counts["test"] - 0.15 * 37) < 4

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            assign_splits(self.make_players(5), (0.5, 0.2, 0.2))

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no players"):
            assign_splits(GameweekTable.empty())

    def test_adding_player_perturbs_minimally(self):
        players = self.make_players(30)
        before = assign_splits(players, n_bins=1, seed=4)
        extra = _players({"zz extra": [3, 3, 3]})
        after = assign_splits(GameweekTable.concat([players, extra]), n_bins=1,
                              seed=4)
        moved = sum(1 for key in before if before[key] != after[key])
        assert moved <= 3


class TestStratifiedBins:
    def players(self, n):
        return Players(_players({f"player {i:02d}": [i % 7, 2, i % 3] for i in range(n)}))

    @pytest.mark.parametrize("strat_on", ["avg_score", "stdev_score", "none"])
    def test_bins_partition_the_players(self, strat_on):
        players = self.players(11)
        bins = stratified_bins(players, 3, strat_on, seed=1)
        assert len(bins) == (1 if strat_on == "none" else 3)
        assert sorted(key.canonical_name for b in bins for key in b) == sorted(
            key.canonical_name for key in players.keys
        )

    def test_bins_rank_by_the_statistic(self):
        players = self.players(12)
        bins = stratified_bins(players, 3, "avg_score", seed=1)
        mean = players.points_statistic(np.mean)
        means = [[mean[key] for key in b] for b in bins]
        assert max(means[0]) <= min(means[1]) and max(means[1]) <= min(means[2])

    def test_bin_count_clamped_to_players(self):
        assert len(stratified_bins(self.players(3), 9, "avg_score", seed=0)) == 3

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_fewer_than_one_bin_rejected(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            stratified_bins(self.players(5), n_bins, "avg_score", seed=0)
        with pytest.raises(ValueError, match="n_bins"):
            assign_splits(self.players(5).rows, n_bins=n_bins)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            stratified_bins(self.players(5), 2, "bogus", seed=0)


class TestScaler:
    def _windows(self, values, d=0):
        """One single-week, single-feature window per value."""
        n = len(values)
        return WindowSet(
            X=np.array(values, dtype=float).reshape(n, 1, 1),
            d=np.full(n, d),
            y=np.ones(n, dtype=np.int64),
            players=(CanonicalPlayerKey("someone", Position.FWD),) * n,
            target_gameweek=np.full(n, 2),
        )

    def test_two_point_example(self):
        params = fit_scaler(self._windows([1.0, 3.0]).X)
        assert params.mean[0] == pytest.approx(2.0)
        assert params.std[0] == pytest.approx(1.0)  # population std
        scaled = apply_scaler(params, self._windows([1.0, 3.0]).X)
        assert scaled[0, 0, 0] == pytest.approx(-1.0)
        assert scaled[1, 0, 0] == pytest.approx(1.0)

    def test_constant_feature_records_zero_std(self):
        params = fit_scaler(self._windows([4.0, 4.0]).X)
        assert params.std[0] == 0.0
        scaled = apply_scaler(params, self._windows([9.0]).X)
        assert scaled[0, 0, 0] == 0.0

    def test_training_data_centered_after_transform(self):
        windows = self._windows([1.0, 2.0, 5.0, 9.0])
        params = fit_scaler(windows.X)
        transformed = apply_scaler(params, windows.X)[:, 0, 0]
        assert abs(np.mean(transformed)) < 1e-9

    def test_round_trip(self):
        windows = self._windows([1.0, 2.0, 7.0])
        params = fit_scaler(windows.X)
        z = apply_scaler(params, windows.X)
        recovered = z * params.std + params.mean
        np.testing.assert_allclose(recovered, windows.X, atol=1e-9)

    def test_d_and_y_not_scaled(self):
        windows = self._windows([1.0, 3.0], d=3)
        params = fit_scaler(windows.X)
        scaled, _ = FAMILIES["cnn"].design(windows, params)
        assert scaled.d[0] == 3 and scaled.y[0] == 1
        [row, _], [y, _] = sliding_design(windows, fit_scaler(sliding_average(windows)))
        assert row[-1] == 3 and y == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(WindowSet.empty(3, 1).X)

    def test_dimension_mismatch_rejected(self):
        params = fit_scaler(self._windows([1.0, 3.0]).X)
        with pytest.raises(ValueError):
            apply_scaler(params, np.zeros((1, 1, 2)))

    def test_windowed_pools_all_rows(self):
        params = fit_scaler(np.array([[[1.0], [3.0]]]))
        assert params.mean[0] == pytest.approx(2.0)


def _synthetic_season_oracle(seed, n_players, n_weeks, position_mix):
    # generate_synthetic_season as it stood before it computed whole
    # columns: every value made row by row, with numpy scalar rounding.
    rng = np.random.default_rng(seed)
    season = "synthetic"
    teams = [f"team{t:02d}" for t in range(_SYNTH_TEAMS)]
    strengths = {
        team: int(s)
        for team, s in zip(teams, rng.integers(1, 6, size=_SYNTH_TEAMS))
    }
    mix_total = sum(position_mix)
    counts = _largest_remainder(n_players, tuple(m / mix_total for m in position_mix))
    positions = []
    for pos, count in zip(Position, counts):
        positions.extend([pos] * count)

    name_width = max(3, len(str(n_players - 1)))
    columns = {c.field: [] for c in GAMEWEEK_SCHEMA}
    for p in range(n_players):
        position = positions[p]
        team = teams[p % _SYNTH_TEAMS]
        skill = float(rng.uniform(0.5, 7.5))
        form = 0.0
        for week in range(1, n_weeks + 1):
            opponent = teams[int(rng.integers(0, _SYNTH_TEAMS - 1))]
            if opponent == team:
                opponent = teams[_SYNTH_TEAMS - 1]
            gap = strengths[opponent] - strengths[team]
            form = 0.6 * form + float(rng.normal(0.0, 1.0))
            noise = float(rng.gamma(2.0, 1.5)) - 3.0
            points = int(np.clip(round(skill + form - 0.4 * gap + noise), -5, 24))
            minutes = int(rng.integers(45, 91))
            goals = max(0, int(round((points - 2) / 4))) if position != Position.GK else 0
            saves = int(rng.integers(0, 6)) if position == Position.GK else 0
            influence = float(np.round(max(0.0, points * 2.0 + rng.normal(0, 2)), 1))
            creativity = float(np.round(max(0.0, skill * 3.0 + rng.normal(0, 2)), 1))
            threat = float(np.round(max(0.0, goals * 15.0 + rng.normal(0, 2)), 1))
            row = dict(
                player_name=_synth_name(p, name_width),
                position=position,
                season=season,
                gameweek=week,
                team=team,
                opponent=opponent,
                minutes=minutes,
                total_points=points,
                goals_scored=goals,
                assists=int(rng.integers(0, 2)),
                clean_sheets=int(points >= 6),
                goals_conceded=int(rng.integers(0, 3)),
                saves=saves,
                bps=max(0, points * 3),
                bonus=int(np.clip(points - 7, 0, 3)),
                influence=influence,
                creativity=creativity,
                threat=threat,
                ict_index=float(np.round((influence + creativity + threat) / 10.0, 1)),
                was_home=bool(rng.integers(0, 2)),
                kickoff_order=week - 1,
            )
            for name, column in columns.items():
                column.append(row.get(name, 0))
    return GameweekTable(**columns), strengths


# Position mixes: random shares, and ones without goalkeepers or with
# nothing else, since only goalkeepers draw saves and never score.
position_mixes = st.one_of(
    st.sampled_from([(1, 0, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1), (2, 5, 5, 3)]),
    st.tuples(*[st.integers(0, 5)] * 4).filter(any),
)


class TestSyntheticSeason:
    def test_deterministic(self):
        a_rows, a_str = generate_synthetic_season(3, 10, 6)
        b_rows, b_str = generate_synthetic_season(3, 10, 6)
        assert_tables_equal(a_rows, b_rows)
        assert a_str == b_str

    def test_row_count(self):
        rows, _ = generate_synthetic_season(1, 13, 9)
        assert len(rows) == 13 * 9
        assert_every_column_is_an_array(rows)

    def test_points_in_legal_range(self):
        rows, _ = generate_synthetic_season(2, 50, 20)
        assert all(-5 <= p <= 24 for p in rows.total_points)

    def test_all_rows_played(self):
        rows, _ = generate_synthetic_season(5, 20, 10)
        assert all(m > 0 for m in rows.minutes)

    def test_strengths_cover_all_teams(self):
        rows, strengths = generate_synthetic_season(4, 25, 5)
        assert list(strengths) == ["synthetic"]
        for team, opponent in zip(rows.team, rows.opponent):
            assert strengths["synthetic"][team] in range(1, 6)
            assert strengths["synthetic"][opponent] in range(1, 6)

    def test_names_survive_fuzzy_merge(self):
        from fplcast.ingest import token_sort_similarity

        rows, _ = generate_synthetic_season(6, 120, 2)
        names = sorted(set(rows.player_name))
        assert len(names) == 120
        # Spot-check adjacent ids, the closest name pairs by construction.
        for a, b in zip(names, names[1:]):
            assert token_sort_similarity(a, b) < 0.85

    def test_position_mix_respected(self):
        rows, _ = generate_synthetic_season(7, 30, 2, position_mix=(0, 0, 1, 0))
        assert all(p is Position.MID for p in rows.position)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(2, 12), position_mixes)
    def test_matches_the_row_by_row_oracle(self, seed, n_players, n_weeks, mix):
        rows, strengths = generate_synthetic_season(seed, n_players, n_weeks, mix)
        want_rows, want_strengths = _synthetic_season_oracle(seed, n_players, n_weeks, mix)
        assert_tables_equal(rows, want_rows)
        same_csv = write_raw_csv(rows) == write_raw_csv(want_rows)
        assert same_csv
        assert strengths == {"synthetic": want_strengths}


class TestGrouping:
    def test_groups_by_player_and_orders(self, strengths):
        rows = make_table(player_name=["b", "a", "b"], gameweek=[2, 1, 1],
                          kickoff_order=[5, 0, 1], total_points=[20, 0, 10])
        players = Players(rows, strengths)
        assert [key.canonical_name for key in players.keys] == ["a", "b"]
        # b's rows in kickoff order: its gameweek 1 is the window of its 2.
        windows = players.windows(1, FeatureTier.PTSONLY)
        assert windows.X.tolist() == [[[10.0]]] and windows.y.tolist() == [20]
        assert windows.target_gameweek.tolist() == [2]

    def test_one_player_per_canonical_name_and_position(self):
        rows = make_table(
            player_name=["Pelé", " pele ", "PELE", "pele"],
            position=[Position.FWD, Position.FWD, Position.FWD, Position.MID],
            gameweek=[1, 2, 3, 1], kickoff_order=[0, 1, 2, 0],
        )
        # Positions order by their value, as in a splits file.
        assert Players(rows).keys.tolist() == [
            CanonicalPlayerKey("pele", Position.FWD), CanonicalPlayerKey("pele", Position.MID),
        ]

    def test_statistics_of_each_players_points(self):
        rows = make_table(gameweek=[1, 2], kickoff_order=[0, 1], total_points=[2, 6])
        players = Players(rows)
        [key] = players.keys.tolist()
        assert players.points_statistic(np.mean) == {key: 4.0}
        assert players.points_statistic(np.std) == {key: 2.0}  # population

    def test_a_fold_shares_the_grouping(self, strengths):
        players = Players(mitrovic_rows(), strengths)
        fold = replace(players, splits={})
        assert fold._grouping is players._grouping
        regrouped = replace(players, rows=mitrovic_rows())
        assert regrouped._grouping is not players._grouping


_NAMES = ("zoë ødegaard", "son heung-min", "ab", "b a")


def _spellings(name: str):
    """Spellings of `name` that canonicalize to what it does."""
    return st.sampled_from([name, name.upper(), f"  {name} ", name.replace(" ", "   ")])


@st.composite
def shuffled_players(draw):
    """Rows of 1-5 players of two positions, each with runs of 0-6 rows in
    1-3 seasons, every row spelled its own way, and then shuffled."""
    parts = []
    for name, position in draw(st.lists(
        st.tuples(st.sampled_from(_NAMES), st.sampled_from([Position.MID, Position.FWD])),
        min_size=1, max_size=5, unique=True,
    )):
        seasons = []
        for season in draw(st.lists(st.sampled_from(_SEASONS), min_size=1, max_size=3,
                                    unique=True)):
            seasons += [season] * draw(st.integers(0, 6))
        n = len(seasons)
        parts.append(make_table(
            player_name=[draw(_spellings(name)) for _ in range(n)], position=position,
            season=seasons, gameweek=list(range(1, n + 1)), kickoff_order=list(range(n)),
            total_points=draw(st.lists(st.integers(-5, 24), min_size=n, max_size=n)),
            team=draw(st.lists(st.sampled_from(_TEAMS), min_size=n, max_size=n)),
            opponent=draw(st.lists(st.sampled_from(_TEAMS), min_size=n, max_size=n)),
        ))
    rows = GameweekTable.concat(parts)
    order = draw(st.permutations(range(len(rows))))
    return rows.take(np.array(order, dtype=np.int64)), draw(season_strengths())


class TestGroupingOracle:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_players(), st.integers(1, 4), st.booleans(), st.randoms(use_true_random=False))
    def test_matches_build_series(self, drawn, w, flip, random):
        """Players groups rows in any order as build_series does: the same
        keys, windows bit for bit, each player's statistics bit for bit, and
        the same splits whatever the row order."""
        rows, strengths = drawn
        series_list = build_series(rows)
        players = Players(rows, strengths, flip_difficulty=flip)
        assert players.keys.tolist() == [s.key for s in series_list]
        _same_windows(
            players.windows(w, FeatureTier.PTSONLY),
            _oracle(series_list, strengths, {}, w, FeatureTier.PTSONLY, None, flip),
        )
        for statistic in (np.mean, np.std):
            got = players.points_statistic(statistic)
            assert list(got) == [s.key for s in series_list]
            for s in series_list:
                _same_bits(got[s.key], float(statistic(s.table.total_points)))
        if len(players.keys):
            order = list(range(len(rows)))
            random.shuffle(order)
            shuffled = rows.take(np.array(order, dtype=np.int64))
            n_bins = min(2, len(players.keys))
            assert (assign_splits(rows, n_bins=n_bins, seed=3)
                    == assign_splits(shuffled, n_bins=n_bins, seed=3))
