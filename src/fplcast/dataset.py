"""Windowed example construction, splits, scaling, and synthetic seasons.

A cleaned player series becomes one training example per retained gameweek
that has a full window of w prior appearances: the w-by-f feature window,
the following match's difficulty gap, and that match's points as the
target. Examples are held column by column in a WindowSet. Baseline models
consume the per-feature window means instead of the full window.
"""

from __future__ import annotations

import enum
import hashlib
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import (
    GAMEWEEK_SCHEMA,
    NUMERIC_STATS,
    CanonicalPlayerKey,
    GameweekTable,
    Position,
    TeamStrengthTable,
    canonicalize_name,
    compute_difficulty,
)

__all__ = [
    "PlayerSeries",
    "FeatureTier",
    "WindowSet",
    "SplitAssignment",
    "ScalerParams",
    "build_series",
    "build_windows",
    "concat_windows",
    "sliding_average",
    "assign_splits",
    "fit_scaler",
    "apply_scaler",
    "generate_synthetic_season",
    "stable_hash",
]

DIFFICULTY_FEATURE = "difficulty_gap"

# The statistics assign_splits can stratify players on.
STRAT_ON = ("avg_score", "stdev_score", "none")


@dataclass
class PlayerSeries:
    """All retained rows for one player, in chronological order."""

    key: CanonicalPlayerKey
    table: GameweekTable

    @property
    def avg_score(self) -> float:
        return float(np.mean(self.table.total_points))

    @property
    def stdev_score(self) -> float:
        # Population standard deviation, consistent with the scaler.
        return float(np.std(self.table.total_points))


class FeatureTier(enum.Enum):
    """How many of the numeric gameweek statistics enter the window."""

    PTSONLY = "ptsonly"
    PTS_MINUTES = "pts_minutes"
    PTS_ICT = "pts_ict"
    FULL = "full"

    def columns(self) -> list[str]:
        if self is FeatureTier.PTSONLY:
            return ["total_points"]
        if self is FeatureTier.PTS_MINUTES:
            return ["total_points", "minutes"]
        if self is FeatureTier.PTS_ICT:
            return [
                "total_points",
                "minutes",
                "influence",
                "creativity",
                "threat",
                "ict_index",
            ]
        return list(NUMERIC_STATS)


@dataclass(frozen=True, eq=False)
class WindowSet:
    """(window, difficulty, target) examples, one row per example."""

    X: np.ndarray  # n x w x f feature windows
    d: np.ndarray  # n difficulty gaps (int)
    y: np.ndarray  # n target points (int)
    players: tuple[CanonicalPlayerKey, ...]  # n
    target_gameweek: np.ndarray  # n (int)

    @classmethod
    def empty(cls, w: int, f: int) -> WindowSet:
        """No windows, shaped for w weeks of f features."""
        no_ints = np.zeros(0, dtype=np.int64)
        return cls(np.zeros((0, w, f)), no_ints, no_ints, (), no_ints)

    def __len__(self) -> int:
        return len(self.d)

    def take(self, idx) -> WindowSet:
        """The rows that `idx` (indices or a boolean mask) selects."""
        rows = np.arange(len(self))[idx]
        return WindowSet(
            X=self.X[rows],
            d=self.d[rows],
            y=self.y[rows],
            players=tuple(self.players[i] for i in rows),
            target_gameweek=self.target_gameweek[rows],
        )


def concat_windows(parts: Sequence[WindowSet]) -> WindowSet:
    """The rows of every part, in order; parts share w and f."""
    return WindowSet(
        X=np.concatenate([p.X for p in parts]),
        d=np.concatenate([p.d for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        players=tuple(key for p in parts for key in p.players),
        target_gameweek=np.concatenate([p.target_gameweek for p in parts]),
    )


@dataclass
class SplitAssignment:
    """Player-disjoint train/validation/test membership."""

    assignments: dict[CanonicalPlayerKey, str]
    fractions: tuple[float, float, float]
    n_bins: int
    strat_on: str
    seed: int

    def players(self, split: str) -> list[CanonicalPlayerKey]:
        return [k for k, s in self.assignments.items() if s == split]


@dataclass
class ScalerParams:
    """Per-feature population mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray
    fitted_on: str = "train"


def _runs(keys: Sequence) -> list[slice]:
    """The maximal runs of equal consecutive keys, as slices."""
    if not keys:
        return []
    bounds = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]] + [len(keys)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def build_series(table: GameweekTable) -> list[PlayerSeries]:
    """Group cleaned rows into per-player series ordered chronologically.

    Rows must already carry canonical player names. A player appearing in
    two seasons forms a single series; rows order by (season, kickoff_order).
    """
    canonical = {name: canonicalize_name(name) for name in set(table.player_name)}
    keys = [
        CanonicalPlayerKey(canonical[name], position)
        for name, position in zip(table.player_name, table.position)
    ]
    kickoff_order = table.kickoff_order.tolist()
    order = sorted(
        range(len(table)),
        key=lambda i: (keys[i].canonical_name, keys[i].position.value,
                       table.season[i], kickoff_order[i]),
    )
    ordered, keys = table.take(order), [keys[i] for i in order]
    return [PlayerSeries(keys[run.start], ordered.take(run)) for run in _runs(keys)]


def build_windows(
    series: PlayerSeries,
    w: int,
    tier: FeatureTier,
    strengths: dict[str, TeamStrengthTable] | TeamStrengthTable,
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
    for run in _runs(table.season):
        if run.stop - run.start < w + 1:
            continue
        season, season_strengths = table.season[run.start], strengths
        if isinstance(strengths, dict):
            if season not in strengths:
                raise KeyError(f"no strength table for season '{season}'")
            season_strengths = strengths[season]
        # Window i holds rows i..i+w-1 and predicts row i+w.
        windows.append(sliding_window_view(feats[run], w, axis=0)[:-1].transpose(0, 2, 1))
        targets.append(table.take(slice(run.start + w, run.stop)))
        d.append(compute_difficulty(targets[-1], season_strengths))
    if not targets:
        return WindowSet.empty(w, len(columns))
    target = GameweekTable.concat(targets)
    return WindowSet(
        X=np.concatenate(windows),
        d=np.concatenate(d),
        y=target.total_points,
        players=(series.key,) * len(target),
        target_gameweek=target.gameweek,
    )


def sliding_average(windows: WindowSet) -> np.ndarray:
    """Per-feature arithmetic means of each window: n x f."""
    return windows.X.mean(axis=1)


def stable_hash(*parts) -> int:
    """Deterministic 64-bit hash of the stringified parts (platform-stable,
    unlike builtin hash)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _largest_remainder(n: int, fractions: tuple[float, ...]) -> list[int]:
    quotas = [n * f for f in fractions]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    short = n - sum(counts)
    # Ties go to the earlier split (train before validation before test).
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def assign_splits(
    series_list: list[PlayerSeries],
    fractions: tuple[float, float, float] = (0.60, 0.25, 0.15),
    n_bins: int = 4,
    strat_on: str = "avg_score",
    seed: int = 0,
) -> SplitAssignment:
    """Partition players into train/validation/test, stratified on skill.

    Players are rank-bucketed into n_bins quantile bins of the chosen
    statistic; inside each bin a deterministic shuffle keyed by
    (seed, canonical_name) orders players, and largest-remainder rounding
    fixes the per-bin counts. Examples never cross splits because the
    partition is by player.
    """
    if strat_on not in STRAT_ON:
        raise ValueError(f"unknown stratification statistic '{strat_on}'")
    if any(f <= 0 for f in fractions):
        raise ValueError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {sum(fractions)}")
    if not series_list:
        raise ValueError("no players to split")

    if n_bins > len(series_list):
        warnings.warn(
            f"n_bins={n_bins} exceeds player count {len(series_list)}; clamping",
            stacklevel=2,
        )
        n_bins = len(series_list)
    if strat_on == "none":
        n_bins = 1

    def stat(s: PlayerSeries) -> float:
        return s.avg_score if strat_on == "avg_score" else s.stdev_score

    if strat_on == "none":
        ranked = sorted(series_list, key=lambda s: s.key.canonical_name)
    else:
        ranked = sorted(series_list, key=lambda s: (stat(s), s.key.canonical_name))

    # Equal-count rank chunks = empirical quantile bins.
    edges = [round(i * len(ranked) / n_bins) for i in range(n_bins + 1)]
    assignments: dict[CanonicalPlayerKey, str] = {}
    for b in range(n_bins):
        bin_players = ranked[edges[b] : edges[b + 1]]
        bin_players.sort(key=lambda s: stable_hash(seed, s.key.canonical_name))
        counts = _largest_remainder(len(bin_players), fractions)
        cursor = 0
        for split, count in zip(("train", "validation", "test"), counts):
            for s in bin_players[cursor : cursor + count]:
                assignments[s.key] = split
            cursor += count
    return SplitAssignment(
        assignments=assignments,
        fractions=fractions,
        n_bins=n_bins,
        strat_on=strat_on,
        seed=seed,
    )


def fit_scaler(A: np.ndarray) -> ScalerParams:
    """Population mean/std per feature (the last axis) over the training
    features: every row of every window, or one mean vector per window.
    Difficulty and target are never scaled.
    """
    A = np.asarray(A)
    rows = A.reshape(-1, A.shape[-1])
    if rows.shape[0] == 0:
        raise ValueError("cannot fit a scaler on zero examples")
    return ScalerParams(mean=rows.mean(axis=0), std=rows.std(axis=0), fitted_on="train")


def apply_scaler(params: ScalerParams, A: np.ndarray) -> np.ndarray:
    """Z-scored copy of features whose last axis is the scaler's.

    Features with zero training variance map to 0.
    """
    if A.shape[-1] != params.mean.shape[0]:
        raise ValueError(
            f"feature count mismatch: features have {A.shape[-1]}, "
            f"scaler has {params.mean.shape[0]}"
        )
    safe_std = np.where(params.std > 0, params.std, 1.0)
    z = (A - params.mean) / safe_std
    z[..., params.std == 0] = 0.0
    return z


_SYNTH_TEAMS = 20
_POINTS_MIN, _POINTS_MAX = -5, 24

# Any two blocks differ in >= 3 of their 4 characters, so synthetic names
# built from them stay below the 0.85 fuzzy-match threshold and survive
# ingestion unmerged.
_NAME_BLOCKS = (
    "bana", "cepa", "diqa", "fora", "gusa",
    "hate", "jeve", "kiwe", "loxe", "muze",
)


def _synth_name(p: int, width: int) -> str:
    digits = [(p // 10**i) % 10 for i in reversed(range(width))]
    return "".join(_NAME_BLOCKS[d] for d in digits)


def generate_synthetic_season(
    seed: int,
    n_players: int,
    n_weeks: int,
    position_mix: tuple[float, float, float, float] = (2 / 15, 5 / 15, 5 / 15, 3 / 15),
) -> tuple[GameweekTable, TeamStrengthTable]:
    """Deterministic desk-scale season standing in for real data.

    Each player gets a latent skill drawn once and a slowly-mixing form
    state; weekly points are a right-skewed integer draw centered on
    skill + form, shaded by the upcoming difficulty gap, and clipped to
    the legal score range. Every emitted row has minutes > 0; the
    discipline counts (cards, own goals, penalties) are all 0.
    """
    if n_players < 1:
        raise ValueError("n_players must be >= 1")
    if n_weeks < 2:
        raise ValueError("n_weeks must be >= 2")
    rng = np.random.default_rng(seed)
    season = "synthetic"

    teams = [f"team{t:02d}" for t in range(_SYNTH_TEAMS)]
    strengths = TeamStrengthTable(
        season=season,
        entries={
            team: int(s)
            for team, s in zip(teams, rng.integers(1, 6, size=_SYNTH_TEAMS))
        },
    )

    mix_total = sum(position_mix)
    counts = _largest_remainder(
        n_players, tuple(m / mix_total for m in position_mix)
    )
    positions: list[Position] = []
    for pos, count in zip(Position.ordered(), counts):
        positions.extend([pos] * count)

    name_width = max(3, len(str(n_players - 1)))
    columns: dict[str, list] = {c.field: [] for c in GAMEWEEK_SCHEMA}
    for p in range(n_players):
        position = positions[p]
        team = teams[p % _SYNTH_TEAMS]
        skill = float(rng.uniform(0.5, 7.5))
        form = 0.0
        for week in range(1, n_weeks + 1):
            opponent = teams[int(rng.integers(0, _SYNTH_TEAMS - 1))]
            if opponent == team:
                opponent = teams[_SYNTH_TEAMS - 1]
            gap = strengths.entries[opponent] - strengths.entries[team]
            form = 0.6 * form + float(rng.normal(0.0, 1.0))
            # gamma(2, 1.5) has mean 3: re-centered it is a right-skewed
            # zero-mean disturbance.
            noise = float(rng.gamma(2.0, 1.5)) - 3.0
            points = int(np.clip(round(skill + form - 0.4 * gap + noise),
                                 _POINTS_MIN, _POINTS_MAX))
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
