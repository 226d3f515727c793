"""Windowed example construction, splits, scaling, and synthetic seasons.

Players groups cleaned gameweek rows, given in any order, once: it sorts
them by player (canonical name and position), then season and kickoff,
and keeps each player's key beside the sorted table. A row becomes one
training example when w rows of its player's season precede it: the w-by-f
feature window, that match's difficulty gap, and its points as the target.
Players.windows gathers them from the sorted table and rates the target
rows alone with one ingest.compute_difficulty call against the per-season
strength tables. Examples are held column by column in a WindowSet.
Baseline models consume the per-feature window means instead of the full
window. A synthetic season draws its random numbers row by row and derives
the rest column by column.
"""

from __future__ import annotations

import enum
import hashlib
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

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
    "FeatureTier",
    "WindowSet",
    "SplitAssignment",
    "Players",
    "ScalerParams",
    "sliding_average",
    "stratified_bins",
    "assign_splits",
    "fit_scaler",
    "apply_scaler",
    "generate_synthetic_season",
    "stable_hash",
]

DIFFICULTY_FEATURE = "difficulty_gap"

# What stratified_bins can rank players on: the mean or the population
# standard deviation of a player's points, or "none" for name order.
STRAT_ON = ("avg_score", "stdev_score", "none")


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
    """(window, difficulty, target) examples, one row per example; every
    field is a numpy array whose first axis runs over the examples."""

    X: np.ndarray  # n x w x f feature windows
    d: np.ndarray  # n difficulty gaps (int)
    y: np.ndarray  # n target points (int)
    players: np.ndarray  # n CanonicalPlayerKey objects (dtype object)
    target_gameweek: np.ndarray  # n (int)

    @classmethod
    def empty(cls, w: int, f: int) -> WindowSet:
        """No windows, shaped for w weeks of f features."""
        no_ints = np.zeros(0, dtype=np.int64)
        return cls(np.zeros((0, w, f)), no_ints, no_ints, np.zeros(0, dtype=object), no_ints)

    def __len__(self) -> int:
        return len(self.d)

    def take(self, idx) -> WindowSet:
        """The rows that `idx` (a slice, indices or a boolean mask) selects."""
        return WindowSet(*(getattr(self, f.name)[idx] for f in fields(self)))


@dataclass
class SplitAssignment:
    """Player-disjoint train/validation/test membership."""

    assignments: dict[CanonicalPlayerKey, str]
    fractions: tuple[float, float, float]
    n_bins: int
    strat_on: str
    seed: int


@dataclass
class ScalerParams:
    """Per-feature population mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray


def _group(rows: GameweekTable):
    """`rows` in player order: sorted by (canonical name, position, season,
    kickoff_order). Returns the sorted table, one CanonicalPlayerKey per
    player, each sorted row's player index and its place in its (player,
    season) run."""
    names, positions = rows.player_name.tolist(), rows.position.tolist()
    canonical = {name: canonicalize_name(name) for name in set(names)}
    player = [(canonical[name], position.value) for name, position in zip(names, positions)]
    seasons, kickoffs = rows.season.tolist(), rows.kickoff_order.tolist()
    order = sorted(range(len(rows)), key=lambda i: (*player[i], seasons[i], kickoffs[i]))
    table = rows.take(np.array(order, dtype=np.int64))
    player = [player[i] for i in order]
    first = np.array([i == 0 or player[i] != player[i - 1] for i in range(len(player))], bool)
    keys = np.array([CanonicalPlayerKey(name, Position(value))
                     for (name, value), new in zip(player, first) if new], dtype=object)
    run_start = first.copy()
    run_start[1:] |= table.season[1:] != table.season[:-1]
    index = np.arange(len(table))
    run_pos = index - np.maximum.accumulate(np.where(run_start, index, 0))
    return table, keys, np.cumsum(first) - 1, run_pos


@dataclass(frozen=True, eq=False)
class Players:
    """What windows are built from: the players' gameweek rows, in any
    order, their season strength tables, each player's split, and the
    difficulty sign. A player is a canonical name and a position."""

    rows: GameweekTable
    strengths: dict[str, TeamStrengthTable] = field(default_factory=dict)  # season -> table
    splits: dict[CanonicalPlayerKey, str] | None = None  # player key -> split
    # True for difficulty_sign own_minus_opponent: every difficulty negated.
    flip_difficulty: bool = False
    # (rows, *_group(rows)), made once; a copy by dataclasses.replace with
    # the same rows (a CV fold) shares it.
    _grouping: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._grouping is None or self._grouping[0] is not self.rows:
            object.__setattr__(self, "_grouping", (self.rows, *_group(self.rows)))

    @property
    def keys(self) -> np.ndarray:
        """One CanonicalPlayerKey per player (dtype object), in player order."""
        return self._grouping[2]

    def points_statistic(self, statistic) -> dict[CanonicalPlayerKey, float]:
        """`statistic` (np.mean or np.std) of each player's points."""
        _, table, keys, owner, _ = self._grouping
        points = np.split(table.total_points, np.flatnonzero(np.diff(owner)) + 1)
        return {key: float(statistic(p)) for key, p in zip(keys.tolist(), points)}

    def windows(self, w: int, tier: FeatureTier, split: str | None = None) -> WindowSet:
        """Windows of every player, or only of the players `splits` assigns
        to `split`, in player order.

        A row is a target when w rows of its (player, season) run precede
        it; they are its window. Difficulty is computed on target rows only.
        """
        if split is not None and self.splits is None:
            raise ValueError(f"no split map to select '{split}' players from")
        if w < 1:
            raise ValueError(f"window size must be >= 1, got {w}")
        _, table, keys, owner, run_pos = self._grouping
        targets = run_pos >= w
        if split is not None:
            member = np.array([self.splits.get(key) == split for key in keys.tolist()], bool)
            targets &= member[owner]
        t = np.flatnonzero(targets)
        columns = tier.columns()
        if not len(t):
            return WindowSet.empty(w, len(columns))
        # A missing season table or an unrated team fails at the first
        # target row, in player order, that needs it.
        d = compute_difficulty(table.take(t), self.strengths)
        return WindowSet(
            X=table.matrix(columns)[t[:, None] - w + np.arange(w)],
            d=-d if self.flip_difficulty else d,
            y=table.total_points[t],
            players=keys[owner[t]],
            target_gameweek=table.gameweek[t],
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


def stratified_bins(
    players: Players, n_bins: int, strat_on: str, seed: int
) -> list[list[CanonicalPlayerKey]]:
    """Player keys in equal-count quantile bins of the `strat_on` statistic.

    Players rank by the statistic then canonical name (by name alone, in a
    single bin, for "none"); n_bins is clamped to the player count. Inside
    each bin a deterministic shuffle keyed by (seed, canonical_name) orders
    players.
    """
    if strat_on not in STRAT_ON:
        raise ValueError(f"unknown stratification statistic '{strat_on}'")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    keys = players.keys.tolist()
    if not keys:
        raise ValueError("no players to bin")
    if strat_on == "none":
        n_bins = 1
        ranked = sorted(keys, key=lambda k: k.canonical_name)
    else:
        n_bins = min(n_bins, len(keys))
        score = players.points_statistic(np.mean if strat_on == "avg_score" else np.std)
        ranked = sorted(keys, key=lambda k: (score[k], k.canonical_name))
    # Equal-count rank chunks = empirical quantile bins.
    edges = [round(i * len(ranked) / n_bins) for i in range(n_bins + 1)]
    return [
        sorted(ranked[a:b], key=lambda k: stable_hash(seed, k.canonical_name))
        for a, b in zip(edges, edges[1:])
    ]


def assign_splits(
    rows: GameweekTable,
    fractions: tuple[float, float, float] = (0.60, 0.25, 0.15),
    n_bins: int = 4,
    strat_on: str = "avg_score",
    seed: int = 0,
) -> SplitAssignment:
    """Partition the players of `rows` into train/validation/test,
    stratified on skill.

    Players are dealt from their stratified_bins; largest-remainder
    rounding fixes the per-bin counts. Examples never cross splits because
    the partition is by player.
    """
    if any(f <= 0 for f in fractions):
        raise ValueError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {sum(fractions)}")
    players = Players(rows)
    if not len(players.keys):
        raise ValueError("no players to split")
    if n_bins > len(players.keys):
        warnings.warn(
            f"n_bins={n_bins} exceeds player count {len(players.keys)}; clamping",
            stacklevel=2,
        )

    bins = stratified_bins(players, n_bins, strat_on, seed)
    assignments: dict[CanonicalPlayerKey, str] = {}
    for bin_keys in bins:
        counts = _largest_remainder(len(bin_keys), fractions)
        cursor = 0
        for split, count in zip(("train", "validation", "test"), counts):
            for key in bin_keys[cursor : cursor + count]:
                assignments[key] = split
            cursor += count
    return SplitAssignment(
        assignments=assignments,
        fractions=fractions,
        n_bins=len(bins),
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
    return ScalerParams(mean=rows.mean(axis=0), std=rows.std(axis=0))


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
) -> tuple[GameweekTable, dict[str, TeamStrengthTable]]:
    """Deterministic desk-scale season standing in for real data, and its
    strengths as {"synthetic": table}.

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
    for pos, count in zip(Position, counts):
        positions.extend([pos] * count)

    # Every random draw is made row by row, in the order that defines the
    # season; what follows from the draws is computed column by column.
    draws = []
    for p in range(n_players):
        position = positions[p]
        team = teams[p % _SYNTH_TEAMS]
        skill = float(rng.uniform(0.5, 7.5))
        form = 0.0
        for _ in range(n_weeks):
            opponent = teams[int(rng.integers(0, _SYNTH_TEAMS - 1))]
            if opponent == team:
                opponent = teams[_SYNTH_TEAMS - 1]
            gap = strengths.entries[opponent] - strengths.entries[team]
            form = 0.6 * form + float(rng.normal(0.0, 1.0))
            # gamma(2, 1.5) has mean 3: re-centered it is a right-skewed
            # zero-mean disturbance.
            noise = float(rng.gamma(2.0, 1.5)) - 3.0
            points = min(max(round(skill + form - 0.4 * gap + noise), _POINTS_MIN), _POINTS_MAX)
            minutes = int(rng.integers(45, 91))
            goals = max(0, int(round((points - 2) / 4))) if position != Position.GK else 0
            saves = int(rng.integers(0, 6)) if position == Position.GK else 0
            draws.append((
                opponent, points, minutes, goals, saves,
                max(0.0, points * 2.0 + rng.normal(0, 2)),  # influence, unrounded
                max(0.0, skill * 3.0 + rng.normal(0, 2)),  # creativity
                max(0.0, goals * 15.0 + rng.normal(0, 2)),  # threat
                int(rng.integers(0, 2)),  # assists
                int(rng.integers(0, 3)),  # goals_conceded
                bool(rng.integers(0, 2)),  # was_home
            ))

    (opponent, points, minutes, goals, saves, influence, creativity, threat,
     assists, conceded, home) = zip(*draws)
    points = np.array(points, dtype=np.int64)
    influence, creativity, threat = (
        np.round(np.array(v), 1) for v in (influence, creativity, threat)
    )
    gameweek = np.tile(np.arange(1, n_weeks + 1), n_players)
    name_width = max(3, len(str(n_players - 1)))
    names = np.array([_synth_name(p, name_width) for p in range(n_players)], dtype=object)
    player = np.repeat(np.arange(n_players), n_weeks)  # of each row
    table = GameweekTable(
        season=(season,) * len(player), player_name=names[player],
        position=np.array(positions, dtype=object)[player],
        team=np.array(teams, dtype=object)[player % _SYNTH_TEAMS],
        gameweek=gameweek, kickoff_order=gameweek - 1, opponent=opponent, minutes=minutes,
        total_points=points, goals_scored=goals, assists=assists, clean_sheets=points >= 6,
        goals_conceded=conceded, saves=saves, bps=np.maximum(0, points * 3),
        bonus=np.clip(points - 7, 0, 3), influence=influence, creativity=creativity,
        threat=threat, ict_index=np.round((influence + creativity + threat) / 10.0, 1),
        was_home=home,
        **{c.field: np.zeros(len(player), dtype=np.int64) for c in GAMEWEEK_SCHEMA
           if c.kind == "opt_int"},
    )
    return table, {season: strengths}
