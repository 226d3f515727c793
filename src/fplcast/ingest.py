"""Loading and cleaning of per-gameweek player statistics.

Raw input is the public per-gameweek CSV schema (one row per player per
gameweek). Cleaning canonicalizes player names, merges near-duplicate
spellings by fuzzy matching, drops benched appearances, and attaches an
engineered upcoming-match difficulty from per-season team strength ratings.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import unicodedata
import warnings
from dataclasses import dataclass, field

__all__ = [
    "Position",
    "RawGameweekRow",
    "TeamStrengthTable",
    "CanonicalPlayerKey",
    "SchemaError",
    "RowParseError",
    "TeamLookupError",
    "parse_gameweek_csv",
    "parse_strengths_csv",
    "canonicalize_name",
    "token_sort_similarity",
    "fuzzy_match",
    "drop_benched",
    "compute_difficulty",
]


class Position(enum.Enum):
    GK = "GK"
    DEF = "DEF"
    MID = "MID"
    FWD = "FWD"

    @classmethod
    def ordered(cls) -> list["Position"]:
        """Fixed export ordering used by all report tables."""
        return [cls.GK, cls.DEF, cls.MID, cls.FWD]


class SchemaError(ValueError):
    """A required CSV column is missing."""


class RowParseError(ValueError):
    """A CSV cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TeamLookupError(KeyError):
    """A team has no strength rating for its season."""


# Exact, case-sensitive column names required in raw gameweek files.
# "GW" and "round" are accepted interchangeably for the gameweek number.
REQUIRED_COLUMNS = (
    "name",
    "position",
    "team",
    "opponent_team",
    "minutes",
    "total_points",
    "goals_scored",
    "assists",
    "clean_sheets",
    "goals_conceded",
    "saves",
    "bps",
    "bonus",
    "influence",
    "creativity",
    "threat",
    "ict_index",
    "was_home",
)

_INT_COLUMNS = (
    "minutes",
    "total_points",
    "goals_scored",
    "assists",
    "clean_sheets",
    "goals_conceded",
    "saves",
    "bps",
    "bonus",
)

_OPTIONAL_INT_COLUMNS = (
    "yellow_cards",
    "red_cards",
    "own_goals",
    "penalties_saved",
    "penalties_missed",
)

_FLOAT_COLUMNS = ("influence", "creativity", "threat", "ict_index")


@dataclass
class RawGameweekRow:
    """One player's statistics for one real gameweek, as ingested."""

    player_name: str
    position: Position
    season: str
    gameweek: int
    team: str
    opponent: str
    minutes: int
    total_points: int
    goals_scored: int = 0
    assists: int = 0
    clean_sheets: int = 0
    goals_conceded: int = 0
    saves: int = 0
    bps: int = 0
    bonus: int = 0
    yellow_cards: int = 0
    red_cards: int = 0
    own_goals: int = 0
    penalties_saved: int = 0
    penalties_missed: int = 0
    influence: float = 0.0
    creativity: float = 0.0
    threat: float = 0.0
    ict_index: float = 0.0
    was_home: bool = False
    kickoff_order: int = 0


# Numeric per-gameweek statistics, in the canonical feature order used by
# every windowed representation. total_points is always column 0.
NUMERIC_STATS = (
    "total_points",
    "minutes",
    "influence",
    "creativity",
    "threat",
    "ict_index",
    "goals_scored",
    "assists",
    "clean_sheets",
    "goals_conceded",
    "saves",
    "bps",
    "bonus",
    "yellow_cards",
    "red_cards",
    "own_goals",
    "penalties_saved",
    "penalties_missed",
)


@dataclass
class TeamStrengthTable:
    """Per-season map from canonical team name to a 1..5 strength rating."""

    season: str
    entries: dict[str, int] = field(default_factory=dict)

    def strength(self, team: str) -> int:
        key = canonicalize_name(team)
        if key not in self.entries:
            raise TeamLookupError(
                f"no strength rating for team '{team}' in season {self.season}"
            )
        return self.entries[key]


@dataclass(frozen=True)
class CanonicalPlayerKey:
    """Identity of a player after name cleaning: folded name + position."""

    canonical_name: str
    position: Position


# NFKD decomposition leaves a handful of letters common in player names
# untouched; fold those explicitly.
_FOLD_EXTRA = str.maketrans(
    {
        "ø": "o",
        "Ø": "O",
        "ł": "l",
        "Ł": "L",
        "đ": "d",
        "Đ": "D",
        "æ": "ae",
        "Æ": "AE",
        "œ": "oe",
        "Œ": "OE",
        "ß": "ss",
        "ı": "i",
    }
)


def canonicalize_name(name: str) -> str:
    """Fold diacritics to ASCII base letters, lowercase, collapse whitespace."""
    folded = unicodedata.normalize("NFKD", name.translate(_FOLD_EXTRA))
    stripped = "".join(ch for ch in folded if not unicodedata.combining(ch))
    return " ".join(stripped.lower().split())


def _levenshtein(a: str, b: str) -> int:
    """Edit distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        curr = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost))
        prev = curr
    return prev[-1]


def token_sort_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1]: sort tokens alphabetically, join, then
    1 - edit_distance / max_length. Symmetric in its arguments."""
    ta = " ".join(sorted(a.split()))
    tb = " ".join(sorted(b.split()))
    longest = max(len(ta), len(tb))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein(ta, tb) / longest


def fuzzy_match(
    query: str, candidates: list[str], threshold: float = 0.85
) -> tuple[str, float] | None:
    """Best candidate by token-sort similarity, or None below threshold.

    Ties are broken by first occurrence in `candidates`. Query and
    candidates are expected to be pre-canonicalized.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    best: tuple[str, float] | None = None
    for cand in candidates:
        score = token_sort_similarity(query, cand)
        if best is None or score > best[1]:
            best = (cand, score)
    assert best is not None
    return best if best[1] >= threshold else None


def drop_benched(rows: list[RawGameweekRow]) -> list[RawGameweekRow]:
    """Keep only appearances with minutes played, preserving order."""
    return [r for r in rows if r.minutes > 0]


def compute_difficulty(row: RawGameweekRow, strengths: TeamStrengthTable) -> int:
    """Upcoming-match difficulty gap: opponent strength minus own strength.

    Positive means a harder match. The pipeline's difficulty_sign config
    key flips the convention downstream if needed.
    """
    return strengths.strength(row.opponent) - strengths.strength(row.team)


def _parse_int(value: str, column: str, line: int) -> int:
    as_float = _parse_float(value, column, line)
    if as_float != int(as_float):
        raise RowParseError(
            f"non-integer value {value!r} in column '{column}'", line
        )
    return int(as_float)


def _parse_float(value: str, column: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise RowParseError(
            f"non-numeric value {value!r} in column '{column}'", line
        ) from None
    if not math.isfinite(number):
        raise RowParseError(
            f"non-finite value {value!r} in column '{column}'", line
        )
    return number


def _parse_bool(value: str, column: str, line: int) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "t", "yes"):
        return True
    if lowered in ("false", "0", "f", "no"):
        return False
    raise RowParseError(f"non-boolean value {value!r} in column '{column}'", line)


def parse_gameweek_csv(source, season: str) -> list[RawGameweekRow]:
    """Parse one season's raw per-gameweek CSV into rows, preserving order.

    `source` is a byte or text stream (or str/bytes). The header must carry
    every required column; unknown extra columns are ignored. kickoff_order
    is assigned per (gameweek, kickoff_time, file order) so each player's
    rows sort into a total order within the season.
    """
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: no header row") from None

    col = {name: i for i, name in enumerate(header)}
    for required in REQUIRED_COLUMNS:
        if required not in col:
            raise SchemaError(f"missing required column '{required}'")
    if "GW" in col:
        gw_col = col["GW"]
    elif "round" in col:
        gw_col = col["round"]
    else:
        raise SchemaError("missing required column 'GW' (or 'round')")

    rows: list[RawGameweekRow] = []
    sort_keys: list[tuple] = []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue

        def cell(name: str) -> str:
            idx = col[name]
            if idx >= len(record):
                raise RowParseError(f"row too short for column '{name}'", line_no)
            return record[idx]

        pos_text = cell("position").strip().upper()
        try:
            position = Position(pos_text)
        except ValueError:
            raise RowParseError(
                f"unknown position {cell('position')!r} "
                f"(expected one of GK, DEF, MID, FWD)",
                line_no,
            ) from None

        ints = {name: _parse_int(cell(name), name, line_no) for name in _INT_COLUMNS}
        opt_ints = {
            name: _parse_int(cell(name), name, line_no)
            for name in _OPTIONAL_INT_COLUMNS
            if name in col
        }
        floats = {
            name: _parse_float(cell(name), name, line_no) for name in _FLOAT_COLUMNS
        }
        gameweek = _parse_int(record[gw_col], "GW", line_no)
        if gameweek < 1:
            raise RowParseError(f"gameweek must be >= 1, got {gameweek}", line_no)
        if not 0 <= ints["minutes"] <= 120:
            raise RowParseError(
                f"minutes out of range [0, 120]: {ints['minutes']}", line_no
            )

        ict_expected = (
            floats["influence"] + floats["creativity"] + floats["threat"]
        ) / 10.0
        if abs(floats["ict_index"] - ict_expected) > 0.5:
            warnings.warn(
                f"line {line_no}: ict_index {floats['ict_index']} deviates from "
                f"(influence+creativity+threat)/10 = {ict_expected:.2f}",
                stacklevel=2,
            )

        rows.append(
            RawGameweekRow(
                player_name=cell("name"),
                position=position,
                season=season,
                gameweek=gameweek,
                team=cell("team"),
                opponent=cell("opponent_team"),
                was_home=_parse_bool(cell("was_home"), "was_home", line_no),
                **ints,
                **opt_ints,
                **floats,
            )
        )
        kickoff = cell("kickoff_time") if "kickoff_time" in col else ""
        sort_keys.append((gameweek, kickoff, line_no))

    for order, key_idx in enumerate(sorted(range(len(rows)), key=lambda i: sort_keys[i])):
        rows[key_idx].kickoff_order = order
    return rows


def parse_strengths_csv(source) -> dict[str, TeamStrengthTable]:
    """Parse a season/team/strength CSV into per-season strength tables."""
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        source = io.StringIO(source)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty strengths file: no header row") from None
    col = {name: i for i, name in enumerate(header)}
    for required in ("season", "team", "strength"):
        if required not in col:
            raise SchemaError(f"missing required column '{required}'")

    tables: dict[str, TeamStrengthTable] = {}
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        season = record[col["season"]]
        strength = _parse_int(record[col["strength"]], "strength", line_no)
        if not 1 <= strength <= 5:
            raise RowParseError(
                f"strength must be in [1, 5], got {strength}", line_no
            )
        table = tables.setdefault(season, TeamStrengthTable(season=season))
        table.entries[canonicalize_name(record[col["team"]])] = strength
    return tables
