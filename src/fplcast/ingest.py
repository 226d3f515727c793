"""Parsing and cleaning of per-gameweek player statistics.

Raw input is the public per-gameweek CSV schema (one row per player per
gameweek), held column by column in a GameweekTable whose columns
GAMEWEEK_SCHEMA declares once for every reader and writer. It parses
gameweek and strength CSVs, scores and matches player names, drops
benched appearances and computes match difficulty; cli.cmd_ingest merges
the spellings and dataset.Players.windows attaches difficulty.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import unicodedata
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Position",
    "GameweekTable",
    "GAMEWEEK_SCHEMA",
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


class Column(NamedTuple):
    """One column of the gameweek schema."""

    csv: str  # header name in raw and cleaned files
    field: str  # GameweekTable attribute
    kind: str  # text | position | int | opt_int | float | bool


# Every column of a cleaned gameweek file, in file order. Raw files carry
# the same columns except season and kickoff_order, in any order, and may
# leave out the opt_int columns (read as 0); "round" may stand in for "GW".
GAMEWEEK_SCHEMA = (
    Column("season", "season", "text"),
    Column("name", "player_name", "text"),
    Column("position", "position", "position"),
    Column("GW", "gameweek", "int"),
    Column("team", "team", "text"),
    Column("opponent_team", "opponent", "text"),
    Column("kickoff_order", "kickoff_order", "int"),
    *(Column(name, name, "int") for name in (
        "minutes", "total_points", "goals_scored", "assists", "clean_sheets",
        "goals_conceded", "saves", "bps", "bonus",
    )),
    *(Column(name, name, "opt_int") for name in (
        "yellow_cards", "red_cards", "own_goals", "penalties_saved", "penalties_missed",
    )),
    *(Column(name, name, "float") for name in (
        "influence", "creativity", "threat", "ict_index",
    )),
    Column("was_home", "was_home", "bool"),
)

# The columns a raw file carries: season comes from the caller and
# kickoff_order from the file's order.
RAW_SCHEMA = tuple(
    c for c in GAMEWEEK_SCHEMA if c.field not in ("season", "kickoff_order")
)

# dtype of each array column kind; text and position columns are tuples.
_DTYPES = {"int": np.int64, "opt_int": np.int64, "float": np.float64, "bool": np.bool_}


class GameweekTable:
    """Per-gameweek player statistics held column by column, one attribute
    per GAMEWEEK_SCHEMA field; row i of every column is one appearance.

    Text and position columns are tuples, the others numpy arrays. A table
    is never changed in place: `replace`, `take` and `concat` build new
    ones, sharing the columns they leave alone.
    """

    __slots__ = tuple(c.field for c in GAMEWEEK_SCHEMA)

    def __init__(self, **columns):
        if set(columns) != set(self.__slots__):
            raise TypeError(
                f"GameweekTable needs exactly the columns {list(self.__slots__)}"
            )
        for c in GAMEWEEK_SCHEMA:
            values = columns[c.field]
            object.__setattr__(self, c.field, tuple(values) if c.kind not in _DTYPES
                               else np.asarray(values, dtype=_DTYPES[c.kind]))
        if len({len(getattr(self, field)) for field in self.__slots__}) > 1:
            raise ValueError("GameweekTable columns differ in length")

    def __setattr__(self, name, value):
        raise AttributeError("GameweekTable is immutable; use replace()")

    @classmethod
    def empty(cls) -> GameweekTable:
        return cls(**{field: () for field in cls.__slots__})

    @classmethod
    def concat(cls, parts: Sequence[GameweekTable]) -> GameweekTable:
        """The rows of every part, in order."""
        if not parts:
            return cls.empty()
        return cls(**{
            c.field: (
                tuple(v for p in parts for v in getattr(p, c.field))
                if c.kind in ("text", "position")
                else np.concatenate([getattr(p, c.field) for p in parts])
            )
            for c in GAMEWEEK_SCHEMA
        })

    def __len__(self) -> int:
        return len(self.gameweek)

    def replace(self, **columns) -> GameweekTable:
        """A copy with the given columns swapped in."""
        return GameweekTable(
            **{**{field: getattr(self, field) for field in self.__slots__}, **columns}
        )

    def take(self, idx) -> GameweekTable:
        """The rows that `idx` (a slice, indices or a boolean mask) selects."""
        if isinstance(idx, slice):
            return GameweekTable(**{f: getattr(self, f)[idx] for f in self.__slots__})
        rows = np.arange(len(self))[idx]
        picked = {}
        for field in self.__slots__:
            column = getattr(self, field)
            picked[field] = (
                tuple(column[i] for i in rows.tolist())
                if isinstance(column, tuple)
                else column[rows]
            )
        return GameweekTable(**picked)

    def matrix(self, fields: Sequence[str]) -> np.ndarray:
        """The named numeric columns side by side as floats: n x len(fields)."""
        return np.stack(
            [np.asarray(getattr(self, field), dtype=np.float64) for field in fields],
            axis=-1,
        )


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


def _levenshtein(a: str, b: str, k: int) -> int:
    """Edit distance of `a` and `b` if it is at most `k`, else k + 1 (Ukkonen
    1985): a common prefix or suffix never changes it, only 2k + 1 diagonals
    can hold a value <= k, and the program stops once a whole row exceeds k."""
    if len(a) < len(b):
        a, b = b, a
    m, n, lo = len(a), len(b), 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    while n > lo and a[m - 1] == b[n - 1]:
        m, n = m - 1, n - 1
    a, b, out = a[lo:m], b[lo:n], k + 1
    # Two rows of the table; a cell outside the band holds `out`.
    prev = [j if j <= k else out for j in range(len(b) + 1)]
    curr = [out] * len(prev)
    for i, ca in enumerate(a, start=1):
        first, last = max(1, i - k), min(len(b), i + k)
        left = row_min = curr[first - 1] = i if first == 1 else out
        for j in range(first, last + 1):
            v = prev[j - 1] + (ca != b[j - 1])
            if prev[j] < v:
                v = prev[j] + 1
            if left < v:
                v = left + 1
            curr[j] = left = v
            if v < row_min:
                row_min = v
        if row_min > k:
            return out
        prev, curr = curr, prev
    return min(prev[-1], out)


def _sort_tokens(name: str) -> str:
    return " ".join(sorted(name.split()))


def _score(distance: int, longest: int) -> float:
    return 1.0 if longest == 0 else 1.0 - distance / longest


def token_sort_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1]: sort tokens alphabetically, join, then
    1 - edit_distance / max_length. Symmetric in its arguments."""
    ta, tb = _sort_tokens(a), _sort_tokens(b)
    longest = max(len(ta), len(tb))
    return _score(_levenshtein(ta, tb, longest), longest)


def fuzzy_match(
    query: str, candidates: list[str], threshold: float = 0.85
) -> tuple[str, float] | None:
    """Best candidate by token-sort similarity, or None below threshold.

    Ties are broken by first occurrence in `candidates`. Query and
    candidates are expected to be pre-canonicalized.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    # A candidate counts if it scores >= threshold, or > the best once there
    # is one, so its distance matters only up to the largest one that counts.
    query = _sort_tokens(query)
    best, floor = None, threshold
    budgets: dict[int, int] = {}  # length -> largest distance that counts
    for cand in candidates:
        sorted_cand = _sort_tokens(cand)
        longest = max(len(query), len(sorted_cand))
        k = budgets.get(longest)
        if k is None:
            k = longest
            while k >= 0 and not _score(k, longest) >= floor:
                k -= 1
            budgets[longest] = k
        if abs(len(query) - len(sorted_cand)) <= k:
            d = _levenshtein(query, sorted_cand, k)
            if d <= k:
                best = (cand, _score(d, longest))
                floor = math.nextafter(best[1], math.inf)
                budgets.clear()
    return best


def drop_benched(table: GameweekTable) -> GameweekTable:
    """Keep only appearances with minutes played, preserving order."""
    return table.take(table.minutes > 0)


def compute_difficulty(table: GameweekTable, strengths: TeamStrengthTable) -> np.ndarray:
    """Upcoming-match difficulty gap of every row: opponent strength minus
    own strength.

    Positive means a harder match. The pipeline's difficulty_sign config
    key flips the convention downstream if needed.
    """
    # Each name is looked up once, in row order, so the first row with an
    # unrated team is the one an error names.
    names = dict.fromkeys(n for pair in zip(table.opponent, table.team) for n in pair)
    rating = {name: strengths.strength(name) for name in names}
    gaps = [rating[opp] - rating[team] for team, opp in zip(table.team, table.opponent)]
    return np.array(gaps, dtype=np.int64)


def _parse_int(value: str, column: str, line: int) -> int:
    try:
        number = int(value)
    except ValueError:
        as_float = _parse_float(value, column, line)
        if as_float != int(as_float):
            raise RowParseError(
                f"non-integer value {value!r} in column '{column}'", line
            ) from None
        number = int(as_float)
    if not -(2**63) <= number < 2**63:
        raise RowParseError(f"value {value!r} in column '{column}' is out of range", line)
    return number


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


def _parse_position(value: str, column: str, line: int) -> Position:
    try:
        return Position(value.strip().upper())
    except ValueError:
        raise RowParseError(
            f"unknown position {value!r} (expected one of GK, DEF, MID, FWD)", line
        ) from None


_CELL_PARSERS = {
    "text": lambda value, column, line: value,
    "position": _parse_position,
    "int": _parse_int,
    "opt_int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
}
_RAW_FIELDS = [c.field for c in RAW_SCHEMA]


def parse_gameweek_csv(source, season: str) -> GameweekTable:
    """Parse one season's raw per-gameweek CSV into a table, preserving order.

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
    for c in RAW_SCHEMA:
        if c.kind != "opt_int" and c.csv != "GW" and c.csv not in col:
            raise SchemaError(f"missing required column '{c.csv}'")
    gw_col = col.get("GW", col.get("round"))
    if gw_col is None:
        raise SchemaError("missing required column 'GW' (or 'round')")
    # Each raw column with its cell index; None for a left-out opt_int.
    cells = [(c, gw_col if c.csv == "GW" else col.get(c.csv)) for c in RAW_SCHEMA]
    kickoff_col = col.get("kickoff_time")

    records: list[list] = []
    sort_keys: list[tuple] = []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        values = []
        for c, idx in cells:
            if idx is None:
                values.append(0)
            elif idx >= len(record):
                raise RowParseError(f"row too short for column '{c.csv}'", line_no)
            else:
                values.append(_CELL_PARSERS[c.kind](record[idx], c.csv, line_no))
        row = dict(zip(_RAW_FIELDS, values))
        if row["gameweek"] < 1:
            raise RowParseError(f"gameweek must be >= 1, got {row['gameweek']}", line_no)
        if not 0 <= row["minutes"] <= 120:
            raise RowParseError(f"minutes out of range [0, 120]: {row['minutes']}", line_no)
        ict_expected = (row["influence"] + row["creativity"] + row["threat"]) / 10.0
        if abs(row["ict_index"] - ict_expected) > 0.5:
            warnings.warn(
                f"line {line_no}: ict_index {row['ict_index']} deviates from "
                f"(influence+creativity+threat)/10 = {ict_expected:.2f}",
                stacklevel=2,
            )
        kickoff = ""
        if kickoff_col is not None:
            if kickoff_col >= len(record):
                raise RowParseError("row too short for column 'kickoff_time'", line_no)
            kickoff = record[kickoff_col]
        records.append(values)
        sort_keys.append((row["gameweek"], kickoff, line_no))

    # A row's kickoff_order is its rank in sort_keys order.
    order = sorted(range(len(records)), key=sort_keys.__getitem__)
    columns = zip(*records) if records else [()] * len(RAW_SCHEMA)
    return GameweekTable(
        season=(season,) * len(records),
        kickoff_order=np.argsort(np.array(order, dtype=np.int64)),
        **dict(zip(_RAW_FIELDS, columns)),
    )


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
    width = 1 + max(col["season"], col["team"], col["strength"])
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < width:
            raise RowParseError(f"expected at least {width} cells", line_no)
        season = record[col["season"]]
        strength = _parse_int(record[col["strength"]], "strength", line_no)
        if not 1 <= strength <= 5:
            raise RowParseError(
                f"strength must be in [1, 5], got {strength}", line_no
            )
        table = tables.setdefault(season, TeamStrengthTable(season=season))
        table.entries[canonicalize_name(record[col["team"]])] = strength
    return tables
