"""Parsing and cleaning of per-gameweek player statistics.

Raw input is the public per-gameweek CSV schema (one row per player per
gameweek), held column by column in a GameweekTable whose columns
GAMEWEEK_SCHEMA declares once for every reader and writer. It parses
gameweek and strength CSV text, scores and matches player names, drops
benched appearances and computes match difficulty; cli.cmd_ingest merges
the spellings. Strengths are {season: {canonical team name: rating}}, and
compute_difficulty alone looks ratings up: the commands call it to check
every row before any fit, and dataset.Players.windows on its target rows.

Every CSV record comes from csv_records, numbered by its physical line.
A gameweek file is read in blocks of rows. A clean block is converted
column by column; any other block is parsed row by row, so a bad file
warns and raises its first error in row order.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
import unicodedata
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Position",
    "GameweekTable",
    "GAMEWEEK_SCHEMA",
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


class SchemaError(ValueError):
    """A required CSV column is missing."""


class RowParseError(ValueError):
    """A CSV cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TeamLookupError(KeyError):
    """A season has no strength table, or a team no rating in its season."""
    __str__ = BaseException.__str__  # the message bare, not quoted as a KeyError's


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

# The dtype of each column kind: text and position columns hold Python
# objects (str, Position).
_DTYPES = {
    "text": object, "position": object, "int": np.int64, "opt_int": np.int64,
    "float": np.float64, "bool": np.bool_,
}


class GameweekTable:
    """Per-gameweek player statistics held column by column, one attribute
    per GAMEWEEK_SCHEMA field; row i of every column is one appearance.

    Every column is a 1-D numpy array, of dtype object for text and
    positions. A table is never changed in place: `replace`, `take` and
    `concat` build new ones, sharing the columns they leave alone.
    """

    __slots__ = tuple(c.field for c in GAMEWEEK_SCHEMA)

    def __init__(self, **columns):
        if set(columns) != set(self.__slots__):
            raise TypeError(
                f"GameweekTable needs exactly the columns {list(self.__slots__)}"
            )
        for c in GAMEWEEK_SCHEMA:
            object.__setattr__(self, c.field, np.asarray(columns[c.field], _DTYPES[c.kind]))
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
            field: np.concatenate([getattr(p, field) for p in parts]) for field in cls.__slots__
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
        return GameweekTable(**{field: getattr(self, field)[idx] for field in self.__slots__})

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


def compute_difficulty(
    rows: GameweekTable, strengths: dict[str, dict[str, int]]
) -> np.ndarray:
    """Upcoming-match difficulty gap of every row: opponent strength minus
    own strength, both rated in the row's season.

    Positive means a harder match. The pipeline's difficulty_sign config
    key flips the convention downstream if needed. Raises TeamLookupError
    at the first row, in row order, whose season has no strength table,
    then whose team has no rating in it, then whose opponent has none.
    """
    # Each distinct (season, team, opponent) in row order, and each row's
    # index into them.
    matches: dict[tuple[str, str, str], int] = {}
    index = [matches.setdefault(match, len(matches)) for match in zip(
        rows.season.tolist(), rows.team.tolist(), rows.opponent.tolist())]
    rating: dict[tuple[str, str], int] = {}  # (season, name) -> strength, looked up once
    gaps = []
    for season, team, opponent in matches:
        if season not in strengths:
            raise TeamLookupError(f"no strength table for season '{season}'")
        for name in (team, opponent):
            if (season, name) not in rating:
                key = canonicalize_name(name)
                if key not in strengths[season]:
                    raise TeamLookupError(
                        f"no strength rating for team '{name}' in season {season}"
                    )
                rating[season, name] = strengths[season][key]
        gaps.append(rating[season, opponent] - rating[season, team])
    return np.array(gaps, dtype=np.int64)[index]


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
        raise RowParseError(f"unknown position {value!r} (expected one of "
                            f"{', '.join(p.value for p in Position)})", line) from None


_CELL_PARSERS = {
    "text": lambda value, column, line: value,
    "position": _parse_position,
    "int": _parse_int,
    "opt_int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
}

# Raw rows are converted this many at a time: a bound on the cell strings
# alive at once.
_BLOCK_ROWS = 1024


def numeric_column(cells: Sequence[str], kind: str) -> tuple[np.ndarray, int | None]:
    """`cells` as an int64 ("int", "opt_int") or float64 ("float") array, and
    the index of its first non-finite value or None. A cell int() or float()
    rejects, or an int outside int64, raises ValueError or OverflowError."""
    if kind == "float":
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        bad = np.flatnonzero(~np.isfinite(values))
        return values, (int(bad[0]) if len(bad) else None)
    return np.fromiter(map(int, cells), np.int64, len(cells)), None


def csv_records(text: str, first_line: int = 1):
    """(line, record) for each record of a csv.reader over `text`, less one
    leading byte-order mark, as spreadsheets write it. `line` is the
    physical line the record ends on, counting the first line of `text` as
    `first_line`: a quoted cell may span lines. An unreadable record raises
    RowParseError."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    offset = first_line - 1
    try:
        for record in reader:
            yield reader.line_num + offset, record
    except csv.Error as exc:
        raise RowParseError(str(exc), reader.line_num + offset) from None


def _blocks(reader):
    """(records, line numbers) of the non-blank records, _BLOCK_ROWS at a time."""
    records, lines = [], []
    try:
        for line, record in reader:
            if any(map(str.strip, record)):
                records.append(record)
                lines.append(line)
                if len(records) == _BLOCK_ROWS:
                    yield records, lines
                    records, lines = [], []
    except ValueError:
        # The rows read before an unreadable one are checked first.
        yield records, lines
        raise
    yield records, lines


def _raw_column(c: Column, cells: tuple):
    """A raw column's values if it converts whole, else None: a cell is bad
    or missing (None, from a short row), or an int column holds floats."""
    try:
        if None in cells:
            return None
        if c.kind == "text":
            return cells
        if c.kind in ("position", "bool"):
            known = {cell: _CELL_PARSERS[c.kind](cell, c.csv, 0) for cell in set(cells)}
            return list(map(known.__getitem__, cells))
        values, non_finite = numeric_column(cells, c.kind)
        return values if non_finite is None else None
    except (ValueError, OverflowError):
        return None


def _parse_block(records, lines, cells, kickoff_col, width, season):
    """One block of raw records as a table (kickoff_order 0) and each row's
    (gameweek, kickoff_time, line) sort key.

    A block is converted column by column if every column converts whole,
    no row is short, every gameweek and minutes value is in range and no
    ict_index warns; any other block is parsed by _parse_rows.
    """
    n = len(records)
    columns = list(itertools.zip_longest(*records))  # None where a row is short
    columns += [(None,) * n] * (width - len(columns))  # header columns no row reaches
    values = {c.field: _raw_column(c, ("0",) * n if idx is None else columns[idx])
              for c, idx in cells}
    kickoffs = ("",) * n if kickoff_col is None else columns[kickoff_col]
    if any(v is None for v in values.values()) or None in kickoffs:
        return _parse_rows(records, lines, cells, kickoff_col, season)
    t = GameweekTable(season=(season,) * n, kickoff_order=np.zeros(n, int), **values)
    ict_off = np.abs(t.ict_index - (t.influence + t.creativity + t.threat) / 10.0) > 0.5
    if ((t.gameweek < 1) | (t.minutes < 0) | (t.minutes > 120) | ict_off).any():
        return _parse_rows(records, lines, cells, kickoff_col, season)
    return t, list(zip(t.gameweek.tolist(), kickoffs, lines))


def _parse_rows(records, lines, cells, kickoff_col, season):
    """_parse_block's result, parsed as the rows are read: a row's cells in
    RAW_SCHEMA order, then its gameweek and minutes checks, its ict_index
    warning and its kickoff_time cell. The first failure raises."""
    rows, keys = [], []
    for record, line in zip(records, lines):
        row = {}
        for c, idx in cells:
            if idx is not None and idx >= len(record):
                raise RowParseError(f"row too short for column '{c.csv}'", line)
            row[c.field] = 0 if idx is None else _CELL_PARSERS[c.kind](record[idx], c.csv, line)
        if row["gameweek"] < 1:
            raise RowParseError(f"gameweek must be >= 1, got {row['gameweek']}", line)
        if not 0 <= row["minutes"] <= 120:
            raise RowParseError(f"minutes out of range [0, 120]: {row['minutes']}", line)
        expected = (row["influence"] + row["creativity"] + row["threat"]) / 10.0
        if abs(row["ict_index"] - expected) > 0.5:
            # stacklevel 4 names the caller of parse_gameweek_csv.
            warnings.warn(f"line {line}: ict_index {row['ict_index']} deviates from "
                          f"(influence+creativity+threat)/10 = {expected:.2f}", stacklevel=4)
        if kickoff_col is not None and kickoff_col >= len(record):
            raise RowParseError("row too short for column 'kickoff_time'", line)
        rows.append(row)
        keys.append((row["gameweek"], "" if kickoff_col is None else record[kickoff_col], line))
    n = len(rows)
    columns = {c.field: [row[c.field] for row in rows] for c, _ in cells}
    return GameweekTable(season=(season,) * n, kickoff_order=np.zeros(n, int), **columns), keys


def parse_gameweek_csv(text: str, season: str) -> GameweekTable:
    """Parse one season's raw per-gameweek CSV text into a table, preserving
    order.

    The header must carry every required column; unknown extra columns are
    ignored. kickoff_order is assigned per (gameweek, kickoff_time, file
    order) so each player's rows sort into a total order within the season.
    Rows are converted a block at a time, column by column.
    """
    reader = csv_records(text)
    header = next((record for _, record in reader), None)
    if header is None:
        raise SchemaError("empty file: no header row")

    col = {name: i for i, name in enumerate(header)}
    for c in RAW_SCHEMA:
        if c.kind != "opt_int" and c.csv != "GW" and c.csv not in col:
            raise SchemaError(f"missing required column '{c.csv}'")
    gw_col = col.get("GW", col.get("round"))
    if gw_col is None:
        raise SchemaError("missing required column 'GW' (or 'round')")
    # Each raw column with its cell index; None for a left-out opt_int.
    cells = [(c, gw_col if c.csv == "GW" else col.get(c.csv)) for c in RAW_SCHEMA]

    kickoff_col, parts, sort_keys = col.get("kickoff_time"), [], []
    for records, lines in _blocks(reader):
        table, keys = _parse_block(records, lines, cells, kickoff_col, len(header), season)
        parts.append(table)
        sort_keys.extend(keys)
    # A row's kickoff_order is its rank in sort_keys order.
    order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
    return GameweekTable.concat(parts).replace(
        kickoff_order=np.argsort(np.array(order, dtype=np.int64))
    )


def parse_strengths_csv(text: str) -> dict[str, dict[str, int]]:
    """Parse a season/team/strength CSV text into {season: {canonical team
    name: rating}}. Each team is rated at most once per season."""
    reader = csv_records(text)
    header = next((record for _, record in reader), None)
    if header is None:
        raise SchemaError("empty strengths file: no header row")
    col = {name: i for i, name in enumerate(header)}
    for required in ("season", "team", "strength"):
        if required not in col:
            raise SchemaError(f"missing required column '{required}'")

    tables: dict[str, dict[str, int]] = {}
    rated_on: dict[tuple[str, str], int] = {}  # (season, team) -> line
    width = 1 + max(col["season"], col["team"], col["strength"])
    for line_no, record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < width:
            raise RowParseError(f"expected at least {width} cells", line_no)
        season, team = record[col["season"]], record[col["team"]]
        strength = _parse_int(record[col["strength"]], "strength", line_no)
        if not 1 <= strength <= 5:
            raise RowParseError(f"strength must be in [1, 5], got {strength}", line_no)
        key = canonicalize_name(team)
        first = rated_on.setdefault((season, key), line_no)
        if first != line_no:
            raise RowParseError(
                f"team '{team}' is rated twice in season {season} (first on line {first})",
                line_no,
            )
        tables.setdefault(season, {})[key] = strength
    return tables
