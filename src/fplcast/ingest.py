"""Parsing and cleaning of per-gameweek player statistics.

Raw input is the public per-gameweek CSV schema (one row per player per
gameweek), held column by column in a GameweekTable whose columns
GAMEWEEK_SCHEMA declares once for every reader and writer. It parses
gameweek and strength CSVs, scores and matches player names, drops
benched appearances and computes match difficulty; cli.cmd_ingest merges
the spellings and dataset.Players.windows attaches difficulty.

A gameweek file is read in blocks of rows, each converted column by
column (numeric_column also serves the cleaned-file reader). Only a
column that fails is parsed cell by cell, to find its first bad cell; a
bad file raises the error a row-by-row parse would meet first.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
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
    teams, opponents = table.team.tolist(), table.opponent.tolist()
    names = dict.fromkeys(n for pair in zip(opponents, teams) for n in pair)
    rating = {name: strengths.strength(name) for name in names}
    gaps = [rating[opp] - rating[team] for team, opp in zip(teams, opponents)]
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


def _csv_reader(source):
    """The records of a csv.reader over `source` (str, bytes, or a text or
    byte stream), less one leading byte-order mark, as spreadsheets write
    it. A record the reader cannot read raises RowParseError."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = io.TextIOWrapper(source, encoding="utf-8")
    lines = iter(source)
    first = next(lines, None)
    if first is not None:
        lines = itertools.chain([first.removeprefix("\ufeff")], lines)
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise RowParseError(str(exc), reader.line_num) from None


def _blocks(reader):
    """(records, line numbers) of the non-blank records, _BLOCK_ROWS at a time."""
    records, lines = [], []
    try:
        for line, record in enumerate(reader, start=2):
            if any(map(str.strip, record)):
                records.append(record)
                lines.append(line)
                if len(records) == _BLOCK_ROWS:
                    yield records, lines
                    records, lines = [], []
    except (ValueError, OSError):
        # The rows read before an unreadable one are checked first.
        yield records, lines
        raise
    yield records, lines


def _raw_column(c: Column, cells: tuple, lines: list[int]):
    """(values, None) if every cell of a raw column parses, else (the values
    before its first bad cell, (that cell's row, its RowParseError)). A None
    cell is one that a short row lacks."""
    parse = _CELL_PARSERS[c.kind]
    if None not in cells:
        try:
            if c.kind == "text":
                return cells, None
            if c.kind in ("position", "bool"):
                known = {cell: parse(cell, c.csv, 0) for cell in set(cells)}
                return list(map(known.__getitem__, cells)), None
            values, non_finite = numeric_column(cells, c.kind)
            if non_finite is None:
                return values, None
        except (ValueError, OverflowError):
            pass
    # A cell is bad, or an int column holds floats: parse cell by cell.
    values = []
    for row, (cell, line) in enumerate(zip(cells, lines)):
        try:
            if cell is None:
                raise RowParseError(f"row too short for column '{c.csv}'", line)
            values.append(parse(cell, c.csv, line))
        except RowParseError as exc:
            return values, (row, exc)
    return values, None


def _parse_block(records, lines, cells, kickoff_col, width, season):
    """One block of raw records as a table (kickoff_order 0) and each row's
    (gameweek, kickoff_time, line) sort key.

    A bad block raises the error a row-by-row parse meets first: each row
    takes its cells in RAW_SCHEMA order, then the gameweek and minutes
    checks, then its kickoff_time cell; rows before it warn first.
    """
    # A row's steps: its cells 0 .. last - 1, then the gameweek (last),
    # minutes (last + 1) and kickoff_time (last + 2) checks.
    n, last = len(records), len(cells)
    columns = list(itertools.zip_longest(*records))  # None where a row is short
    columns += [(None,) * n] * (width - len(columns))  # header columns no row reaches
    values, failures = {}, []  # failures: (row, step of the row, error)
    for step, (c, idx) in enumerate(cells):
        column = ("0",) * n if idx is None else columns[idx]
        values[c.field], bad = _raw_column(c, column, lines)
        if bad:
            failures.append((bad[0], step, bad[1]))
    kickoffs = ("",) * n if kickoff_col is None else columns[kickoff_col]
    if None in kickoffs:
        row = kickoffs.index(None)
        failures.append((row, last + 2, RowParseError(
            "row too short for column 'kickoff_time'", lines[row])))

    # Rows before the first bad cell are whole, so their checks are reached.
    whole = min([row for row, step, _ in failures if step < last], default=n)
    table = GameweekTable(season=(season,) * whole, kickoff_order=np.zeros(whole, dtype=np.int64),
                          **{field: column[:whole] for field, column in values.items()})
    gameweek, minutes = table.gameweek, table.minutes
    for step, column, bad, message in (
        (last, gameweek, gameweek < 1, "gameweek must be >= 1, got {}"),
        (last + 1, minutes, (minutes < 0) | (minutes > 120), "minutes out of range [0, 120]: {}"),
    ):
        for row in np.flatnonzero(bad)[:1].tolist():
            failures.append((row, step, RowParseError(message.format(column[row]), lines[row])))
    first = min(failures, key=lambda f: f[:2], default=None)

    # A short kickoff_time comes after its row's warning.
    end = n if first is None else first[0] + (first[1] == last + 2)
    expected = (table.influence + table.creativity + table.threat)[:end] / 10.0
    for row in np.flatnonzero(np.abs(table.ict_index[:end] - expected) > 0.5).tolist():
        warnings.warn(
            f"line {lines[row]}: ict_index {float(table.ict_index[row])} deviates from "
            f"(influence+creativity+threat)/10 = {float(expected[row]):.2f}",
            stacklevel=3,
        )
    if first is not None:
        raise first[2]
    return table, list(zip(gameweek.tolist(), kickoffs, lines))


def parse_gameweek_csv(source, season: str) -> GameweekTable:
    """Parse one season's raw per-gameweek CSV into a table, preserving order.

    `source` is a byte or text stream (or str/bytes). The header must carry
    every required column; unknown extra columns are ignored. kickoff_order
    is assigned per (gameweek, kickoff_time, file order) so each player's
    rows sort into a total order within the season. Rows are converted a
    block at a time, column by column.
    """
    reader = _csv_reader(source)
    header = next(reader, None)
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

    parts, sort_keys = [], []
    for records, lines in _blocks(reader):
        table, keys = _parse_block(
            records, lines, cells, col.get("kickoff_time"), len(header), season
        )
        parts.append(table)
        sort_keys.extend(keys)
    # A row's kickoff_order is its rank in sort_keys order.
    order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
    return GameweekTable.concat(parts).replace(
        kickoff_order=np.argsort(np.array(order, dtype=np.int64))
    )


def parse_strengths_csv(source) -> dict[str, TeamStrengthTable]:
    """Parse a season/team/strength CSV into per-season strength tables.
    Each team is rated at most once per season."""
    reader = _csv_reader(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty strengths file: no header row")
    col = {name: i for i, name in enumerate(header)}
    for required in ("season", "team", "strength"):
        if required not in col:
            raise SchemaError(f"missing required column '{required}'")

    tables: dict[str, TeamStrengthTable] = {}
    rated_on: dict[tuple[str, str], int] = {}  # (season, team) -> line
    width = 1 + max(col["season"], col["team"], col["strength"])
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < width:
            raise RowParseError(f"expected at least {width} cells", line_no)
        season, team = record[col["season"]], record[col["team"]]
        strength = _parse_int(record[col["strength"]], "strength", line_no)
        if not 1 <= strength <= 5:
            raise RowParseError(
                f"strength must be in [1, 5], got {strength}", line_no
            )
        key = canonicalize_name(team)
        first = rated_on.setdefault((season, key), line_no)
        if first != line_no:
            raise RowParseError(
                f"team '{team}' is rated twice in season {season} (first on line {first})",
                line_no,
            )
        tables.setdefault(season, TeamStrengthTable(season=season)).entries[key] = strength
    return tables
