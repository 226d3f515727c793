import csv
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplcast import ingest
from fplcast.ingest import (
    RAW_SCHEMA,
    GameweekTable,
    Position,
    RowParseError,
    SchemaError,
    TeamLookupError,
    canonicalize_name,
    compute_difficulty,
    drop_benched,
    fuzzy_match,
    parse_gameweek_csv,
    parse_strengths_csv,
    token_sort_similarity,
    _CELL_PARSERS,
    _levenshtein,
)

from fplcast.dataset import generate_synthetic_season
from fplcast.serialize import read_cleaned_csv, write_cleaned_csv, write_raw_csv

from conftest import assert_every_column_is_an_array, assert_tables_equal, make_table

HEADER = (
    "name,position,GW,team,opponent_team,minutes,total_points,goals_scored,"
    "assists,clean_sheets,goals_conceded,saves,bps,bonus,influence,creativity,"
    "threat,ict_index,was_home"
)


def row_line(name="Harry Kane", position="FWD", gw=1, minutes=90, points=12):
    return (
        f"{name},{position},{gw},spurs,arsenal,{minutes},{points},1,0,0,1,0,"
        f"30,2,10.0,5.0,40.0,5.5,True"
    )


class TestParseGameweekCsv:
    def test_header_only_gives_empty_table(self):
        assert len(parse_gameweek_csv(HEADER + "\n", "2021-22")) == 0

    def test_single_row_identity(self):
        rows = parse_gameweek_csv(
            HEADER + "\n" + row_line(minutes=90, points=12), "2021-22"
        )
        assert len(rows) == 1
        assert rows.minutes.tolist() == [90]
        assert rows.total_points.tolist() == [12]
        assert rows.player_name == ("Harry Kane",)
        assert rows.position == (Position.FWD,)
        assert rows.season == ("2021-22",)
        assert rows.was_home.tolist() == [True]

    def test_non_numeric_minutes_cites_line_2(self):
        text = HEADER + "\n" + row_line(minutes="abc")
        with pytest.raises(RowParseError, match="line 2"):
            parse_gameweek_csv(text, "2021-22")

    def test_missing_column_names_it(self):
        broken = HEADER.replace("opponent_team", "opponent")
        with pytest.raises(SchemaError, match="opponent_team"):
            parse_gameweek_csv(broken + "\n", "2021-22")

    def test_round_accepted_for_gameweek(self):
        text = HEADER.replace("GW", "round") + "\n" + row_line(gw=7)
        assert parse_gameweek_csv(text, "2021-22").gameweek.tolist() == [7]

    def test_extra_columns_ignored(self):
        text = HEADER + ",expected_goals\n" + row_line() + ",0.7"
        assert len(parse_gameweek_csv(text, "2021-22")) == 1

    def test_file_order_preserved(self):
        text = HEADER + "\n" + row_line(name="A") + "\n" + row_line(name="B")
        names = parse_gameweek_csv(text, "2021-22").player_name
        assert names.tolist() == ["A", "B"]

    def test_ict_mismatch_warns_only(self):
        bad_ict = row_line().replace("5.5", "50.0")
        with pytest.warns(UserWarning, match="ict_index"):
            rows = parse_gameweek_csv(HEADER + "\n" + bad_ict, "2021-22")
        assert len(rows) == 1

    def test_unknown_position_rejected(self):
        with pytest.raises(RowParseError, match="position"):
            parse_gameweek_csv(
                HEADER + "\n" + row_line(position="STRIKER"), "2021-22"
            )

    def test_kickoff_order_follows_gameweek(self):
        text = (
            HEADER
            + "\n"
            + row_line(name="A", gw=5)
            + "\n"
            + row_line(name="A", gw=2)
        )
        rows = parse_gameweek_csv(text, "2021-22")
        assert rows.kickoff_order[1] < rows.kickoff_order[0]


def _parse_gameweek_csv_oracle(text: str, season: str) -> GameweekTable:
    # parse_gameweek_csv as it stood before it converted whole columns:
    # every cell parsed on its own, row by row. A row is numbered by the
    # physical line it ends on.
    reader = csv.reader(io.StringIO(text))
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
    cells = [(c, gw_col if c.csv == "GW" else col.get(c.csv)) for c in RAW_SCHEMA]
    kickoff_col = col.get("kickoff_time")
    raw_fields = [c.field for c in RAW_SCHEMA]

    records, sort_keys = [], []
    for record in reader:
        line_no = reader.line_num
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
        row = dict(zip(raw_fields, values))
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

    order = sorted(range(len(records)), key=sort_keys.__getitem__)
    columns = zip(*records) if records else [()] * len(RAW_SCHEMA)
    return GameweekTable(
        season=(season,) * len(records),
        kickoff_order=np.argsort(np.array(order, dtype=np.int64)),
        **dict(zip(raw_fields, columns)),
    )


def _outcome(parse, text: str):
    """What parsing `text` gives: the table, or the error's type and
    message; and every warning with the place it names."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, "2021-22")
        except (RowParseError, SchemaError) as exc:
            result = (type(exc), str(exc))
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _assert_same_outcome(text: str):
    got, got_warnings = _outcome(parse_gameweek_csv, text)
    want, want_warnings = _outcome(_parse_gameweek_csv_oracle, text)
    if isinstance(want, GameweekTable):
        assert isinstance(got, GameweekTable), got
        assert_tables_equal(got, want)
    else:
        assert got == want
    assert got_warnings == want_warnings


_INT_COLUMNS = [c.csv for c in RAW_SCHEMA if c.kind in ("int", "opt_int")]
_OPTIONAL = [c.csv for c in RAW_SCHEMA if c.kind == "opt_int"]
_FLOAT_COLUMNS = [c.csv for c in RAW_SCHEMA if c.kind == "float"]

# Planted faults: the columns each may hit and the cells it writes there.
# "3.0" in an int column and case or space variants are accepted; a
# mismatched ict_index only warns.
_FAULTS = {
    "int": (_INT_COLUMNS, ["x", "3.5", "3.0", " 7 ", "", "1e30", "9223372036854775808"]),
    "float": (_FLOAT_COLUMNS, ["nan", "inf", "-inf", "1e400", "abc", ""]),
    "bool": (["was_home"], ["maybe", "", "2", "TRUE", " no "]),
    "position": (["position"], ["STRIKER", "", " gk "]),
    "gameweek": (["GW"], ["0", "-1", "1"]),
    "minutes": (["minutes"], ["121", "-1", "120", "0"]),
    "ict": (["ict_index"], ["99.5"]),
}


def _raw_columns(seed: int, n: int) -> dict[str, list[str]]:
    """n valid raw rows, column by column, as the cells of a file."""
    rng = np.random.default_rng(seed)
    pick = lambda options: [options[i] for i in rng.integers(0, len(options), n)]
    floats = {c: np.round(rng.uniform(0, 40, n), 1) for c in ("influence", "creativity", "threat")}
    ict = np.round((floats["influence"] + floats["creativity"] + floats["threat"]) / 10.0, 1)
    return {
        "name": [f"player {i % 23}" for i in range(n)],
        "position": pick(["GK", "DEF", "MID", "FWD", "mid", " Fwd "]),
        "team": pick(["spurs", "arsenal"]),
        "opponent_team": pick(["fulham", "burnley"]),
        **{c: [str(v) for v in rng.integers(0, 40, n)] for c in _INT_COLUMNS},
        "GW": [str(v) for v in rng.integers(1, 6, n)],
        "minutes": [str(v) for v in rng.integers(0, 121, n)],
        **{c: [repr(v) for v in values.tolist()] for c, values in floats.items()},
        "ict_index": [repr(v) for v in ict.tolist()],
        "was_home": pick(["True", "False", "1", "0", "t", "no"]),
        "kickoff_time": pick(["2021-08-14T14:00", "2021-08-14T11:30", "2021-08-15T16:30"]),
        "expected_goals": pick(["0.1", "x"]),
    }


@st.composite
def raw_files(draw):
    """(block size, file text) for a file of more than one block, with 0-3
    faults in rows of any block and at block boundaries, and 0-2 quoted
    names that span two lines."""
    block = draw(st.sampled_from([1, 2, 3, 7, ingest._BLOCK_ROWS]))
    n = draw(st.integers(block + 1, 2 * block + 2 if block > 7 else 4 * block))
    columns = _raw_columns(draw(st.integers(0, 2**32 - 1)), n)
    names = [c.csv for c in RAW_SCHEMA if c.csv not in draw(st.sets(st.sampled_from(_OPTIONAL)))]
    names += [c for c in ("kickoff_time", "expected_goals") if draw(st.booleans())]
    names = draw(st.permutations(names))
    near_boundaries = [r for k in range(1, n // block + 1) for r in (k * block - 1, k * block)]
    rows = st.one_of(st.integers(0, n - 1), st.sampled_from([r for r in near_boundaries if r < n]))
    short, blank = {}, set()
    for _ in range(draw(st.sampled_from([3, 2, 1, 0]))):
        # "ict" twice: a warning is the rarest outcome otherwise.
        row, kind = draw(rows), draw(st.sampled_from([*_FAULTS, "ict", "short", "blank"]))
        if kind == "short":
            short[row] = draw(st.integers(1, len(names) - 1))
        elif kind == "blank":
            blank.add(row)
        else:
            targets, cells = _FAULTS[kind]
            column = draw(st.sampled_from(targets))
            columns[column][row] = draw(st.sampled_from(cells))
    for row in draw(st.sets(rows, max_size=2)):
        columns["name"][row] = f'"{columns["name"][row]}\nthe {row}th"'
    lines = []
    for row in range(n):
        cells = [columns[name][row] for name in names]
        lines.append(" , " if row in blank else ",".join(cells[: short.get(row, len(cells))]))
    header = ["round" if name == "GW" and draw(st.booleans()) else name for name in names]
    return block, "\n".join([",".join(header), *lines]) + "\n"


class TestColumnarParse:
    """parse_gameweek_csv against the row-by-row oracle: same table, or
    same error; same warnings in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(raw_files())
    def test_matches_the_row_by_row_oracle(self, case):
        block, text = case
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            _assert_same_outcome(text)

    def test_kickoff_time_short_row_warns_first(self):
        header = HEADER + ",kickoff_time"
        rows = [row_line() + ",2021-08-14", row_line().replace("5.5", "50.0")]
        _assert_same_outcome("\n".join([header, *rows]) + "\n")
        with pytest.warns(UserWarning, match="line 3"):
            with pytest.raises(RowParseError, match="line 3: row too short for column 'kick"):
                parse_gameweek_csv("\n".join([header, *rows]), "2021-22")

    def test_range_checks_follow_the_rows_cells(self):
        text = "\n".join([HEADER, row_line(gw=0, minutes=121), row_line(minutes="x")])
        with pytest.raises(RowParseError, match="line 2: gameweek must be >= 1, got 0"):
            parse_gameweek_csv(text, "2021-22")
        text = "\n".join([HEADER, row_line(position="X", gw=0), row_line()])
        with pytest.raises(RowParseError, match="line 2: unknown position"):
            parse_gameweek_csv(text, "2021-22")

    def test_warnings_of_earlier_blocks_come_before_a_later_error(self):
        rows = [row_line().replace("5.5", "50.0")] * 3 + [row_line(minutes="x")]
        with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
            _assert_same_outcome("\n".join([HEADER, *rows]))

    def test_rows_before_an_unreadable_row_are_checked_first(self):
        unreadable = row_line(name="k" * (csv.field_size_limit() + 1))
        with pytest.raises(RowParseError, match="line 2: non-numeric value 'x'"):
            parse_gameweek_csv("\n".join([HEADER, row_line(minutes="x"), unreadable]), "2021-22")
        with pytest.raises(RowParseError, match=r"^line 3: field larger than field limit"):
            parse_gameweek_csv("\n".join([HEADER, row_line(), unreadable]), "2021-22")

    def test_an_unreadable_header_or_row_is_a_parse_error_naming_its_line(self):
        unreadable = "k" * (csv.field_size_limit() + 1)
        for text, line in (
            (unreadable, 1),
            ("\n".join([HEADER, row_line(), "", row_line(name=unreadable)]), 4),
            # A quoted cell may span lines: the error names the line read last.
            ("\n".join([HEADER, f'"{unreadable[:9]}\n{unreadable}",MID']), 3),
        ):
            with pytest.raises(RowParseError, match=rf"^line {line}: field larger than"):
                parse_gameweek_csv(text, "2021-22")

    def test_minutes_bounds(self):
        for minutes in (0, 120):
            text = HEADER + "\n" + row_line(minutes=minutes)
            assert parse_gameweek_csv(text, "2021-22").minutes.tolist() == [minutes]
        for minutes in (-1, 121):
            message = rf"line 2: minutes out of range \[0, 120\]: {minutes}$"
            with pytest.raises(RowParseError, match=message):
                parse_gameweek_csv(HEADER + "\n" + row_line(minutes=minutes), "2021-22")

    def test_integers_written_as_floats_are_accepted(self):
        rows = parse_gameweek_csv(HEADER + "\n" + row_line(minutes="90.0"), "2021-22")
        assert rows.minutes.tolist() == [90] and rows.minutes.dtype == np.int64

    def test_byte_order_mark_is_dropped(self):
        text = HEADER + "\n" + row_line()
        assert_tables_equal(
            parse_gameweek_csv("\ufeff" + text, "2021-22"), parse_gameweek_csv(text, "2021-22")
        )

    def test_a_clean_season_never_reaches_the_row_loop(self):
        rows, _ = generate_synthetic_season(seed=3, n_players=200, n_weeks=38)
        text = write_raw_csv(rows)
        with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row loop")):
            parsed = parse_gameweek_csv(text, "synthetic")
        assert_tables_equal(parsed, _parse_gameweek_csv_oracle(text, "synthetic"))

    def test_an_integer_written_as_a_float_takes_the_row_loop(self):
        rows = [row_line(name=f"p{i}", minutes=90 - i) for i in range(5)]
        rows[3] = row_line(name="p3", minutes="3.0")
        text = "\n".join([HEADER, *rows]) + "\n"
        with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as row_loop:
            _assert_same_outcome(text)
        assert row_loop.call_count == 1
        assert parse_gameweek_csv(text, "2021-22").minutes.tolist() == [90, 89, 88, 3, 86]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_a_non_finite_float_is_rejected(self, value):
        text = "\n".join([HEADER, row_line(), row_line().replace("10.0", value)])
        _assert_same_outcome(text)
        message = f"^line 3: non-finite value '{value}' in column 'influence'$"
        with pytest.raises(RowParseError, match=message):
            parse_gameweek_csv(text, "2021-22")

    def test_a_row_short_of_its_kickoff_time_is_rejected(self):
        text = "\n".join([HEADER + ",kickoff_time", row_line() + ",2021-08-14", row_line()])
        _assert_same_outcome(text)
        with pytest.raises(RowParseError, match="^line 3: row too short for column 'kickoff_t"):
            parse_gameweek_csv(text, "2021-22")

    def test_a_row_loop_warning_names_the_callers_line(self):
        text = "\n".join([HEADER, row_line(minutes="90.0").replace("5.5", "50.0")])

        def caller():
            return parse_gameweek_csv(text, "2021-22")

        with pytest.warns(UserWarning, match="line 2: ict_index 50.0") as caught:
            caller()
        line = caller.__code__.co_firstlineno + 1
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


class TestPhysicalLines:
    """A quoted cell may span lines; every later message names the line a
    record ends on, not its record count."""

    TWO_LINE_NAME = row_line(name='"A\nB"')

    def test_a_bad_cell_after_a_two_line_name(self):
        text = "\n".join([HEADER, self.TWO_LINE_NAME, row_line(minutes="x")])
        with pytest.raises(RowParseError, match="^line 4: non-numeric value 'x'"):
            parse_gameweek_csv(text, "2021-22")

    def test_an_ict_warning_after_a_two_line_name(self):
        text = "\n".join([HEADER, self.TWO_LINE_NAME, row_line().replace("5.5", "50.0")])
        with pytest.warns(UserWarning, match="^line 4: ict_index 50.0"):
            rows = parse_gameweek_csv(text, "2021-22")
        assert rows.player_name.tolist() == ["A\nB", "Harry Kane"]

    def test_a_strength_after_a_two_line_team(self):
        text = 'season,team,strength\n2021-22,"West\nHam",3\n2021-22,Arsenal,9\n'
        with pytest.raises(RowParseError, match=r"^line 4: strength must be in \[1, 5\]"):
            parse_strengths_csv(text)

    def test_a_team_rated_twice_after_a_two_line_team(self):
        text = 'season,team,strength\n2021-22,"West\nHam",3\n2021-22,Fulham,4\n2021-22,fulham,2\n'
        with pytest.raises(RowParseError, match=(
            r"^line 5: team 'fulham' is rated twice in season 2021-22 \(first on line 4\)$"
        )):
            parse_strengths_csv(text)


class TestParseIntegers:
    def test_large_integers_are_exact(self):
        line = row_line().replace(",30,2,", ",9007199254740993,2,")
        rows = parse_gameweek_csv(HEADER + "\n" + line, "2021-22")
        assert rows.bps.tolist() == [9007199254740993]

    @pytest.mark.parametrize("value", ["1e30", "9223372036854775808"])
    def test_out_of_int64_range_rejected(self, value):
        line = row_line().replace(",30,2,", f",{value},2,")
        with pytest.raises(RowParseError, match="line 2: .*out of range"):
            parse_gameweek_csv(HEADER + "\n" + line, "2021-22")

    def test_row_too_short_for_its_gameweek(self):
        header = HEADER.replace("GW,", "") + ",GW"
        line = row_line().replace(",1,spurs,", ",spurs,")
        with pytest.raises(RowParseError, match="row too short for column 'GW'"):
            parse_gameweek_csv(header + "\n" + line, "2021-22")


class TestGameweekTable:
    def test_take_by_indices_mask_or_slice(self):
        rows = make_table(gameweek=[1, 2, 3], player_name=["a", "b", "c"])
        picked = rows.take([2, 0])
        assert picked.player_name.tolist() == ["c", "a"] and picked.gameweek.tolist() == [3, 1]
        assert_tables_equal(rows.take(rows.gameweek != 2), rows.take([0, 2]))
        assert_tables_equal(rows.take([True, False, True]), rows.take([0, 2]))
        assert_tables_equal(rows.take(slice(1, 3)), rows.take([1, 2]))
        assert len(rows.take([])) == 0

    def test_every_column_is_an_array_after_every_operation(self):
        rows = make_table(gameweek=[1, 2, 3], player_name=["a", "b", "c"],
                          position=[Position.GK, Position.MID, Position.FWD])
        for table in (
            rows, GameweekTable.empty(), rows.take([2, 0]), rows.take(slice(1, 3)),
            rows.take(rows.gameweek > 1), rows.take([]),
            GameweekTable.concat([rows, GameweekTable.empty(), rows.take([1])]),
            GameweekTable.concat([]),
            rows.replace(player_name=("x", "y", "z"), position=[Position.DEF] * 3),
            parse_gameweek_csv("\n".join([HEADER, row_line(), row_line(name="B")]), "2021-22"),
            parse_gameweek_csv(HEADER, "2021-22"),
            read_cleaned_csv(write_cleaned_csv(rows)),
            read_cleaned_csv(write_cleaned_csv(GameweekTable.empty())),
        ):
            assert_every_column_is_an_array(table)

    def test_the_table_comparison_sees_bits_and_element_types(self):
        rows = make_table(influence=[0.0, 1.0], player_name=["a", "b"])
        assert_tables_equal(rows, rows.replace(player_name=["a", "b"]))
        for changed in (
            rows.replace(influence=[-0.0, 1.0]),  # equal values, other bits
            rows.replace(player_name=[np.str_("a"), "b"]),  # equal values, other types
            rows.replace(player_name=["a", "c"]),
            rows.replace(position=[Position.FWD, Position.MID]),
        ):
            with pytest.raises(AssertionError):
                assert_tables_equal(rows, changed)

    def test_concat_keeps_order_and_types(self):
        rows = make_table(gameweek=[1, 2], was_home=[True, False])
        both = GameweekTable.concat([rows.take([1]), GameweekTable.empty(), rows.take([0])])
        assert both.gameweek.tolist() == [2, 1] and both.was_home.tolist() == [False, True]
        assert both.gameweek.dtype == np.int64 and both.was_home.dtype == np.bool_
        assert_tables_equal(GameweekTable.concat([]), GameweekTable.empty())

    def test_replace_swaps_columns_and_leaves_the_original(self):
        rows = make_table(player_name=["a", "b"])
        renamed = rows.replace(player_name=["x", "y"])
        assert renamed.player_name.tolist() == ["x", "y"]
        assert rows.player_name.tolist() == ["a", "b"]
        assert renamed.minutes is rows.minutes
        with pytest.raises(TypeError):
            rows.replace(no_such_column=[1, 2])

    def test_immutable_and_checked(self):
        rows = make_table(minutes=[1, 2])
        with pytest.raises(AttributeError):
            rows.minutes = np.array([3, 4])
        with pytest.raises(ValueError, match="length"):
            rows.replace(minutes=[1, 2, 3])

    def test_matrix_stacks_columns_as_floats(self):
        rows = make_table(total_points=[1, 12], influence=[0.5, 2.0])
        matrix = rows.matrix(["total_points", "influence"])
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [[1.0, 0.5], [12.0, 2.0]]
        assert rows.take([]).matrix(["minutes"]).shape == (0, 1)


class TestCanonicalizeName:
    def test_folds_diacritics(self):
        assert canonicalize_name("Aleksandar Mitrović") == "aleksandar mitrovic"

    def test_collapses_whitespace(self):
        assert canonicalize_name("  Son   Heung-min ") == "son heung-min"

    def test_lowercases(self):
        assert canonicalize_name("KANE") == "kane"

    def test_folds_stroked_letters(self):
        assert canonicalize_name("Ødegaard") == "odegaard"

    def test_empty_input(self):
        assert canonicalize_name("") == ""

    @given(st.text(max_size=40))
    def test_idempotent(self, name):
        once = canonicalize_name(name)
        assert canonicalize_name(once) == once


def _levenshtein_oracle(a: str, b: str) -> int:
    # Full-matrix dynamic program, independent of the two-row version.
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost
            )
    return dist[m][n]


def _similarity_oracle(a: str, b: str) -> float:
    ta = " ".join(sorted(a.split()))
    tb = " ".join(sorted(b.split()))
    longest = max(len(ta), len(tb))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein_oracle(ta, tb) / longest


def _fuzzy_match_oracle(query, candidates, threshold=0.85):
    # fuzzy_match as it stood before the bounded edit distance: every
    # candidate scored in full.
    if not candidates:
        raise ValueError("candidates must be non-empty")
    best = None
    for cand in candidates:
        score = _similarity_oracle(query, cand)
        if best is None or score > best[1]:
            best = (cand, score)
    assert best is not None
    return best if best[1] >= threshold else None


# A small alphabet with a space, so token order, shared prefixes and
# suffixes, ties and empty names all turn up.
names = st.text(alphabet="ab c", max_size=10)


def thresholds(a: str, b: str):
    """Plain cut-offs, ones outside [0, 1], and every score 1 - d/L that
    a and b can have, L being their longer token-sorted length."""
    longest = max(len(" ".join(sorted(a.split()))), len(" ".join(sorted(b.split()))), 1)
    return st.one_of(
        st.sampled_from([0.0, 1.0, 0.85, -0.5, 1.5, -math.inf, math.inf, math.nan]),
        st.floats(-0.5, 1.5),
        st.integers(0, longest).map(lambda d: 1.0 - d / longest),
    )


class TestFuzzyMatch:
    def test_exact_match_scores_one(self):
        assert fuzzy_match("harry kane", ["mo salah", "harry kane"]) == (
            "harry kane",
            1.0,
        )

    def test_token_sort_handles_name_order(self):
        # Token sort maps both to "heung-min son": distance 0.
        result = fuzzy_match("heung-min son", ["son heung-min"], 0.85)
        assert result == ("son heung-min", 1.0)

    def test_below_threshold_returns_none(self):
        assert fuzzy_match("xyz", ["harry kane"], 0.85) is None

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            fuzzy_match("kane", [], 0.85)

    def test_tie_broken_by_first_occurrence(self):
        result = fuzzy_match("kane", ["kane", "kane"], 0.5)
        assert result == ("kane", 1.0)

    def test_abbreviation_scores_against_oracle(self):
        # "aleks. mitrovic" vs "aleksandar mitrovic" as in abbreviated feeds.
        got = token_sort_similarity("aleks mitrovic", "aleksandar mitrovic")
        assert got == _similarity_oracle("aleks mitrovic", "aleksandar mitrovic")

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_similarity_symmetric(self, a, b):
        assert token_sort_similarity(a, b) == token_sort_similarity(b, a)

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_oracle_on_random_candidates(self, candidates):
        query = candidates[0]
        result = fuzzy_match(query, candidates, threshold=0.0)
        assert result is not None
        best, score = result
        oracle_scores = [_similarity_oracle(query, c) for c in candidates]
        assert score == max(oracle_scores)
        assert best == candidates[oracle_scores.index(max(oracle_scores))]

    @settings(max_examples=300)
    @given(names, st.lists(names, min_size=1, max_size=6), st.data())
    def test_matches_the_oracle(self, query, candidates, data):
        # Repeat one candidate so exact ties occur as well as near ones.
        candidates.insert(
            data.draw(st.integers(0, len(candidates))),
            data.draw(st.sampled_from(candidates)),
        )
        threshold = data.draw(thresholds(query, data.draw(st.sampled_from(candidates))))
        assert fuzzy_match(query, candidates, threshold) == _fuzzy_match_oracle(
            query, candidates, threshold
        )

    @given(names, names)
    def test_similarity_matches_the_oracle(self, a, b):
        assert token_sort_similarity(a, b) == _similarity_oracle(a, b)

    @given(names, names, st.integers(0, 12))
    def test_bounded_distance_is_capped_at_budget_plus_one(self, a, b, k):
        assert _levenshtein(a, b, k) == min(_levenshtein_oracle(a, b), k + 1)

    @pytest.mark.parametrize("threshold", [-math.inf, -0.5, 0.0])
    def test_threshold_at_or_below_zero_matches_anything(self, threshold):
        assert fuzzy_match("abc", ["xyz", "ab"], threshold) == ("ab", 1.0 - 1 / 3)
        assert fuzzy_match("", ["xyz"], threshold) == ("xyz", 0.0)

    @pytest.mark.parametrize("threshold", [1.0 + 1e-12, 1.5, math.inf, math.nan])
    def test_threshold_above_one_matches_nothing(self, threshold):
        assert fuzzy_match("kane", ["kane"], threshold) is None


class TestDropBenched:
    def test_zero_minutes_excluded(self):
        assert len(drop_benched(make_table(minutes=0))) == 0

    def test_one_minute_retained(self):
        rows = make_table(minutes=1)
        assert_tables_equal(drop_benched(rows), rows)

    def test_empty_input(self):
        assert len(drop_benched(make_table(minutes=[]))) == 0

    def test_idempotent(self):
        rows = make_table(minutes=[0, 5, 0, 90])
        once = drop_benched(rows)
        assert_tables_equal(drop_benched(once), once)

    def test_order_preserved(self):
        rows = make_table(minutes=[5, 0, 7], gameweek=[1, 2, 3])
        assert drop_benched(rows).gameweek.tolist() == [1, 3]


def _difficulty_oracle(rows, strengths):
    """Each row's gap, rated row by row: the first row whose season has no
    table, or whose team or opponent (in that order) has no rating, raises."""
    gaps = []
    for season, team, opponent in zip(rows.season, rows.team, rows.opponent):
        if season not in strengths:
            raise TeamLookupError(f"no strength table for season '{season}'")
        entries = strengths[season]
        for name in (team, opponent):
            if canonicalize_name(name) not in entries:
                raise TeamLookupError(f"no strength rating for team '{name}' in season {season}")
        gaps.append(entries[canonicalize_name(opponent)] - entries[canonicalize_name(team)])
    return gaps


_DIFFICULTY_SEASONS = ("2020-21", "2021-22", "2022-23")
# Spellings of four teams; every one folds to its team's canonical name.
_DIFFICULTY_TEAMS = ("Arsenal", "arsenal", "Brentford", " fulham", "FULHAM", "Liverpool")


@st.composite
def rated_rows(draw):
    """Rows over three seasons, and strength tables that leave out some
    seasons and, in the seasons they keep, some teams."""
    n = draw(st.integers(0, 12))
    names = st.lists(st.sampled_from(_DIFFICULTY_TEAMS), min_size=n, max_size=n)
    rows = make_table(
        season=draw(st.lists(st.sampled_from(_DIFFICULTY_SEASONS), min_size=n, max_size=n)),
        team=draw(names), opponent=draw(names),
    )
    teams = sorted({canonicalize_name(name) for name in _DIFFICULTY_TEAMS})
    strengths = {
        season: {
            team: draw(st.integers(1, 5)) for team in teams
            if draw(st.integers(0, 9)) > 0  # about one team in ten unrated
        }
        for season in _DIFFICULTY_SEASONS if draw(st.integers(0, 5)) > 0
    }
    return rows, strengths


class TestComputeDifficulty:
    @settings(max_examples=200, deadline=None)
    @given(rated_rows())
    def test_matches_the_row_by_row_oracle(self, drawn):
        """The gaps of every row, or the first error the oracle raises."""
        rows, strengths = drawn
        outcomes = []
        for difficulty in (compute_difficulty, _difficulty_oracle):
            try:
                outcomes.append(list(difficulty(rows, strengths)))
            except TeamLookupError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_equal_strengths_zero(self, strengths):
        row = make_table(team="fulham", opponent="fulham")
        assert compute_difficulty(row, strengths).tolist() == [0]

    def test_stronger_opponent_positive(self, strengths):
        row = make_table(team="fulham", opponent="arsenal")  # 4 - 3
        assert compute_difficulty(row, strengths).tolist() == [1]

    def test_negative_value_representable(self, strengths):
        row = make_table(team="fulham", opponent="brentford")  # 2 - 3
        assert compute_difficulty(row, strengths).tolist() == [-1]

    def test_unknown_team_named_in_error(self, strengths):
        row = make_table(team="fulham", opponent="chelsea")
        with pytest.raises(TeamLookupError, match="chelsea"):
            compute_difficulty(row, strengths)

    def test_bounded_by_rating_range(self, strengths):
        for team in strengths["2021-22"]:
            for opponent in strengths["2021-22"]:
                row = make_table(team=team, opponent=opponent)
                assert -4 <= compute_difficulty(row, strengths)[0] <= 4

    def test_one_gap_per_row(self, strengths):
        rows = make_table(team=["fulham", "liverpool", "brentford"],
                          opponent=["arsenal", "fulham", "brentford"])
        gaps = compute_difficulty(rows, strengths)
        assert gaps.dtype == np.int64 and gaps.tolist() == [1, -2, 0]
        assert len(compute_difficulty(make_table(team=[], opponent=[]), strengths)) == 0

    def test_first_unrated_row_is_named(self, strengths):
        rows = make_table(team=["fulham", "wolves", "fulham"],
                          opponent=["arsenal", "burnley", "chelsea"])
        with pytest.raises(TeamLookupError, match="'wolves'"):
            compute_difficulty(rows, strengths)


class TestParseStrengths:
    def test_round_trip(self):
        text = "season,team,strength\n2021-22,Fulham,3\n2021-22,Arsenal,4\n"
        tables = parse_strengths_csv(text)
        assert tables == {"2021-22": {"fulham": 3, "arsenal": 4}}

    def test_short_row_rejected(self):
        with pytest.raises(RowParseError, match="line 3"):
            parse_strengths_csv("season,team,strength\n2021-22,Fulham,3\n2021-22\n")

    def test_team_rated_twice_rejected(self):
        text = 'season,team,strength\n2021-22,Fulham,3\n2021-22,Arsenal,4\n"2021-22"," fulham",5\n'
        with pytest.raises(RowParseError, match=(
            r"line 4: team ' fulham' is rated twice in season 2021-22 \(first on line 2\)"
        )):
            parse_strengths_csv(text)

    def test_same_team_in_two_seasons_accepted(self):
        tables = parse_strengths_csv("season,team,strength\n2021-22,Fulham,3\n2022-23,Fulham,4\n")
        assert tables == {"2021-22": {"fulham": 3}, "2022-23": {"fulham": 4}}

    def test_byte_order_mark_is_dropped(self):
        text = "season,team,strength\n2021-22,Fulham,3\n"
        assert parse_strengths_csv("\ufeff" + text) == parse_strengths_csv(text)

    def test_unreadable_row_is_a_parse_error_after_the_rows_before_it(self):
        unreadable = "k" * (csv.field_size_limit() + 1)
        text = f"season,team,strength\n2021-22,Fulham,3\n2021-22,{unreadable},4\n"
        with pytest.raises(RowParseError, match=r"^line 3: field larger than field limit"):
            parse_strengths_csv(text)
        with pytest.raises(RowParseError, match=r"^line 2: strength must be in \[1, 5\]"):
            parse_strengths_csv(text.replace(",3", ",9"))
        with pytest.raises(RowParseError, match=r"^line 1: field larger than field limit"):
            parse_strengths_csv(unreadable + ",team,strength\n")

    def test_out_of_range_strength_rejected(self):
        with pytest.raises(RowParseError, match="strength"):
            parse_strengths_csv("season,team,strength\n2021-22,Fulham,9\n")
