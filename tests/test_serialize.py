import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplcast.cnn import LearningCurve
from fplcast.dataset import (
    FeatureTier,
    Players,
    ScalerParams,
    assign_splits,
    generate_synthetic_season,
)
from fplcast.evaluation import EvalReport
from fplcast.ingest import (
    GAMEWEEK_SCHEMA,
    RAW_SCHEMA,
    GameweekTable,
    Position,
    parse_gameweek_csv,
)
from fplcast.serialize import (
    FormatError,
    _table_rows,
    csv_line,
    fmt_num,
    read_cleaned_csv,
    read_splits,
    write_cleaned_csv,
    write_learning_curve,
    write_raw_csv,
    write_reports_csv,
    write_splits,
    write_table,
)

from conftest import assert_tables_equal


class TestNumberFormatting:
    def test_floats_render_17_significant_digits(self):
        assert fmt_num(0.1) == "0.10000000000000001"
        assert float(fmt_num(1 / 3)) == 1 / 3

    def test_ints_render_plain(self):
        assert fmt_num(42) == "42"
        assert fmt_num(np.int64(-3)) == "-3"

    def test_bools(self):
        assert fmt_num(True) == "True"

    def test_csv_line_quotes_text_only(self):
        assert csv_line(["a,b", 1, 2.5]) == '"a,b",1,2.5'
        assert csv_line(['say "hi"']) == '"say ""hi"""'


# Text without line breaks: quotes, commas and non-ASCII letters.
_TABLE_TEXT = st.text(alphabet='ab "\',éøŁß中', max_size=8) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=6
)


class TestTables:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_come_back_as_their_csv_line_cells(self, data):
        n = data.draw(st.integers(1, 5))
        if data.draw(st.booleans()):
            names = data.draw(st.lists(_TABLE_TEXT, min_size=n, max_size=n))
            header = csv_line(names)
        else:
            names = data.draw(st.lists(
                st.from_regex(r"[a-z_]{1,8}", fullmatch=True), min_size=n, max_size=n
            ))
            header = ",".join(names)
        cell = _TABLE_TEXT | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
        rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), max_size=5))
        text = write_table(header, rows)
        first_line = data.draw(st.integers(1, 9))
        assert text.endswith("\n") and text.splitlines()[0] == header
        assert list(_table_rows(text, names, "no header", first_line)) == [
            (number, [c if isinstance(c, str) else fmt_num(c) for c in row])
            for number, row in enumerate(rows, start=first_line + 1)
        ]

    def test_header_and_cell_count_are_required(self):
        text = write_table("a,b", [[1, "x"], [2.5, "y", 3]])
        with pytest.raises(FormatError, match="^no column header$"):
            list(_table_rows(text, ["a", "c"], "no column header"))
        with pytest.raises(FormatError, match="^line 3: expected 2 cells, found 3$"):
            list(_table_rows(text, ["a", "b"], "no column header"))
        with pytest.raises(FormatError, match="^line 7: expected 2 cells, found 3$"):
            list(_table_rows(text, ["a", "b"], "no column header", first_line=5))


@pytest.fixture
def season():
    rows, strengths = generate_synthetic_season(seed=8, n_players=12, n_weeks=6)
    return rows, strengths


class TestCleanedRoundTrip:
    def test_rows_survive(self, season):
        rows, _ = season
        parsed = read_cleaned_csv(write_cleaned_csv(rows))
        assert_tables_equal(parsed, rows)

    def test_rejects_foreign_header(self):
        with pytest.raises(FormatError):
            read_cleaned_csv("a,b,c\n1,2,3\n")

    def test_an_unreadable_cell_is_a_format_error_naming_its_line(self, season):
        rows, _ = season
        header, first, second, *rest = write_cleaned_csv(rows).splitlines()
        second = second.replace('"', '"' + "k" * 200_000, 1)
        text = "\n".join([header, first, second, *rest]) + "\n"
        with pytest.raises(FormatError, match="line 3: field larger than field limit"):
            read_cleaned_csv(text)

    def test_a_byte_order_mark_is_dropped(self, season):
        rows, _ = season
        assert_tables_equal(read_cleaned_csv("\ufeff" + write_cleaned_csv(rows)), rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_tables_survive_and_rewrite_to_the_same_bytes(self, data):
        table = data.draw(gameweek_tables())
        text = write_cleaned_csv(table)
        parsed = read_cleaned_csv(text)
        assert_tables_equal(parsed, table)
        assert write_cleaned_csv(parsed) == text

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_raw_file_parses_back(self, data):
        table = data.draw(gameweek_tables(
            gameweek=st.integers(1, 2**63 - 1), minutes=st.integers(0, 120)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random ICT values deviate
            parsed = parse_gameweek_csv(write_raw_csv(table), "2021-22")
        expected = table.replace(
            season=("2021-22",) * len(table),
            # Rows order by gameweek, then by file order.
            kickoff_order=np.argsort(np.argsort(table.gameweek, kind="stable")),
        )
        assert_tables_equal(parsed, expected)

    def test_synthetic_raw_file_parses_back(self, season):
        rows, _ = season
        parsed = parse_gameweek_csv(write_raw_csv(rows), rows.season[0])
        order = np.lexsort((np.arange(len(rows)), rows.gameweek))
        assert_tables_equal(parsed.take(order), rows.take(order).replace(
            kickoff_order=np.arange(len(rows))
        ))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_render_as_csv_line_renders_them(self, data):
        table = data.draw(gameweek_tables())
        for schema, write in ((GAMEWEEK_SCHEMA, write_cleaned_csv),
                              (RAW_SCHEMA, write_raw_csv)):
            rows = [
                csv_line([v.value if isinstance(v, Position) else v
                          for v in (getattr(table, c.field)[i] for c in schema)])
                for i in range(len(table))
            ]
            header = ",".join(c.csv for c in schema)
            assert write(table) == "\n".join([header] + rows) + "\n"
        assert [c.csv for c in RAW_SCHEMA] == [
            c.csv for c in GAMEWEEK_SCHEMA if c.csv not in ("season", "kickoff_order")
        ]


# Names with quotes, commas and non-ASCII letters; ints of either sign;
# floats with the awkward cases named.
_CELLS = {
    "text": st.text(alphabet='ab "\',éøŁß中\n', max_size=8) | st.text(max_size=6),
    "position": st.sampled_from(list(Position)),
    "int": st.integers(-(2**63), 2**63 - 1),
    "opt_int": st.integers(-(2**63), 2**63 - 1),
    "float": st.sampled_from([-0.0, 0.1, 1e-300, 5e-324, -2.5])
    | st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
}


@st.composite
def gameweek_tables(draw, **fields):
    """Random tables of up to 6 rows; `fields` override a column's cells."""
    n = draw(st.integers(0, 6))
    return GameweekTable(**{
        c.field: draw(st.lists(fields.get(c.field, _CELLS[c.kind]), min_size=n, max_size=n))
        for c in GAMEWEEK_SCHEMA
    })


class TestSplitsRoundTrip:
    def test_full_round_trip(self, season):
        rows, _ = season
        splits = assign_splits(rows, seed=4)
        parsed = read_splits(write_splits(splits))
        assert parsed.assignments == splits.assignments
        assert parsed.fractions == pytest.approx(splits.fractions)
        assert parsed.seed == splits.seed
        assert parsed.strat_on == splits.strat_on


class TestReportWriters:
    def test_learning_curve_layout(self):
        curve = LearningCurve(
            train_cost=[2.0, 1.0], train_mse=[1.5, 0.75], val_mse=[1.8, 1.0],
            best_epoch=1,
        )
        text = write_learning_curve(curve)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_cost,train_mse,val_mse"
        assert lines[1].startswith("0,2,1.5,")
        assert lines[-1].startswith('"best_epoch",1')

    def test_reports_csv_null_spearman(self):
        report = EvalReport(
            position=Position.GK, split="test", n=4, mse=2.0, spearman=None,
            model_id="ridge_GK",
        )
        text = write_reports_csv([report])
        assert '"null"' in text


@pytest.fixture(scope="module")
def fitted_models():
    """One small fitted model per family, with its model context."""
    from fplcast.harness import FAMILIES, train_family
    from fplcast.serialize import ModelContext

    rows, strengths = generate_synthetic_season(seed=8, n_players=60, n_weeks=10)
    mid = rows.take(rows.position == Position.MID)
    splits = assign_splits(mid, seed=8)
    players = Players(mid, strengths, splits.assignments)
    train_ex, val_ex = (
        players.windows(3, FeatureTier.PTSONLY, split) for split in ("train", "validation")
    )
    configs = {
        "ridge": {},
        "gbm": {"n_trees": 3, "min_data_in_leaf": 5},
        "cnn": {"epochs": 1, "filters": 2, "hidden": 2},
    }
    models = {}
    for name, config in configs.items():
        fitted, _, _ = train_family(name, config, train_ex, val_ex, seed=8)
        ctx = ModelContext(w=3, tier="ptsonly", position="MID", scaler=fitted.scaler)
        models[name] = (FAMILIES[name], fitted.model, ctx)
    return models


@pytest.fixture(scope="module")
def data_files():
    """(reader, writer of what it read, text) for each data file format."""
    rows, strengths = generate_synthetic_season(seed=8, n_players=24, n_weeks=5)
    return {
        "splits": (read_splits, write_splits, write_splits(assign_splits(rows, seed=4))),
        "cleaned": (read_cleaned_csv, write_cleaned_csv, write_cleaned_csv(rows)),
    }


@pytest.fixture(scope="module")
def model_files(fitted_models):
    """(reader, writer of what it read, text) for each model file format."""
    from fplcast.serialize import ModelContext

    files = {
        name: (family.read, lambda loaded, family=family: family.write(*loaded),
               family.write(model, ctx))
        for name, (family, model, ctx) in fitted_models.items()
    }
    # The scaler pair of a model header is optional.
    family, model, ctx = fitted_models["cnn"]
    bare = ModelContext(w=ctx.w, tier=ctx.tier, position=ctx.position)
    files["cnn_without_scaler"] = (files["cnn"][0], files["cnn"][1], family.write(model, bare))
    return files


def assert_every_cut_loads_a_prefix_or_fails(read, write, text):
    """Cut `text` at every line boundary, then at every character of its
    last line: each cut loads a line prefix of `text` or is a FormatError."""
    lines = text.splitlines(keepends=True)
    prefixes = {"".join(lines[:cut]) for cut in range(len(lines) + 1)}
    cuts = [len("".join(lines[:cut])) for cut in range(len(lines))]
    cuts += range(len(text) - len(lines[-1]), len(text) + 1)
    for cut in cuts:
        try:
            loaded = read(text[:cut])
        except FormatError:
            continue
        assert write(loaded) in prefixes, f"cut at character {cut} loaded"
    assert write(read(text)) == text


class TestModelFileTruncation:
    @pytest.mark.parametrize("name", ["ridge", "gbm", "cnn"])
    def test_every_line_cut_round_trips_or_is_format_error(self, fitted_models, name):
        family, model, ctx = fitted_models[name]
        text = family.write(model, ctx)
        lines = text.splitlines(keepends=True)
        for cut in range(len(lines) + 1):
            part = "".join(lines[:cut])
            try:
                loaded = family.read(part)
            except FormatError:
                continue
            assert family.write(*loaded) == part, f"cut at line {cut} loaded"
        assert family.write(*family.read(text)) == text

    @pytest.mark.parametrize(
        "name",
        ["splits", "cleaned"],
    )
    def test_every_cut_loads_a_prefix_or_is_format_error(self, data_files, name):
        assert_every_cut_loads_a_prefix_or_fails(*data_files[name])

    @pytest.mark.parametrize(
        "name", ["ridge", "gbm", "cnn", "cnn_without_scaler"]
    )
    def test_model_file_cuts_load_a_prefix_or_are_format_errors(self, model_files, name):
        assert_every_cut_loads_a_prefix_or_fails(*model_files[name])

    def test_cleaned_rows_need_26_cells_ending_in_a_bool(self, data_files):
        _, _, text = data_files["cleaned"]
        header, first, *_ = text.splitlines()
        for bad in ("yes", "true", ""):
            with pytest.raises(FormatError, match="was_home"):
                read_cleaned_csv(f"{header}\n{first.rsplit(',', 1)[0]},{bad}\n")
        with pytest.raises(FormatError, match="26 cells"):
            read_cleaned_csv(f"{header}\n{first},True\n")

    @pytest.mark.parametrize(
        "column", ["influence", "creativity", "threat", "ict_index"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_cleaned_float_cells_must_be_finite(self, data_files, column, value):
        _, _, text = data_files["cleaned"]
        header, first, second, *_ = text.splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = value
        with pytest.raises(FormatError, match=f"line 3: {column} must be finite"):
            read_cleaned_csv("\n".join([header, first, ",".join(cells)]) + "\n")

    def test_splits_need_a_column_header_and_a_row(self, data_files):
        _, _, text = data_files["splits"]
        lines = text.splitlines(keepends=True)
        header = lines.index("player,position,split\n")
        with pytest.raises(FormatError, match="column header"):
            read_splits("".join(lines[:header] + lines[header + 1 :]))
        with pytest.raises(FormatError, match="no players"):
            read_splits("".join(lines[: header + 1]))

    def test_a_splits_row_error_names_its_file_line(self, data_files):
        _, _, text = data_files["splits"]
        number = len(text.splitlines()) + 1
        with pytest.raises(FormatError, match=f"^line {number}: expected 3 cells, found 4$"):
            read_splits(text + '"x","MID","train",1\n')
        with pytest.raises(FormatError, match=f"^line {number + 1}: player 'x'.*twice$"):
            read_splits(text + '"x","MID","train"\n"x","MID","test"\n')

    def test_a_player_assigned_twice_is_a_format_error(self, data_files):
        _, _, text = data_files["splits"]
        name, position, split = text.splitlines()[-1].split(",")
        other = '"train"' if split != '"train"' else '"test"'
        with pytest.raises(FormatError, match=f"player '{name[1:-1]}'.*twice"):
            read_splits(text + f"{name},{position},{other}\n")


def deep_chain_gbm(text: str, depth: int) -> str:
    """`text`, a gbm model file, with tree 0 replaced by a chain of `depth`
    splits on feature 0: split d (from the root) has threshold depth - d
    and a leaf as right child. Leaves are valued by their pre-order rank,
    so a row x0 = k + 0.5 lands in the leaf valued k (0 <= k <= depth)."""
    lines = text.splitlines()
    start = lines.index("tree 0")
    end = lines.index("tree 1") if "tree 1" in lines else len(lines)
    chain = ["gains" + " 1" * depth,
             *(f"I 0 {depth - d} 10" for d in range(depth)),
             *(f"L {k} 10" for k in range(depth + 1))]
    return "\n".join(lines[: start + 1] + chain + lines[end:]) + "\n"


@st.composite
def corruptions(draw, text):
    """`text` with one byte flipped, or one line replaced by random text."""
    if draw(st.booleans()):
        data = bytearray(text.encode())
        at = draw(st.integers(0, len(data) - 1))
        data[at] ^= draw(st.integers(1, 255))
        return data.decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = draw(st.text(max_size=40)) + "\n"
    return "".join(lines)


class TestModelFileCorruption:
    @pytest.mark.parametrize("feature", ["-1", "2"])
    def test_gbm_split_feature_must_be_in_range(self, model_files, feature):
        read, _, text = model_files["gbm"]  # 2 features
        with pytest.raises(FormatError, match="split feature"):
            read(text.replace("\nI 0 ", f"\nI {feature} ", 1))

    @pytest.mark.parametrize("depth", [4, 1200])
    def test_gbm_tree_deeper_than_max_depth_is_a_format_error(self, model_files, depth):
        read, _, text = model_files["gbm"]  # max_depth 3
        with pytest.raises(FormatError, match="depth 4 is deeper than max_depth=3"):
            read(deep_chain_gbm(text, depth))

    def test_gbm_tree_nested_1200_deep_within_max_depth_reads_and_predicts(self, model_files):
        read, write, text = model_files["gbm"]
        deep = deep_chain_gbm(text, 1200).replace(" max_depth=3 ", " max_depth=1200 ", 1)
        loaded = read(deep)
        assert write(loaded) == deep
        tree = loaded[0].trees[0]
        assert max(node.depth for node in tree.nodes) == 1200
        k = np.array([0, 1, 2, 599, 1199, 1200])
        X = np.column_stack([k + 0.5, np.zeros(k.size)])
        np.testing.assert_array_equal(tree.predict_batch(X), k.astype(float))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("\nactivation relu\n", "\nactivation bogus\n", "activation"),
            ("\nparam conv_w 2 1 1\n", "\nparam conv_w 2 1\n", "conv_w shape"),
            ("\nparam conv_w 2 1 1\n", "\nparam conv_w 1 2 1\n", "conv_b has shape"),
            ("\nw 3\n", "\nw 0\n", "w must be >= 1"),
            ("\nw 3\n", "\nw 2\n", "hidden_w has shape"),
            ("\nparam conv_b 2\n", "\nparam conv_b 1 2\n", "conv_b has shape"),
            ("\nparam hidden_w 2 7\n", "\nparam hidden_w 7 2\n", "hidden_w has shape"),
            ("\nparam hidden_b 2\n", "\nparam hidden_b 2 1\n", "hidden_b has shape"),
            ("\nparam out_w 2\n", "\nparam out_w 1 2\n", "out_w has shape"),
            ("\nparam out_b 1\n", "\nparam out_b 1 1\n", "out_b has shape"),
            ("\nparam out_b 1\n", "\nparam extra 1\n0\nparam out_b 1\n", "parameters"),
        ],
    )
    def test_cnn_shapes_and_activation_are_checked(self, model_files, old, new, message):
        read, _, text = model_files["cnn"]  # w 3, k 1, 1 feature, 2 filters, 2 hidden
        assert old in text
        with pytest.raises(FormatError, match=message):
            read(text.replace(old, new, 1))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        "name, pattern, message",
        [
            ("ridge", r"(\nfeature\ttotal_points\t)[^\n]*", "weight of total_points"),
            ("ridge", r"(\nintercept )[^\n]*", "intercept"),
            ("ridge", r"(\nlambda )[^\n]*", "lambda"),
            ("ridge", r"(\nscaler_std )[^\n]*", "scaler_std"),
            ("gbm", r"(\nL )[^ ]*", "leaf value"),
            ("gbm", r"(\nI 0 )[^ ]*", "split threshold"),
            ("gbm", r"(\ngains )[^ \n]*", "split gain"),
            ("gbm", r"(\nbase_score )[^\n]*", "base_score"),
            ("gbm", r"( lambda_l2=)[^ ]*", "lambda_l2"),
            ("cnn", r"(\nparam out_b 1\n)[^\n]*", "out_b"),
            ("cnn", r"(\nparam conv_w 2 1 1\n)[^ ]*", "conv_w"),
            ("cnn", r"(\nscaler_mean )[^\n]*", "scaler_mean"),
        ],
    )
    def test_non_finite_numbers_are_format_errors(
        self, model_files, name, pattern, message, value
    ):
        read, _, text = model_files[name]
        changed = re.sub(pattern, rf"\g<1>{value}", text, count=1)
        assert changed != text
        with pytest.raises(FormatError, match=f"{message} must be finite"):
            read(changed)

    def test_cnn_parameter_listed_twice_is_a_format_error(self, model_files):
        read, _, text = model_files["cnn"]
        with pytest.raises(FormatError, match="conv_b is listed twice"):
            read(text + "param conv_b 2\n0 0\n")

    def test_cnn_kernel_longer_than_window_is_checked(self):
        from fplcast.cnn import init_model
        from fplcast.serialize import ModelContext, read_cnn, write_cnn

        model = init_model(w=3, k=2, f=1, n_filters=2, n_hidden=2, seed=1)
        text = write_cnn(model, ModelContext(w=3, tier="ptsonly", position="MID"))
        with pytest.raises(FormatError, match="conv_w shape"):
            read_cnn(text.replace("\nw 3\n", "\nw 1\n", 1))

    @pytest.mark.parametrize(
        "name, pattern, replacement, message",
        [
            pytest.param(name, pattern, replacement, message, id=f"{name}-{edit}")
            for edit, pattern, replacement, message, families in [
                ("tier_full", "\ntier ptsonly\n", "\ntier full\n", "tier full has 18",
                 ("ridge", "cnn")),
                # A tier whose column count the model's features do not fit.
                ("tier_pts_minutes", "\ntier ptsonly\n", "\ntier pts_minutes\n",
                 "tier pts_minutes has 2 columns", ("gbm",)),
                ("tier_and_scaler_pts_minutes",
                 r"\ntier ptsonly\n(position MID\n)scaler_mean ([^\n]*)\nscaler_std ([^\n]*)\n",
                 r"\ntier pts_minutes\n\1scaler_mean \2 0\nscaler_std \3 1\n",
                 "tier pts_minutes has 2 columns", ("ridge", "cnn")),
                ("tier_nope", "\ntier ptsonly\n", "\ntier nope\n", "unknown tier",
                 ("ridge", "gbm", "cnn")),
                ("position_XX", "\nposition MID\n", "\nposition XX\n", "unknown position",
                 ("ridge", "gbm", "cnn")),
                ("w_0", "\nw 3\n", "\nw 0\n", "w must be >= 1", ("ridge", "gbm", "cnn")),
                ("scaler_mean_extra", r"\nscaler_mean ([^\n]*)\n", r"\nscaler_mean \1 0\n",
                 "2 means", ("ridge", "cnn")),
            ]
            for name in families
        ],
    )
    def test_model_context_is_checked(self, model_files, name, pattern, replacement, message):
        read, _, text = model_files[name]  # w 3, ptsonly, MID; ridge and cnn scaled
        changed = re.sub(pattern, replacement, text, count=1)
        assert changed != text
        with pytest.raises(FormatError, match=message):
            read(changed)

    @pytest.mark.parametrize("name", ["ridge", "gbm", "cnn", "cnn_without_scaler"])
    def test_every_corruption_loads_or_is_format_error(self, model_files, name):
        read, _, text = model_files[name]

        @settings(max_examples=300, deadline=None)
        @given(corruptions(text))
        def check(corrupted):
            try:
                read(corrupted)
            except FormatError:
                pass

        check()


def _header_variants(text: str, body_marker: str):
    """(what was done, text) for each header line of `text` (the lines after
    the magic line and before the first line starting with `body_marker`):
    swapped with the next header line, its key renamed, duplicated, dropped."""
    lines = text.splitlines(keepends=True)
    end = next(i for i, l in enumerate(lines) if l.startswith(body_marker))
    assert end > 2
    for i in range(1, end):
        line = lines[i]
        prefix = "# " if line.startswith("# ") else ""
        key, _, value = line[len(prefix):].partition(" ")
        variants = {
            "renamed": lines[:i] + [f"{prefix}{key}_x {value}"] + lines[i + 1 :],
            "duplicated": lines[: i + 1] + lines[i:],
            "dropped": lines[:i] + lines[i + 1 :],
        }
        if i + 1 < end:
            variants["swapped"] = lines[:i] + [lines[i + 1], line] + lines[i + 2 :]
        for what, changed in variants.items():
            yield f"{key} {what}", "".join(changed)


@pytest.fixture(scope="module")
def headed_files(model_files, data_files):
    """(reader, text, first body line's start) for every file with a header."""
    markers = {"ridge": "feature\t", "gbm": "tree 0", "cnn": "param ",
               "cnn_without_scaler": "param "}
    files = {}
    for name, marker in markers.items():
        read, _, text = model_files[name]
        files[name] = (read, text, marker)
    files["splits"] = (read_splits, data_files["splits"][2], "player,")
    return files


class TestHeaderOrder:
    @pytest.mark.parametrize(
        "name",
        ["ridge", "gbm", "cnn", "cnn_without_scaler", "splits"],
    )
    def test_every_header_line_is_required_by_name_and_in_order(self, headed_files, name):
        read, text, marker = headed_files[name]
        read(text)
        for what, changed in _header_variants(text, marker):
            with pytest.raises(FormatError):
                read(changed)
                pytest.fail(f"{name} with {what} loaded")

    def test_gbm_hyperparams_are_named_in_order(self, headed_files):
        read, text, _ = headed_files["gbm"]
        line = next(l for l in text.splitlines() if l.startswith("hyperparams "))
        words = line.split()[1:]
        for changed in (
            [words[1], words[0], *words[2:]],
            words[:-1],
            words + words[-1:],
            ["x" + words[0], *words[1:]],
        ):
            with pytest.raises(FormatError):
                read(text.replace(line, " ".join(["hyperparams", *changed])))

    @pytest.mark.parametrize(
        "name", ["ridge", "gbm", "cnn", "cnn_without_scaler", "splits"]
    )
    def test_magic_line_and_final_newline_are_required(self, headed_files, name):
        read, text, _ = headed_files[name]
        for changed in (text[:-1], "x" + text, text.split("\n", 1)[1]):
            with pytest.raises(FormatError):
                read(changed)
