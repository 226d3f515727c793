"""Plain-text file formats: splits, models, and report tables.

Everything here is line-oriented UTF-8. Numeric cells are rendered with
17 significant digits so reruns are byte-identical and values round-trip
exactly; text cells in CSV outputs are always quoted.

Split and model files start with a magic line and a header of `key value`
lines (prefixed `# ` in splits files), one per field declared in
`_SPLITS_FIELDS`, `_RIDGE_FIELDS`, `_GBM_FIELDS` or `_CNN_FIELDS`. Readers
require every field by name and in declared order; only the scaler pair
is optional, and then both of its lines or neither. Each of these files
ends with a newline.

Every CSV table other than the gameweek files (the rows of splits files,
and each report table) is written by `write_table`: a header line, one
`csv_line` per row, a final newline. Of these, only the splits file is
read back. Its reader and the cleaned file's take their rows through
`_table_rows`: the records of ingest.csv_records, numbered by physical
line, where the first must be the column header and every other non-empty
one has the header's cell count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cnn import ACTIVATIONS, PARAM_NAMES, CnnModel, LearningCurve
from .dataset import SPLIT_NAMES, FeatureTier, ScalerParams
from .evaluation import EvalReport
from .gbm import GbmHyperparams, GbmModel, RegressionTree, TreeNode
from .ingest import (
    GAMEWEEK_SCHEMA,
    RAW_SCHEMA,
    CanonicalPlayerKey,
    GameweekTable,
    Position,
    RowParseError,
    csv_records,
    numeric_column,
)
from .ridge import RidgeModel

MAGIC_SPLITS = "# fplcast-splits v1"
MAGIC_RIDGE = "fplcast-ridge v1"
MAGIC_GBM = "fplcast-gbm v1"
MAGIC_CNN = "fplcast-cnn v1"

_POSITIONS = tuple(p.value for p in Position)


class FormatError(ValueError):
    """A serialized artifact does not match its expected layout."""


def fmt_num(x) -> str:
    """Fixed 17-significant-digit rendering for floats; plain ints."""
    if isinstance(x, (bool, np.bool_)):
        return "True" if x else "False"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_line(cells) -> str:
    """One CSV line: text quoted (with doubling), numbers via fmt_num."""
    rendered = []
    for cell in cells:
        if isinstance(cell, str):
            rendered.append('"' + cell.replace('"', '""') + '"')
        else:
            rendered.append(fmt_num(cell))
    return ",".join(rendered)


def write_table(header: str, rows) -> str:
    """A CSV table: the header line, one csv_line per row, a final newline."""
    return "\n".join([header, *map(csv_line, rows)]) + "\n"


def _table_rows(text: str, header: list[str], bad_header: str, first_line: int = 1):
    """(line number, cells) of each non-empty record of the CSV `text`,
    whose first record must be the `header` cells (else FormatError
    `bad_header`); every row has as many cells as the header. Line numbers
    are physical, counting the first line of `text` as `first_line`."""
    records = csv_records(text, first_line)
    try:
        if next((rec for _, rec in records), None) != header:
            raise FormatError(bad_header)
        for line, rec in records:
            if not rec:
                continue
            if len(rec) != len(header):
                raise FormatError(f"line {line}: expected {len(header)} cells, found {len(rec)}")
            yield line, rec
    except RowParseError as exc:  # already names its line
        raise FormatError(str(exc)) from None


def _require_final_newline(text: str, what: str) -> None:
    """Every writer ends its file with a newline. A cut inside the last
    line can leave a shorter number that still parses, so a file without
    one is truncated."""
    if not text.endswith("\n"):
        raise FormatError(f"{what} is truncated (no final newline)")


def _finite(cell: str, what: str) -> float:
    """float(cell), which must be finite; `what` names the cell in errors."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{what} must be a finite number, got {cell!r}")
    return value


def _integer(cell: str, what: str) -> int:
    """int(cell); `what` names the cell in errors."""
    try:
        return int(cell)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {cell!r}") from None


# ---------------------------------------------------------------------------
# File headers: one `key value` line per declared (key, kind) field


def _render_floats(values) -> str:
    return " ".join(fmt_num(v) for v in values)


def _finite_floats(text: str, what: str) -> np.ndarray:
    return np.array([_finite(v, what) for v in text.split()])


# kind -> (render, parse); parse(text, key) names the key in errors
_KINDS = {
    "int": (str, _integer),
    "float": (fmt_num, _finite),
    "str": (str, lambda v, key: v),
    "words": (" ".join, lambda v, key: v.split()),
    "floats": (_render_floats, _finite_floats),
}

# The one optional part of a header: a scaler is both lines or neither.
_SCALER_FIELDS = (("scaler_mean", "floats"), ("scaler_std", "floats"))


def _header_lines(fields, values: dict, prefix: str = "", sep: str = " ") -> list[str]:
    """One line per field, in declared order; an absent scaler writes none."""
    return [
        f"{prefix}{key}{sep}{_KINDS[kind][0](values[key])}"
        for key, kind in fields
        if values[key] is not None
    ]


def _read_header(
    lines: list[str], start: int, fields, prefix: str = "", sep: str = " "
) -> tuple[dict, int]:
    """The values of `fields` from lines[start:], which must name each
    field in declared order; returns them and the first line after them."""
    values, pos = {}, start
    for key, kind in fields:
        head = f"{prefix}{key}{sep}"
        line = lines[pos] if pos < len(lines) else ""
        if line.startswith(head):
            values[key] = _KINDS[kind][1](line[len(head) :], key)
            pos += 1
        elif (key, kind) in _SCALER_FIELDS:
            values[key] = None
        else:
            raise FormatError(f"expected header line {head.strip()!r}, found {line[:60]!r}")
    scaler = [values[key] is None for key, _ in _SCALER_FIELDS if key in values]
    if len(set(scaler)) > 1:
        raise FormatError("header has only one of scaler_mean and scaler_std")
    return values, pos


def _file_lines(text: str, magic: str, what: str) -> list[str]:
    """The lines of a `what`, which starts with `magic` and ends with a newline."""
    lines = text.splitlines()
    if not lines or lines[0] != magic:
        raise FormatError(f"not a {what}")
    _require_final_newline(text, what)
    return lines


# ---------------------------------------------------------------------------
# Gameweek tables: cleaned files (every schema column) and raw files (the
# columns a raw file carries)

_CELL_FORMATS = {
    "text": '"%s"', "position": '"%s"', "int": "%d", "opt_int": "%d",
    "float": "%.17g", "bool": "%s",
}


def _write_gameweeks(table: GameweekTable, columns) -> str:
    """One CSV line per row, rendered as csv_line renders its cells."""
    template = ",".join(_CELL_FORMATS[c.kind] for c in columns)
    cells = []
    for c in columns:
        column = getattr(table, c.field).tolist()
        if c.kind == "position":
            column = [p.value for p in column]
        elif c.kind == "text":
            column = [v.replace('"', '""') for v in column]
        cells.append(column)
    lines = [",".join(c.csv for c in columns)]
    lines.extend(template % row for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write_cleaned_csv(table: GameweekTable) -> str:
    return _write_gameweeks(table, GAMEWEEK_SCHEMA)


def write_raw_csv(table: GameweekTable) -> str:
    """The table in the raw per-gameweek layout that ingest parses."""
    return _write_gameweeks(table, RAW_SCHEMA)


_CLEANED_HEADER = [c.csv for c in GAMEWEEK_SCHEMA]


# What a cleaned-file cell of each kind must be.
_CELL_RULES = {
    "int": "an integer in int64 range", "opt_int": "an integer in int64 range",
    "float": "a finite number", "bool": "True or False", "position": "one of " + ", ".join(_POSITIONS),
}


def _column_values(kind: str, cells: tuple[str, ...]):
    """A cleaned-file column's values; ValueError or OverflowError if a cell
    is bad."""
    if kind == "text":
        return cells
    if kind == "position":
        return [Position(cell) for cell in cells]
    if kind == "bool":
        if not set(cells) <= {"True", "False"}:
            raise ValueError("a cell is neither True nor False")
        return [cell == "True" for cell in cells]
    values, bad = numeric_column(cells, kind)
    if bad is not None:
        raise ValueError("a cell is not finite")
    return values


def _read_column(c, cells: tuple[str, ...], lines: list[int]):
    """One cleaned-file column from its cells; `lines` are their line numbers.
    Only a column that fails to convert is searched for its first bad cell.
    Every kind converts cell by cell, so a column fails only where one of its
    cells does, and the search always finds one."""
    try:
        return _column_values(c.kind, cells)
    except (ValueError, OverflowError):
        for cell, line in zip(cells, lines):
            try:
                _column_values(c.kind, (cell,))
            except (ValueError, OverflowError):
                raise FormatError(
                    f"line {line}: {c.csv} must be {_CELL_RULES[c.kind]}, got {cell!r}"
                ) from None
        raise


def read_cleaned_csv(text: str) -> GameweekTable:
    """A cleaned gameweek file as a table. Its records come from
    ingest.csv_records, so each error names the physical line of a record."""
    records, lines = [], []
    for line, rec in _table_rows(
        text, _CLEANED_HEADER, "not a cleaned gameweek file (unexpected header)"
    ):
        records.append(rec)
        lines.append(line)
    columns = zip(*records) if records else [()] * len(GAMEWEEK_SCHEMA)
    return GameweekTable(**{
        c.field: _read_column(c, cells, lines)
        for c, cells in zip(GAMEWEEK_SCHEMA, columns)
    })


# ---------------------------------------------------------------------------
# Split assignments


_SPLITS_FIELDS = (
    ("seed", "int"), ("fractions", "floats"), ("n_bins", "int"), ("strat_on", "str"),
)
_SPLITS_HEADER = "player,position,split"


def write_splits(assignments: dict[CanonicalPlayerKey, str], settings: dict) -> str:
    """A splits file of `assignments`, headed by the split `settings`
    (seed, fractions, n_bins and strat_on) that made them."""
    keys = sorted(assignments, key=lambda k: (k.canonical_name, k.position.value))
    head = [MAGIC_SPLITS, *_header_lines(_SPLITS_FIELDS, settings, "# ")]
    return "\n".join(head) + "\n" + write_table(_SPLITS_HEADER, (
        [key.canonical_name, key.position.value, assignments[key]] for key in keys
    ))


def read_splits(text: str) -> dict[CanonicalPlayerKey, str]:
    """Each player's split name; the header's settings are checked, not kept."""
    lines = _file_lines(text, MAGIC_SPLITS, "splits file")
    _, body_start = _read_header(lines, 1, _SPLITS_FIELDS, "# ")
    assignments = {}
    body = "".join(text.splitlines(keepends=True)[body_start:])
    rows = _table_rows(body, _SPLITS_HEADER.split(","), "splits file lacks its column header",
                       first_line=body_start + 1)
    for number, (name, pos, split) in rows:
        if split not in SPLIT_NAMES:
            raise FormatError(f"line {number}: unknown split {split!r} for player {name!r}")
        if pos not in _POSITIONS:
            raise FormatError(f"line {number}: unknown position {pos!r} for player {name!r}")
        key = CanonicalPlayerKey(name, Position(pos))
        if key in assignments:
            raise FormatError(f"line {number}: player {name!r} ({pos}) is assigned twice")
        assignments[key] = split
    if not assignments:
        raise FormatError("splits file assigns no players")
    return assignments


# ---------------------------------------------------------------------------
# Model context: windowing and scaling needed to reuse a model on raw rows


@dataclass
class ModelContext:
    w: int
    tier: str
    position: str
    scaler: ScalerParams | None = None


# Every model file's header starts with its context; each family's own
# fields follow.
_CONTEXT_FIELDS = (("w", "int"), ("tier", "str"), ("position", "str"), *_SCALER_FIELDS)


def _write_model(magic: str, fields, ctx: ModelContext, values: dict, body) -> str:
    scaler = ctx.scaler or ScalerParams(mean=None, std=None)
    values = {**vars(ctx), "scaler_mean": scaler.mean, "scaler_std": scaler.std, **values}
    return "\n".join([magic, *_header_lines(fields, values), *body]) + "\n"


def _read_model(text: str, magic: str, fields, what: str):
    """The model's header values, its context, and the lines after the header."""
    lines = _file_lines(text, magic, what)
    values, pos = _read_header(lines, 1, fields)
    if values["w"] < 1:
        raise FormatError(f"w must be >= 1, got {values['w']}")
    if values["tier"] not in {t.value for t in FeatureTier}:
        raise FormatError(f"unknown tier {values['tier']!r}")
    if values["position"] not in _POSITIONS:
        raise FormatError(f"unknown position {values['position']!r}")
    mean, std = values["scaler_mean"], values["scaler_std"]
    n_columns = len(FeatureTier(values["tier"]).columns())
    if mean is not None and not len(mean) == len(std) == n_columns:
        raise FormatError(
            f"scaler has {len(mean)} means and {len(std)} stds; "
            f"tier {values['tier']} has {n_columns} columns"
        )
    # A ridge or GBM model takes each tier column and the difficulty gap.
    if "n_features" in values and values["n_features"] != n_columns + 1:
        raise FormatError(
            f"n_features is {values['n_features']}; "
            f"tier {values['tier']} has {n_columns} columns and the difficulty gap"
        )
    scaler = None if mean is None else ScalerParams(mean=mean, std=std)
    ctx = ModelContext(values["w"], values["tier"], values["position"], scaler)
    return values, ctx, lines[pos:]


# ---------------------------------------------------------------------------
# Ridge model


_RIDGE_FIELDS = _CONTEXT_FIELDS + (
    ("lambda", "float"), ("intercept", "float"), ("n_features", "int"),
)


def write_ridge(model: RidgeModel, ctx: ModelContext) -> str:
    values = {"lambda": model.lam, "intercept": model.intercept,
              "n_features": len(model.feature_names)}
    body = [
        f"feature\t{name}\t{fmt_num(weight)}"
        for name, weight in zip(model.feature_names, model.weights)
    ]
    return _write_model(MAGIC_RIDGE, _RIDGE_FIELDS, ctx, values, body)


def read_ridge(text: str) -> tuple[RidgeModel, ModelContext]:
    values, ctx, body = _read_model(text, MAGIC_RIDGE, _RIDGE_FIELDS, "ridge model file")
    n_features = values["n_features"]
    names, weights = [], []
    for line in body:
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != "feature":
            raise FormatError(f"expected feature<TAB>name<TAB>weight, got {line[:60]!r}")
        names.append(parts[1])
        weights.append(_finite(parts[2], f"weight of {parts[1]}"))
    if len(names) != n_features:
        raise FormatError(f"declared {n_features} features, found {len(names)}")
    model = RidgeModel(weights=np.array(weights), intercept=values["intercept"],
                       lam=values["lambda"], feature_names=names)
    return model, ctx


# ---------------------------------------------------------------------------
# GBM model (pre-order node dump per tree)


def _dump_tree(tree: RegressionTree) -> list[str]:
    lines = [
        "gains " + " ".join(fmt_num(g) for g in tree.split_gains)
        if tree.split_gains
        else "gains"
    ]
    stack = [0]  # pre-order, left subtree first
    while stack:
        node = tree.nodes[stack.pop()]
        if node.is_leaf:
            lines.append(f"L {fmt_num(node.value)} {node.n_samples}")
        else:
            lines.append(
                f"I {node.feature} {fmt_num(node.threshold)} {node.n_samples}"
            )
            stack += [node.right, node.left]
    return lines


def _parse_tree(lines: list[str], start: int, n_features: int,
                max_depth: int) -> tuple[RegressionTree, int]:
    """The tree whose gains line is lines[start], and the line after it."""
    gains_line = lines[start] if start < len(lines) else ""
    if not gains_line.startswith("gains"):
        raise FormatError(f"expected gains line, got {gains_line!r}")
    gains = [_finite(v, "split gain") for v in gains_line.split()[1:]]
    tree = RegressionTree(split_gains=gains)
    pos = start + 1
    # Pre-order: each slot waiting for a node is (parent, "left" or
    # "right", depth); a stack, so a deep tree cannot exhaust recursion.
    slots = [(None, None, 0)]
    while slots:
        parent, side, depth = slots.pop()
        if depth > max_depth:
            raise FormatError(f"tree node at depth {depth} is deeper than max_depth={max_depth}")
        if pos == len(lines):
            raise FormatError(f"tree ends after {len(tree.nodes)} nodes")
        parts = lines[pos].split()
        pos += 1
        node_id = len(tree.nodes)
        if len(parts) == 3 and parts[0] == "L":
            tree.nodes.append(TreeNode(
                value=_finite(parts[1], "leaf value"),
                n_samples=_integer(parts[2], "leaf n_samples"), depth=depth,
            ))
        elif len(parts) == 4 and parts[0] == "I":
            feature = _integer(parts[1], "split feature")
            if not 0 <= feature < n_features:
                raise FormatError(f"split feature {feature} outside [0, {n_features})")
            tree.nodes.append(TreeNode(
                feature=feature, threshold=_finite(parts[2], "split threshold"),
                n_samples=_integer(parts[3], "split n_samples"), depth=depth,
            ))
            slots += [(node_id, "right", depth + 1), (node_id, "left", depth + 1)]
        else:
            raise FormatError(f"expected 'L value n' or 'I feature threshold n', "
                              f"got {lines[pos - 1][:60]!r}")
        if parent is not None:
            setattr(tree.nodes[parent], side, node_id)
    return tree, pos


_GBM_FIELDS = _CONTEXT_FIELDS + (
    ("base_score", "float"), ("eta", "float"), ("n_features", "int"),
    ("hyperparams", "words"), ("feature_names", "words"), ("n_trees", "int"),
)
# The `key=value` words of the hyperparams line, in GbmHyperparams' order.
_HYPERPARAM_FIELDS = tuple(
    (f.name, "float" if isinstance(f.default, float) else "int")
    for f in dataclasses.fields(GbmHyperparams)
)


def write_gbm(model: GbmModel, ctx: ModelContext) -> str:
    values = {
        "base_score": model.base_score, "eta": model.eta, "n_features": model.n_features,
        "hyperparams": _header_lines(_HYPERPARAM_FIELDS, vars(model.hyperparams), sep="="),
        "feature_names": model.feature_names or ["-"], "n_trees": len(model.trees),
    }
    body = []
    for i, tree in enumerate(model.trees):
        body.append(f"tree {i}")
        body.extend(_dump_tree(tree))
    return _write_model(MAGIC_GBM, _GBM_FIELDS, ctx, values, body)


def read_gbm(text: str) -> tuple[GbmModel, ModelContext]:
    values, ctx, body = _read_model(text, MAGIC_GBM, _GBM_FIELDS, "gbm model file")
    body = [l for l in body if l]
    words = values["hyperparams"]
    hp, used = _read_header(words, 0, _HYPERPARAM_FIELDS, sep="=")
    if used != len(words):
        raise FormatError(f"unexpected hyperparams {words[used:]}")
    try:
        hp = GbmHyperparams(**hp)
    except ValueError as exc:
        raise FormatError(f"hyperparams: {exc}") from None
    # The eta and n_trees lines and the feature_names count restate facts.
    for key in ("eta", "n_trees"):
        if values[key] != getattr(hp, key):
            raise FormatError(f"{key} is {values[key]}, but hyperparams say "
                              f"{key}={getattr(hp, key)}")
    names = values["feature_names"]
    if names != ["-"] and len(names) != values["n_features"]:
        raise FormatError(f"{len(names)} feature_names for {values['n_features']} features")
    trees, pos = [], 0
    for i in range(values["n_trees"]):
        marker = body[pos] if pos < len(body) else "end of file"
        if marker != f"tree {i}":
            raise FormatError(f"expected 'tree {i}' of {values['n_trees']}, got {marker[:60]!r}")
        tree, pos = _parse_tree(body, pos + 1, values["n_features"], hp.max_depth)
        trees.append(tree)
    if pos < len(body):
        raise FormatError(f"unexpected line after the last tree: {body[pos][:60]!r}")
    model = GbmModel(
        base_score=values["base_score"], trees=trees, eta=values["eta"],
        hyperparams=hp, n_features=values["n_features"],
        feature_names=None if names == ["-"] else names,
    )
    return model, ctx


# ---------------------------------------------------------------------------
# CNN model (shapes header + row-major values)


_CNN_FIELDS = _CONTEXT_FIELDS + (("activation", "str"),)


def write_cnn(model: CnnModel, ctx: ModelContext) -> str:
    body = []
    for name in PARAM_NAMES:
        p = getattr(model, name)
        body.append(f"param {name} " + " ".join(str(s) for s in p.shape))
        body.append(_render_floats(p.ravel()))
    return _write_model(MAGIC_CNN, _CNN_FIELDS, ctx, {"activation": model.activation}, body)


def read_cnn(text: str) -> tuple[CnnModel, ModelContext]:
    values, ctx, lines = _read_model(text, MAGIC_CNN, _CNN_FIELDS, "cnn model file")
    activation = values["activation"]
    if activation not in ACTIVATIONS:
        raise FormatError(f"unknown activation {activation!r}")
    params = {}
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        parts = lines[i].split()
        if len(parts) < 2 or parts[0] != "param" or i + 1 == len(lines):
            raise FormatError(f"expected a 'param name shape' line and its values line, "
                              f"got {lines[i][:60]!r}")
        name = parts[1]
        if name in params:
            raise FormatError(f"parameter {name} is listed twice")
        shape = tuple(_integer(s, f"shape of {name}") for s in parts[2:])
        values = _finite_floats(lines[i + 1], name)
        if min(shape, default=0) < 0 or math.prod(shape) != values.size:
            raise FormatError(f"{name} has {values.size} values for shape {shape}")
        params[name] = values.reshape(shape)
        i += 2
    if sorted(params) != sorted(PARAM_NAMES):
        raise FormatError(f"expected parameters {sorted(PARAM_NAMES)}, found {sorted(params)}")
    # conv_w (filters, k, f) and hidden_w's rows fix every other shape.
    conv, n_columns = params["conv_w"].shape, len(FeatureTier(ctx.tier).columns())
    if len(conv) != 3 or min(conv) < 1 or conv[1] > ctx.w or conv[2] != n_columns:
        raise FormatError(f"conv_w shape {conv} does not fit window {ctx.w}; "
                          f"tier {ctx.tier} has {n_columns} columns")
    # hidden_w's rows, or () if it has no axis; a bad hidden_w fails below.
    filters, hidden = conv[0], params["hidden_w"].shape[:1]
    expected = {
        "conv_b": (filters,),
        "hidden_w": (*hidden, filters * (ctx.w - conv[1] + 1) + 1),
        "hidden_b": hidden,
        "out_w": hidden,
        "out_b": (1,),
    }
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(f"{name} has shape {params[name].shape}, expected {shape}")
    return CnnModel(activation=activation, window=ctx.w, **params), ctx


# ---------------------------------------------------------------------------
# Report tables and exports


def write_learning_curve(curve: LearningCurve) -> str:
    rows = [
        [epoch, *costs]
        for epoch, costs in enumerate(zip(curve.train_cost, curve.train_mse, curve.val_mse))
    ]
    rows.append(["best_epoch", curve.best_epoch, "", ""])
    return write_table("epoch,train_cost,train_mse,val_mse", rows)


def write_reports_csv(reports: list[EvalReport]) -> str:
    return write_table("model,position,split,n,mse,spearman", (
        [r.model_id, r.position.value, r.split, r.n, r.mse,
         "null" if r.spearman is None else r.spearman]
        for r in reports
    ))


def write_coefficient_table(
    positions: list[str], features: list[str], coef: np.ndarray, intercepts: np.ndarray
) -> str:
    return write_table(csv_line(["position", *features, "intercept"]), (
        [pos, *map(float, coef[i]), float(intercepts[i])] for i, pos in enumerate(positions)
    ))
