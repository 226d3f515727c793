from dataclasses import fields
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import settings

from fplcast.dataset import WindowSet, generate_synthetic_season
from fplcast.gbm import GbmModel
from fplcast.ingest import (
    GAMEWEEK_SCHEMA,
    CanonicalPlayerKey,
    GameweekTable,
    Position,
    canonicalize_name,
)

# Where CI is set, Hypothesis loads its `ci` profile, which replays one
# fixed set of draws on every run (derandomize=True). This profile keeps the
# rest of `ci` but draws afresh each run; select it with
# --hypothesis-profile=random.
settings.register_profile("random", settings.get_profile("ci"), derandomize=False)

# Every column of make_table's default row; the rest of the schema is 0.
BASE_ROW = dict(
    player_name="aleksandar mitrovic",
    position=Position.FWD,
    season="2021-22",
    gameweek=1,
    team="fulham",
    opponent="arsenal",
    minutes=90,
    total_points=2,
    kickoff_order=0,
    influence=0.0,
    creativity=0.0,
    threat=0.0,
    ict_index=0.0,
    was_home=False,
)


def make_table(**columns) -> GameweekTable:
    """A table of copies of BASE_ROW: a list value sets that column row by
    row (and the row count), a scalar sets it in every row."""
    n = max([len(v) for v in columns.values() if isinstance(v, list)], default=1)
    values = {**BASE_ROW, **columns}
    return GameweekTable(**{
        c.field: (
            values.get(c.field, 0)
            if isinstance(values.get(c.field), list)
            else [values.get(c.field, 0)] * n
        )
        for c in GAMEWEEK_SCHEMA
    })


def assert_tables_equal(a: GameweekTable, b: GameweekTable):
    """Column for column: same types, dtypes and shapes; numeric columns
    bit for bit (so -0.0 != 0.0), object columns value for value, each
    value of the same type."""
    for c in GAMEWEEK_SCHEMA:
        x, y = getattr(a, c.field), getattr(b, c.field)
        assert type(x) is type(y), c.field
        assert x.dtype == y.dtype and x.shape == y.shape, c.field
        # A plain bool: pytest's explanation of two long unequal byte
        # strings or lists is a diff, slow enough to stall shrinking.
        if x.dtype == object:
            same = [(type(v), v) for v in x.tolist()] == [(type(v), v) for v in y.tolist()]
        else:
            same = x.tobytes() == y.tobytes()
        assert same, c.field


# The dtype each column kind is held in.
KIND_DTYPES = {
    "text": object, "position": object, "int": np.int64, "opt_int": np.int64,
    "float": np.float64, "bool": np.bool_,
}


def assert_every_column_is_an_array(table: GameweekTable):
    """Each column a 1-D array of its kind's dtype, one cell per row; a text
    column holds str objects and a position column Position members."""
    for c in GAMEWEEK_SCHEMA:
        column = getattr(table, c.field)
        assert type(column) is np.ndarray and column.shape == (len(table),), c.field
        assert column.dtype == KIND_DTYPES[c.kind], c.field
        if column.dtype == object:
            element = Position if c.kind == "position" else str
            assert all(type(v) is element for v in column.tolist()), c.field


@pytest.fixture
def strengths():
    """make_table's season, rated."""
    return {"2021-22": {"fulham": 3, "arsenal": 4, "brentford": 2, "liverpool": 5}}


@pytest.fixture
def small_season():
    """60 players x 16 weeks, enough for every split to hold examples."""
    rows, table = generate_synthetic_season(seed=11, n_players=60, n_weeks=16)
    return rows, table


@pytest.fixture
def mid_rows(small_season):
    """small_season's midfielders' rows."""
    rows, _ = small_season
    return rows.take(rows.position == Position.MID)


def runs(keys: Sequence) -> list[slice]:
    """The maximal runs of equal consecutive keys, as slices."""
    if not len(keys):
        return []
    bounds = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]] + [len(keys)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class Series(NamedTuple):
    """One player's rows, in chronological order."""

    key: CanonicalPlayerKey
    table: GameweekTable


def row_keys(table: GameweekTable) -> list[CanonicalPlayerKey]:
    """Each row's player: its canonical name and position."""
    return [
        CanonicalPlayerKey(canonicalize_name(name), position)
        for name, position in zip(table.player_name.tolist(), table.position.tolist())
    ]


def build_series(table: GameweekTable) -> list[Series]:
    """The players of `table` one table each, the oracle of Players'
    grouping: rows keyed by canonical name and position, ordered by (name,
    position, season, kickoff_order), cut into one Series per player."""
    keys = row_keys(table)
    seasons, kickoff_order = table.season.tolist(), table.kickoff_order.tolist()
    order = sorted(
        range(len(table)),
        key=lambda i: (keys[i].canonical_name, keys[i].position.value,
                       seasons[i], kickoff_order[i]),
    )
    ordered, keys = table.take(np.array(order, dtype=np.int64)), [keys[i] for i in order]
    return [Series(keys[run.start], ordered.take(run)) for run in runs(keys)]


def first_players(rows: GameweekTable, n: int) -> GameweekTable:
    """The rows of the first `n` players of `rows`, in Players' key order."""
    keep = {s.key for s in build_series(rows)[:n]}
    return rows.take(np.array([key in keep for key in row_keys(rows)], dtype=bool))


def linear_design(seed: int, n: int, f: int, noise: float = 0.1):
    """Design matrix with a known linear signal, for sanity fits."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, f))
    true_w = rng.normal(size=f)
    y = A @ true_w + 1.5 + noise * rng.normal(size=n)
    return A, y, true_w


def concat_windows(parts) -> WindowSet:
    """The rows of every part, in order; parts share w and f."""
    return WindowSet(*(
        np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(WindowSet)
    ))


def structural_violations(model: GbmModel) -> list[str]:
    """Walk every tree, reporting any violated growth constraint.

    Checks depth, leaf count, minimum leaf population (single-node trees
    exempt: an unsplittable root holds the whole dataset), positive
    recorded gains, and child-link consistency.
    """
    hp = model.hyperparams
    problems = []
    for t, tree in enumerate(model.trees):
        leaves = [n for n in tree.nodes if n.is_leaf]
        if not leaves:
            problems.append(f"tree {t}: no leaves")
        if len(leaves) > hp.num_leaves:
            problems.append(f"tree {t}: {len(leaves)} leaves > {hp.num_leaves}")
        for i, node in enumerate(tree.nodes):
            if node.depth > hp.max_depth:
                problems.append(f"tree {t} node {i}: depth {node.depth}")
            if node.is_leaf:
                if len(tree.nodes) > 1 and node.n_samples < hp.min_data_in_leaf:
                    problems.append(
                        f"tree {t} node {i}: leaf population {node.n_samples}"
                        f" < {hp.min_data_in_leaf}"
                    )
            else:
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                if left.n_samples + right.n_samples != node.n_samples:
                    problems.append(f"tree {t} node {i}: child populations")
                if left.depth != node.depth + 1 or right.depth != node.depth + 1:
                    problems.append(f"tree {t} node {i}: child depths")
        if len(tree.split_gains) != len(tree.nodes) - len(leaves):
            problems.append(f"tree {t}: gain trace length mismatch")
        for g, gain in enumerate(tree.split_gains):
            if gain <= 0:
                problems.append(f"tree {t} split {g}: non-positive gain {gain}")
    return problems
