import numpy as np
import pytest
from hypothesis import settings

from fplcast.dataset import build_series, generate_synthetic_season
from fplcast.ingest import GAMEWEEK_SCHEMA, GameweekTable, Position, TeamStrengthTable

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
    """Column for column: same types, dtypes and bits (so -0.0 != 0.0)."""
    for c in GAMEWEEK_SCHEMA:
        x, y = getattr(a, c.field), getattr(b, c.field)
        assert type(x) is type(y), c.field
        if isinstance(x, tuple):
            assert x == y, c.field
        else:
            assert x.dtype == y.dtype and x.shape == y.shape, c.field
            # A plain bool: pytest's explanation of two long unequal byte
            # strings is a character diff, slow enough to stall shrinking.
            same_bits = x.tobytes() == y.tobytes()
            assert same_bits, c.field


@pytest.fixture
def strengths():
    return TeamStrengthTable(
        season="2021-22",
        entries={"fulham": 3, "arsenal": 4, "brentford": 2, "liverpool": 5},
    )


@pytest.fixture
def small_season():
    """60 players x 16 weeks, enough for every split to hold examples."""
    rows, table = generate_synthetic_season(seed=11, n_players=60, n_weeks=16)
    return rows, table


@pytest.fixture
def mid_series(small_season):
    rows, _ = small_season
    return [s for s in build_series(rows) if s.key.position == Position.MID]


def linear_design(seed: int, n: int, f: int, noise: float = 0.1):
    """Design matrix with a known linear signal, for sanity fits."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, f))
    true_w = rng.normal(size=f)
    y = A @ true_w + 1.5 + noise * rng.normal(size=n)
    return A, y, true_w
