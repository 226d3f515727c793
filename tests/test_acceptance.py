"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The real-data reproduction check is informational and skips unless
FPLCAST_REAL_DATA points at a directory with the two season files plus a
strengths table.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fplcast import cnn as cnn_mod
from fplcast.cli import main
from fplcast.dataset import (
    FeatureTier,
    Players,
    assign_splits,
    generate_synthetic_season,
    sliding_average,
)
from fplcast.evaluation import average_ranks, mse, spearman_tied
from fplcast.gbm import (
    GbmHyperparams,
    fit_gbm,
    predict_gbm_batch,
    shapley_values,
)
from fplcast.harness import train_family
from fplcast.ingest import Position, parse_gameweek_csv, parse_strengths_csv
from fplcast.ridge import fit_ridge

from conftest import structural_violations


def report(line):
    print(line)


# -- 1. Spearman oracle equivalence -----------------------------------------


def _rank_oracle(values):
    values = np.asarray(values, dtype=float)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        smaller = np.sum(values < v)
        equal = np.sum(values == v)
        ranks[i] = smaller + (equal + 1) / 2
    return ranks


def _spearman_oracle(y, z):
    ry, rz = _rank_oracle(y), _rank_oracle(z)
    if np.ptp(ry) == 0 or np.ptp(rz) == 0:
        return None
    return float(np.corrcoef(ry, rz)[0, 1])


def test_criterion_1_spearman_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        y = rng.integers(0, 11, size=50)
        z = rng.integers(0, 11, size=50)
        expected = _spearman_oracle(y, z)
        got = spearman_tied(y, z)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        f"PASS criterion 1: spearman matches oracle on {checked} vectors "
        f"within 1e-12 ({elapsed:.2f}s)"
    )


# -- 2. Ridge oracle equivalence ---------------------------------------------


def _ridge_oracle(A, y, lam):
    n = A.shape[0]
    Z = np.hstack([np.ones((n, 1)), A])
    penalty = lam * np.eye(Z.shape[1])
    penalty[0, 0] = 0.0
    beta = np.linalg.inv(Z.T @ Z + penalty) @ Z.T @ y
    return beta[0], beta[1:]


def test_criterion_2_ridge_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    lambdas = [0.0, 0.5, 10.0]
    for trial in range(100):
        n = int(rng.integers(12, 51))
        f = int(rng.integers(1, 11))
        A = rng.normal(size=(n, f))
        y = rng.normal(size=n)
        lam = lambdas[trial % 3]
        model = fit_ridge(A, y, lam=lam)
        intercept, weights = _ridge_oracle(A, y, lam)
        scale = max(1.0, float(np.abs(weights).max()))
        assert np.abs(model.weights - weights).max() < 1e-8 * scale
        assert abs(model.intercept - intercept) < 1e-8 * max(1.0, abs(intercept))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        f"PASS criterion 2: ridge matches normal-equations oracle on 100 "
        f"systems within 1e-8 ({elapsed:.2f}s)"
    )


# -- 3. CNN gradient check ----------------------------------------------------


def _fd_check(model, batch, l1, l2, step=1e-5):
    analytic = cnn_mod.backward(model, *batch, l1, l2)
    params = model.params()
    worst = 0.0
    for name, p in params.items():
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            original = p[ix]
            p[ix] = original + step
            up = cnn_mod.cost(model.with_params(params), *batch, l1, l2)
            p[ix] = original - step
            down = cnn_mod.cost(model.with_params(params), *batch, l1, l2)
            p[ix] = original
            numeric = (up - down) / (2 * step)
            a = analytic[name][ix]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, rel)
            it.iternext()
    return worst


def test_criterion_3_cnn_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    fixed = list(itertools.product((1, 2, 3), ("relu", "tanh"), (0.0, 0.01)))
    configs = fixed + [
        (int(rng.integers(1, 4)), rng.choice(["relu", "tanh"]), 0.01)
        for _ in range(20 - len(fixed))
    ]
    worst_overall = 0.0
    for i, (k, activation, lam) in enumerate(configs):
        w = int(rng.integers(k, k + 3))
        f = int(rng.integers(1, 4))
        model = cnn_mod.init_model(
            w, k, f,
            n_filters=int(rng.integers(2, 5)),
            n_hidden=int(rng.integers(2, 6)),
            activation=str(activation),
            seed=1000 + i,
        )
        batch = rng.normal(size=(5, w, f)), rng.normal(size=5), rng.normal(size=5)
        worst = _fd_check(model, batch, lam, lam)
        worst_overall = max(worst_overall, worst)
        assert worst < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"PASS criterion 3: gradients match central differences on "
        f"{len(configs)} configurations, max rel err {worst_overall:.2e} "
        f"({elapsed:.2f}s)"
    )


# -- 4. GBM correctness --------------------------------------------------------


def test_criterion_4_gbm_correctness():
    # (a) hand-computed toy.
    hp = GbmHyperparams(
        n_trees=1, max_depth=3, lambda_l2=0.0, num_leaves=2,
        min_data_in_leaf=1, eta=1.0,
    )
    model = fit_gbm([[0.0], [0.0], [1.0], [1.0]], [0.0, 0.0, 10.0, 10.0], hp)
    preds = predict_gbm_batch(model, [[0.0], [0.0], [1.0], [1.0]])
    assert list(preds) == [0.0, 0.0, 10.0, 10.0]

    # (b) training MSE non-increasing over 50 boosting rounds.
    rng = np.random.default_rng(404)
    X = rng.normal(size=(600, 5))
    y = 2 * X[:, 0] - X[:, 2] + rng.normal(size=600)
    model = fit_gbm(X, y, GbmHyperparams(min_data_in_leaf=20))
    pred = np.full(len(y), model.base_score)
    curve = [float(np.mean((y - pred) ** 2))]
    for tree in model.trees:
        pred += model.eta * tree.predict_batch(X)
        curve.append(float(np.mean((y - pred) ** 2)))
    assert len(curve) == 51
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    # (c) structural constraints at the published defaults.
    defaults = GbmHyperparams()  # 50 trees, depth 3, l2 10, 7 leaves, min 70
    model = fit_gbm(X, y, defaults)
    problems = structural_violations(model)
    assert problems == []
    assert any(t.split_gains for t in model.trees)
    report(
        "PASS criterion 4: gbm toy exact, 50-round training MSE "
        "non-increasing, structure clean at defaults"
    )


# -- 5. Shapley axioms ----------------------------------------------------------


def test_criterion_5_shapley_axioms():
    from test_gbm import symmetrized  # same construction as the unit suite

    started = time.perf_counter()
    rng = np.random.default_rng(505)
    for round_no in range(20):
        m = int(rng.integers(3, 11))
        X = rng.normal(size=(80, m))
        relevant = min(2, m - 1)
        y = X[:, :relevant].sum(axis=1) * 2 + 0.1 * rng.normal(size=80)
        hp = GbmHyperparams(
            n_trees=4, max_depth=2, num_leaves=4, min_data_in_leaf=8,
            lambda_l2=1.0, eta=0.5,
        )
        model = fit_gbm(X, y, hp)
        x = X[int(rng.integers(0, 80))]
        background = X[rng.choice(80, size=25, replace=False)]
        result = shapley_values(model, x, background)

        # Efficiency.
        full = predict_gbm_batch(model, [x])[0]
        assert abs(result.phi.sum() - (full - result.base_value)) < 1e-10

        # Dummy: unused features get exactly zero.
        used = {n.feature for t in model.trees for n in t.nodes if not n.is_leaf}
        for j in range(m):
            if j not in used:
                assert result.phi[j] == 0.0

        # Symmetry under an exactly feature-exchangeable model.
        j, jp = 0, m - 1
        sym = symmetrized(model, j, jp)
        x_dup = x.copy()
        x_dup[jp] = x_dup[j]
        bg_dup = background.copy()
        bg_dup[:, jp] = bg_dup[:, j]
        sym_result = shapley_values(sym, x_dup, bg_dup)
        assert abs(sym_result.phi[j] - sym_result.phi[jp]) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        f"PASS criterion 5: efficiency, dummy, symmetry hold on 20 models "
        f"({elapsed:.2f}s)"
    )


# -- 6. Pipeline fidelity on the worked example ---------------------------------


def test_criterion_6_pipeline_worked_example():
    header = (
        "name,position,GW,team,opponent_team,minutes,total_points,"
        "goals_scored,assists,clean_sheets,goals_conceded,saves,bps,bonus,"
        "influence,creativity,threat,ict_index,was_home"
    )
    rows_csv = "\n".join(
        [
            header,
            "Aleks. Mitrović,FWD,1,fulham,arsenal,90,1,0,0,0,1,0,10,0,"
            "5.0,3.0,10.0,1.8,True",
            "Aleks. Mitrović,FWD,2,fulham,liverpool,90,12,2,0,0,0,0,60,3,"
            "30.0,5.0,50.0,8.5,False",
            "Aleks. Mitrović,FWD,3,fulham,brentford,90,2,0,0,0,2,0,12,0,"
            "6.0,2.0,9.0,1.7,True",
        ]
    )
    strengths = parse_strengths_csv(
        "season,team,strength\n"
        "2021-22,fulham,3\n2021-22,arsenal,4\n2021-22,liverpool,5\n"
        "2021-22,brentford,2\n"
    )
    rows = parse_gameweek_csv(rows_csv, "2021-22")
    windows = Players(rows, strengths).windows(2, FeatureTier.FULL)
    assert len(windows) == 1
    assert windows.y[0] == 2
    assert windows.d[0] == -1  # brentford (2) - fulham (3)
    [means] = sliding_average(windows)
    cols = FeatureTier.FULL.columns()
    assert means[cols.index("total_points")] == pytest.approx(6.5)
    report(
        "PASS criterion 6: two-week worked window yields y=2, d=-1, "
        "sliding points 6.5"
    )


# -- 7. End-to-end desk scale -----------------------------------------------------


DESK_CNN = {
    "w": 3, "k": 1, "tier": "ptsonly", "filters": 32, "hidden": 32,
    "epochs": 250, "patience": 20,
}
DESK_GBM = {"w": 3, "tier": "ptsonly"}
DESK_RIDGE = {"w": 3, "tier": "ptsonly", "lambda": 1.0}


def test_criterion_7_desk_scale_end_to_end():
    rows, strengths = generate_synthetic_season(seed=707, n_players=200, n_weeks=38)
    w, tier = 3, FeatureTier.PTSONLY
    lines = []
    for position in Position:
        position_started = time.perf_counter()
        mine = rows.take(rows.position == position)
        splits = assign_splits(mine, seed=707)
        players = Players(mine, strengths, splits)
        train_ex, val_ex = (
            players.windows(w, tier, bucket) for bucket in ("train", "validation")
        )
        train_y = train_ex.y.astype(float)
        val_y = val_ex.y.astype(float)
        baseline = float(np.mean((val_y - train_y.mean()) ** 2))
        for family, config in (
            ("ridge", DESK_RIDGE),
            ("gbm", DESK_GBM),
            ("cnn", DESK_CNN),
        ):
            _, _, val_pred = train_family(family, config, train_ex, val_ex, seed=7)
            val_mse = mse(val_ex.y, val_pred)
            assert val_mse <= 0.95 * baseline, (
                f"{family} {position.value}: val {val_mse:.3f} vs "
                f"baseline {baseline:.3f}"
            )
            lines.append(f"{family}_{position.value} {val_mse / baseline:.3f}")
        elapsed = time.perf_counter() - position_started
        assert elapsed < 300.0
    report(
        "PASS criterion 7: all families beat the mean predictor by >=5% per "
        "position (" + ", ".join(lines) + ")"
    )


# -- 8. Soft reproduction on the real seasons -------------------------------------


PAPER_HOLDOUT_MSE = {
    "ridge": {"GK": 6.46, "DEF": 7.20, "MID": 6.08, "FWD": 7.19},
    "gbm": {"GK": 6.22, "DEF": 7.24, "MID": 6.11, "FWD": 7.28},
    "cnn": {"GK": 5.08, "DEF": 5.87, "MID": 6.16, "FWD": 6.22},
}
PAPER_SPEARMAN = {
    "ridge": {"GK": 0.50, "DEF": 0.40, "MID": 0.49, "FWD": 0.47},
    "gbm": {"GK": 0.53, "DEF": 0.40, "MID": 0.49, "FWD": 0.48},
    "cnn": {"GK": 0.70, "DEF": 0.57, "MID": 0.58, "FWD": 0.62},
}


def test_criterion_8_real_data_reproduction_soft():
    data_dir = os.environ.get("FPLCAST_REAL_DATA")
    if not data_dir:
        pytest.skip(
            "criterion 8 (informational): set FPLCAST_REAL_DATA to a "
            "directory with gws_2020-21.csv, gws_2021-22.csv, strengths.csv"
        )
    data = Path(data_dir)
    raw = {}
    for season in ("2020-21", "2021-22"):
        path = data / f"gws_{season}.csv"
        if not path.exists():
            pytest.skip(f"criterion 8: missing {path}")
        raw[season] = path
    strengths_path = data / "strengths.csv"
    if not strengths_path.exists():
        pytest.skip(f"criterion 8: missing {strengths_path}")

    from fplcast.harness import select_final, run_grid, GridSpec
    from fplcast.ingest import GameweekTable, canonicalize_name, drop_benched

    strengths = parse_strengths_csv(strengths_path.read_text(encoding="utf-8"))
    rows = GameweekTable.concat([
        parse_gameweek_csv(path.read_text(encoding="utf-8"), season)
        for season, path in raw.items()
    ])
    rows = rows.replace(player_name=[canonicalize_name(n) for n in rows.player_name])
    rows = drop_benched(rows)

    deviations = []
    for position in Position:
        mine = rows.take(rows.position == position)
        players = Players(mine, strengths, assign_splits(mine, seed=8))
        for family, config in (
            ("ridge", DESK_RIDGE),
            ("gbm", {"w": 3, "tier": "full"}),
            ("cnn", DESK_CNN),
        ):
            grid = GridSpec(family=family, axes={"w": [3, 6, 9]}, fixed=config)
            results = run_grid(grid, players, seed=8)
            final = select_final(results, players)
            paper = PAPER_HOLDOUT_MSE[family][position.value]
            ratio = final.test_mse / paper
            flag = "" if 0.8 <= ratio <= 1.2 else "  [outside +-20%]"
            deviations.append(
                f"{family}_{position.value}: holdout {final.test_mse:.2f} vs "
                f"paper {paper:.2f} ({ratio:+.0%}){flag}"
            )
    report("criterion 8 (informational):\n  " + "\n  ".join(deviations))


# -- 9. Determinism through the command line ---------------------------------------


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    def run(base):
        # Identical commands and relative paths each time; only the cwd
        # differs, so every byte of input is the same.
        base.mkdir()
        monkeypatch.chdir(base)
        assert main(
            ["--out", "out", "--seed", "99", "synth",
             "--players", "40", "--weeks", "10"]
        ) == 0
        assert main(
            ["--out", "out", "ingest",
             "--raw", "synthetic=out/synthetic_gameweeks.csv",
             "--strengths", "out/synthetic_strengths.csv"]
        ) == 0
        cleaned = [f"out/cleaned_{p}.csv" for p in ("GK", "DEF", "MID", "FWD")]
        assert main(
            ["--out", "out", "--seed", "99", "split", "--cleaned"] + cleaned
        ) == 0
        assert main(
            ["--out", "out", "--seed", "99", "--position", "MID", "train",
             "--cleaned", *cleaned,
             "--strengths", "out/synthetic_strengths.csv",
             "--splits", "out/splits.csv", "--family", "ridge"]
        ) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    compared = 0
    for path_a in sorted((tmp_path / "a" / "out").iterdir()):
        if path_a.name == "run.log":  # timestamps live here by design
            continue
        path_b = tmp_path / "b" / "out" / path_a.name
        assert path_b.exists(), path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        compared += 1
    report(
        f"PASS criterion 9: {compared} output files byte-identical across "
        f"reruns"
    )
