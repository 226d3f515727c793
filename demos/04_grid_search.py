"""Grid search with fixed splits, top-k summary, and one holdout evaluation.

Run from the repository root:  python demos/04_grid_search.py
"""

from fplcast.dataset import Players, assign_splits, generate_synthetic_season
from fplcast.harness import (
    CvConfig,
    GridSpec,
    cross_validate,
    run_grid,
    select_final,
    top_k_summary,
)
from fplcast.ingest import Position

rows, strengths = generate_synthetic_season(seed=21, n_players=150, n_weeks=30)
forwards = rows.take(rows.position == Position.FWD)
# One Players value holds the forwards, their strengths and the split map
# that every configuration and the holdout score share.
players = Players(forwards, strengths, assign_splits(forwards, seed=21).assignments)
print(f"{len(players.keys)} forwards, splits fixed once for every configuration\n")

grid = GridSpec(
    family="cnn",
    axes={"w": [3, 6], "k": [1, 2, 3], "filters": [16, 32]},
    fixed={"tier": "ptsonly", "hidden": 32, "epochs": 40, "patience": 40},
)
results = run_grid(grid, players, seed=21)

print(f"{'w':>3} {'k':>3} {'filters':>8} {'val MSE':>10}  status")
for r in results:
    val = f"{r.val_mse:10.3f}" if r.val_mse is not None else " " * 10
    status = "ok" if r.error is None else f"failed: {r.error}"
    print(f"{r.config['w']:3} {r.config['k']:3} {r.config['filters']:8} {val}  {status}")

succeeded = [r for r in results if r.error is None]
mean5, worst5 = top_k_summary(results, min(5, len(succeeded)))
print(f"\ntop-5 val MSE: mean {mean5:.3f}, upper bound {worst5:.3f}")

final = select_final(results, players)
print(
    f"selected {final.config} -> holdout MSE {final.test_mse:.3f} "
    f"(evaluated exactly once)"
)

print("\n== Stratified 5-fold CV for the tree baseline ==")
train_mse, val_mse = cross_validate(
    "gbm",
    {"w": 3, "tier": "ptsonly", "min_data_in_leaf": 20},
    players,  # each fold replaces the split map with its own
    CvConfig(k=5, seed=21),
)
print(f"gbm 5-fold: mean train MSE {train_mse:.3f}, mean val MSE {val_mse:.3f}")
