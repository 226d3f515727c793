"""Train all three model families on one position and compare them.

Run from the repository root:  python demos/02_model_families.py
"""

import numpy as np

from fplcast.dataset import (
    FeatureTier,
    Players,
    assign_splits,
    generate_synthetic_season,
)
from fplcast.evaluation import mse, spearman_tied
from fplcast.harness import train_family
from fplcast.ingest import Position

rows, strengths = generate_synthetic_season(seed=7, n_players=200, n_weeks=38)
mid = rows.take(rows.position == Position.MID)
splits = assign_splits(mid, seed=7)

w, tier = 3, FeatureTier.PTSONLY
players = Players(mid, strengths, splits)
train_ex, val_ex = (players.windows(w, tier, bucket) for bucket in ("train", "validation"))

val_y = val_ex.y.astype(float)
train_y = train_ex.y.astype(float)
baseline = float(np.mean((val_y - train_y.mean()) ** 2))
print(f"midfielders: {len(train_ex)} train / {len(val_ex)} val examples")
print(f"mean-predictor baseline val MSE: {baseline:.3f}\n")

configs = {
    "ridge": {"w": w, "tier": tier.value, "lambda": 1.0},
    "gbm": {"w": w, "tier": tier.value},
    "cnn": {"w": w, "tier": tier.value, "k": 1, "filters": 32, "hidden": 32,
            "epochs": 250, "patience": 20},
}

print(f"{'family':8} {'train MSE':>10} {'val MSE':>10} {'vs base':>8} {'spearman':>9}")
for family, config in configs.items():
    _, train_pred, val_pred = train_family(family, config, train_ex, val_ex, seed=7)
    train_mse, val_mse = mse(train_y, train_pred), mse(val_y, val_pred)
    rho = spearman_tied(val_y, val_pred)
    print(
        f"{family:8} {train_mse:10.3f} {val_mse:10.3f} "
        f"{val_mse / baseline:8.3f} {rho:9.3f}"
    )

print("\n'vs base' below 1.0 means the model beats predicting the mean.")
