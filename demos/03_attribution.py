"""Explain each model family: coefficients, Shapley values, mean filter.

Run from the repository root:  python demos/03_attribution.py
"""

import numpy as np

from fplcast.dataset import (
    FeatureTier,
    Players,
    assign_splits,
    generate_synthetic_season,
)
from fplcast.harness import FAMILIES, train_family
from fplcast.ingest import Position
from fplcast.ridge import export_coefficients
from fplcast.gbm import predict_gbm_batch, shapley_values, split_importance
from fplcast.cnn import mean_normalized_filter

rows, strengths = generate_synthetic_season(seed=3, n_players=160, n_weeks=30)
w, tier = 3, FeatureTier.PTS_ICT
names = tier.columns() + ["difficulty_gap"]


def players_of(position):
    """One position's players, split with seed 3."""
    mine = rows.take(rows.position == position)
    return Players(mine, strengths, assign_splits(mine, seed=3).assignments)


print("== Ridge coefficients per position ==")
ridge_models = {}
for position in Position:
    players = players_of(position)
    train_ex, val_ex = (players.windows(w, tier, b) for b in ("train", "validation"))
    fitted, _, _ = train_family(
        "ridge", {"w": w, "tier": tier.value, "lambda": 1.0}, train_ex, val_ex, 3
    )
    ridge_models[position] = fitted.model
positions, features, coef, intercepts = export_coefficients(ridge_models)
print(f"{'':14}" + "".join(f"{p:>8}" for p in positions))
for j, feature in enumerate(features):
    print(f"{feature:14}" + "".join(f"{coef[i, j]:8.3f}" for i in range(len(positions))))

print("\n== GBM split importance and Shapley attribution (MID, all 19 features) ==")
mid = players_of(Position.MID)
train_ex, val_ex = (mid.windows(w, tier, b) for b in ("train", "validation"))
full_train, full_val = (
    mid.windows(w, FeatureTier.FULL, b) for b in ("train", "validation")
)
full_names = FeatureTier.FULL.columns() + ["difficulty_gap"]
fitted, _, _ = train_family(
    "gbm", {"w": w, "tier": FeatureTier.FULL.value, "min_data_in_leaf": 20},
    full_train, full_val, 3,
)
imp = split_importance(fitted.model)
for name, pct in sorted(zip(full_names, imp.percentages), key=lambda t: -t[1]):
    if pct > 0:
        print(f"  {name:17} {pct:5.1f}% of splits")

A_train, _ = FAMILIES["gbm"].design(full_train, fitted.scaler)
A_val, _ = FAMILIES["gbm"].design(full_val, fitted.scaler)
background = A_train[np.random.default_rng(3).choice(len(A_train), 100, replace=False)]
x = A_val[0]
result = shapley_values(fitted.model, x, background)
print(f"\n  example feature vector: {np.round(x, 2)}")
print(f"  base value E[f]: {result.base_value:.3f}")
for name, phi in zip(full_names, result.phi):
    print(f"  phi {name:17} {phi:+.3f}")
print(f"  reconstructed prediction: {result.base_value + result.phi.sum():.3f}")
print(f"  direct prediction:        {predict_gbm_batch(fitted.model, x[None])[0]:.3f}")

print("\n== CNN mean normalized filter (kernel x features) ==")
fitted, _, _ = train_family(
    "cnn",
    {"w": w, "tier": tier.value, "k": 2, "filters": 64, "hidden": 32,
     "epochs": 60, "patience": 60},
    train_ex,
    val_ex,
    3,
)
mean_filter = mean_normalized_filter(fitted.model)
print(f"  columns: {tier.columns()}")
print(np.round(mean_filter, 3))
