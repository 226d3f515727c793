"""Walk the data pipeline: synthetic season -> cleaning -> windows -> splits.

Run from the repository root:  python demos/01_data_pipeline.py
"""

import numpy as np

from fplcast.dataset import (
    FeatureTier,
    Players,
    assign_splits,
    fit_scaler,
    apply_scaler,
    generate_synthetic_season,
    sliding_average,
)
from fplcast.ingest import Position, canonicalize_name, drop_benched, fuzzy_match

print("== Name cleaning ==")
for messy in ("Aleksandar Mitrović", "  Son   Heung-min ", "Ødegaard"):
    print(f"  {messy!r:28} -> {canonicalize_name(messy)!r}")
match = fuzzy_match("heung-min son", ["son heung-min", "harry kane"], 0.85)
print(f"  token-sort match for 'heung-min son': {match}")

print("\n== Synthetic season ==")
rows, strengths = generate_synthetic_season(seed=42, n_players=120, n_weeks=20)
print(f"  {len(rows)} rows for {len(set(rows.player_name))} players")
played = drop_benched(rows)
print(f"  {len(rows) - len(played)} benched rows dropped (synthetic players all play)")

print("\n== Windowed examples ==")
mid = played.take(played.position == Position.MID)
w, tier = 3, FeatureTier.PTS_MINUTES
midfielders = Players(mid, strengths)
windows = midfielders.windows(w, tier)
print(f"  {len(midfielders.keys)} midfielders -> {len(windows)} windows of w={w}")
X, d, y = windows.X[0], windows.d[0], windows.y[0]
print(f"  one example: X shape {X.shape}, d={d}, y={y}")
print(f"  window rows (points, minutes):\n{X}")
means = sliding_average(windows)
print(f"  sliding average: {np.round(means[0], 2)}")

print("\n== Player-disjoint stratified splits ==")
splits = assign_splits(mid, fractions=(0.6, 0.25, 0.15), n_bins=4, seed=42)
counts = {"train": 0, "validation": 0, "test": 0}
for bucket in splits.values():
    counts[bucket] += 1
print(f"  players per split: {counts}")

print("\n== Standard scaling (train statistics only) ==")
train = Players(mid, strengths, splits).windows(w, tier, "train")
scaler = fit_scaler(train.X)
print(f"  mu = {np.round(scaler.mean, 3)}")
print(f"  sigma = {np.round(scaler.std, 3)}")
print(f"  scaled first window:\n{np.round(apply_scaler(scaler, X), 3)}")
print(f"  d and y pass through unscaled: d={d}, y={y}")
