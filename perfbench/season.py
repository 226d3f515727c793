"""Reads the synthetic season files a workload generated, without fplcast.

The benchmark uses this as its own oracle: window targets and designs for
the mean predictor and the least-squares reference of the quality checks,
and the attribute workload's design matrix. It shares no code with the
program under test.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# The columns of each fplcast feature tier, in tier order.
_ICT = ("total_points", "minutes", "influence", "creativity", "threat", "ict_index")
TIER_COLUMNS = {
    "ptsonly": ("total_points",),
    "pts_minutes": ("total_points", "minutes"),
    "pts_ict": _ICT,
    "full": _ICT + ("goals_scored", "assists", "clean_sheets", "goals_conceded",
                    "saves", "bps", "bonus", "yellow_cards", "red_cards",
                    "own_goals", "penalties_saved", "penalties_missed"),
}


def read_season(raw_csv: Path, strengths_csv: Path, position: str):
    """({player: rows in gameweek order}, {team: strength}) for one position.

    Only played appearances (minutes > 0) count, as after ingest.
    """
    players: dict[str, list[dict]] = {}
    with open(raw_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["position"] == position and int(row["minutes"]) > 0:
                players.setdefault(row["name"], []).append(row)
    for rows in players.values():
        rows.sort(key=lambda r: int(r["GW"]))
    with open(strengths_csv, newline="", encoding="utf-8") as fh:
        strengths = {r["team"]: int(r["strength"]) for r in csv.DictReader(fh)}
    return players, strengths


def read_splits(path: Path, position: str) -> dict[str, str]:
    """{player: split} from an fplcast splits file (comment lines skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return {
        r["player"]: r["split"]
        for r in csv.DictReader(body)
        if r["position"] == position
    }


def read_outputs(out: Path, position: str):
    """(players, strengths, {player: split}) from the files that fplcast's
    synth and split commands wrote into `out`."""
    players, strengths = read_season(
        out / "synthetic_gameweeks.csv", out / "synthetic_strengths.csv", position)
    return players, strengths, read_splits(out / "splits.csv", position)


def sliding_examples(rows: list[dict], strengths: dict[str, int], w: int,
                     columns=()) -> tuple[np.ndarray, np.ndarray]:
    """(A, y) for one player: per-column means over the w previous rows,
    then the target row's difficulty gap; y is the target's points."""
    feats = np.array([[float(r[c]) for c in columns] for r in rows]).reshape(
        len(rows), len(columns)
    )
    A, y = [], []
    for i in range(w, len(rows)):
        target = rows[i]
        gap = strengths[target["opponent_team"]] - strengths[target["team"]]
        A.append(np.append(feats[i - w : i].mean(axis=0), float(gap)))
        y.append(float(target["total_points"]))
    return np.array(A).reshape(len(y), len(columns) + 1), np.array(y)


def split_design(players, strengths, assignment: dict[str, str], split: str,
                 w: int, columns=()) -> tuple[np.ndarray, np.ndarray]:
    """Stacked sliding examples of every player assigned to `split`,
    players in name order."""
    parts = [
        sliding_examples(players[name], strengths, w, columns)
        for name in sorted(players)
        if assignment[name] == split
    ]
    return (
        np.vstack([A for A, _ in parts]).reshape(-1, len(columns) + 1),
        np.concatenate([y for _, y in parts]),
    )


def mean_predictor_mse(y_train: np.ndarray, y_val: np.ndarray) -> float:
    """Validation MSE of always predicting the training mean."""
    return float(np.mean((y_val - y_train.mean()) ** 2))


def least_squares_mse(A_train, y_train, A_val, y_val) -> float:
    """Validation MSE of an ordinary least-squares fit with intercept."""
    ones = np.ones((len(A_train), 1))
    coef, *_ = np.linalg.lstsq(np.hstack([ones, A_train]), y_train, rcond=None)
    pred = np.hstack([np.ones((len(A_val), 1)), A_val]) @ coef
    return float(np.mean((y_val - pred) ** 2))
