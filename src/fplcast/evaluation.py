"""Scoring and diagnostics: MSE, tied-rank Spearman, extreme examples.

Weekly points are small integers, so ties are the norm rather than the
exception; the rank correlation here is the generalized form that assigns
tied values the mean of their occupied rank positions and then takes the
Pearson correlation of the ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Position

__all__ = [
    "EvalReport",
    "ExtremeExamples",
    "mse",
    "average_ranks",
    "spearman_tied",
    "spearman_by_gameweek",
    "extreme_examples",
]


@dataclass
class EvalReport:
    """Metrics for one (model, position, split) evaluation."""

    position: Position
    split: str
    n: int
    mse: float
    spearman: float | None
    model_id: str


@dataclass
class ExtremeExamples:
    """Best/worst predictions by squared error, with window context.

    Each entry is (y, yhat, squared_error, d, trailing points history).
    worst is sorted by squared error descending, best ascending.
    """

    worst: list[tuple[float, float, float, int, list[float]]]
    best: list[tuple[float, float, float, int, list[float]]]


def mse(y_list, yhat_list) -> float:
    """Mean squared residual."""
    y = np.asarray(y_list, dtype=np.float64)
    yhat = np.asarray(yhat_list, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise ValueError("mse of zero examples is undefined")
    return float(np.mean((y - yhat) ** 2))


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n where tied values share the mean of their positions."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot rank an empty sequence")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        # Positions i..j (0-based) hold rank positions i+1..j+1.
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_tied(y_list, yhat_list) -> float | None:
    """Generalized Spearman correlation: Pearson on average ranks.

    Returns None when either side has zero rank variance (all values
    tied), which real gameweek slices can produce.
    """
    y = np.asarray(y_list, dtype=np.float64)
    yhat = np.asarray(yhat_list, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size < 2:
        raise ValueError("need at least 2 observations")
    ry = average_ranks(y)
    rz = average_ranks(yhat)
    cy = ry - ry.mean()
    cz = rz - rz.mean()
    # Population (1/n) moments; the 1/n factors cancel in the ratio.
    denom = np.sqrt(np.sum(cy * cy) * np.sum(cz * cz))
    if denom == 0.0:
        return None
    return float(np.sum(cy * cz) / denom)


def spearman_by_gameweek(gameweeks, y_list, yhat_list) -> float | None:
    """Mean of per-gameweek Spearman correlations (pooled form is the
    default elsewhere; this is the optional slice-then-average variant).

    Gameweeks whose correlation is undefined are skipped; returns None if
    every gameweek is degenerate.
    """
    gw = np.asarray(gameweeks)
    y = np.asarray(y_list, dtype=np.float64)
    yhat = np.asarray(yhat_list, dtype=np.float64)
    if not (gw.shape == y.shape == yhat.shape):
        raise ValueError("gameweeks, y, yhat must align")
    values = []
    for g in np.unique(gw):
        mask = gw == g
        if mask.sum() < 2:
            continue
        rho = spearman_tied(y[mask], yhat[mask])
        if rho is not None:
            values.append(rho)
    return float(np.mean(values)) if values else None


def extreme_examples(windows, predictions, k: int) -> ExtremeExamples:
    """Top/bottom k windows by squared error, ties broken by index.

    Records the difficulty gap and the window's trailing per-week points
    column alongside each (true, predicted, squared error) triple.
    """
    if not 0 <= k <= len(windows):
        raise ValueError(f"k={k} must be between 0 and the {len(windows)} examples")
    if len(predictions) != len(windows):
        raise ValueError("examples and predictions must align")
    by_err = sorted(
        ((float(y) - float(pred)) ** 2, idx)
        for idx, (y, pred) in enumerate(zip(windows.y, predictions))
    )

    def record(err, idx):
        history = [float(p) for p in windows.X[idx, :, 0]]
        return (float(windows.y[idx]), float(predictions[idx]), err,
                int(windows.d[idx]), history)

    worst = sorted(by_err[len(by_err) - k :], key=lambda t: (-t[0], t[1]))
    return ExtremeExamples(
        worst=[record(*t) for t in worst], best=[record(*t) for t in by_err[:k]]
    )
