"""Closed-form L2-regularized linear regression on sliding-average features.

The intercept is left unpenalized by centering the design matrix and the
targets before solving, so the infinite-shrinkage limit degrades to the
mean predictor rather than to zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["RidgeModel", "fit_ridge", "predict_ridge_batch", "export_coefficients"]


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    lam: float
    feature_names: list[str]


def fit_ridge(x_list, y_list, lam: float, feature_names: list[str] | None = None) -> RidgeModel:
    """Solve (A'A + lam*I) beta = A'y on centered data.

    A is the design matrix of sliding-average features with the difficulty
    gap as the final column. lam=0 on a rank-deficient system raises with
    a hint to regularize.
    """
    A = np.asarray(x_list, dtype=np.float64)
    y = np.asarray(y_list, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    if A.shape[0] != y.shape[0]:
        raise ValueError(f"{A.shape[0]} rows but {y.shape[0]} targets")
    if A.shape[0] == 0:
        raise ValueError("need at least one example")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("design matrix and targets must be finite")
    if not 0 <= lam <= sys.float_info.max:
        raise ValueError("lambda must be finite and >= 0")
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(A.shape[1])]
    if len(feature_names) != A.shape[1]:
        raise ValueError("feature_names length must match design columns")

    col_means = A.mean(axis=0)
    y_mean = y.mean()
    Ac = A - col_means
    yc = y - y_mean
    gram = Ac.T @ Ac + lam * np.eye(A.shape[1])
    rhs = Ac.T @ yc
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "singular normal equations; use lambda > 0 to regularize"
        ) from None
    if lam == 0.0 and not np.allclose(gram @ beta, rhs, atol=1e-6 * (1 + np.abs(rhs).max())):
        # np.linalg.solve does not always raise on near-singular input.
        raise np.linalg.LinAlgError(
            "ill-conditioned normal equations; use lambda > 0 to regularize"
        )
    intercept = float(y_mean - col_means @ beta)
    return RidgeModel(
        weights=beta, intercept=intercept, lam=float(lam), feature_names=list(feature_names)
    )


def predict_ridge_batch(model: RidgeModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"expected {model.weights.shape[0]} features, got {X.shape[1]}"
        )
    return model.intercept + X @ model.weights


def export_coefficients(models: dict) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Coefficient matrix across per-position models.

    Returns (position labels in GK/DEF/MID/FWD order, feature names,
    positions-by-features coefficient matrix, intercept vector). All
    models must agree on feature ordering.
    """
    from .ingest import Position

    ordered = [p for p in Position if p in models]
    if not ordered:
        raise ValueError("no models to export")
    names = models[ordered[0]].feature_names
    for pos in ordered:
        if models[pos].feature_names != names:
            raise ValueError(
                f"feature order mismatch between {ordered[0].value} and {pos.value}"
            )
    coef = np.vstack([models[pos].weights for pos in ordered])
    intercepts = np.array([models[pos].intercept for pos in ordered])
    return [p.value for p in ordered], list(names), coef, intercepts
