"""Model-family registry, grid search, stratified k-fold CV, and final
holdout evaluation.

Every family shares one pipeline; FAMILIES holds all that differs between
them. Every trial, fold and holdout score windows one dataset.Players
value: its split map is fixed before a grid starts and shared by every
configuration, and a CV fold is the same players under the fold's split
map. Each trial's training seed derives deterministically from the grid
seed and the configuration, so editing one axis value leaves every other
trial's randomness untouched. Test examples are never materialized until
select_final runs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import cnn as cnn_mod
from . import serialize as ser
from .cnn import Batch, TrainConfig
from .dataset import (
    FeatureTier,
    Players,
    PlayerSeries,
    ScalerParams,
    WindowSet,
    apply_scaler,
    fit_scaler,
    sliding_average,
    stable_hash,
    stratified_bins,
)
from .evaluation import mse
from .gbm import GbmHyperparams, fit_gbm, predict_gbm_batch
from .ingest import Position
from .ridge import fit_ridge, predict_ridge_batch

__all__ = [
    "Family",
    "FAMILIES",
    "GridSpec",
    "TrialResult",
    "CvConfig",
    "FittedTrial",
    "run_grid",
    "top_k_summary",
    "cross_validate",
    "select_final",
    "train_family",
    "predict",
    "model_family",
    "sliding_design",
    "windowed_batch",
    "default_grid",
]


@dataclass(frozen=True)
class Family:
    """Everything that differs between model families.

    Functions reached through a record look their target up when called,
    so rebinding a module function (a profiler's wrapper, a test's fake)
    reaches every family.
    """

    name: str
    representation: str  # "sliding" or "windowed"; also names the dataset file
    scaled: bool  # z-score features with a scaler fitted on the train split
    params: dict[str, tuple[str, object]]  # key -> (CLI config key, default)
    # (params, train, val, seed, feature names) -> (model, extras), where
    # train and val are design() results
    fit: Callable
    predict_batch: Callable  # (model, inputs) -> predictions
    magic: str  # first line of the family's model file
    write: Callable  # (model, ModelContext) -> text
    read: Callable  # text -> (model, ModelContext)
    explain: str  # the one explanation kind the family supports
    grid: dict[str, list]  # default gridsearch axes

    def resolve(self, config: dict) -> dict:
        """This family's parameters from a trial config, typed like their
        defaults."""
        return {
            key: type(default)(config.get(key, default))
            for key, (_, default) in self.params.items()
        }

    def from_cli(self, cli_config: dict) -> dict:
        """The trial config that a CLI config describes."""
        return {
            "w": cli_config["w"],
            "tier": cli_config["tier"],
            **{key: cli_config[cli_key] for key, (cli_key, _) in self.params.items()},
        }

    def fit_scaler(self, windows: WindowSet) -> ScalerParams | None:
        if not self.scaled:
            return None
        if self.representation == "windowed":
            return fit_scaler(windows.X)
        return fit_scaler(sliding_average(windows))

    def design(self, windows: WindowSet, scaler: ScalerParams | None):
        """(model inputs, targets): a design matrix or a window batch."""
        if self.representation == "windowed":
            batch = windowed_batch(windows, scaler)
            return batch, batch.y
        return sliding_design(windows, scaler)


def _fit_ridge(p, train, val, seed, feature_names):
    return fit_ridge(*train, lam=p["lambda"], feature_names=feature_names), {}


def _fit_gbm(p, train, val, seed, feature_names):
    return fit_gbm(*train, GbmHyperparams(**p), feature_names=feature_names), {}


def _fit_cnn(p, train, val, seed, feature_names):
    batch, p = train[0], dict(p)  # p keeps only TrainConfig keys once popped
    _, w, f = batch.X.shape
    model = cnn_mod.init_model(
        w=w, k=p.pop("k"), f=f, n_filters=p.pop("filters"),
        n_hidden=p.pop("hidden"), activation=p.pop("activation"), seed=seed,
    )
    best, curve = cnn_mod.train(model, batch, val[0], TrainConfig(**p, seed=seed))
    return best, {"curve": curve}


_GBM_DEFAULTS = GbmHyperparams()
_CNN_DEFAULTS = TrainConfig()

FAMILIES = {
    "ridge": Family(
        name="ridge",
        representation="sliding",
        scaled=True,
        params={"lambda": ("ridge_lambda", 1.0)},
        fit=_fit_ridge,
        predict_batch=lambda model, A: predict_ridge_batch(model, A),
        magic=ser.MAGIC_RIDGE,
        write=lambda model, ctx: ser.write_ridge(model, ctx),
        read=lambda text: ser.read_ridge(text),
        explain="coefficients",
        grid={"lambda": [0.01, 0.1, 1.0, 10.0, 100.0], "w": [3, 6, 9]},
    ),
    "gbm": Family(
        name="gbm",
        representation="sliding",
        scaled=False,
        params={
            f.name: (f"gbm_{f.name}", getattr(_GBM_DEFAULTS, f.name))
            for f in fields(GbmHyperparams)
        },
        fit=_fit_gbm,
        predict_batch=lambda model, A: predict_gbm_batch(model, A),
        magic=ser.MAGIC_GBM,
        write=lambda model, ctx: ser.write_gbm(model, ctx),
        read=lambda text: ser.read_gbm(text),
        explain="shapley",
        grid={
            "n_trees": [50],
            "max_depth": [3],
            "num_leaves": [7],
            "lambda_l2": [1.0, 10.0],
            "min_data_in_leaf": [20, 70],
            "eta": [0.05, 0.1],
            "w": [3, 6, 9],
        },
    ),
    "cnn": Family(
        name="cnn",
        representation="windowed",
        scaled=True,
        params={
            "k": ("cnn_kernel", 1),
            "filters": ("cnn_filters", 64),
            "hidden": ("cnn_hidden", 64),
            "activation": ("cnn_activation", "relu"),
            "lambda1": ("cnn_lambda1", _CNN_DEFAULTS.lambda1),
            "lambda2": ("cnn_lambda2", _CNN_DEFAULTS.lambda2),
            **{
                key: (key, getattr(_CNN_DEFAULTS, key))
                for key in ("epochs", "learning_rate", "batch_size",
                            "early_stop_tolerance", "patience")
            },
        },
        fit=_fit_cnn,
        predict_batch=lambda model, batch: cnn_mod.forward_batch(
            model, batch.X, batch.d
        )[0],
        magic=ser.MAGIC_CNN,
        write=lambda model, ctx: ser.write_cnn(model, ctx),
        read=lambda text: ser.read_cnn(text),
        explain="filter",
        grid={
            "w": [3, 6, 9],
            "k": [1, 2, 3],
            "tier": [t.value for t in FeatureTier],
            "filters": [32, 64],
            "hidden": [32, 64],
        },
    ),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown model family '{name}'")
    return FAMILIES[name]


def model_family(text: str) -> Family | None:
    """The family whose model file `text` is, by its first line."""
    first = text.splitlines()[0] if text else ""
    return next((f for f in FAMILIES.values() if f.magic == first), None)


def predict(
    family: Family, model, scaler: ScalerParams | None, windows: WindowSet
) -> np.ndarray:
    """One family's predictions for a window set."""
    inputs, _ = family.design(windows, scaler)
    return family.predict_batch(model, inputs)


@dataclass
class GridSpec:
    """Cartesian search space for one model family."""

    family: str
    axes: dict[str, list] = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        _family(self.family)
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"grid axis '{name}' is empty")

    def configurations(self) -> list[dict]:
        names = sorted(self.axes)
        configs = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            config = dict(self.fixed)
            config.update(dict(zip(names, combo)))
            configs.append(config)
        return configs


@dataclass
class TrialResult:
    config: dict
    position: Position
    family: str
    train_mse: float | None
    val_mse: float | None
    test_mse: float | None
    seed: int
    wall_time: float
    error: str | None = None


@dataclass
class CvConfig:
    k: int = 5
    n_bins: int = 4
    strat_on: str = "avg_score"
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")


@dataclass
class FittedTrial:
    """A trained model plus everything needed to reuse it."""

    family: str
    model: object
    scaler: ScalerParams | None
    feature_names: list[str]
    config: dict
    extras: dict = field(default_factory=dict)


def sliding_design(windows: WindowSet, scaler: ScalerParams | None = None):
    """Design matrix for the baselines: sliding-average features then d."""
    A = sliding_average(windows)
    if scaler is not None:
        A = apply_scaler(scaler, A)
    return np.column_stack([A, windows.d]), windows.y.astype(np.float64)


def windowed_batch(windows: WindowSet, scaler: ScalerParams | None = None) -> Batch:
    """CNN tensors: scaled windows, raw difficulties, raw targets."""
    return Batch(
        X=apply_scaler(scaler, windows.X) if scaler else windows.X,
        d=windows.d.astype(np.float64),
        y=windows.y.astype(np.float64),
    )


def derive_seed(seed: int, config: dict) -> int:
    return stable_hash(seed, sorted(config.items())) % (2**31)


def _window_spec(config: dict) -> tuple[int, FeatureTier]:
    """The (w, tier) a trial config's windows are built with."""
    return int(config.get("w", 3)), FeatureTier(config.get("tier", "ptsonly"))


def train_family(
    family: str,
    config: dict,
    train_windows: WindowSet,
    val_windows: WindowSet,
    seed: int,
) -> tuple[FittedTrial, float, float]:
    """Fit one configuration; returns (fitted trial, train MSE, val MSE)."""
    fam = _family(family)
    _, tier = _window_spec(config)
    feature_names = tier.columns() + ["difficulty_gap"]
    if not train_windows or not val_windows:
        raise ValueError("train and validation example sets must be non-empty")
    scaler = fam.fit_scaler(train_windows)
    train = fam.design(train_windows, scaler)
    val = fam.design(val_windows, scaler)
    model, extras = fam.fit(fam.resolve(config), train, val, seed, feature_names)
    return (
        FittedTrial(family, model, scaler, feature_names, dict(config), extras),
        mse(train[1], fam.predict_batch(model, train[0])),
        mse(val[1], fam.predict_batch(model, val[0])),
    )


def _run_trial(
    family: str, config: dict, position: Position, players: Players, grid_seed: int
) -> TrialResult:
    trial_seed = derive_seed(grid_seed, config)
    started = time.perf_counter()
    train_err = val_err = error = None
    try:
        w, tier = _window_spec(config)
        train_ex, val_ex = (players.windows(w, tier, s) for s in ("train", "validation"))
        _, train_err, val_err = train_family(
            family, config, train_ex, val_ex, trial_seed
        )
    except Exception as exc:  # noqa: BLE001 - failed trials are data, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return TrialResult(
        config=dict(config),
        position=position,
        family=family,
        train_mse=train_err,
        val_mse=val_err,
        test_mse=None,
        seed=trial_seed,
        wall_time=time.perf_counter() - started,
        error=error,
    )


def run_grid(
    grid: GridSpec,
    players: Players,
    seed: int = 0,
    position: Position | None = None,
) -> list[TrialResult]:
    """One trial per cartesian configuration, sorted by validation MSE.

    Infeasible configurations (e.g. kernel wider than window) are recorded
    as failed trials and sort last. Only train and validation examples are
    ever built here.
    """
    if position is None:
        position = players.series[0].key.position if players.series else Position.MID
    results = [
        _run_trial(grid.family, config, position, players, seed)
        for config in grid.configurations()
    ]
    results.sort(
        key=lambda r: (r.error is not None, r.val_mse if r.val_mse is not None else 0.0)
    )
    return results


def top_k_summary(results: list[TrialResult], k: int) -> tuple[float, float]:
    """(mean, max) of the k lowest validation MSEs among successes."""
    if k < 1:
        raise ValueError(f"top-k size must be >= 1, got {k}")
    succeeded = sorted(
        (r.val_mse for r in results if r.error is None and r.val_mse is not None)
    )
    if k > len(succeeded):
        raise ValueError(f"k={k} exceeds {len(succeeded)} successful trials")
    best = succeeded[:k]
    return float(np.mean(best)), float(max(best))


def cross_validate(
    family: str, config: dict, players: Players, cv: CvConfig
) -> tuple[float, float]:
    """Stratified player-disjoint k-fold CV: (mean train MSE, mean val MSE).

    Each fold is `players` with a split map that holds out one fold as
    validation; `players.splits` is not read."""
    if len(players.series) < cv.k:
        raise ValueError(f"{len(players.series)} players cannot fill {cv.k} folds")
    folds = _assign_folds(players.series, cv)
    w, tier = _window_spec(config)
    train_errs, val_errs = [], []
    for held in range(cv.k):
        fold = replace(players, splits={
            s.key: "validation" if f == held else "train"
            for s, f in zip(players.series, folds)
        })
        train_ex, val_ex = (fold.windows(w, tier, s) for s in ("train", "validation"))
        seed = derive_seed(cv.seed, {**config, "fold": held})
        _, train_err, val_err = train_family(family, config, train_ex, val_ex, seed)
        train_errs.append(train_err)
        val_errs.append(val_err)
    return float(np.mean(train_errs)), float(np.mean(val_errs))


def _assign_folds(series_list: list[PlayerSeries], cv: CvConfig) -> list[int]:
    """Quantile-bin players on skill, then deal the bins round-robin."""
    bins = stratified_bins(series_list, cv.n_bins, cv.strat_on, cv.seed)
    # Dealing continues across bins so every fold stays populated.
    dealt = itertools.chain.from_iterable(bins)
    fold = {s.key: i % cv.k for i, s in enumerate(dealt)}
    return [fold[s.key] for s in series_list]


def select_final(
    results: list[TrialResult], players: Players
) -> tuple[TrialResult, FittedTrial]:
    """Retrain the lowest-validation-MSE configuration (with its stored
    trial seed) and score the holdout split exactly once."""
    succeeded = [r for r in results if r.error is None and r.val_mse is not None]
    if not succeeded:
        raise ValueError("no successful trials to select from")
    best = min(succeeded, key=lambda r: r.val_mse)
    w, tier = _window_spec(best.config)
    train_ex, val_ex, test_ex = (
        players.windows(w, tier, s) for s in ("train", "validation", "test")
    )
    fitted, train_err, val_err = train_family(
        best.family, best.config, train_ex, val_ex, best.seed
    )
    if not test_ex:
        raise ValueError("holdout split has no examples")
    predictions = predict(FAMILIES[best.family], fitted.model, fitted.scaler, test_ex)
    test_err = mse(test_ex.y, predictions)
    final = replace(best, train_mse=train_err, val_mse=val_err, test_mse=test_err)
    return final, fitted


def default_grid(family: str) -> GridSpec:
    """Search spaces used when no grid is configured."""
    axes = _family(family).grid
    return GridSpec(family=family, axes={k: list(v) for k, v in axes.items()})
