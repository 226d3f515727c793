"""Model-family registry, grid search, stratified k-fold CV, and final
holdout evaluation.

Every family shares one pipeline; FAMILIES holds all that differs between
them, and Family.design alone turns windows into a family's inputs. Every
trial, fold and holdout score windows one dataset.Players value: its split
map is fixed before a grid starts and shared by every configuration, and a
CV fold is the same players under the fold's split map. Each trial's
training seed derives deterministically from the grid seed and the
configuration, so editing one axis value leaves every other trial's
randomness untouched. Each trial is fit once, and train_family predicts
its train and validation windows once, for every MSE. run_grid keeps the
model of its best trial, and select_final scores that model on the test
split, whose examples are never built before it runs.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import cnn as cnn_mod
from . import serialize as ser
from .cnn import LearningCurve, TrainConfig
from .dataset import (
    DIFFICULTY_FEATURE,
    FeatureTier,
    Players,
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
]


@dataclass(frozen=True)
class Family:
    """Everything that differs between model families.

    Functions reached through a record look their target up when called,
    so rebinding a module function (a profiler's wrapper, a test's fake)
    reaches every family.
    """

    name: str
    representation: str  # "sliding" (window means) or "windowed" (whole windows)
    scaled: bool  # z-score features with a scaler fitted on the train split
    params: dict[str, tuple[str, object]]  # key -> (CLI config key, default)
    # (params, train, val, seed, feature names) -> (model, learning curve or
    # None), where train and val are design() results
    fit: Callable
    predict_batch: Callable  # (model, inputs) -> predictions
    magic: str  # first line of the family's model file
    write: Callable  # (model, ModelContext) -> text
    read: Callable  # text -> (model, ModelContext)
    explain: str  # the one explanation kind the family supports
    grid: dict[str, list]  # default gridsearch axes

    def resolve(self, config: dict) -> dict:
        """This family's parameters from a trial config, each of its
        default's type."""
        return {
            key: _typed(key, config.get(key, default), default)
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
        """(model inputs, targets): a design matrix, or the windows with
        their features scaled."""
        if self.representation == "windowed":
            if scaler is not None:
                windows = replace(windows, X=apply_scaler(scaler, windows.X))
            return windows, windows.y
        return sliding_design(windows, scaler)


def _is_number(value, integral: bool = False) -> bool:
    """Any integer if `integral`, else a real number that converts to a
    finite float; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if integral:
        return isinstance(value, numbers.Integral)
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _typed(key: str, value, default):
    """`value` as its default's type: an integer for an integer, a real
    number that converts to a finite float for a float, a string for a
    string."""
    if isinstance(default, (int, float)):
        ok = _is_number(value, integral=isinstance(default, int))
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(f"{key} must be of type {type(default).__name__}, got {value!r}")
    return type(default)(value)


def _fit_ridge(p, train, val, seed, feature_names):
    return fit_ridge(*train, lam=p["lambda"], feature_names=feature_names), None


def _fit_gbm(p, train, val, seed, feature_names):
    return fit_gbm(*train, GbmHyperparams(**p), feature_names=feature_names), None


def _fit_cnn(p, train, val, seed, feature_names):
    windows, p = train[0], dict(p)  # p keeps only TrainConfig keys once popped
    _, w, f = windows.X.shape
    model = cnn_mod.init_model(
        w=w, k=p.pop("k"), f=f, n_filters=p.pop("filters"),
        n_hidden=p.pop("hidden"), activation=p.pop("activation"), seed=seed,
    )
    return cnn_mod.train(model, windows, val[0], TrainConfig(**p, seed=seed))


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
        predict_batch=lambda model, windows: cnn_mod.forward_batch(
            model, windows.X, windows.d
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
    train_mse: float | None
    val_mse: float | None
    test_mse: float | None
    seed: int
    wall_time: float
    error: str | None = None
    fitted: FittedTrial | None = None  # run_grid keeps it on its best trial only


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
    """A trained model plus what predicting with it needs."""

    family: str
    model: object
    scaler: ScalerParams | None
    curve: LearningCurve | None = None  # the CNN's per-epoch losses


def sliding_design(windows: WindowSet, scaler: ScalerParams | None = None):
    """Design matrix for the baselines: sliding-average features then d."""
    A = sliding_average(windows)
    if scaler is not None:
        A = apply_scaler(scaler, A)
    return np.column_stack([A, windows.d]), windows.y.astype(np.float64)


def derive_seed(seed: int, config: dict) -> int:
    return stable_hash(seed, sorted(config.items())) % (2**31)


def _window_spec(config: dict) -> tuple[int, FeatureTier]:
    """The (w, tier) a trial config's windows are built with."""
    return _typed("w", config.get("w", 3), 3), FeatureTier(config.get("tier", "ptsonly"))


def train_family(
    family: str,
    config: dict,
    train_windows: WindowSet,
    val_windows: WindowSet,
    seed: int,
) -> tuple[FittedTrial, np.ndarray, np.ndarray]:
    """Fit one configuration; returns (fitted trial, train predictions,
    validation predictions), each set predicted once, in window order."""
    fam = _family(family)
    _, tier = _window_spec(config)
    feature_names = tier.columns() + [DIFFICULTY_FEATURE]
    if not train_windows or not val_windows:
        raise ValueError("train and validation example sets must be non-empty")
    scaler = fam.fit_scaler(train_windows)
    train = fam.design(train_windows, scaler)
    val = fam.design(val_windows, scaler)
    model, curve = fam.fit(fam.resolve(config), train, val, seed, feature_names)
    return (
        FittedTrial(family, model, scaler, curve),
        fam.predict_batch(model, train[0]),
        fam.predict_batch(model, val[0]),
    )


def _run_trial(family: str, config: dict, players: Players, grid_seed: int) -> TrialResult:
    trial_seed = derive_seed(grid_seed, config)
    started = time.perf_counter()
    fitted = train_err = val_err = error = None
    try:
        w, tier = _window_spec(config)
        train_ex, val_ex = (players.windows(w, tier, s) for s in ("train", "validation"))
        fitted, train_pred, val_pred = train_family(
            family, config, train_ex, val_ex, trial_seed
        )
        train_err, val_err = mse(train_ex.y, train_pred), mse(val_ex.y, val_pred)
    except Exception as exc:  # noqa: BLE001 - failed trials are data, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return TrialResult(
        config=dict(config),
        train_mse=train_err,
        val_mse=val_err,
        test_mse=None,
        seed=trial_seed,
        wall_time=time.perf_counter() - started,
        error=error,
        fitted=fitted,
    )


def run_grid(grid: GridSpec, players: Players, seed: int = 0) -> list[TrialResult]:
    """One trial per cartesian configuration, sorted by validation MSE.

    Infeasible configurations (e.g. kernel wider than window) are recorded
    as failed trials and sort last. Only train and validation examples are
    ever built here. Only the best trial keeps its fitted model: a later
    trial takes over only with a strictly lower validation MSE, the stable
    sort's tie rule, so the model ends on results[0]. A beaten model is
    dropped at once.
    """
    results, best = [], None
    for config in grid.configurations():
        trial = _run_trial(grid.family, config, players, seed)
        results.append(trial)
        if trial.error is not None:
            continue
        if best is None or trial.val_mse < best.val_mse:
            if best is not None:
                best.fitted = None
            best = trial
        else:
            trial.fitted = None
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
    keys = players.keys.tolist()
    if len(keys) < cv.k:
        raise ValueError(f"{len(keys)} players cannot fill {cv.k} folds")
    folds = _assign_folds(players, cv)
    w, tier = _window_spec(config)
    train_errs, val_errs = [], []
    for held in range(cv.k):
        fold = replace(players, splits={
            key: "validation" if f == held else "train" for key, f in zip(keys, folds)
        })
        train_ex, val_ex = (fold.windows(w, tier, s) for s in ("train", "validation"))
        seed = derive_seed(cv.seed, {**config, "fold": held})
        _, train_pred, val_pred = train_family(family, config, train_ex, val_ex, seed)
        train_errs.append(mse(train_ex.y, train_pred))
        val_errs.append(mse(val_ex.y, val_pred))
    return float(np.mean(train_errs)), float(np.mean(val_errs))


def _assign_folds(players: Players, cv: CvConfig) -> list[int]:
    """Each player's fold, in key order: quantile-bin players on skill, then
    deal the bins round-robin."""
    bins = stratified_bins(players, cv.n_bins, cv.strat_on, cv.seed)
    # Dealing continues across bins so every fold stays populated.
    fold = {key: i % cv.k for i, key in enumerate(itertools.chain.from_iterable(bins))}
    return [fold[key] for key in players.keys.tolist()]


def select_final(results: list[TrialResult], players: Players) -> TrialResult:
    """Score the holdout split exactly once, with the model that run_grid
    kept on its lowest-validation-MSE trial; the scored trial keeps that
    model as its `fitted`."""
    best = next((r for r in results if r.fitted is not None), None)
    if best is None:
        raise ValueError("no successful trials to select from")
    test_ex = players.windows(*_window_spec(best.config), "test")
    if not test_ex:
        raise ValueError("holdout split has no examples")
    fitted = best.fitted
    predictions = predict(FAMILIES[fitted.family], fitted.model, fitted.scaler, test_ex)
    return replace(best, test_mse=mse(test_ex.y, predictions))
