"""Fantasy Premier League player score forecasting.

Predicts a player's next-gameweek fantasy score from a sliding window of
recent per-gameweek statistics, with three model families sharing one
data pipeline: closed-form ridge regression, leaf-wise gradient-boosted
trees, and a from-scratch 1D convolutional network. Ranking quality is
scored with the tie-aware Spearman correlation.
"""

import os

# One BLAS thread unless set otherwise, if numpy is not imported yet: more
# threads sum some products in another order, which changes output bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .ingest import (
    CanonicalPlayerKey,
    GameweekTable,
    Position,
    TeamStrengthTable,
    canonicalize_name,
    compute_difficulty,
    drop_benched,
    fuzzy_match,
    parse_gameweek_csv,
    parse_strengths_csv,
)
from .dataset import (
    FeatureTier,
    Players,
    ScalerParams,
    SplitAssignment,
    WindowSet,
    apply_scaler,
    assign_splits,
    fit_scaler,
    generate_synthetic_season,
    sliding_average,
)
from .ridge import RidgeModel, export_coefficients, fit_ridge, predict_ridge_batch
from .gbm import (
    GbmHyperparams,
    GbmModel,
    fit_gbm,
    predict_gbm_batch,
    shapley_values,
    split_importance,
)
from .cnn import (
    CnnModel,
    TrainConfig,
    adam_step,
    backward,
    cost,
    forward_batch,
    init_model,
    mean_normalized_filter,
    train,
)
from .evaluation import (
    EvalReport,
    average_ranks,
    extreme_examples,
    mse,
    spearman_tied,
)

__version__ = "0.1.0"
