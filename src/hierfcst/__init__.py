"""hierfcst: forecasting toolkit for hierarchical pre-order demand data.

Pipeline pieces: diagonal-feeding preprocessing, a model zoo with SMAPE
backtesting, temporal-regularized matrix factorization, and topological
model selection.  See README.md for the tour and demos/ for worked
examples.
"""

__version__ = "0.1.0"

from .dataset import PreorderTensor, is_known_at, load_csv, save_csv, synthesize
from .errors import HierfcstError
from .evaluate import (BacktestSplit, Leaderboard, backtest,
                       best_forecast_report, lag1_mimicry, smape)
from .features import FEATURE_NAMES, extract_features
from .models import FittedModel, ModelSpec, fit, fit_arx
from .preprocess import (SupervisedFrame, TargetTransform, build_training_set,
                         diagonal_feed, window_index)
from .tda import (MapperGraph, ModelSelector, canberra, fiedler_partition,
                  fiedler_vector, label_and_route, mapper, pca_lens)
from .trmf import FactorModel, TrmfConfig, factorize, forecast, rolling_refit

__all__ = [
    "__version__",
    "PreorderTensor", "is_known_at", "load_csv", "save_csv",
    "synthesize", "HierfcstError",
    "BacktestSplit", "Leaderboard", "backtest", "best_forecast_report",
    "lag1_mimicry", "smape",
    "FEATURE_NAMES", "extract_features",
    "FittedModel", "ModelSpec", "fit", "fit_arx",
    "SupervisedFrame", "TargetTransform", "build_training_set",
    "diagonal_feed", "window_index",
    "MapperGraph", "ModelSelector", "canberra", "fiedler_partition",
    "fiedler_vector", "label_and_route", "mapper", "pca_lens",
    "FactorModel", "TrmfConfig", "factorize", "forecast", "rolling_refit",
]
