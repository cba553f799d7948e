"""Model specification, hyperparameter defaults, and the fitted-model wrapper."""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import HierfcstError, OutOfScopeError, require_at_least
from ..preprocess import TargetTransform, TRANSFORM_KINDS
from .trees import AdaBoostR2, BaggedGradientBoost, RandomForest

IMPLEMENTED_FAMILIES = (
    "ridge", "lasso", "poisson", "kernel", "rforest", "adaboost",
    "ensemble", "arx", "trmf",
)

# Deliberately unsupported; requesting one fails loudly instead of being
# silently approximated.  'arx' is the least-squares surrogate standing in
# for ARIMAX and is always reported as "ARX (ARIMAX surrogate)".
OUT_OF_SCOPE_FAMILIES = ("bsts", "bsts_classifier", "nn", "svr", "arima", "arimax")

FEEDING_MODES = ("none", "df_one_by_one", "df_all_items")

# Families that fit one independent model per target column (a forest or
# bagged boost of column c draws from seed + c; adaboost draws nothing), so
# a fit on Y's first columns grows the models a fit on all of Y grows there.
TREE_FAMILIES = ("rforest", "adaboost", "ensemble")

# Families that read the gross series themselves, never diagonal-feeding
# or no-feeding rows.
SERIES_FAMILIES = ("arx", "trmf")


def _coerce(raw: str):
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw.strip()


def _load_defaults() -> dict:
    parser = configparser.ConfigParser()
    text = resources.files("hierfcst.data").joinpath("model_defaults.ini").read_text()
    parser.read_string(text)
    return {section: {k: _coerce(v) for k, v in parser.items(section)}
            for section in parser.sections()}


_DEFAULTS_CACHE: dict = {}


def default_hyperparams(family: str) -> dict:
    """Checked-in defaults for one family (see data/model_defaults.ini)."""
    if not _DEFAULTS_CACHE:
        _DEFAULTS_CACHE.update(_load_defaults())
    return dict(_DEFAULTS_CACHE.get(family, {}))


def _require(cond: bool, message: str):
    if not cond:
        raise HierfcstError(message)


def _validate_hyperparams(family: str, hp: dict) -> None:
    """The rules of the linear families and arx; a tree family's model and
    trmf's TrmfConfig check their own arguments."""
    if family in ("ridge", "lasso", "kernel", "poisson"):
        require_at_least(f"{family}: lam", hp["lam"], 0)
    if family == "kernel":
        bw = hp["bandwidth"]
        _require(bw == "median" or (isinstance(bw, numbers.Real) and bw > 0),
                 f"kernel: bandwidth must be positive or 'median', got {bw}")
    if family == "lasso":
        require_at_least("lasso: max_sweeps", hp["max_sweeps"], 1)
    if family == "poisson":
        require_at_least("poisson: max_iter", hp["max_iter"], 1)
    if family == "arx":
        require_at_least("arx: AR order p", hp["p"], 1)
        _require(hp["exog"] in ("none", "preorders"),
                 f"arx: exog must be 'none' or 'preorders', got {hp['exog']!r}")
    if family in TREE_FAMILIES:
        tree_model(family, hp)
    if family == "trmf":
        from ..trmf import TrmfConfig       # trmf reads its defaults from here
        TrmfConfig(**hp)


def tree_model(family: str, hp: dict, column: int = 0):
    """The unfitted model of a tree family for target column ``column``: a
    forest or bagged boost of column c draws from seed + c."""
    if family == "rforest":
        return RandomForest(hp["n_trees"], hp["max_depth"], hp["min_leaf"],
                            hp["max_features"], hp["bootstrap"], seed=hp["seed"] + column)
    if family == "adaboost":
        return AdaBoostR2(hp["rounds"], hp["base_depth"])
    return BaggedGradientBoost(hp["n_bags"], hp["boost_rounds"], hp["learning_rate"],
                               hp["max_depth"], seed=hp["seed"] + column)


@dataclass(frozen=True)
class ModelSpec:
    """Fully-resolved description of one forecasting configuration.

    ``hyperparams`` overrides the checked-in defaults for the family; the
    merged result is stored so a recorded spec reproduces the run exactly.
    """

    family: str
    hyperparams: dict = field(default_factory=dict)
    transform: str = "identity"
    feeding: str = "none"
    label: str | None = None

    def __post_init__(self):
        if self.family in OUT_OF_SCOPE_FAMILIES:
            raise OutOfScopeError(
                f"model family {self.family!r} is deliberately out of scope "
                f"(unsupported: {', '.join(OUT_OF_SCOPE_FAMILIES)}; ARIMAX is "
                f"surrogated by the 'arx' family, reported as 'ARX (ARIMAX "
                f"surrogate)'); see the Scope section of the README")
        if self.family not in IMPLEMENTED_FAMILIES:
            raise HierfcstError(
                f"unknown model family {self.family!r}; implemented: "
                f"{', '.join(IMPLEMENTED_FAMILIES)}")
        if self.transform not in TRANSFORM_KINDS:
            raise HierfcstError(f"unknown transform {self.transform!r}")
        if self.feeding not in FEEDING_MODES:
            raise HierfcstError(f"unknown feeding mode {self.feeding!r}")
        if self.label is not None and any(c in self.label for c in ',"\r\n'):
            raise HierfcstError(f"label {self.label!r} holds a comma, a double quote or a "
                                f"line break, which would corrupt leaderboard.csv rows")
        if self.family in SERIES_FAMILIES and self.feeding != "none":
            raise HierfcstError(f"{self.family} reads the series, not diagonal-feeding "
                                f"rows: feeding must be 'none', got {self.feeding!r}")
        merged = default_hyperparams(self.family)
        unknown = set(self.hyperparams) - set(merged)
        if unknown:
            raise HierfcstError(
                f"{self.family}: unknown hyperparameters {sorted(unknown)}")
        merged.update(self.hyperparams)
        _validate_hyperparams(self.family, merged)
        object.__setattr__(self, "hyperparams", merged)

    @property
    def name(self) -> str:
        """Stable display name used in leaderboards and file names."""
        if self.label:
            return self.label
        parts = [self.family]
        if self.family == "arx":
            parts = ["ARX (ARIMAX surrogate)" if self.hyperparams["exog"] == "preorders"
                     else "arx"]
        if self.feeding == "df_one_by_one":
            parts.append("1:1 DF")
        elif self.feeding == "df_all_items":
            parts.append("AI DF")
        if self.transform == "log1p":
            parts.append("LT")
        elif self.transform == "minmax":
            parts.append("MM")
        return " ".join(parts)

    def section(self) -> dict:
        """The keys of the spec's INI section, merged hyperparameters
        included; the section named after the spec reads back as this spec."""
        return {"family": self.family, "feeding": self.feeding,
                "transform": self.transform, **self.hyperparams}


@dataclass
class FittedModel:
    """A trained configuration plus everything needed to predict."""

    spec: ModelSpec
    payload: object                      # family-specific learned parameters
    n_features: int
    n_targets: int
    transform: TargetTransform | None = None
    n_items: int = 1                     # a stack of item fits: one model per item

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict in original quantity units: the stored inverse transform
        of predict_transformed, negatives clipped to zero (demand is
        non-negative), as the backtest scores every forecast."""
        raw = self.predict_transformed(X)
        if self.transform is not None:
            raw = self.transform.inverse(raw)
        return np.maximum(raw, 0.0)

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Raw model output in transformed space (no inverse, no clipping).

        X (..., rows, k) gives (..., rows, targets).  A stack of n > 1 item
        fits takes X (n, rows, k) only and predicts X[i] by item i's model.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.n_features:
            raise HierfcstError(
                f"expected {self.n_features} features, got {X.shape[-1]}")
        if self.n_items > 1 and X.shape[:-2] != (self.n_items,):
            raise HierfcstError(f"a stack of {self.n_items} item fits predicts X "
                                f"(items, rows, k), got shape {X.shape}")
        return self.payload.predict_raw(X).reshape(X.shape[:-1] + (self.n_targets,))
