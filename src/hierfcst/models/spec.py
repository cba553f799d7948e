"""Model specification, hyperparameter defaults, and the fitted-model wrapper."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import HierfcstError, OutOfScopeError
from ..preprocess import TargetTransform, TRANSFORM_KINDS

IMPLEMENTED_FAMILIES = (
    "ridge", "lasso", "poisson", "kernel", "rforest", "adaboost",
    "ensemble", "arx", "trmf",
)

# Deliberately unsupported; requesting one fails loudly instead of being
# silently approximated.  'arx' is the least-squares surrogate standing in
# for ARIMAX and is always reported as "ARX (ARIMAX surrogate)".
OUT_OF_SCOPE_FAMILIES = ("bsts", "bsts_classifier", "nn", "svr", "arima", "arimax")

FEEDING_MODES = ("none", "df_one_by_one", "df_all_items")


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
    if family in ("ridge", "lasso", "kernel", "poisson"):
        _require(hp["lam"] >= 0, f"{family}: lam must be >= 0, got {hp['lam']}")
    if family == "kernel":
        bw = hp["bandwidth"]
        _require(bw == "median" or (np.isscalar(bw) and bw > 0),
                 f"kernel: bandwidth must be positive or 'median', got {bw}")
    if family in ("lasso",):
        _require(hp["max_sweeps"] >= 1, "lasso: max_sweeps must be >= 1")
    if family == "poisson":
        _require(hp["max_iter"] >= 1, "poisson: max_iter must be >= 1")
    if family == "rforest":
        _require(hp["n_trees"] >= 1, "rforest: n_trees must be >= 1")
        _require(hp["max_depth"] >= 0, "rforest: max_depth must be >= 0")
        _require(hp["min_leaf"] >= 1, "rforest: min_leaf must be >= 1")
        _require(0 < hp["max_features"] <= 1, "rforest: max_features must be in (0, 1]")
    if family == "adaboost":
        _require(hp["rounds"] >= 1, "adaboost: rounds must be >= 1")
        _require(hp["base_depth"] >= 0, "adaboost: base_depth must be >= 0")
    if family == "ensemble":
        _require(hp["n_bags"] >= 1, "ensemble: n_bags must be >= 1")
        _require(hp["boost_rounds"] >= 1, "ensemble: boost_rounds must be >= 1")
        _require(hp["learning_rate"] > 0, "ensemble: learning_rate must be > 0")
    if family == "arx":
        _require(hp["p"] >= 1, f"arx: AR order p must be >= 1, got {hp['p']}")
        _require(hp["exog"] in ("none", "preorders"),
                 f"arx: exog must be 'none' or 'preorders', got {hp['exog']!r}")
    if family == "trmf":
        _require(hp["rank"] >= 1, "trmf: rank must be >= 1")
        _require(hp["ar_order"] >= 1, "trmf: ar_order must be >= 1")
        for key in ("lam_f", "lam_z", "lam_ar"):
            _require(hp[key] >= 0, f"trmf: {key} must be >= 0")


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
    clip_negative: bool = True

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

    def resolved_config(self) -> dict:
        """Flat key->value view for run records."""
        out = {"family": self.family, "transform": self.transform,
               "feeding": self.feeding, "clip_negative": self.clip_negative,
               "name": self.name}
        for k, v in sorted(self.hyperparams.items()):
            out[f"hp.{k}"] = v
        return out


@dataclass
class FittedModel:
    """A trained configuration plus everything needed to predict."""

    spec: ModelSpec
    payload: object                      # family-specific learned parameters
    n_features: int
    n_targets: int
    transform: TargetTransform | None = None
    meta: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray, clip: bool | None = None) -> np.ndarray:
        """Predict in original quantity units.

        Applies the stored inverse transform, then clips negatives to zero
        (demand is non-negative) unless the ModelSpec turns clipping off.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.n_features:
            raise HierfcstError(
                f"expected {self.n_features} features, got {X.shape[-1]}")
        raw = self.payload.predict_raw(X)
        if self.transform is not None:
            raw = self.transform.inverse(raw)
        do_clip = self.spec.clip_negative if clip is None else clip
        if do_clip:
            raw = np.maximum(raw, 0.0)
        return raw

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Raw model output in transformed space (no inverse, no clipping).

        X (rows, k) gives (rows, targets); a stack (items, rows, k) gives
        (items, rows, targets), from item k's model when the model is a
        stack of item fits.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.n_features:
            raise HierfcstError(
                f"expected {self.n_features} features, got {X.shape[-1]}")
        return self.payload.predict_raw(X)
