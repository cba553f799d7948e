"""Uniform fit/predict surface over the implemented model zoo."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, HierfcstError
from ..preprocess import TargetTransform
from .arx import fit_arx_payload, lag_matrix
from .linear import (fit_kernel_ridge, fit_lasso, fit_poisson, fit_ridge,
                     median_bandwidth)
from .spec import (FEEDING_MODES, IMPLEMENTED_FAMILIES, OUT_OF_SCOPE_FAMILIES,
                   FittedModel, ModelSpec, default_hyperparams)
from .trees import (AdaBoostR2, BaggedGradientBoost, GradientBoost,
                    PerTargetPayload, RandomForest, RegressionTree)

__all__ = [
    "ModelSpec", "FittedModel", "fit", "predict", "fit_arx", "fit_adaboost_r2",
    "IMPLEMENTED_FAMILIES", "OUT_OF_SCOPE_FAMILIES", "FEEDING_MODES",
    "default_hyperparams", "RegressionTree", "RandomForest", "AdaBoostR2",
    "GradientBoost", "BaggedGradientBoost", "median_bandwidth", "lag_matrix",
]


def _check_xy(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise HierfcstError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if X.shape[0] == 0:
        raise HierfcstError("cannot fit on zero samples")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise DomainError("X and Y must be finite")
    return X, Y


def fit(spec: ModelSpec, X, Y, transform: TargetTransform | None = None) -> FittedModel:
    """Fit one matrix-interface family on supervised rows.

    Multi-column Y is handled per target column (independent regressors);
    a tree family fits every column in one batch.
    ``transform`` is the fitted per-series transform that produced the
    (already transformed) X/Y entries; it is stored so predictions can be
    mapped back to original quantity units.
    """
    X, Y = _check_xy(X, Y)
    hp = spec.hyperparams
    family = spec.family

    if family == "ridge":
        payload = fit_ridge(X, Y, hp["lam"])
    elif family == "lasso":
        payload = fit_lasso(X, Y, hp["lam"], hp["max_sweeps"], hp["tol"])
    elif family == "poisson":
        payload = fit_poisson(X, Y, hp["lam"], hp["max_iter"], hp["tol"])
    elif family == "kernel":
        payload = fit_kernel_ridge(X, Y, hp["lam"], hp["bandwidth"])
    elif family == "rforest":
        payload = PerTargetPayload(RandomForest.fit_batch(
            [RandomForest(hp["n_trees"], hp["max_depth"], hp["min_leaf"],
                          hp["max_features"], hp["bootstrap"], seed=hp["seed"] + c)
             for c in range(Y.shape[1])], X, Y))
    elif family == "adaboost":
        payload = PerTargetPayload(AdaBoostR2.fit_batch(
            [AdaBoostR2(hp["rounds"], hp["base_depth"], hp["seed"])
             for _ in range(Y.shape[1])], X, Y))
    elif family == "ensemble":
        payload = PerTargetPayload(BaggedGradientBoost.fit_batch(
            [BaggedGradientBoost(hp["n_bags"], hp["boost_rounds"], hp["learning_rate"],
                                 hp["max_depth"], seed=hp["seed"] + c)
             for c in range(Y.shape[1])], X, Y))
    elif family == "arx":
        raise HierfcstError("arx is fitted from a series; use fit_arx")
    elif family == "trmf":
        raise HierfcstError("trmf is fitted from a matrix; use hierfcst.trmf.factorize")
    else:  # pragma: no cover - ModelSpec already validates
        raise HierfcstError(f"unhandled family {family!r}")

    return FittedModel(spec=spec, payload=payload, n_features=X.shape[1],
                       n_targets=Y.shape[1], transform=transform,
                       meta={"n_samples": X.shape[0]})


def predict(model: FittedModel, X) -> np.ndarray:
    """Predict in original units (inverse transform + non-negativity clip)."""
    return model.predict(X)


def fit_arx(series, exog=None, p: int = 1, spec: ModelSpec | None = None,
            transform: TargetTransform | None = None) -> FittedModel:
    """Least-squares AR(p) with optional exogenous regressors.

    ``series`` (and ``exog`` rows, if any) are taken as already transformed
    when ``transform`` is given; predictions invert it.
    """
    payload = fit_arx_payload(series, exog, p)
    if spec is None:
        spec = ModelSpec(family="arx", hyperparams={"p": p})
    k = payload.beta.shape[0]
    return FittedModel(spec=spec, payload=payload, n_features=p + k, n_targets=1,
                       transform=transform,
                       meta={"n_samples": len(series) - p})


def fit_adaboost_r2(X, Y, rounds: int = 20, base_depth: int = 3,
                    seed: int = 0) -> FittedModel:
    """Convenience wrapper fitting the adaboost family directly."""
    spec = ModelSpec(family="adaboost",
                     hyperparams={"rounds": rounds, "base_depth": base_depth,
                                  "seed": seed})
    return fit(spec, X, Y)
