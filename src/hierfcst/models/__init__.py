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
    "STACKED_FAMILIES",
]


# Families whose fit takes a stack of items, X (items, n, k) and
# Y (items, n, m), and fits one model per item in one call: ridge and
# kernel ridge by one solve per item, Poisson by IRLS over every
# (item, target) fit in lockstep, the tree families by growing every
# item's trees together, one forest level or boosting round at a time.
# Lasso fits one item per call, its target columns in lockstep.
STACKED_FAMILIES = ("ridge", "poisson", "kernel", "rforest", "adaboost", "ensemble")


def _check_xy(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == X.ndim - 1:
        Y = Y[..., None]
    if X.shape[:-1] != Y.shape[:-1]:
        raise HierfcstError(f"X has {X.shape[-2]} rows, Y has {Y.shape[-2]}"
                            f" (shapes {X.shape} and {Y.shape})")
    if X.shape[-2] == 0:
        raise HierfcstError("cannot fit on zero samples")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise DomainError("X and Y must be finite")
    return X, Y


def fit(spec: ModelSpec, X, Y, transform: TargetTransform | None = None) -> FittedModel:
    """Fit one matrix-interface family on supervised rows.

    Multi-column Y is handled per target column (independent regressors);
    a tree family fits every column in one batch, and lasso and Poisson
    step every column's fit in lockstep.  A STACKED_FAMILIES family also
    takes a stack of items, X (items, n, k) and Y (items, n, m), and fits
    one model per item at once, each with the bits of its fit alone; an
    item whose fit fails is listed in the payload's ``failures`` (item
    position -> error).  An error in a tree family's stack, or a negative
    target in a Poisson stack, raises for the whole stack.
    ``transform`` is the fitted per-series transform that produced the
    (already transformed) X/Y entries; it is stored so predictions can be
    mapped back to original quantity units.
    """
    X, Y = _check_xy(X, Y)
    hp = spec.hyperparams
    family = spec.family
    if X.ndim == 3 and family not in STACKED_FAMILIES:
        raise HierfcstError(f"{family} fits one item at a time; "
                            f"stacks of items are for {STACKED_FAMILIES}")

    if family == "ridge":
        payload = fit_ridge(X, Y, hp["lam"])
    elif family == "lasso":
        payload = fit_lasso(X, Y, hp["lam"], hp["max_sweeps"], hp["tol"])
    elif family == "poisson":
        payload = fit_poisson(X, Y, hp["lam"], hp["max_iter"], hp["tol"])
    elif family == "kernel":
        payload = fit_kernel_ridge(X, Y, hp["lam"], hp["bandwidth"])
    elif family in ("rforest", "adaboost", "ensemble"):
        items = len(X) if X.ndim == 3 else 1
        models = [_tree_model(family, hp, c) for _ in range(items)
                  for c in range(Y.shape[-1])]
        type(models[0]).fit_batch(models, X, Y)
        payload = PerTargetPayload(models, items if X.ndim == 3 else None)
    elif family == "arx":
        raise HierfcstError("arx is fitted from a series; use fit_arx")
    elif family == "trmf":
        raise HierfcstError("trmf is fitted from a matrix; use hierfcst.trmf.factorize")
    else:  # pragma: no cover - ModelSpec already validates
        raise HierfcstError(f"unhandled family {family!r}")

    return FittedModel(spec=spec, payload=payload, n_features=X.shape[-1],
                       n_targets=Y.shape[-1], transform=transform,
                       meta={"n_samples": X.shape[-2]})


def _tree_model(family, hp, c):
    """The unfitted model of a tree family for target column c."""
    if family == "rforest":
        return RandomForest(hp["n_trees"], hp["max_depth"], hp["min_leaf"],
                            hp["max_features"], hp["bootstrap"], seed=hp["seed"] + c)
    if family == "adaboost":
        return AdaBoostR2(hp["rounds"], hp["base_depth"], hp["seed"])
    return BaggedGradientBoost(hp["n_bags"], hp["boost_rounds"], hp["learning_rate"],
                               hp["max_depth"], seed=hp["seed"] + c)


def predict(model: FittedModel, X) -> np.ndarray:
    """Predict in original units (inverse transform + non-negativity clip)."""
    return model.predict(X)


def fit_arx(series, exog=None, p: int = 1, spec: ModelSpec | None = None,
            transform: TargetTransform | None = None) -> FittedModel:
    """Least-squares AR(p) with optional exogenous regressors.

    ``series`` (and ``exog`` rows, if any) are taken as already transformed
    when ``transform`` is given; predictions invert it.  A stack of series
    (items, T), with exog (items, T, k), fits one model per item at once;
    an item whose fit fails is listed in the payload's ``failures``.
    """
    payload = fit_arx_payload(series, exog, p)
    if spec is None:
        spec = ModelSpec(family="arx", hyperparams={"p": p})
    k = payload.beta.shape[-1]
    return FittedModel(spec=spec, payload=payload, n_features=p + k, n_targets=1,
                       transform=transform,
                       meta={"n_samples": np.shape(series)[-1] - p})


def fit_adaboost_r2(X, Y, rounds: int = 20, base_depth: int = 3,
                    seed: int = 0) -> FittedModel:
    """Convenience wrapper fitting the adaboost family directly."""
    spec = ModelSpec(family="adaboost",
                     hyperparams={"rounds": rounds, "base_depth": base_depth,
                                  "seed": seed})
    return fit(spec, X, Y)
