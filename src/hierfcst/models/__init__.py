"""Uniform fit/predict surface over the implemented model zoo."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, HierfcstError
from ..preprocess import TargetTransform
from .arx import fit_arx_payload, lag_matrix
from .linear import (fit_kernel_ridge, fit_lasso, fit_poisson, fit_ridge,
                     median_bandwidth)
from .spec import (FEEDING_MODES, IMPLEMENTED_FAMILIES, OUT_OF_SCOPE_FAMILIES,
                   SERIES_FAMILIES, TREE_FAMILIES, FittedModel, ModelSpec,
                   default_hyperparams, tree_model)
from .trees import (AdaBoostR2, BaggedGradientBoost, GradientBoost,
                    PerTargetPayload, RandomForest, RegressionTree)

__all__ = [
    "ModelSpec", "FittedModel", "fit", "fit_arx",
    "IMPLEMENTED_FAMILIES", "OUT_OF_SCOPE_FAMILIES", "FEEDING_MODES",
    "default_hyperparams", "RegressionTree", "RandomForest", "AdaBoostR2",
    "GradientBoost", "BaggedGradientBoost", "median_bandwidth", "lag_matrix",
    "STACKED_FAMILIES", "TREE_FAMILIES", "SERIES_FAMILIES",
]


# Families whose fitter takes only a stack of items, X (items, n, k) and
# Y (items, n, m), and fits one model per item in one call: ridge and
# kernel ridge by one solve per item, Poisson by IRLS over every
# (item, target) fit in lockstep, the tree families by growing every
# item's trees together, one forest level or boosting round at a time.
# ``fit`` makes a single fit of one of them a stack of one.  Lasso fits
# one item per call, its target columns in lockstep.
STACKED_FAMILIES = ("ridge", "poisson", "kernel") + TREE_FAMILIES


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


def fit(spec: ModelSpec, X, Y, transform: TargetTransform | None = None,
        targets: int | None = None) -> FittedModel:
    """Fit one matrix-interface family on supervised rows.

    Multi-column Y is handled per target column (independent regressors);
    a tree family fits every column in one batch, and lasso and Poisson
    step every column's fit in lockstep.  A STACKED_FAMILIES family also
    takes a stack of items, X (items, n, k) and Y (items, n, m), and fits
    one model per item at once, each with the bits of its fit alone; an
    item whose fit fails is listed in the payload's ``failures`` (item
    position -> error).  An error in a tree family's stack, or a negative
    target in a Poisson stack, raises for the whole stack.  A single fit,
    X (n, k), of such a family is fitted as a stack of one and raises its
    item's failure.
    ``transform`` is the fitted per-series transform that produced the
    (already transformed) X/Y entries; it is stored so predictions can be
    mapped back to original quantity units.  ``targets`` fits only Y's
    first columns (all by default); the checks still read every column, so
    a non-finite column left unfitted raises as a fitted one does.
    """
    X, Y = _check_xy(X, Y)
    Y = Y[..., :targets]
    hp = spec.hyperparams
    family = spec.family
    if X.ndim == 3 and family not in STACKED_FAMILIES:
        raise HierfcstError(f"{family} fits one item at a time; "
                            f"stacks of items are for {STACKED_FAMILIES}")
    single = X.ndim == 2 and family in STACKED_FAMILIES
    if single:
        X, Y = X[None], Y[None]

    if family == "ridge":
        payload = fit_ridge(X, Y, hp["lam"])
    elif family == "lasso":
        payload = fit_lasso(X, Y, hp["lam"], hp["max_sweeps"], hp["tol"])
    elif family == "poisson":
        payload = fit_poisson(X, Y, hp["lam"], hp["max_iter"], hp["tol"])
    elif family == "kernel":
        payload = fit_kernel_ridge(X, Y, hp["lam"], hp["bandwidth"])
    elif family in TREE_FAMILIES:
        models = [tree_model(family, hp, c) for _ in range(len(X))
                  for c in range(Y.shape[-1])]
        type(models[0]).fit_batch(models, X, Y)
        payload = PerTargetPayload(models, len(X))
    elif family == "arx":
        raise HierfcstError("arx is fitted from a series; use fit_arx")
    elif family == "trmf":
        raise HierfcstError("trmf is fitted from a matrix; use hierfcst.trmf.factorize")
    else:  # pragma: no cover - ModelSpec already validates
        raise HierfcstError(f"unhandled family {family!r}")

    if single and payload.failures:
        raise payload.failures[0]
    return FittedModel(spec=spec, payload=payload, n_features=X.shape[-1],
                       n_targets=Y.shape[-1], transform=transform,
                       n_items=len(X) if X.ndim == 3 else 1)


def fit_arx(series, exog=None, p: int = 1, spec: ModelSpec | None = None,
            transform: TargetTransform | None = None) -> FittedModel:
    """Least-squares AR(p) with optional exogenous regressors.

    ``series`` (and ``exog`` rows, if any) are taken as already transformed
    when ``transform`` is given; predictions invert it.  A stack of series
    (items, T), with exog (items, T, k), fits one model per item at once;
    an item whose fit fails is listed in the payload's ``failures``.  One
    series (T,), with exog (T, k), is fitted as a stack of one and raises
    its failure.
    """
    series = np.asarray(series, dtype=float)
    single = series.ndim == 1
    if single:
        series, exog = series[None], None if exog is None else np.asarray(exog)[None]
    payload = fit_arx_payload(series, exog, p)
    if single and payload.failures:
        raise payload.failures[0]
    if spec is None:
        spec = ModelSpec(family="arx", hyperparams={"p": p})
    k = payload.beta.shape[-1]
    return FittedModel(spec=spec, payload=payload, n_features=p + k, n_targets=1,
                       transform=transform, n_items=len(series))

