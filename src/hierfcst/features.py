"""Compact statistical descriptors of a demand series.

Seven features summarize level, dispersion, shape, memory and
intermittency.  They feed both the TDA model-selection pipeline and the
small-feature (non-diagonal) regression baselines.
"""

from __future__ import annotations

import numpy as np

from .errors import HierfcstError

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis",
                 "autocorr1", "zero_fraction", "max_mean_ratio")

# The error of a series with a non-finite value.
NONFINITE_SERIES = "series must be finite"


def extract_features(series) -> np.ndarray:
    """Seven-value descriptor of one series (T,), length >= 2, or of each
    row of an equal-length stack (n, T): returns (7,) or (n, 7).

    Degenerate rules keep everything finite: a constant series reports
    variance, skewness, excess kurtosis and lag-1 autocorrelation of 0 and
    a max/mean ratio of 1 (0 when the mean itself is 0).  A series whose
    variance is so small that its square underflows to 0 reports its
    variance but skewness, kurtosis and autocorrelation of 0.
    """
    try:
        x = np.array(series, dtype=float, order="C", ndmin=1)
    except ValueError as exc:
        raise HierfcstError(f"series must be numbers of equal length: {exc}") from None
    single = x.ndim == 1
    if single:
        x = x[None]
    if x.ndim != 2:
        raise HierfcstError(f"need a series (T,) or a stack (n, T), got shape {x.shape}")
    if x.shape[1] < 2:
        raise HierfcstError(f"need a series of length >= 2, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise HierfcstError(NONFINITE_SERIES)

    # Row reductions along the contiguous last axis sum each row as a lone
    # series is summed, and float_power is C pow, as a Python float's **:
    # every row comes out bit for bit as extracted alone.
    mean = np.mean(x, axis=1)
    dev = x - mean[:, None]
    m2 = np.mean(dev ** 2, axis=1)
    zero_fraction = np.mean(x == 0.0, axis=1)
    flat = np.float_power(m2, 2) == 0.0
    # One ddot per row, as the 1-d products make (einsum and sum add in
    # another order).
    lag1 = (dev[:, None, :-1] @ dev[:, 1:, None])[:, 0, 0]
    power = (dev[:, None, :] @ dev[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.mean(dev ** 3, axis=1) / np.float_power(m2, 1.5)
        kurt = np.mean(dev ** 4, axis=1) / np.float_power(m2, 2) - 3.0
        autocorr = lag1 / power
        ratio = np.max(x, axis=1) / mean
    shape = np.where(flat[:, None], 0.0, np.column_stack([skew, kurt, autocorr]))
    ratio = np.where(m2 == 0.0, 1.0, ratio)
    ratio = np.where(mean != 0.0, ratio, 0.0)
    out = np.column_stack([mean, m2, shape, zero_fraction, ratio])
    return out[0] if single else out


def extract_feature_matrix(series_list) -> np.ndarray:
    """Features of every series of an equal-length list: (n, 7)."""
    return extract_features(series_list)
