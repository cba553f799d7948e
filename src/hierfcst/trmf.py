"""Temporal-regularized matrix factorization with AR-driven forecasting.

Y (T x n) is factorized as Z F with Z (T x d) factor time series and
F (d x n) loadings, minimizing

    1/(2|O|) * sum_{(t,i) in O} (Y_ti - z_t.f_i)^2
      + lam_f/2 ||F||^2 + lam_z/2 ||Z||^2
      + lam_ar/2 * sum_j sum_{t>=p} (Z_tj - sum_i phi_ji Z_{t-i,j})^2

by exact alternating block minimization: closed-form ridge per loading
column, one banded positive-definite solve for all of Z, and per-factor
least squares for the AR coefficients phi.  The data term is scaled by the
observed-entry count so the lambdas are density-independent.  Forecasts
roll the fitted AR recursion forward on its own outputs, so accuracy decays
with horizon and one-step-ahead use with re-estimation is the intended
mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (DensityError, DomainError, HierfcstError, IllConditionedError,
                     require_at_least)
from .models.linear import solve_stack
from .models.spec import default_hyperparams

# Least observed share of entries factorize accepts without allow_low_density.
DEFAULT_DENSITY_FLOOR = 0.25

# LAPACK's banded Cholesky solve, called directly: the system is built here
# and checked for finite entries before every solve.
_pbsv, = get_lapack_funcs(("pbsv",), dtype=np.float64)


def _ini(key):
    """Default read from the [trmf] section of data/model_defaults.ini, so
    backtest specs and `hierfcst trmf` fit the same model unless a value is
    overridden."""
    return field(default_factory=lambda: default_hyperparams("trmf")[key])


@dataclass
class TrmfConfig:
    rank: int = _ini("rank")
    ar_order: int = _ini("ar_order")
    lam_f: float = _ini("lam_f")
    lam_z: float = _ini("lam_z")
    lam_ar: float = _ini("lam_ar")
    max_sweeps: int = _ini("max_sweeps")
    tol: float = _ini("tol")
    seed: int = _ini("seed")
    allow_low_density: bool = False

    def __post_init__(self):
        # tol takes any number: a negative one never stops a fit early.
        for name, low in (("rank", 1), ("ar_order", 1), ("lam_f", 0), ("lam_z", 0),
                          ("lam_ar", 0), ("max_sweeps", 1), ("seed", 0)):
            require_at_least(name, getattr(self, name), low)


@dataclass
class FactorModel:
    """Factorization state after alternating minimization."""

    Z: np.ndarray            # (T, d)
    F: np.ndarray            # (d, n)
    phi: np.ndarray          # (d, p), row j = AR coefficients of factor j
    lam_f: float
    lam_z: float
    lam_ar: float
    mask: np.ndarray         # (T, n) observed-entry pattern
    objective_history: list = field(default_factory=list)
    converged: bool = False  # stopped on tol before max_sweeps

    @property
    def rank(self):
        return self.Z.shape[1]

    @property
    def unobserved_periods(self) -> list:
        """The periods (rows of mask) that no item observes.  They are
        accepted, but only the AR term ties their factor rows, so a fit's
        answer there can depend on rounding."""
        return np.flatnonzero(~self.mask.any(axis=1)).tolist()

    @property
    def ar_order(self):
        return self.phi.shape[1]

    def parameter_count(self) -> int:
        """T*d + d*n + d*p learned values."""
        return self.Z.size + self.F.size + self.phi.size

    def reconstruction(self) -> np.ndarray:
        return self.Z @ self.F


def ar_residuals(Z, phi) -> np.ndarray:
    """(T - p) x d matrix of AR(p) residuals of the factor series."""
    T, d = Z.shape
    p = phi.shape[1]
    acc = np.zeros((T - p, d))
    for i in range(1, p + 1):
        acc += Z[p - i:T - i] * phi[:, i - 1][None, :]
    return Z[p:] - acc


@dataclass
class _Data:
    """What every sweep shares of the data term, fixed by (Y, mask, m)."""

    m: int
    Wm: np.ndarray     # (T, n) mask / m
    WYm: np.ndarray    # (T, n) mask * Y / m
    obs: np.ndarray    # flat indices of the observed entries
    Y_obs: np.ndarray  # Y at obs


def _data_terms(Y, mask, m) -> _Data:
    obs = np.flatnonzero(mask)
    return _Data(m, mask / m, np.where(mask, Y, 0.0) / m, obs, Y.ravel()[obs])


@dataclass
class _Band:
    """Where each term of the factor system goes in its upper band, stored
    in LAPACK layout ab[u + r - c, c] = A[r, c] for r <= c, with u = p*d.
    Fixed by (T, d, p)."""

    shape: tuple
    rows: np.ndarray     # upper triangle of a d x d period block ...
    cols: np.ndarray
    data_at: np.ndarray  # ... and its flat band positions, (T, d(d+1)/2)
    ar_at: np.ndarray    # flat band positions of the AR products c[l] c[l - k] ...
    ar_l: np.ndarray     # ... and where c[l] and c[l - k] sit in the flat
    ar_lk: np.ndarray    # (d, p + 1) coefficient array c = [1, -phi]


def _band_map(T, d, p) -> _Band:
    """The AR term lam_ar D_j'D_j of factor j couples (t, j) with (t + k, j):
    row s (s = p..T-1) of D_j carries c[l] at column s - l, so
    (D_j'D_j)[a, a + k] sums c[l] c[l - k] over the l with p <= a + l <= T - 1.
    The products are listed pair by pair, l ascending within each k, so a
    bincount adds every band entry's products in the order of that sum."""
    u, N = p * d, T * d
    rows, cols = np.triu_indices(d)
    data_at = (u + rows - cols) * N + cols + d * np.arange(T)[:, None]
    k, l = np.triu_indices(p + 1)
    t = np.arange(T)
    pair, a = np.nonzero((t >= p - l[:, None]) & (t <= T - 1 - l[:, None]))
    k, l, j = k[pair, None], l[pair, None], np.arange(d)
    ar_at = (u - k * d) * N + (a[:, None] + k) * d + j
    ar_l = j * (p + 1) + l
    return _Band((u + 1, N), rows, cols, data_at,
                 ar_at.ravel(), ar_l.ravel(), (ar_l - k).ravel())


def _objective(data, Z, F, phi, lam_f, lam_z, lam_ar) -> float:
    resid = data.Y_obs - np.take(Z @ F, data.obs)
    value = 0.5 * float(resid @ resid) / data.m
    value += 0.5 * lam_f * float((F ** 2).sum())
    value += 0.5 * lam_z * float((Z ** 2).sum())
    if lam_ar > 0:
        value += 0.5 * lam_ar * float((ar_residuals(Z, phi) ** 2).sum())
    return value


def objective(Y, mask, Z, F, phi, lam_f, lam_z, lam_ar) -> float:
    """Full regularized objective; the quantity factorize drives down."""
    data = _data_terms(np.asarray(Y, dtype=float), mask, int(mask.sum()))
    return _objective(data, Z, F, phi, lam_f, lam_z, lam_ar)


def _f_block(data, Z, lam_f):
    """Ridge loadings for every item at once: one product for the stack of
    item Gram matrices, one stacked d x d solve.

    An item with no observed rows has b = 0 and so F = 0.  When an item
    system is singular (lam_f = 0 with fewer observed rows than the rank,
    or none) each item is solved alone and the singular ones take
    minimum-norm least squares (``solve_stack``).
    """
    T, d = Z.shape
    G = (data.Wm.T @ (Z[:, :, None] * Z[:, None, :]).reshape(T, d * d)).reshape(-1, d, d)
    G += lam_f * np.eye(d)
    F, singular = solve_stack(G, data.WYm.T @ Z)
    for exc in filter(None, singular.values()):
        raise exc
    return F.T


def _z_block(data, band, F, phi, lam_z, lam_ar):
    """All of Z from one banded positive-definite solve.

    The unknowns are stacked period-major (index t*d + j).  The data term is
    block diagonal with blocks G_t = F diag(mask_t) F' / m, and the AR term
    sits on the band rows at offsets k*d (see _band_map).
    """
    u = band.shape[0] - 1
    ab = np.zeros(band.shape)
    ab.ravel()[band.data_at] = data.Wm @ (F.take(band.rows, 0) * F.take(band.cols, 0)).T
    ab[u] += lam_z
    if lam_ar > 0:
        c = np.concatenate((np.ones((len(phi), 1)), -phi), axis=1).ravel()
        ab += lam_ar * np.bincount(band.ar_at, c[band.ar_l] * c[band.ar_lk],
                                   minlength=ab.size).reshape(band.shape)
    rhs = (data.WYm @ F.T).ravel()

    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise IllConditionedError(
            "factor update system is not finite: the data or the loadings "
            "overflow; rescale Y or use the log1p transform")
    _, z, info = _pbsv(ab, rhs)
    if info > 0:
        jitter = 1e-10 * (1.0 + np.abs(ab[u]).max())
        warnings.warn("factor system near-singular; adding jitter "
                      "(consider lam_z > 0)", RuntimeWarning, stacklevel=2)
        ab[u] += jitter
        _, z, info = _pbsv(ab, rhs)
        if info > 0:
            raise IllConditionedError(
                "factor update system singular; set lam_z > 0")
    return z.reshape(-1, F.shape[0])


def _phi_step(Z, p):
    """AR(p) least squares of every factor at once.  Row s of the lag matrix
    holds Z_s .. Z_{s+p}; one product of it gives every factor's Gram matrix
    of its windows [Z_{t-p} .. Z_{t-1}, Z_t], and one stacked p x p solve
    answers their normal equations.  A singular factor system (a factor
    that is zero) takes lstsq's minimum-norm answer (``solve_stack``)."""
    T, d = Z.shape
    lags = Z.ravel()[d * np.arange(T - p)[:, None] + np.arange((p + 1) * d)]
    G = (lags.T @ lags).reshape(p + 1, d, p + 1, d).diagonal(axis1=1, axis2=3)
    phi, singular = solve_stack(G[:p, :p].transpose(2, 0, 1), G[:p, p].T)
    for exc in filter(None, singular.values()):
        raise exc
    return phi[:, ::-1]


def factorize(Y, mask=None, cfg: TrmfConfig | None = None, init=None) -> FactorModel:
    """Alternating minimization of the temporal-regularized objective.

    mask marks observed entries; None treats every finite entry as observed
    (NaNs unobserved).  init, when given, is a (Z, F, phi) warm start.
    Raises DensityError when fewer than DEFAULT_DENSITY_FLOOR of the entries
    are observed, unless cfg.allow_low_density (then it warns), since the
    missing dynamics are not reliably recoverable below roughly a quarter
    coverage.  Raises HierfcstError when lam_f is 0 and fewer items than
    cfg.rank are observed, as the problem then has no unique answer.  Raises
    IllConditionedError when a sweep goes non-finite (the data or the
    loadings overflow).
    """
    cfg = cfg or TrmfConfig()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise HierfcstError(f"Y must be 2-d, got shape {Y.shape}")
    if mask is None:
        mask = np.isfinite(Y)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != Y.shape:
        raise HierfcstError("mask shape must match Y")
    if not np.all(np.isfinite(Y[mask])):
        raise DomainError("observed entries must be finite")
    Y = np.nan_to_num(Y, nan=0.0)

    T, n = Y.shape
    d, p = cfg.rank, cfg.ar_order
    if T <= p:
        raise HierfcstError(f"need more than ar_order={p} periods, got {T}")
    m = int(mask.sum())
    if m == 0:
        raise DensityError("no observed entries")
    density = m / mask.size
    if density < DEFAULT_DENSITY_FLOOR:
        message = (f"observed density {density:.3f} below floor "
                   f"{DEFAULT_DENSITY_FLOOR:.2f}")
        if not cfg.allow_low_density:
            raise DensityError(message + "; set allow_low_density to override")
        warnings.warn(message + "; proceeding anyway", RuntimeWarning, stacklevel=2)
    observed = int(np.count_nonzero(mask.any(axis=0)))
    if cfg.lam_f == 0 and observed < d:
        # Then the problem has no unique answer: sweeps that differ only in
        # rounding end far apart.
        raise HierfcstError(f"lam_f = 0 needs at least rank = {d} observed items, "
                            f"got {observed}")

    if init is not None:
        Z, F, phi = (np.array(a, dtype=float, copy=True) for a in init)
        if Z.shape != (T, d) or F.shape != (d, n) or phi.shape != (d, p):
            raise HierfcstError("warm-start shapes do not match configuration")
    else:
        rng = np.random.default_rng(cfg.seed)
        scale = 0.5 / np.sqrt(d)
        Z = rng.uniform(-scale, scale, size=(T, d))
        F = rng.uniform(-scale, scale, size=(d, n))
        phi = np.zeros((d, p))

    data = _data_terms(Y, mask, m)
    band = _band_map(T, d, p)
    lams = (cfg.lam_f, cfg.lam_z, cfg.lam_ar)
    history = [_objective(data, Z, F, phi, *lams)]
    converged = False
    for _ in range(cfg.max_sweeps):
        F = _f_block(data, Z, cfg.lam_f)
        Z = _z_block(data, band, F, phi, cfg.lam_z, cfg.lam_ar)
        phi = _phi_step(Z, p)
        value = _objective(data, Z, F, phi, *lams)
        history.append(value)
        prev = history[-2]
        if prev - value < cfg.tol * (abs(prev) + 1e-12):
            converged = True
            break

    return FactorModel(Z=Z, F=F, phi=phi, lam_f=cfg.lam_f, lam_z=cfg.lam_z,
                       lam_ar=cfg.lam_ar, mask=mask, objective_history=history,
                       converged=converged)


def is_stationary(phi_j, tol: float = 1e-9) -> bool:
    """True when the AR characteristic roots lie inside the unit disk."""
    poly = np.concatenate([[1.0], -np.asarray(phi_j, dtype=float)])
    roots = np.roots(poly)
    return bool(roots.size == 0 or np.max(np.abs(roots)) < 1.0 + tol)


def forecast(model: FactorModel, horizon: int) -> np.ndarray:
    """Dynamic multi-step forecast: factor paths roll the AR recursion
    forward on prior forecasts, then map through the loadings.

    Returns the raw horizon x n matrix without clipping; quantity semantics
    (clipping at zero) belong to the reporting layer.
    """
    _warn_if_non_stationary(model.phi)
    return forecast_factors(model, horizon) @ model.F


def _warn_if_non_stationary(phi):
    if not all(is_stationary(phi_j) for phi_j in phi):
        warnings.warn("non-stationary AR coefficients; dynamic forecasts may "
                      "diverge", RuntimeWarning, stacklevel=3)


def rolling_refit(Y_initial, stream, cfg: TrmfConfig | None = None):
    """One-step forecasts with re-estimation as new rows arrive.

    For each incoming row: emit the one-step forecast from the current
    model, append the row (the window expands), refit warm-started from the
    previous (Z, F, phi) with the forecast factor state as the new row's
    initialization.  Returns the list of one-step forecasts (one per
    streamed row).
    """
    cfg = cfg or TrmfConfig()
    Y = np.asarray(Y_initial, dtype=float)
    model = factorize(Y, cfg=cfg)
    forecasts = []
    for row in stream:
        row = np.asarray(row, dtype=float).reshape(-1)
        if row.shape[0] != Y.shape[1]:
            raise HierfcstError("streamed row width does not match Y")
        # The one-step forecast and the new row's warm start share one roll.
        _warn_if_non_stationary(model.phi)
        z_next = forecast_factors(model, 1)
        forecasts.append((z_next @ model.F)[0])
        Y = np.vstack([Y, row[None, :]])
        Z0 = np.vstack([model.Z, z_next])
        model = factorize(Y, cfg=cfg, init=(Z0, model.F, model.phi))
    return forecasts


def forecast_factors(model: FactorModel, horizon: int) -> np.ndarray:
    """Factor-space forecasts (horizon x d): each step is the AR(p)
    combination of the previous p factor rows, forecasts included."""
    if horizon < 1:
        raise HierfcstError("horizon must be >= 1")
    Z, phi = model.Z, model.phi
    d, p = phi.shape
    hist = [Z[t] for t in range(max(0, Z.shape[0] - p), Z.shape[0])]
    if len(hist) < p:
        raise HierfcstError("factor history shorter than AR order")
    out = np.empty((horizon, d))
    for step in range(horizon):
        z_new = np.zeros(d)
        for i in range(1, p + 1):
            z_new += phi[:, i - 1] * hist[-i]
        out[step] = z_new
        hist.append(z_new)
    return out
