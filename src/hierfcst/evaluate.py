"""SMAPE scoring, the fixed train/test backtest, and the model leaderboard.

Forecasts are always scored in original quantity units on the gross demand
series q^0.  Evaluation is walk-forward: a model is fitted once on the
training periods and each test period is predicted from information
available strictly before it (actuals are revealed as time advances).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import trmf as trmf_mod
from .dataset import DEFAULT_MAX_LEAD, PreorderTensor
from .errors import HierfcstError
from .features import extract_features
from .models import ModelSpec, fit, fit_arx
from .preprocess import (TargetTransform, build_training_set, diagonal_feed,
                         feature_frame, window_index)

# Lag count for the small-feature (non-diagonal) regression baseline.
NODF_LAGS = 3

# Errors that void one forecast: inside a per-item loop they void only that
# item, around a spec-wide fit the whole spec.
ITEM_ERRORS = (HierfcstError, np.linalg.LinAlgError)


def smape(forecast, actual) -> float:
    """Symmetric mean absolute percentage error in [0, 200].

    (200/n) * sum |F_t - A_t| / (|A_t| + |F_t|), with a 0/0 term counting
    as 0: a zero forecast of a zero actual is a correct prediction.
    """
    F = np.asarray(forecast, dtype=float).ravel()
    A = np.asarray(actual, dtype=float).ravel()
    if F.shape[0] != A.shape[0]:
        raise HierfcstError(f"length mismatch: {F.shape[0]} vs {A.shape[0]}")
    if F.shape[0] == 0:
        raise HierfcstError("smape needs at least one point")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(A))):
        raise HierfcstError("smape requires finite inputs")
    den = np.abs(A) + np.abs(F)
    num = np.abs(F - A)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(200.0 * np.mean(terms))


@dataclass(frozen=True)
class BacktestSplit:
    """Contiguous train periods [0, train) followed by test periods."""

    train_periods: int = 37
    test_periods: int = 8

    def __post_init__(self):
        if self.train_periods < 2 or self.test_periods < 1:
            raise HierfcstError("need at least 2 train and 1 test periods")

    @property
    def train_range(self):
        return range(self.train_periods)

    @property
    def test_range(self):
        return range(self.train_periods, self.train_periods + self.test_periods)

    def validate(self, n_periods: int):
        if self.train_periods + self.test_periods > n_periods:
            raise HierfcstError(
                f"split needs {self.train_periods + self.test_periods} periods, "
                f"tensor has {n_periods}")


# ---------------------------------------------------------------------------
# Per-family walk-forward forecasting
# ---------------------------------------------------------------------------

def _fit_item_transforms(tensor, kind, split):
    tfs = {}
    for i in range(tensor.n_items):
        tfs[i] = TargetTransform.fit(kind, tensor.values[i, list(split.train_range)])
    return tfs


def _failure_message(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _item_rows(n_items, width, forecast_item, failures):
    """(n_items, width) array of the rows forecast_item(i) returns.

    An item whose forecast raises one of ITEM_ERRORS keeps a NaN row and
    gets failures[i] = "<ExceptionClass>: message"; the other items go on.
    """
    out = np.full((n_items, width), np.nan)
    for i in range(n_items):
        try:
            out[i] = forecast_item(i)
        except ITEM_ERRORS as exc:
            failures[i] = _failure_message(exc)
    return out


def _df_forecasts(tensor, spec, split, W, H, failures):
    """DF-mode forecasts of q^0 over the test periods for every item.

    Returns (forecasts (n_items, n_test), diagonal_smape per item).
    """
    T = tensor.n_periods
    tfs = _fit_item_transforms(tensor, spec.transform, split)
    train_anchors = range(split.train_periods - W + 1)

    shared = None
    if spec.feeding == "df_all_items":
        sset = build_training_set(tensor, "all", W, H, anchors=train_anchors,
                                  transforms=tfs)
        shared = fit(spec, sset.X, sset.Y)

    # Test period tau is read off the lead-0 cell (tau - a, 0) of the frame
    # anchored at a = tau - 1 (one step ahead) whenever that frame's input
    # cells fit in the tensor; the last periods fall back to deeper
    # diagonal positions of the final feasible anchor T - W + 1.
    test = np.asarray(split.test_range)
    anchors = np.minimum(test - 1, T - W + 1)
    y_index = np.array(window_index(W, H)[1])
    lead0 = np.flatnonzero(y_index[:, 1] == 0)  # (s, 0) sits at s - 1
    picks = (np.arange(len(test)), lead0[test - anchors - 1])
    # Multi-horizon diagonal targets: the frame anchored on the last
    # training period has inputs known by the end of training and its
    # whole y block inside the test zone.
    diag_anchor = split.train_periods - 1
    has_diag = diag_anchor + W - 1 < T
    if has_diag:
        anchors = np.append(anchors, diag_anchor)

    def forecast_item(i):
        model = shared
        if model is None:
            sset = build_training_set(tensor, i, W, H, anchors=train_anchors,
                                      transforms=tfs)
            model = fit(spec, sset.X, sset.Y)
        tf = tfs[i]
        x = tf.forward(feature_frame(tensor, i, anchors, W, H))
        y_hat = np.maximum(tf.inverse(model.predict_transformed(x)), 0.0)
        diag = (smape(y_hat[-1], diagonal_feed(tensor, i, diag_anchor, W, H).y)
                if has_diag else 0.0)
        return np.append(y_hat[picks], diag)

    rows = _item_rows(tensor.n_items, len(test) + 1, forecast_item, failures)
    return rows[:, :-1], rows[:, -1]


def _nodf_feature_row(series_tf, series_raw, tau):
    lags = [series_tf[tau - l] for l in range(1, NODF_LAGS + 1)]
    stats = extract_features(series_raw[:tau])
    return np.concatenate([lags, stats])


def _nodf_forecasts(tensor, spec, split, failures):
    """Small-feature regression on the gross series, one model per item."""

    def forecast_item(i):
        raw = tensor.gross_series(i)
        tf = TargetTransform.fit(spec.transform, raw[list(split.train_range)])
        series_tf = tf.forward(raw)
        rows, targets = [], []
        for tau in range(NODF_LAGS, split.train_periods):
            rows.append(_nodf_feature_row(series_tf, raw, tau))
            targets.append(series_tf[tau])
        model = fit(spec, np.array(rows), np.array(targets)[:, None], transform=tf)
        return [model.predict(_nodf_feature_row(series_tf, raw, tau)[None, :])[0, 0]
                for tau in split.test_range]

    return _item_rows(tensor.n_items, split.test_periods, forecast_item, failures)


def _arx_exog(tensor, item, tf):
    """Pre-order columns known before the delivery period (leads >= 1)."""
    if tensor.n_leads < 2:
        return None
    exog = tensor.values[item, :, 1:]
    return tf.forward(exog)


def _arx_forecasts(tensor, spec, split, failures):
    p = spec.hyperparams["p"]
    use_exog = spec.hyperparams["exog"] == "preorders"

    def forecast_item(i):
        raw = tensor.gross_series(i)
        tf = TargetTransform.fit(spec.transform, raw[list(split.train_range)])
        series_tf = tf.forward(raw)
        exog = _arx_exog(tensor, i, tf) if use_exog else None
        train_exog = None if exog is None else exog[:split.train_periods]
        model = fit_arx(series_tf[:split.train_periods], train_exog, p, spec=spec)
        return [max(float(tf.inverse(model.payload.one_step(
                    series_tf[:tau], None if exog is None else exog[tau]))), 0.0)
                for tau in split.test_range]

    return _item_rows(tensor.n_items, split.test_periods, forecast_item, failures)


def _trmf_forecasts(tensor, spec, split):
    """Joint factorization of the gross-demand matrix with one-step
    re-estimated forecasts across the test periods (the recommended use)."""
    cfg = trmf_mod.TrmfConfig(**spec.hyperparams, allow_low_density=True)
    tfs = _fit_item_transforms(tensor, spec.transform, split)
    Y = np.empty((tensor.n_periods, tensor.n_items))
    for i in range(tensor.n_items):
        Y[:, i] = tfs[i].forward(tensor.gross_series(i))
    observed = tensor.observed_mask[:, :, 0].T.copy()
    Y = np.where(observed, Y, np.nan)

    Y0 = Y[:split.train_periods]
    stream = [Y[tau] for tau in split.test_range]
    rows = trmf_mod.rolling_refit(Y0, stream, cfg)

    out = np.zeros((tensor.n_items, split.test_periods))
    for c, row in enumerate(rows):
        for i in range(tensor.n_items):
            out[i, c] = max(float(tfs[i].inverse(row[i])), 0.0)
    return out


def forecast_matrix(tensor, spec: ModelSpec, split: BacktestSplit,
                    W=None, H=None):
    """Test-period q^0 forecasts for every item under one spec.

    Returns (forecasts (n_items, n_test), extras dict).  The per-item
    families fit each item on its own: an item whose fit or forecast fails
    keeps a NaN row and extras["failures"] maps its index to the error.
    """
    split.validate(tensor.n_periods)
    failures = {}
    extras = {"failures": failures}
    if spec.family == "trmf":
        return _trmf_forecasts(tensor, spec, split), extras
    if spec.family == "arx":
        return _arx_forecasts(tensor, spec, split, failures), extras
    if spec.feeding in ("df_one_by_one", "df_all_items"):
        if H is None:
            H = min(tensor.n_leads, DEFAULT_MAX_LEAD)
        if W is None:
            W = H + 1
        fc, diag = _df_forecasts(tensor, spec, split, W, H, failures)
        extras["diagonal_smape"] = diag
        return fc, extras
    return _nodf_forecasts(tensor, spec, split, failures), extras


# ---------------------------------------------------------------------------
# Leaderboard
# ---------------------------------------------------------------------------

@dataclass
class LeaderboardRow:
    spec_name: str
    mean_smape: float
    median_smape: float
    n_items: int
    best_count: int


@dataclass
class Leaderboard:
    rows: list
    scores: dict                 # spec_name -> {item_id: smape}
    best_model: dict             # item_id -> spec_name
    failures: list               # (spec_name, item_id, message)
    forecasts: dict              # (spec_name, item_id) -> np.ndarray
    history: dict                # item_id -> full q^0 series
    split: BacktestSplit
    scored_items: list = field(default_factory=list)

    def row(self, spec_name) -> LeaderboardRow:
        for r in self.rows:
            if r.spec_name == spec_name:
                return r
        raise KeyError(spec_name)

    def to_csv(self) -> str:
        lines = ["spec,mean_smape,median_smape,n_items,best_count"]
        for r in self.rows:
            lines.append(f"{r.spec_name},{r.mean_smape:.12g},"
                         f"{r.median_smape:.12g},{r.n_items},{r.best_count}")
        return "\n".join(lines) + "\n"

    def best_counts(self) -> dict:
        counts = {}
        for name in sorted(self.scores):
            counts[name] = sum(1 for v in self.best_model.values() if v == name)
        return counts


def backtest(tensor: PreorderTensor, specs, split: BacktestSplit | None = None,
             W=None, H=None) -> Leaderboard:
    """Fit every spec on the training periods and score test-period SMAPE.

    Mean/median per spec are computed over the items every spec scored
    (identical item set across rows); a per-item fitting failure is
    recorded as (spec, item, "<ExceptionClass>: message") and excludes that
    model from the item's argmin instead of being silently scored, while
    the spec's other items are still scored.  Ties in the per-item best
    model break by spec name.
    """
    split = split or BacktestSplit()
    split.validate(tensor.n_periods)
    specs = list(specs)
    if not specs:
        raise HierfcstError("no specs to backtest")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise HierfcstError(f"duplicate spec names: {sorted(names)}")

    test_idx = list(split.test_range)
    actuals = {tensor.items[i]: tensor.gross_series(i)[test_idx]
               for i in range(tensor.n_items)}

    scores = {name: {} for name in names}
    forecasts = {}
    failures = []
    for spec, name in zip(specs, names):
        try:
            fc, extras = forecast_matrix(tensor, spec, split, W=W, H=H)
            failed = extras["failures"]
        except ITEM_ERRORS as exc:
            failed = dict.fromkeys(range(tensor.n_items), _failure_message(exc))
        for i, item in enumerate(tensor.items):
            if i in failed:
                failures.append((name, item, failed[i]))
                continue
            forecasts[(name, item)] = fc[i]
            scores[name][item] = smape(fc[i], actuals[item])

    # Mean/median rows stay comparable: aggregate over the items scored by
    # every spec that scored anything at all (wholesale failures drop out).
    common = None
    for name in names:
        scored = set(scores[name])
        if not scored:
            continue
        common = scored if common is None else common & scored
    common = common or set()
    scored_items = sorted(common, key=lambda it: tensor.items.index(it))

    best_model = {}
    for item in tensor.items:
        candidates = [(scores[name][item], name) for name in names
                      if item in scores[name]]
        if candidates:
            best_model[item] = min(candidates)[1]

    rows = []
    for name in names:
        vals = [scores[name][it] for it in scored_items if it in scores[name]]
        mean = float(np.mean(vals)) if vals else float("nan")
        med = float(np.median(vals)) if vals else float("nan")
        count = sum(1 for v in best_model.values() if v == name)
        rows.append(LeaderboardRow(spec_name=name, mean_smape=mean,
                                   median_smape=med, n_items=len(vals),
                                   best_count=count))
    # A spec that failed for every item has a NaN mean and is listed last.
    rows.sort(key=lambda r: (np.nan_to_num(r.mean_smape, nan=np.inf), r.spec_name))

    history = {tensor.items[i]: tensor.gross_series(i).copy()
               for i in range(tensor.n_items)}
    return Leaderboard(rows=rows, scores=scores, best_model=best_model,
                       failures=failures, forecasts=forecasts, history=history,
                       split=split, scored_items=scored_items)


# ---------------------------------------------------------------------------
# Per-item report with the lag-1 mimicry diagnostic
# ---------------------------------------------------------------------------

def _corr(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def lag1_mimicry(forecast, actual, prev_actual) -> tuple:
    """Detect forecasts that merely echo the previous actual value.

    Compares corr(F_t, A_{t-1}) against corr(F_t, A_t); the flag fires when
    the lagged correlation exceeds the contemporaneous one by more than 0.1
    (a low SMAPE can hide a model that just repeats the last observation).
    Returns (flag, corr_lagged, corr_now).
    """
    F = np.asarray(forecast, dtype=float).ravel()
    A = np.asarray(actual, dtype=float).ravel()
    lagged = np.concatenate([[float(prev_actual)], A[:-1]])
    corr_lag = _corr(F, lagged)
    corr_now = _corr(F, A)
    return corr_lag > corr_now + 0.1, corr_lag, corr_now


@dataclass
class ForecastReport:
    item_id: str
    spec_name: str
    periods: list
    actual: np.ndarray
    forecast: np.ndarray
    smape: float
    corr_lagged: float
    corr_now: float
    mimicry_flag: bool

    def to_csv(self) -> str:
        lines = ["period,actual,forecast"]
        for t, a, f in zip(self.periods, self.actual, self.forecast):
            lines.append(f"{t},{a:.12g},{f:.12g}")
        return "\n".join(lines) + "\n"


def best_forecast_report(board: Leaderboard, item_id: str) -> ForecastReport:
    """Plot-ready forecast/actual pairs for the item's best model, with the
    lag-1 mimicry diagnostic."""
    if item_id not in board.best_model:
        raise HierfcstError(f"item {item_id!r} was not scored")
    spec_name = board.best_model[item_id]
    forecast = board.forecasts[(spec_name, item_id)]
    periods = list(board.split.test_range)
    actual = board.history[item_id][periods]
    prev = board.history[item_id][periods[0] - 1]
    flag, corr_lag, corr_now = lag1_mimicry(forecast, actual, prev)
    return ForecastReport(
        item_id=item_id, spec_name=spec_name, periods=periods,
        actual=actual, forecast=forecast,
        smape=smape(forecast, actual),
        corr_lagged=corr_lag, corr_now=corr_now, mimicry_flag=flag)
