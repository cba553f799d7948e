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
from .features import FEATURE_NAMES, NONFINITE_SERIES, extract_features
from .models import STACKED_FAMILIES, ModelSpec, fit, fit_arx, lag_matrix
from .preprocess import (TargetTransform, build_training_set, feature_frame,
                         gather_cells, window_index)

# Lag count for the small-feature (non-diagonal) regression baseline.
NODF_LAGS = 3

# Errors that void one forecast: inside a per-item loop they void only that
# item, around a spec-wide fit the whole spec.
ITEM_ERRORS = (HierfcstError, np.linalg.LinAlgError)

# Items per stacked fit: bounds the (items, rows, rows) kernel temporaries
# and the number of trees a stacked tree fit holds at once.
ITEM_BLOCK = 256

_NONFINITE = "smape requires finite inputs"


def smape_rows(forecast, actual):
    """SMAPE of each row (last axis) of forecast against actual, in [0, 200].

    (200/n) * sum |F_t - A_t| / (|A_t| + |F_t|), with a 0/0 term counting
    as 0: a zero forecast of a zero actual is a correct prediction.  No
    checks: callers keep non-finite entries out (smape raises on them).
    """
    F = np.asarray(forecast, dtype=float)
    A = np.asarray(actual, dtype=float)
    den = np.abs(A) + np.abs(F)
    num = np.abs(F - A)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return 200.0 * np.mean(terms, axis=-1)


def smape(forecast, actual) -> float:
    """Symmetric mean absolute percentage error in [0, 200] of one series
    (the formula of smape_rows)."""
    F = np.asarray(forecast, dtype=float).ravel()
    A = np.asarray(actual, dtype=float).ravel()
    if F.shape[0] != A.shape[0]:
        raise HierfcstError(f"length mismatch: {F.shape[0]} vs {A.shape[0]}")
    if F.shape[0] == 0:
        raise HierfcstError("smape needs at least one point")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(A))):
        raise HierfcstError(_NONFINITE)
    return float(smape_rows(F, A))


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

def _failure_message(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _item_transforms(tensor, kind, split):
    """Every item's transform, fitted on its training periods (all leads)."""
    return TargetTransform.fit_items(kind, tensor.values[:, :split.train_periods])


def _own_models(spec, X, Y, xs, failures):
    """Item i's model fitted on X[i], Y[i] predicts xs[c][i] in transformed
    space, for every (items, rows, k) array of xs by one predict call each:
    one (items, rows, targets) array per entry of xs, NaN for the items that
    fail.  A STACKED_FAMILIES family fits blocks of items at once; the
    others, and a block whose stacked fit raises (such as on one item's
    non-finite rows), fit one item at a time, so an error lands on its own
    item.  Items already in failures are not fitted alone."""
    raws = [np.full(x.shape[:2] + Y.shape[-1:], np.nan) for x in xs]

    def predict(model, at):
        for raw, x in zip(raws, xs):
            raw[at] = model.predict_transformed(x[at])

    singles = []
    if spec.family in STACKED_FAMILIES:
        for start in range(0, len(X), ITEM_BLOCK):
            block = slice(start, start + ITEM_BLOCK)
            try:
                model = fit(spec, X[block], Y[block])
            except ITEM_ERRORS:
                singles.extend(range(len(X))[block])
                continue
            predict(model, block)
            for k, exc in model.payload.failures.items():
                failures[start + k] = _failure_message(exc)
    else:
        singles = range(len(X))
    for i in (i for i in singles if i not in failures):
        try:
            predict(fit(spec, X[i], Y[i]), i)
        except ITEM_ERRORS as exc:
            failures[i] = _failure_message(exc)
    return raws


def frame_leads(tensor) -> int:
    """Leads H of the diagonal-feeding frames fitted on a tensor."""
    return min(tensor.n_leads, DEFAULT_MAX_LEAD)


# A spec's design is everything its forecasts read before the fit: what
# diagonal feeding or the no-feeding rows make of the tensor under one
# transform kind.  backtest builds each design once and lends it, read-only,
# to every spec of that (feeding, transform) pair.
DF_FEEDINGS = ("df_one_by_one", "df_all_items")


def _design_key(spec):
    """("df" or "nodf", transform kind) of the design the spec reads; None
    for arx and trmf, which read the tensor directly."""
    if spec.family in ("arx", "trmf"):
        return None
    return ("df" if spec.feeding in DF_FEEDINGS else "nodf", spec.transform)


def _build_design(tensor, key, split):
    """The design of a key, its arrays made read-only: a fit that writes
    into one raises instead of corrupting the specs that read it later."""
    mode, kind = key
    design = (_df_design if mode == "df" else _nodf_design)(tensor, kind, split)
    tf = design[0]
    for a in (*design[1:], tf.vmin, tf.vmax):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return design


def _df_design(tensor, kind, split):
    """(tf, X, Y, x, picks, diag): the items' transforms; the training rows
    X, Y (items, anchors, cells) of every frame anchored in the training
    periods; the test frames x (items, frames, cells); the (frame, cell)
    picks of the test periods' one-step forecasts; and the actual cells of
    the diagonal frame, None when the tensor ends before it."""
    T, n, H = tensor.n_periods, tensor.n_items, frame_leads(tensor)
    tf = _item_transforms(tensor, kind, split)
    train_anchors = range(split.train_periods - H)
    sset = build_training_set(tensor, "all", H, anchors=train_anchors, transforms=tf)

    # Test period tau is read off the lead-0 cell (tau - a, 0) of the frame
    # anchored at a = tau - 1 (one step ahead) whenever that frame's input
    # cells fit in the tensor; the last periods fall back to deeper
    # diagonal positions of the final feasible anchor T - H.
    test = np.asarray(split.test_range)
    anchors = np.minimum(test - 1, T - H)
    y_index = window_index(H)[1]
    lead0 = np.flatnonzero(np.array(y_index)[:, 1] == 0)  # (s, 0) sits at s - 1
    picks = (np.arange(len(test)), lead0[test - anchors - 1])
    # Multi-horizon diagonal targets: the frame anchored on the last
    # training period has inputs known by the end of training and its
    # whole y block inside the test zone.
    diag_anchor = split.train_periods - 1
    has_diag = diag_anchor + H < T
    if has_diag:
        anchors = np.append(anchors, diag_anchor)

    x = tf.forward(feature_frame(tensor, np.arange(n), anchors, H))
    diag = None
    if has_diag:
        diag = gather_cells(tensor, np.arange(n), [diag_anchor], y_index)[:, 0]
    rows = (n, len(train_anchors), -1)
    return tf, sset.X.reshape(rows), sset.Y.reshape(rows), x, picks, diag


def _df_forecasts(spec, design, failures):
    """DF-mode forecasts of q^0 over the test periods for every item.

    Returns (forecasts (n_items, n_test), diagonal_smape per item).
    """
    tf, X, Y, x, picks, diag_actual = design
    n = len(X)
    if spec.feeding == "df_all_items":
        raw = fit(spec, X.reshape(-1, X.shape[-1]),
                  Y.reshape(-1, Y.shape[-1])).predict_transformed(x)
    else:
        raw, = _own_models(spec, X, Y, [x], failures)
    y_hat = np.maximum(tf.inverse(raw), 0.0)
    diag = np.zeros(n)
    if diag_actual is not None:
        diag = smape_rows(y_hat[:, -1], diag_actual)
        # As smape raises on it, a non-finite diagonal forecast fails its item.
        for i in np.flatnonzero(~np.isfinite(y_hat[:, -1]).all(axis=1)).tolist():
            failures.setdefault(i, _failure_message(HierfcstError(_NONFINITE)))
    out = np.column_stack([y_hat[:, picks[0], picks[1]], diag])
    out[list(failures)] = np.nan
    return out[:, :-1], out[:, -1]


def _nodf_rows(raw, series, taus):
    """(items, periods, NODF_LAGS + 7) no-feeding rows of every item: for
    each period tau, the NODF_LAGS transformed values before it (latest
    first), then the features of the raw series before it."""
    return np.stack([np.column_stack([series[:, tau - NODF_LAGS:tau][:, ::-1],
                                      extract_features(raw[:, :tau])])
                     for tau in taus], axis=1)


def _nodf_design(tensor, kind, split):
    """(tf, X, Y, x, nonfinite): the items' transforms of the gross series,
    the no-feeding rows X and targets Y (items, periods, 1) of the training
    periods and the rows x of the test periods, and the items whose series
    is not finite before the last test period.  Such an item's rows, whose
    features cannot be extracted, are NaN."""
    train = split.train_periods
    if train <= NODF_LAGS:
        raise HierfcstError(f"the no-feeding regression needs more than {NODF_LAGS} "
                            f"training periods, got {train}")
    raw = tensor.values[:, :, 0]
    tf = TargetTransform.fit_items(kind, raw[:, :train])
    series = tf.forward(raw)
    # The last row reads the series before the last test period.
    finite = np.isfinite(raw[:, :split.test_range[-1]]).all(axis=1)

    def rows(taus):
        out = np.full((len(raw), len(taus), NODF_LAGS + len(FEATURE_NAMES)), np.nan)
        out[finite] = _nodf_rows(raw[finite], series[finite], taus)
        return out

    return (tf, rows(range(NODF_LAGS, train)), series[:, NODF_LAGS:train, None],
            rows(split.test_range), ~finite)


def _nodf_forecasts(spec, design, failures):
    """Small-feature regression on the gross series, one model per item,
    each test period predicted from its own row."""
    tf, X, Y, x, nonfinite = design
    for i in np.flatnonzero(nonfinite).tolist():
        failures[i] = _failure_message(HierfcstError(NONFINITE_SERIES))
    # One predict call per test row: a single-row product takes the BLAS
    # path a multi-row one does not, and the last bit of a forecast with it.
    raws = _own_models(spec, X, Y, [x[:, [c]] for c in range(x.shape[1])], failures)
    out = tf.inverse(np.concatenate(raws, axis=1)[..., 0])
    if spec.clip_negative:
        out = np.maximum(out, 0.0)
    return out


def _arx_forecasts(tensor, spec, split, failures):
    """One AR(p) per item, fitted on the training periods of its gross
    series (and pre-order columns, with exog = preorders) by one stacked
    least squares; each test period is predicted one step ahead from the
    actuals before it."""
    p = spec.hyperparams["p"]
    train = split.train_periods
    gross = tensor.values[:, :, 0]
    tf = TargetTransform.fit_items(spec.transform, gross[:, :train])
    series = tf.forward(gross)
    exog = None
    if spec.hyperparams["exog"] == "preorders" and tensor.n_leads >= 2:
        # Pre-order columns known before the delivery period (leads >= 1).
        exog = tf.forward(tensor.values[:, :, 1:])
    model = fit_arx(series[:, :train], None if exog is None else exog[:, :train],
                    p, spec=spec)
    for i, exc in model.payload.failures.items():
        failures[i] = _failure_message(exc)
    rows, _ = lag_matrix(series, p, exog)          # the design row of every t >= p
    raw = model.predict_transformed(rows[:, np.asarray(split.test_range) - p])
    return np.maximum(tf.inverse(raw[..., 0]), 0.0)


def _trmf_forecasts(tensor, spec, split):
    """Joint factorization of the gross-demand matrix with one-step
    re-estimated forecasts across the test periods (the recommended use)."""
    cfg = trmf_mod.TrmfConfig(**spec.hyperparams, allow_low_density=True)
    tf = _item_transforms(tensor, spec.transform, split)
    Y = tf.forward(tensor.values[:, :, 0]).T
    observed = tensor.observed_mask[:, :, 0].T.copy()
    Y = np.where(observed, Y, np.nan)

    Y0 = Y[:split.train_periods]
    stream = [Y[tau] for tau in split.test_range]
    rows = trmf_mod.rolling_refit(Y0, stream, cfg)
    return np.maximum(tf.inverse(np.array(rows).T), 0.0)


def forecast_matrix(tensor, spec: ModelSpec, split: BacktestSplit):
    """Test-period q^0 forecasts for every item under one spec.

    Returns (forecasts (n_items, n_test), extras dict).  An item whose fit
    fails, or whose forecasts are not all finite, keeps a NaN row and
    extras["failures"] maps its index to the error; the other items are
    still forecast.
    """
    split.validate(tensor.n_periods)
    key = _design_key(spec)
    return _forecasts(tensor, spec, split,
                      None if key is None else _build_design(tensor, key, split))


def _forecasts(tensor, spec, split, design):
    """forecast_matrix of a spec whose design is given (None for arx and
    trmf)."""
    failures = {}
    extras = {"failures": failures}
    if spec.family == "trmf":
        fc = _trmf_forecasts(tensor, spec, split)
    elif spec.family == "arx":
        fc = _arx_forecasts(tensor, spec, split, failures)
    elif spec.feeding in DF_FEEDINGS:
        fc, extras["diagonal_smape"] = _df_forecasts(spec, design, failures)
    else:
        fc = _nodf_forecasts(spec, design, failures)
    # As smape raises on it, a non-finite forecast fails its item.
    for i in np.flatnonzero(~np.isfinite(fc).all(axis=1)).tolist():
        failures.setdefault(i, _failure_message(HierfcstError(_NONFINITE)))
    fc[list(failures)] = np.nan
    return fc, extras


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


def backtest(tensor: PreorderTensor, specs,
             split: BacktestSplit | None = None) -> Leaderboard:
    """Fit every spec on the training periods and score test-period SMAPE.

    Specs of one feeding mode and transform kind share one design (the
    diagonal-feeding frames or the no-feeding rows), built once.
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

    n = tensor.n_items
    gross = tensor.values[:, :, 0]
    actual = gross[:, split.train_periods:split.train_periods + split.test_periods]

    # scores[s, i]: SMAPE of spec s on item i, NaN where it failed.
    scores = np.full((len(specs), n), np.nan)
    forecasts = {}
    failures = []
    keys = [_design_key(spec) for spec in specs]
    last_use = {key: s for s, key in enumerate(keys)}
    designs = {}                # built once, dropped after its last spec
    for s, (spec, name, key) in enumerate(zip(specs, names, keys)):
        try:
            # A design whose build raises is not kept: each spec that
            # needs it builds it again and fails with the same error.
            if key is not None and key not in designs:
                designs[key] = _build_design(tensor, key, split)
            fc, extras = _forecasts(tensor, spec, split, designs.get(key))
            failed = extras["failures"]
        except ITEM_ERRORS as exc:
            fc = np.full(actual.shape, np.nan)
            failed = dict.fromkeys(range(n), _failure_message(exc))
        if last_use[key] == s:
            designs.pop(key, None)
        for i in sorted(failed):
            failures.append((name, tensor.items[i], failed[i]))
        ok = np.ones(n, dtype=bool)
        ok[list(failed)] = False
        scores[s, ok] = smape_rows(fc[ok], actual[ok])
        forecasts.update(((name, tensor.items[i]), fc[i]) for i in np.flatnonzero(ok))

    # Mean/median rows stay comparable: aggregate over the items scored by
    # every spec that scored anything at all (wholesale failures drop out).
    scored = ~np.isnan(scores)
    active = scored.any(axis=1)
    common = scored[active].all(axis=0) if active.any() else np.zeros(n, dtype=bool)
    scored_items = [tensor.items[i] for i in np.flatnonzero(common)]

    # The per-item argmin over specs in name order breaks ties by name.
    by_name = np.argsort(names, kind="stable")
    best = by_name[np.argmin(np.where(scored, scores, np.inf)[by_name], axis=0)]
    has_best = scored.any(axis=0)
    best_model = {tensor.items[i]: names[best[i]] for i in np.flatnonzero(has_best)}
    best_count = np.bincount(best[has_best], minlength=len(specs))

    rows = []
    for s, name in enumerate(names):
        vals = scores[s, common & scored[s]]
        mean = float(np.mean(vals)) if vals.size else float("nan")
        med = float(np.median(vals)) if vals.size else float("nan")
        rows.append(LeaderboardRow(spec_name=name, mean_smape=mean,
                                   median_smape=med, n_items=int(vals.size),
                                   best_count=int(best_count[s])))
    # A spec that failed for every item has a NaN mean and is listed last.
    rows.sort(key=lambda r: (np.nan_to_num(r.mean_smape, nan=np.inf), r.spec_name))

    score_maps = {name: dict(zip((tensor.items[i] for i in np.flatnonzero(scored[s])),
                                 scores[s, scored[s]].tolist()))
                  for s, name in enumerate(names)}
    return Leaderboard(rows=rows, scores=score_maps, best_model=best_model,
                       failures=failures, forecasts=forecasts,
                       history=dict(zip(tensor.items, gross.copy())),
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
