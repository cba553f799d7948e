"""Diagonal Feeding reshaping and invertible target transforms.

A W x H window of the (delivery period x lead time) quantity matrix,
anchored at period t, splits into cells already known at t (inputs x) and
future cells (targets y): cell (s, h) holds q_{t+s}^h and is known at t
exactly when s <= h.  With W = H + 1 the split runs down the diagonal and
|x| = |y| = H(H+1)/2.  Reshaping every anchor this way turns anticipatory
pre-order data into a plain multi-output regression problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dataset import PreorderTensor
from .errors import DomainError, HierfcstError, NotFittedError, WindowRangeError

SUPERVISED_CACHE_VERSION = 1

TRANSFORM_KINDS = ("identity", "log1p", "minmax")


@dataclass
class TargetTransform:
    """Invertible per-series value transform (identity, log1p or minmax)."""

    kind: str = "identity"
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise HierfcstError(
                f"unknown transform {self.kind!r}; expected one of {TRANSFORM_KINDS}")

    @classmethod
    def fit(cls, kind: str, values) -> "TargetTransform":
        """Fit transform parameters on the given values (min/max for minmax)."""
        if kind == "minmax":
            values = np.asarray(values, dtype=float)
            if values.size == 0:
                raise HierfcstError("cannot fit minmax on empty values")
            return cls(kind=kind, vmin=float(values.min()), vmax=float(values.max()))
        return cls(kind=kind)

    @property
    def fitted(self) -> bool:
        return self.kind != "minmax" or self.vmin is not None

    def forward(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v.copy()
        if self.kind == "log1p":
            if np.any(v <= -1.0 + 1e-12):
                raise DomainError("log1p transform requires values > -1")
            return np.log1p(v)
        if not self.fitted:
            raise NotFittedError("minmax transform used before fit")
        span = self.vmax - self.vmin
        if span == 0.0:
            # Degenerate series: every value maps to 0.
            return np.zeros_like(v)
        return (v - self.vmin) / span

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v.copy()
        if self.kind == "log1p":
            return np.expm1(v)
        if not self.fitted:
            raise NotFittedError("minmax transform used before fit")
        span = self.vmax - self.vmin
        if span == 0.0:
            return np.full_like(v, self.vmin)
        return v * span + self.vmin


def window_index(W: int, H: int):
    """Row-major (s, h) index lists for the known/future cell partition.

    Requires the square-cornered geometry W = H + 1; every cell of the
    window lands in exactly one list (x if s <= h, y otherwise).
    """
    if H < 1:
        raise HierfcstError(f"H must be >= 1, got {H}")
    if W != H + 1:
        raise HierfcstError(f"window must satisfy W = H + 1, got W={W}, H={H}")
    x_index = [(s, h) for s in range(W) for h in range(H) if s <= h]
    y_index = [(s, h) for s in range(W) for h in range(H) if s > h]
    return x_index, y_index


@dataclass
class SupervisedFrame:
    """One diagonal-feeding sample: known-cell inputs x, future-cell targets y."""

    item: int
    anchor: int
    x: np.ndarray
    y: np.ndarray
    x_index: list
    y_index: list


def _gather(tensor: PreorderTensor, items, anchors, index) -> np.ndarray:
    """values[item, anchor + s, h] for every item, anchor and (s, h) of
    ``index``, shape (len(items), len(anchors), len(index)).  The one place
    a window layout meets the tensor, so it holds the lead and period checks.
    """
    s, h = np.array(index).T
    anchors = np.asarray(anchors, dtype=int)
    if h.max() >= tensor.n_leads:
        raise WindowRangeError(f"H={h.max() + 1} exceeds tensor lead count {tensor.n_leads}")
    if np.any(anchors < 0) or np.any(anchors + s.max() >= tensor.n_periods):
        raise WindowRangeError(
            f"windows of anchors [{anchors.min()}, {anchors.max()}] need periods up to "
            f"{anchors.max() + s.max()}, tensor has [0, {tensor.n_periods})")
    return tensor.values[np.asarray(items)[:, None, None], anchors[:, None] + s, h]


def diagonal_feed(tensor: PreorderTensor, item: int, anchor: int,
                  W: int, H: int) -> SupervisedFrame:
    """Extract the diagonal-feeding frame anchored at ``anchor`` for one item."""
    x_index, y_index = window_index(W, H)
    x = _gather(tensor, [item], [anchor], x_index)[0, 0]
    y = _gather(tensor, [item], [anchor], y_index)[0, 0]
    return SupervisedFrame(item=item, anchor=anchor, x=x, y=y,
                           x_index=x_index, y_index=y_index)


def feature_frame(tensor: PreorderTensor, item: int, anchor,
                  W: int, H: int) -> np.ndarray:
    """Known cells x only, for prediction at anchors whose future cells may
    fall outside the tensor.  Needs periods up to anchor + W - 2 because the
    last row of the window contributes no known cell.  An array of anchors
    gives one row per anchor, a single anchor the 1-d row x."""
    rows = _gather(tensor, [item], np.atleast_1d(anchor), window_index(W, H)[0])[0]
    return rows if np.ndim(anchor) else rows[0]


@dataclass
class SupervisedSet:
    """Stacked diagonal-feeding samples ready for model fitting."""

    X: np.ndarray
    Y: np.ndarray
    samples: list            # (item index, anchor) per row
    transforms: dict         # item index -> fitted TargetTransform
    W: int
    H: int

    @property
    def x_index(self):
        return window_index(self.W, self.H)[0]

    @property
    def y_index(self):
        return window_index(self.W, self.H)[1]


def build_training_set(tensor: PreorderTensor, scope, W: int, H: int,
                       transform: str = "identity", anchors=None,
                       fit_periods=None, transforms=None) -> SupervisedSet:
    """Stack diagonal-feeding frames into matrices X, Y.

    scope        -- a single item index, a sequence of item indices, or
                    "all" for every item (the all-items training mode).
    anchors      -- anchor periods to sample; defaults to every anchor whose
                    window fits (stride 1, maximal overlap).
    fit_periods  -- periods used to fit per-item transform parameters;
                    defaults to all periods.  Pass the training periods to
                    keep test values out of the minmax range.
    transforms   -- pre-fitted per-item transforms; overrides fitting.

    The cells of every (item, anchor) frame are read by one gather; rows
    run item-major, anchors within an item, as listed in ``samples``.  Each
    item's transform is applied to both its X and Y blocks, so models
    operate entirely in transformed space and predictions must be mapped
    back with the recorded per-item transform.
    """
    if scope == "all":
        items = list(range(tensor.n_items))
    elif np.isscalar(scope):
        items = [int(scope)]
    else:
        items = [int(i) for i in scope]
    if not items:
        raise HierfcstError("empty item scope")

    if anchors is None:
        last = tensor.n_periods - W
        if last < 0:
            raise WindowRangeError(
                f"tensor has {tensor.n_periods} periods, too short for W={W}")
        anchors = range(last + 1)
    anchors = list(anchors)
    if not anchors:
        raise HierfcstError("no valid anchors")

    if transforms is None:
        periods = slice(None) if fit_periods is None else list(fit_periods)
        transforms = {i: TargetTransform.fit(transform, tensor.values[i, periods])
                      for i in items}

    x_index, y_index = window_index(W, H)
    X = _gather(tensor, items, anchors, x_index)
    Y = _gather(tensor, items, anchors, y_index)
    for k, i in enumerate(items):
        X[k] = transforms[i].forward(X[k])
        Y[k] = transforms[i].forward(Y[k])
    n_rows = len(items) * len(anchors)
    return SupervisedSet(X=X.reshape(n_rows, -1), Y=Y.reshape(n_rows, -1),
                         samples=list(product(items, anchors)),
                         transforms=transforms, W=W, H=H)


def save_supervised(sset: SupervisedSet, path) -> None:
    """Versioned binary cache of a supervised dataset."""
    items = np.array([s[0] for s in sset.samples])
    anchors = np.array([s[1] for s in sset.samples])
    keys = sorted(sset.transforms)
    kinds = np.array([sset.transforms[k].kind for k in keys], dtype=str)
    vmins = np.array([sset.transforms[k].vmin if sset.transforms[k].vmin is not None
                      else np.nan for k in keys])
    vmaxs = np.array([sset.transforms[k].vmax if sset.transforms[k].vmax is not None
                      else np.nan for k in keys])
    np.savez_compressed(
        path,
        cache_version=np.array(SUPERVISED_CACHE_VERSION),
        kind=np.array("supervised_set"),
        X=sset.X, Y=sset.Y, sample_items=items, sample_anchors=anchors,
        W=np.array(sset.W), H=np.array(sset.H),
        tf_items=np.array(keys), tf_kinds=kinds, tf_vmins=vmins, tf_vmaxs=vmaxs,
    )


def load_supervised(path) -> SupervisedSet:
    with np.load(path, allow_pickle=False) as data:
        if "cache_version" not in data or int(data["cache_version"]) != SUPERVISED_CACHE_VERSION:
            raise HierfcstError(f"unsupported or missing cache version in {path}")
        if str(data["kind"]) != "supervised_set":
            raise HierfcstError(f"{path} is not a supervised cache")
        transforms = {}
        for key, kind, vmin, vmax in zip(data["tf_items"], data["tf_kinds"],
                                         data["tf_vmins"], data["tf_vmaxs"]):
            transforms[int(key)] = TargetTransform(
                kind=str(kind),
                vmin=None if np.isnan(vmin) else float(vmin),
                vmax=None if np.isnan(vmax) else float(vmax))
        samples = list(zip(data["sample_items"].tolist(),
                           data["sample_anchors"].tolist()))
        return SupervisedSet(X=data["X"], Y=data["Y"], samples=samples,
                             transforms=transforms, W=int(data["W"]), H=int(data["H"]))
