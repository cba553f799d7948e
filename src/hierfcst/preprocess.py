"""Diagonal Feeding reshaping and invertible target transforms.

The (H + 1) x H window of the (delivery period x lead time) quantity
matrix anchored at period t splits down its diagonal into cells already
known at t (inputs x) and future cells (targets y): cell (s, h) holds
q_{t+s}^h and is known at t exactly when s <= h, so |x| = |y| = H(H+1)/2.
The lead count H fixes the whole geometry.  Reshaping every anchor this
way turns anticipatory pre-order data into a plain multi-output
regression problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PreorderTensor, _read_npz, _write_npz
from .errors import DomainError, HierfcstError, NotFittedError, WindowRangeError

SUPERVISED_CACHE_VERSION = 2

TRANSFORM_KINDS = ("identity", "log1p", "minmax")


@dataclass
class TargetTransform:
    """Invertible value transform (identity, log1p or minmax) of one series,
    or of a stack of items.

    A stack's ``vmin``/``vmax`` are arrays with a leading item axis; they
    meet the leading axis of the values, so ``forward``/``inverse`` map item
    k's block with item k's range.  A single series holds float bounds.
    """

    kind: str = "identity"
    vmin: float | np.ndarray | None = None
    vmax: float | np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise HierfcstError(
                f"unknown transform {self.kind!r}; expected one of {TRANSFORM_KINDS}")

    @classmethod
    def fit(cls, kind: str, values) -> "TargetTransform":
        """Fit transform parameters on the given values (min/max for minmax)."""
        return cls.fit_items(kind, np.asarray(values, dtype=float)[None])[0]

    @classmethod
    def fit_items(cls, kind: str, values) -> "TargetTransform":
        """Fit one transform per item, reducing over every axis of ``values``
        but the leading (item) one; returns the stack."""
        if kind == "minmax":
            values = np.asarray(values, dtype=float)
            if values.size == 0:
                raise HierfcstError("cannot fit minmax on empty values")
            axes = tuple(range(1, values.ndim))
            return cls(kind=kind, vmin=values.min(axis=axes), vmax=values.max(axis=axes))
        return cls(kind=kind)

    def __getitem__(self, k) -> "TargetTransform":
        """Item k of a stack, as a single-series transform."""
        if self.vmin is None:
            return TargetTransform(kind=self.kind)
        return TargetTransform(kind=self.kind, vmin=float(self.vmin[k]),
                               vmax=float(self.vmax[k]))

    @property
    def fitted(self) -> bool:
        return self.kind != "minmax" or self.vmin is not None

    def _range(self, v):
        """vmin and vmax - vmin, shaped to broadcast over the values v."""
        if not self.fitted:
            raise NotFittedError("minmax transform used before fit")
        vmin = np.asarray(self.vmin, dtype=float)
        shape = vmin.shape + (1,) * (v.ndim - vmin.ndim)
        return vmin.reshape(shape), (self.vmax - vmin).reshape(shape)

    def forward(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v.copy()
        if self.kind == "log1p":
            if np.any(v <= -1.0 + 1e-12):
                raise DomainError("log1p transform requires values > -1")
            return np.log1p(v)
        vmin, span = self._range(v)
        # Degenerate series (span 0): every value maps to 0.
        diff = v - vmin
        return np.divide(diff, span, out=np.zeros_like(diff), where=span != 0.0)

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v.copy()
        if self.kind == "log1p":
            return np.expm1(v)
        vmin, span = self._range(v)
        return np.where(span == 0.0, vmin, v * span + vmin)


def window_index(H: int):
    """Row-major (s, h) index lists for the known/future cell partition of
    the (H + 1) x H window; every cell lands in exactly one list (x if
    s <= h, y otherwise)."""
    if H < 1:
        raise HierfcstError(f"H must be >= 1, got {H}")
    x_index = [(s, h) for s in range(H + 1) for h in range(H) if s <= h]
    y_index = [(s, h) for s in range(H + 1) for h in range(H) if s > h]
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


def gather_cells(tensor: PreorderTensor, items, anchors, index) -> np.ndarray:
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


def diagonal_feed(tensor: PreorderTensor, item: int, anchor: int, H: int) -> SupervisedFrame:
    """Extract the diagonal-feeding frame anchored at ``anchor`` for one item."""
    x_index, y_index = window_index(H)
    x = gather_cells(tensor, [item], [anchor], x_index)[0, 0]
    y = gather_cells(tensor, [item], [anchor], y_index)[0, 0]
    return SupervisedFrame(item=item, anchor=anchor, x=x, y=y,
                           x_index=x_index, y_index=y_index)


def feature_frame(tensor: PreorderTensor, item, anchor, H: int) -> np.ndarray:
    """Known cells x only, for prediction at anchors whose future cells may
    fall outside the tensor.  Needs periods up to anchor + H - 1 because the
    last row of the window contributes no known cell.  An array of anchors
    gives one row per anchor, a single anchor the 1-d row x; an array of
    items adds a leading item axis."""
    rows = gather_cells(tensor, np.atleast_1d(item), np.atleast_1d(anchor),
                        window_index(H)[0])
    rows = rows if np.ndim(anchor) else rows[:, 0]
    return rows if np.ndim(item) else rows[0]


@dataclass
class SupervisedSet:
    """Stacked diagonal-feeding samples ready for model fitting: row r is
    item ``sample_items[r]``'s frame anchored at ``sample_anchors[r]``, and
    ``item_transforms[k]`` is the transform of the scope's k-th item."""

    X: np.ndarray
    Y: np.ndarray
    sample_items: np.ndarray
    sample_anchors: np.ndarray
    item_transforms: TargetTransform
    H: int


def build_training_set(tensor: PreorderTensor, scope, H: int, *,
                       transform: str = "identity", anchors=None,
                       transforms=None) -> SupervisedSet:
    """Stack diagonal-feeding frames into matrices X, Y.

    scope        -- a single item index, a sequence of distinct item
                    indices, or "all" for every item (the all-items
                    training mode).
    anchors      -- anchor periods to sample; defaults to every anchor whose
                    window fits (stride 1, maximal overlap).
    transforms   -- pre-fitted transform stack, one entry per item of the
                    scope in scope order; overrides fitting ``transform``
                    on all periods of the scope's items.

    The cells of every (item, anchor) frame are read by one gather; rows
    run item-major, anchors within an item.  Each item's transform is
    applied to both its X and Y blocks, so models operate entirely in
    transformed space and predictions must be mapped back with the item's
    entry of ``item_transforms``.
    """
    if isinstance(scope, str) and scope == "all":
        items = np.arange(tensor.n_items)
    else:
        items = np.atleast_1d(np.asarray(scope, dtype=int))
    if items.size == 0:
        raise HierfcstError("empty item scope")
    if np.unique(items).size != items.size:
        raise HierfcstError(f"item scope lists an item twice: {items.tolist()}")

    if anchors is None:
        if tensor.n_periods <= H:
            raise WindowRangeError(
                f"tensor has {tensor.n_periods} periods, too short for H={H}")
        anchors = range(tensor.n_periods - H)
    anchors = np.asarray(anchors, dtype=int)
    if not anchors.size:
        raise HierfcstError("no valid anchors")

    if transforms is None:
        transforms = TargetTransform.fit_items(transform, tensor.values[items])

    x_index, y_index = window_index(H)
    X = transforms.forward(gather_cells(tensor, items, anchors, x_index))
    Y = transforms.forward(gather_cells(tensor, items, anchors, y_index))
    n_rows = len(items) * len(anchors)
    return SupervisedSet(X=X.reshape(n_rows, -1), Y=Y.reshape(n_rows, -1),
                         sample_items=np.repeat(items, len(anchors)),
                         sample_anchors=np.tile(anchors, len(items)),
                         item_transforms=transforms, H=H)


def save_supervised(sset: SupervisedSet, path) -> None:
    """Versioned binary cache of a supervised dataset at exactly ``path``,
    its transforms in scope order: one kind and, for minmax, the bounds
    (empty for the other kinds)."""
    tf = sset.item_transforms
    bounds = [np.empty(0) if b is None else b for b in (tf.vmin, tf.vmax)]
    _write_npz(
        path,
        cache_version=np.array(SUPERVISED_CACHE_VERSION),
        kind=np.array("supervised_set"),
        X=sset.X, Y=sset.Y, sample_items=sset.sample_items,
        sample_anchors=sset.sample_anchors, H=np.array(sset.H),
        tf_kind=np.array(tf.kind), tf_vmin=bounds[0], tf_vmax=bounds[1],
    )


def load_supervised(path) -> SupervisedSet:
    data = _read_npz(path, "supervised_set", SUPERVISED_CACHE_VERSION,
                     ("X", "Y", "sample_items", "sample_anchors", "H", "tf_kind",
                      "tf_vmin", "tf_vmax"))
    kind = str(data["tf_kind"])
    if kind not in TRANSFORM_KINDS:
        raise HierfcstError(f"supervised_set cache {path} holds unknown transform {kind!r}")
    minmax = kind == "minmax"
    tf = TargetTransform(kind=kind, vmin=data["tf_vmin"] if minmax else None,
                         vmax=data["tf_vmax"] if minmax else None)
    return SupervisedSet(X=data["X"], Y=data["Y"], sample_items=data["sample_items"],
                         sample_anchors=data["sample_anchors"], item_transforms=tf,
                         H=int(data["H"]))
