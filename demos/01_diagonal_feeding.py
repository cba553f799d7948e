"""Diagonal Feeding in pictures: how a pre-order window becomes a
supervised sample.

An item's demand is a (delivery period x lead time) matrix: cell (t, h)
holds the volume ordered h periods ahead of period t, which is already
known by the end of period t - h.  Anchored at period t, the (H + 1) x H
window therefore splits into cells known now (inputs) and future cells
(targets).
"""

import numpy as np

from hierfcst import dataset, diagonal_feed, is_known_at, window_index
from hierfcst.preprocess import TargetTransform, build_training_set

tensor = dataset.synthesize(seed=7, n_items=3, T=45, H=3, regime="anticipatory")
item, anchor, H = 0, 10, 3
W = H + 1       # the window's periods, for printing only

print("window of raw quantities (rows = periods t..t+3, cols = leads 0..2):")
window = tensor.values[item, anchor:anchor + W, :H]
print(np.array_str(window, precision=1))

frame = diagonal_feed(tensor, item, anchor, H)
print("\ninput cells x (known at the anchor):")
for (s, h), v in zip(frame.x_index, frame.x):
    known = is_known_at(tensor, item, anchor + s, h, now=anchor)
    print(f"  q[t+{s}]^{h} = {v:8.1f}   known now: {known}")

print("\ntarget cells y (still in the future):")
for (s, h), v in zip(frame.y_index, frame.y):
    known = is_known_at(tensor, item, anchor + s, h, now=anchor)
    print(f"  q[t+{s}]^{h} = {v:8.1f}   known now: {known}")

x_idx, y_idx = window_index(H)
print(f"\npartition check: {len(x_idx)} inputs + {len(y_idx)} targets "
      f"= {W * H} window cells")
print("earliest-future targets (next gross demand and its diagonal) sit at "
      f"y positions {[y_idx.index((s, s - 1 if s > 1 else 0)) for s in (1, 2, 3)]}"
      " -- positions 0, 2, 5")

# Stacking every anchor gives the training matrices; transforms are
# invertible and fitted per item.
sset = build_training_set(tensor, scope=0, H=H, transform="log1p")
print(f"\ntraining set for one item: X {sset.X.shape}, Y {sset.Y.shape} "
      f"({tensor.n_periods} periods -> {sset.X.shape[0]} anchors)")

tf = TargetTransform.fit("minmax", tensor.values[0])
v = 123.4
print(f"minmax round trip: {v} -> {tf.forward(v):.4f} -> "
      f"{tf.inverse(tf.forward(v)):.4f}")
