"""Spans and counts recorded around calls into hierfcst's public functions.

A `Probe` replaces a function by a wrapper under the name its caller looks
it up by (for example `hierfcst.evaluate.fit`, which `evaluate` imported
from `hierfcst.models`), and puts the original back on exit.  Traced, each
wrapped call appends one span (name, start, end, done, parent) to an
in-memory list; `done` also covers the wrapper's own bookkeeping, so a
parent's self time excludes it.  Untraced, only the wrappers that capture
values for the correctness checks are installed, and they time nothing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import warnings
from collections import Counter
from time import perf_counter

from hierfcst.trmf import TrmfConfig

from reference import lasso_kkt_violation

# Largest KKT breach, as a share of lam, of a lasso fit that counts as optimal.
LASSO_KKT_TOL = 1e-3

TIME_METRICS = {
    "dataset.load_csv": "dataset.load_csv_s",
    "preprocess.build_training_set": "preprocess.build_training_set_s",
    "preprocess.feature_frame": "preprocess.feature_frame_s",
    "preprocess.save_supervised": "preprocess.save_supervised_s",
    "models.ridge.fit": "models.ridge.fit_s",
    "models.lasso.fit": "models.lasso.fit_s",
    "models.poisson.fit": "models.poisson.fit_s",
    "models.kernel.fit": "models.kernel.fit_s",
    "models.rforest.fit": "models.rforest.fit_s",
    "models.adaboost.fit": "models.adaboost.fit_s",
    "models.ensemble.fit": "models.ensemble.fit_s",
    "models.arx.fit": "models.arx.fit_s",
    "models.predict": "models.predict_s",
    "trmf.factorize": "trmf.factorize_s",
    "trmf.forecast": "trmf.forecast_s",
    "evaluate.backtest": "evaluate.backtest_self_s",
    "features.extract": "features.extract_s",
    "tda.canberra_matrix": "tda.canberra_matrix_s",
    "tda.mapper": "tda.mapper_self_s",
    "tda.fiedler_partition": "tda.fiedler_partition_s",
    "tda.label_and_route": "tda.label_and_route_s",
    "cli.run_pipeline": "cli.run_pipeline_self_s",
}

COUNT_METRICS = (
    "dataset.records_read", "preprocess.build_training_set_calls",
    "preprocess.rows_built", "preprocess.feature_frame_calls",
    "models.lasso.fits", "models.lasso.optimal_fits", "models.lasso.sweeps",
    "models.poisson.irls_iters", "models.trees.nodes", "models.fit_calls",
    "models.predict_calls", "trmf.factorize_calls", "trmf.sweeps",
    "trmf.capped_calls", "trmf.runtime_warnings", "evaluate.forecasts_scored",
    "features.series", "tda.fiedler_vector_calls", "tda.nodes", "tda.edges",
    "tda.partitions", "cli.artifact_bytes",
)


def _tree_nodes(node):
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _trees(model):
    for member in getattr(model, "members", ()):      # bagged boosting
        yield from member.trees
    yield from getattr(model, "trees", ())


def _count_fit(counts, args, kwargs, fitted):
    spec, X, Y = args[:3]
    counts["models.fit_calls"] += 1
    payload = fitted.payload
    if spec.family == "lasso":
        lam = spec.hyperparams["lam"]
        for c, history in enumerate(payload.objective_histories):
            counts["models.lasso.fits"] += 1
            counts["models.lasso.sweeps"] += len(history) - 1
            breach = lasso_kkt_violation(X, Y[:, c], payload.coefs[:, c],
                                         payload.intercepts[c], lam)
            counts["models.lasso.optimal_fits"] += breach <= LASSO_KKT_TOL * lam
    elif spec.family == "poisson":
        counts["models.poisson.irls_iters"] += sum(len(h) - 1
                                                   for h in payload.ll_histories)
    elif spec.family in ("rforest", "adaboost", "ensemble"):
        counts["models.trees.nodes"] += sum(_tree_nodes(tree.root)
                                            for model in payload.models
                                            for tree in _trees(model))


def _count_factorize(counts, args, kwargs, model):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None) or TrmfConfig()
    sweeps = len(model.objective_history) - 1
    counts["trmf.factorize_calls"] += 1
    counts["trmf.sweeps"] += sweeps
    counts["trmf.capped_calls"] += sweeps == cfg.max_sweeps


def _count_training_set(counts, args, kwargs, sset):
    counts["preprocess.build_training_set_calls"] += 1
    counts["preprocess.rows_built"] += sset.X.shape[0]


def _add(key, amount=lambda a, k, out: 1):
    def count(counts, args, kwargs, out):
        counts[key] += amount(args, kwargs, out)
    return count


def _fit_span(args, kwargs):
    return f"models.{args[0].family}.fit"


# (owner, attribute, span name or None for count-only, count, catch warnings)
TARGETS = (
    ("hierfcst.dataset", "load_csv", "dataset.load_csv",
     _add("dataset.records_read", lambda a, k, t: int(t.observed_mask.sum())), False),
    ("hierfcst.cli", "build_training_set", "preprocess.build_training_set",
     _count_training_set, False),
    ("hierfcst.evaluate", "build_training_set", "preprocess.build_training_set",
     _count_training_set, False),
    ("hierfcst.evaluate", "feature_frame", "preprocess.feature_frame",
     _add("preprocess.feature_frame_calls"), False),
    ("hierfcst.cli", "save_supervised", "preprocess.save_supervised", None, False),
    ("hierfcst.evaluate", "fit", _fit_span, _count_fit, False),
    ("hierfcst.evaluate", "fit_arx", "models.arx.fit", _add("models.fit_calls"), False),
    ("hierfcst.models.spec:FittedModel", "predict", "models.predict",
     _add("models.predict_calls"), False),
    ("hierfcst.models.spec:FittedModel", "predict_transformed", "models.predict",
     _add("models.predict_calls"), False),
    ("hierfcst.models.arx:ArxPayload", "one_step", "models.predict",
     _add("models.predict_calls"), False),
    ("hierfcst.trmf", "factorize", "trmf.factorize", _count_factorize, True),
    ("hierfcst.trmf", "forecast", "trmf.forecast", None, True),
    ("hierfcst.evaluate", "backtest", "evaluate.backtest",
     _add("evaluate.forecasts_scored",
          lambda a, k, board: sum(map(len, board.scores.values()))), False),
    ("hierfcst.evaluate", "extract_features", "features.extract",
     _add("features.series"), False),
    ("hierfcst.cli", "extract_feature_matrix", "features.extract",
     _add("features.series", lambda a, k, out: len(out)), False),
    ("hierfcst.tda", "canberra_matrix", "tda.canberra_matrix", None, False),
    ("hierfcst.tda", "mapper", "tda.mapper",
     lambda c, a, k, g: c.update({"tda.nodes": len(g.nodes),
                                  "tda.edges": len(g.edges)}), False),
    ("hierfcst.tda", "fiedler_partition", "tda.fiedler_partition",
     _add("tda.partitions", lambda a, k, out: len(set(out.values()))), False),
    ("hierfcst.tda", "pca_lens", None, None, False),
    ("hierfcst.tda", "fiedler_vector", None, _add("tda.fiedler_vector_calls"), False),
    ("hierfcst.tda", "label_and_route", "tda.label_and_route", None, False),
    ("hierfcst.cli", "run_pipeline", "cli.run_pipeline", None, False),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Probe:
    """Installs the wrappers of one run and holds what they record.

    `captures` names targets ("module.attr") whose calls are kept as
    (args, kwargs, result) in `captured[target]` for the checks; only
    those targets are wrapped when tracing is off.
    """

    def __init__(self, trace: bool, captures=()):
        self.trace = trace
        self.captured = {key: [] for key in captures}
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def __enter__(self):
        for owner, attr, span, count, catch in TARGETS:
            key = f"{owner.replace(':', '.')}.{attr}"
            sink = self.captured.get(key)
            if not self.trace and sink is None:
                continue
            obj = _resolve(owner)
            original = getattr(obj, attr)
            if self.trace:
                wrapper = self._traced(original, span, count, catch, sink)
            else:
                wrapper = self._capturing(original, sink)
            setattr(obj, attr, wrapper)
            self._restore.append((obj, attr, original))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    @staticmethod
    def _capturing(fn, sink):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append((args, kwargs, out))
            return out
        return wrapper

    def _traced(self, fn, span, count, catch, sink):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(probe.counts, args, kwargs, out)
                if sink is not None:
                    sink.append((args, kwargs, out))
                return out
            name = span(args, kwargs) if callable(span) else span
            parent = probe._stack[-1] if probe._stack else -1
            index = len(probe.spans)
            probe.spans.append(None)
            probe._stack.append(index)
            start = perf_counter()
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    probe.counts["trmf.runtime_warnings"] += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                probe._stack.pop()
                probe.spans[index] = (name, start, end, end, parent)
            if count is not None:
                count(probe.counts, args, kwargs, out)
            if sink is not None:
                sink.append((args, kwargs, out))
            probe.spans[index] = (name, start, end, perf_counter(), parent)
            return out
        return wrapper

    def take_round(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since the last
        call (self time per span name, and the counts), then clear both."""
        covered = [0.0] * len(self.spans)
        for name, start, end, done, parent in self.spans:
            if parent >= 0:
                covered[parent] += done - start
        metrics = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for (name, start, end, done, parent), child in zip(self.spans, covered):
            metrics[TIME_METRICS[name]] += (end - start) - child
        for key in COUNT_METRICS:
            metrics[key] = self.counts[key]
        self.spans.clear()
        self.counts.clear()
        return metrics

    def clear_captures(self):
        for sink in self.captured.values():
            sink.clear()


def median_rounds(rounds):
    """Median of each per-layer metric over the rounds of a run."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
