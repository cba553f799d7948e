"""The three benchmark workloads: their inputs, one timed round, and the
checks of that round's outputs against `reference`.

Each workload object builds its inputs from the seed (`build`), runs one
round of the same operations (`run_round`, the timed body), and checks the
round (`check`), returning the operations attempted and failed.  An
operation is one (spec, item) forecast.
"""

import configparser
import contextlib
import json
import os
import shutil
import sys

import numpy as np

import hierfcst
from hierfcst import cli, evaluate
from hierfcst.models import ModelSpec

import reference as ref
from spans import LASSO_KKT_TOL

T, H = 45, 4
SPLIT = evaluate.BacktestSplit(37, 8)
DF_ONE, DF_ALL = "df_one_by_one", "df_all_items"


def _close(prog, own, what, problems, rtol=1e-6, atol=1e-6):
    if not np.allclose(prog, own, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(np.asarray(prog) - own)))
        problems.append(f"{what} differs from the recomputation by {worst:.3g}")


def _check_ridge(board, specs, tensor, problems):
    for spec in specs:
        if spec.family == "ridge" and spec.feeding != "none":
            own = ref.ridge_forecasts(tensor.values, spec, SPLIT)
            prog = np.array([board.forecasts[(spec.name, item)]
                             for item in tensor.items])
            _close(prog, own, f"{spec.name} forecasts", problems)


class ItemZoo:
    """Every matrix family fitted per item at default hyperparameters on the
    fixed anticipatory catalog: the first items of
    synthesize(seed=7, n_items=200, T=45, H=4, regime="anticipatory").

    The catalog does not depend on the seed, because the lasso fault counted
    here must fail on the same inputs in every run; the seed shuffles the
    order of the items and of the specs.
    """

    captures = ("hierfcst.evaluate.fit",)

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n_items = 1 if smoke else 2

    def build(self, work_dir):
        full = hierfcst.synthesize(7, 200, T, H, "anticipatory")
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(self.n_items)
        self.tensor = hierfcst.PreorderTensor(
            items=[full.items[i] for i in order], values=full.values[order],
            observed_mask=full.observed_mask[order])
        specs = [ModelSpec(family, transform=kind, feeding=DF_ONE)
                 for family in ("ridge", "lasso", "poisson", "kernel")
                 for kind in ("identity", "log1p", "minmax")]
        specs += [ModelSpec("ridge"),
                  ModelSpec("adaboost", feeding=DF_ONE),
                  ModelSpec("rforest", feeding=DF_ONE),
                  ModelSpec("arx"),
                  ModelSpec("arx", {"exog": "preorders"})]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]

    def run_round(self):
        return evaluate.backtest(self.tensor, self.specs, SPLIT)

    def check(self, board, probe, problems):
        tensor = self.tensor
        smapes = ref.check_board(board, tensor.values, SPLIT.train_periods, problems)
        _check_ridge(board, self.specs, tensor, problems)
        ref.check_beats_naive(board, self.specs, tensor.values, problems)
        failed = len(board.failures)
        fits = {spec.name: [] for spec in self.specs if spec.family == "lasso"}
        for args, _kwargs, fitted in probe.captured["hierfcst.evaluate.fit"]:
            if args[0].name in fits:
                fits[args[0].name].append((args[1], args[2], fitted.payload))
        for spec in self.specs:
            if spec.name not in fits:
                continue
            per_item = fits[spec.name]
            X, Y, _tf = ref.training_rows(tensor.values, spec.transform,
                                          SPLIT.train_periods)
            lam = spec.hyperparams["lam"]
            if len(per_item) != tensor.n_items:
                problems.append(f"{spec.name}: {len(per_item)} fits for "
                                f"{tensor.n_items} items")
            for i, (Xp, Yp, payload) in enumerate(per_item):
                _close(Xp, X[i], f"{spec.name} training inputs of item {i}",
                       problems, rtol=1e-12, atol=1e-12)
                _close(Yp, Y[i], f"{spec.name} training targets of item {i}",
                       problems, rtol=1e-12, atol=1e-12)
                breach = max(ref.lasso_kkt_violation(Xp, Yp[:, c], payload.coefs[:, c],
                                                     payload.intercepts[c], lam)
                             for c in range(Yp.shape[1]))
                failed += breach > LASSO_KKT_TOL * lam
        return len(self.specs) * tensor.n_items, failed, smapes


class CrossItem:
    """Pooled (df_all_items) linear fits and tree ensembles on about 1k rows,
    plus TRMF rolling refits, on a sparse-spiky catalog drawn from the seed."""

    captures = ("hierfcst.trmf.factorize",)

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n_items = 8 if smoke else 30

    def build(self, work_dir):
        self.tensor = hierfcst.synthesize(self.seed, self.n_items, T, H,
                                          "sparse-spiky")
        self.specs = [
            ModelSpec("ridge", feeding=DF_ALL),
            ModelSpec("ridge", transform="log1p", feeding=DF_ALL),
            ModelSpec("poisson", feeding=DF_ALL),
            ModelSpec("kernel", feeding=DF_ALL),
            ModelSpec("rforest", {"n_trees": 3}, feeding=DF_ALL),
            ModelSpec("adaboost", {"rounds": 3}, feeding=DF_ALL),
            ModelSpec("ensemble", {"n_bags": 2, "boost_rounds": 2}, feeding=DF_ALL),
            ModelSpec("trmf"),
        ]

    def run_round(self):
        return evaluate.backtest(self.tensor, self.specs, SPLIT)

    def check(self, board, probe, problems):
        smapes = ref.check_board(board, self.tensor.values, SPLIT.train_periods,
                                 problems)
        _check_ridge(board, self.specs, self.tensor, problems)
        models = [out for _a, _k, out in probe.captured["hierfcst.trmf.factorize"]]
        if len(models) != 1 + SPLIT.test_periods:
            problems.append(f"{len(models)} TRMF factorizations, expected "
                            f"{1 + SPLIT.test_periods}")
        for model in models:
            hist = np.array(model.objective_history)
            if np.any(np.diff(hist) > 1e-9 * np.abs(hist[:-1])):
                problems.append("a TRMF objective history increases")
        return len(self.specs) * self.tensor.n_items, len(board.failures), smapes


PIPELINE_SPECS = """
[spec:ridge_df]
family = ridge
feeding = df_one_by_one

[spec:ridge_ai]
family = ridge
feeding = df_all_items

[spec:kernel_df]
family = kernel
feeding = df_one_by_one

[spec:arx]
family = arx

[spec:arx_exog]
family = arx
exog = preorders
"""

# Tolerances of the PCA lens and the top Fiedler vector against dense eigh.
LENS_TOL = 1e-6
FIEDLER_TOL = 1e-6


class CatalogSelect:
    """`hierfcst pipeline` end to end, from a paper-scale CSV of 2562
    anticipatory items drawn from the seed, with Mapper/Fiedler selection
    over every item and cheap specs."""

    captures = ("hierfcst.evaluate.backtest", "hierfcst.tda.mapper",
                "hierfcst.tda.pca_lens", "hierfcst.tda.fiedler_vector")

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n_items = 60 if smoke else 2562

    def build(self, work_dir):
        tensor = hierfcst.synthesize(self.seed, self.n_items, T, H, "anticipatory")
        i, t, h = np.nonzero(tensor.observed_mask)
        lines = [f"{tensor.items[a]},{b},{c},{q!r}" for a, b, c, q in
                 zip(i.tolist(), t.tolist(), h.tolist(),
                     tensor.values[i, t, h].tolist())]
        csv_path = os.path.join(work_dir, "catalog.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("item_id,delivery_period,lead_time,quantity\n")
            fh.write("\n".join(lines) + "\n")
        self.out_dir = os.path.join(work_dir, "run")
        self.config = os.path.join(work_dir, "pipeline.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"[run]\nout_dir = {self.out_dir}\nseed = 0\n\n"
                     f"[data]\nsource = csv\ncsv_path = {csv_path}\n"
                     + PIPELINE_SPECS)
        self.tensor = tensor
        parser = configparser.ConfigParser()
        parser.read_string(PIPELINE_SPECS)
        self.specs = [cli.spec_from_mapping(section.split(":", 1)[1],
                                            dict(parser.items(section)))
                      for section in parser.sections()]

    def run_round(self):
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(["pipeline", "--config", self.config])

    def _artifact(self, name):
        with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
            return fh.read()

    def check(self, exit_code, probe, problems):
        values = self.tensor.values
        n = self.n_items
        if exit_code != 0:
            problems.append(f"pipeline exited {exit_code}")
        if os.path.exists(os.path.join(self.out_dir, "INCOMPLETE")):
            problems.append("pipeline left an INCOMPLETE marker")
        if probe.trace:
            probe.counts["cli.artifact_bytes"] += sum(
                entry.stat().st_size for entry in os.scandir(self.out_dir))
        captured = probe.captured
        (board,) = [out for _a, _k, out in captured["hierfcst.evaluate.backtest"]]
        history = np.array(list(board.history.values()))
        _close(history, values[:, :, 0], "gross series read from the CSV",
               problems, rtol=0, atol=0)
        smapes = ref.check_board(board, values, SPLIT.train_periods, problems,
                                 csv_text=self._artifact("leaderboard.csv"))
        _check_ridge(board, self.specs, self.tensor, problems)
        ref.check_beats_naive(board, self.specs, values, problems)

        ref.check_graph(json.loads(self._artifact("graph.json")), n, problems)
        (mapper_args, _k, _graph), = captured["hierfcst.tda.mapper"]
        features = mapper_args[0]
        own = ref.series_features(values[:, :SPLIT.train_periods, 0])
        _close(features, own, "series features", problems, rtol=1e-9, atol=1e-12)
        (_a, _k, lens), = captured["hierfcst.tda.pca_lens"]
        own_lens = ref.pca_lens(own)
        _close(lens, own_lens, "PCA lens", problems, rtol=0,
               atol=LENS_TOL * np.abs(own_lens).max())
        if not captured["hierfcst.tda.fiedler_vector"]:
            problems.append("the Mapper graph was never split")
        else:
            (adjacency,), _k, fiedler = captured["hierfcst.tda.fiedler_vector"][0]
            ref.check_fiedler(adjacency, fiedler, FIEDLER_TOL, problems)
        shutil.rmtree(self.out_dir)
        return len(self.specs) * n, len(board.failures), smapes


WORKLOADS = {"item-zoo": ItemZoo, "cross-item": CrossItem,
             "catalog-select": CatalogSelect}
