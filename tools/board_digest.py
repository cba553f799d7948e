"""One sha256 per benchmark workload and seed over what its backtest leaves:
the leaderboard CSV, the forecast bytes and the failures; for
catalog-select one more over what its selection stage leaves: the Mapper
graph JSON and the selector's series clusters, cluster labels and series
labels, the board's best models being the labels; and one over its
diagonal-feeding layer, hashed by behaviour rather than by pickle bytes:
the arrays of the supervised cache `hierfcst transform` writes (the
backtest's training design) as `load_supervised` returns them, and the
`predict_transformed` output of each model `hierfcst train` stores for the
workload's specs on its item's rows of that cache scaled by 1.1 (every
row for a `df_all_items` model), both at the workload's split.
Four last lines digest backtests of the anticipatory catalog: `zoo-300`
of lasso and Poisson `df_one_by_one` under every transform on
synthesize(7, 300, 45, 4), more items than one stacked block holds;
`trees-40` of the tree families at their defaults on
synthesize(7, 40, 45, 4): `rforest`, `adaboost` and `ensemble` with
`df_one_by_one` and `ensemble` with `df_all_items`; and `kernel-60` of
kernel ridge with `df_all_items` and `df_one_by_one` under the identity
and log1p transforms on synthesize(7, 60, 45, 4), whose pooled fit has
1,980 rows; and `nodf-40` of ridge, kernel, lasso, Poisson and `rforest`
without feeding under every transform on synthesize(7, 40, 45, 4): the
no-feeding route, where lasso's identity forecasts go below zero and are
clipped.  One more line, `train-40`, is the diagonal-feeding digest of
the models `hierfcst train` stores for ridge, lasso, Poisson, kernel,
`rforest`, `adaboost` and `ensemble` (small tree counts), each with
`df_one_by_one` and `df_all_items`, on synthesize(7, 40, 45, 4): every
family's single-fit route.

    python tools/board_digest.py [seed ...]        # seeds 1 2 3 by default

Run it from the root of two checkouts and diff the outputs: equal lines
mean byte-identical leaderboards and graphs.  Each catalog of
perfbench/workloads.py is built in a temporary directory; nothing under
perfbench/ is written.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"              # as perfbench/run.py runs
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import hierfcst  # noqa: E402
from hierfcst import cli, dataset, evaluate, tda  # noqa: E402
from hierfcst.models import ModelSpec  # noqa: E402
from hierfcst.preprocess import load_supervised  # noqa: E402
from workloads import PIPELINE_SPECS, SPLIT, WORKLOADS  # noqa: E402


def board_digest(board):
    """sha256 of a leaderboard's CSV, forecast bytes and failures."""
    digest = hashlib.sha256(board.to_csv().encode())
    for key in sorted(board.forecasts):
        digest.update(repr(key).encode() + board.forecasts[key].tobytes())
    digest.update(repr(board.failures).encode())
    return digest.hexdigest()


def selection_digest(tensor, board, work_dir):
    """sha256 of the selection stage `hierfcst pipeline` runs on the board,
    with the pipeline's default settings."""
    graph_path = os.path.join(work_dir, "graph.json")
    selector = cli._select(tensor, board, SPLIT.train_periods, tda.DEFAULT_INTERVALS,
                           tda.DEFAULT_OVERLAP, tda.DEFAULT_KNN, cli._MIN_CLUSTER_FRAC,
                           os.path.join(work_dir, "selector.bin"), graph_path)
    digest = hashlib.sha256(Path(graph_path).read_bytes())
    # repr keeps the types: a numpy scalar label would not read as a str.
    for part in (selector.series_cluster.dtype, selector.series_cluster.tolist(),
                 list(selector.cluster_labels.items()), selector.series_labels):
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _update(digest, name, value):
    """Feed a named value into the digest: an array by dtype, shape and
    bytes, anything else by repr."""
    digest.update(name.encode())
    if isinstance(value, np.ndarray):
        digest.update(repr((value.dtype, value.shape)).encode() + value.tobytes())
    else:
        digest.update(repr(value).encode())


def feeding_digest(tensor, work_dir, spec_ini):
    """sha256 of the supervised cache `hierfcst transform` writes at the
    identity transform and the workload's split, and of the predictions of
    the models `hierfcst train` stores for the specs of the INI text
    spec_ini, in file name order."""
    data, sup, store, specs = (os.path.join(work_dir, name) for name in
                               ("tensor.npz", "supervised.npz", "store", "specs.ini"))
    dataset.save_cache(tensor, data)
    Path(specs).write_text(spec_ini, encoding="utf-8")
    split = [f"--train-periods={SPLIT.train_periods}", f"--test-periods={SPLIT.test_periods}"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["transform", "--data", data, "--kind", "identity",
                      split[0], "--output", sup],
                     ["train", "--spec", specs, "--data", data, "--out", store, *split]):
            if cli.main(argv) != 0:
                sys.exit(f"board_digest: hierfcst {argv[0]} failed")
    sset = load_supervised(sup)
    digest = hashlib.sha256()
    tf = sset.item_transforms
    for name, value in (("X", sset.X), ("Y", sset.Y), ("sample_items", sset.sample_items),
                        ("sample_anchors", sset.sample_anchors), ("H", sset.H),
                        ("tf_kind", tf.kind), ("tf_vmin", tf.vmin), ("tf_vmax", tf.vmax)):
        _update(digest, name, value)
    index = {item: i for i, item in enumerate(tensor.items)}
    for name in sorted(p for p in os.listdir(store) if p.endswith(".pkl")):
        stored = cli.load_stored_model(os.path.join(store, name))
        rows = sset.X
        if stored["spec"]["feeding"] != "df_all_items":
            rows = rows[sset.sample_items == index[stored["item"]]]
        _update(digest, name, stored["model"].predict_transformed(rows * 1.1))
    return digest.hexdigest()


for seed in [int(a) for a in sys.argv[1:]] or [1, 2, 3]:
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(seed, smoke=False)
        with tempfile.TemporaryDirectory() as work_dir:
            workload.build(work_dir)
            board = evaluate.backtest(workload.tensor, workload.specs, SPLIT)
            print(name, seed, board_digest(board))
            if name == "catalog-select":
                print(f"{name}:select", seed,
                      selection_digest(workload.tensor, board, work_dir))
                print(f"{name}:df", seed, feeding_digest(
                    workload.tensor, work_dir, PIPELINE_SPECS.replace("[spec:", "[")))

zoo = [ModelSpec(family, transform=kind, feeding="df_one_by_one")
       for family in ("lasso", "poisson") for kind in ("identity", "log1p", "minmax")]
print("zoo-300", board_digest(evaluate.backtest(
    hierfcst.synthesize(7, 300, 45, 4, "anticipatory"), zoo, SPLIT)))

trees = [ModelSpec(family, feeding="df_one_by_one")
         for family in ("rforest", "adaboost", "ensemble")]
trees.append(ModelSpec("ensemble", feeding="df_all_items"))
print("trees-40", board_digest(evaluate.backtest(
    hierfcst.synthesize(7, 40, 45, 4, "anticipatory"), trees, SPLIT)))

kernels = [ModelSpec("kernel", transform=kind, feeding=feeding)
           for feeding in ("df_all_items", "df_one_by_one") for kind in ("identity", "log1p")]
print("kernel-60", board_digest(evaluate.backtest(
    hierfcst.synthesize(7, 60, 45, 4, "anticipatory"), kernels, SPLIT)))

small_trees = {"rforest": "n_trees = 5", "adaboost": "rounds = 5",
               "ensemble": "n_bags = 2\nboost_rounds = 5"}
train_ini = "".join(f"[{family}_{feeding}]\nfamily = {family}\nfeeding = {feeding}\n"
                    f"{small_trees.get(family, '')}\n"
                    for family in ("ridge", "lasso", "poisson", "kernel", "rforest",
                                   "adaboost", "ensemble")
                    for feeding in ("df_one_by_one", "df_all_items"))
with tempfile.TemporaryDirectory() as work_dir:
    print("train-40", feeding_digest(hierfcst.synthesize(7, 40, 45, 4, "anticipatory"),
                                     work_dir, train_ini))

nodf = [ModelSpec(family, transform=kind)
        for family in ("ridge", "kernel", "lasso", "poisson", "rforest")
        for kind in ("identity", "log1p", "minmax")]
print("nodf-40", board_digest(evaluate.backtest(
    hierfcst.synthesize(7, 40, 45, 4, "anticipatory"), nodf, SPLIT)))
