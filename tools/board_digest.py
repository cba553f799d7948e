"""One sha256 per benchmark workload and seed over what its backtest leaves:
the leaderboard CSV, the forecast bytes and the failures; for
catalog-select one more over what its selection stage leaves: the Mapper
graph JSON and the selector's series clusters, cluster labels and series
labels, the board's best models being the labels; and one over its
diagonal-feeding layer: the supervised cache `hierfcst transform` writes
and the model store `hierfcst train` writes for the workload's specs.
A last line, `zoo-300`, digests a backtest of lasso and Poisson
`df_one_by_one` under every transform on the first 300 items of the
anticipatory catalog (synthesize(7, 300, 45, 4)): more items than one
stacked block holds.

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

import hierfcst  # noqa: E402
from hierfcst import cli, dataset, evaluate, tda  # noqa: E402
from hierfcst.models import ModelSpec  # noqa: E402
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


def feeding_digest(tensor, work_dir):
    """sha256 of the supervised cache at the pipeline's default transform
    and leads, and of the model files `hierfcst train` stores for the
    pipeline's specs, in file name order."""
    data, sup, store, specs = (os.path.join(work_dir, name) for name in
                               ("tensor.npz", "supervised.npz", "store", "specs.ini"))
    dataset.save_cache(tensor, data)
    Path(specs).write_text(PIPELINE_SPECS.replace("[spec:", "["), encoding="utf-8")
    split = [f"--train-periods={SPLIT.train_periods}", f"--test-periods={SPLIT.test_periods}"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["transform", "--data", data, "--kind", cli._TRANSFORM_KIND,
                      "--leads", str(evaluate.frame_leads(tensor)), "--output", sup],
                     ["train", "--spec", specs, "--data", data, "--out", store, *split]):
            if cli.main(argv) != 0:
                sys.exit(f"board_digest: hierfcst {argv[0]} failed")
    digest = hashlib.sha256(Path(sup).read_bytes())
    for name in sorted(p for p in os.listdir(store) if p.endswith(".pkl")):
        digest.update(name.encode() + Path(store, name).read_bytes())
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
                print(f"{name}:df", seed, feeding_digest(workload.tensor, work_dir))

zoo = [ModelSpec(family, transform=kind, feeding="df_one_by_one")
       for family in ("lasso", "poisson") for kind in ("identity", "log1p", "minmax")]
print("zoo-300", board_digest(evaluate.backtest(
    hierfcst.synthesize(7, 300, 45, 4, "anticipatory"), zoo, SPLIT)))
