"""One sha256 per benchmark workload and seed over what its backtest leaves:
the leaderboard CSV, the forecast bytes and the failures; for
catalog-select one more over what its selection stage leaves: the Mapper
graph JSON and the selector's series clusters, cluster labels and series
labels, the board's best models being the labels.

    python tools/board_digest.py [seed ...]        # seeds 1 2 3 by default

Run it from the root of two checkouts and diff the outputs: equal lines
mean byte-identical leaderboards and graphs.  Each catalog of
perfbench/workloads.py is built in a temporary directory; nothing under
perfbench/ is written.
"""
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"              # as perfbench/run.py runs
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hierfcst import cli, evaluate, tda  # noqa: E402
from workloads import SPLIT, WORKLOADS  # noqa: E402


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


for seed in [int(a) for a in sys.argv[1:]] or [1, 2, 3]:
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(seed, smoke=False)
        with tempfile.TemporaryDirectory() as work_dir:
            workload.build(work_dir)
            board = evaluate.backtest(workload.tensor, workload.specs, SPLIT)
            digest = hashlib.sha256(board.to_csv().encode())
            for key in sorted(board.forecasts):
                digest.update(repr(key).encode() + board.forecasts[key].tobytes())
            digest.update(repr(board.failures).encode())
            print(name, seed, digest.hexdigest())
            if name == "catalog-select":
                print(f"{name}:select", seed,
                      selection_digest(workload.tensor, board, work_dir))
