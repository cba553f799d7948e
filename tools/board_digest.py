"""One sha256 per benchmark workload and seed over what its backtest leaves:
the leaderboard CSV, the forecast bytes and the failures.

    python tools/board_digest.py [seed ...]        # seeds 1 2 3 by default

Run it from the root of two checkouts and diff the outputs: equal lines
mean byte-identical leaderboards.  Each catalog of perfbench/workloads.py is
built in a temporary directory; nothing under perfbench/ is written.
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

from hierfcst import evaluate  # noqa: E402
from workloads import SPLIT, WORKLOADS  # noqa: E402

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
