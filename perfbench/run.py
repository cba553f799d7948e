"""Benchmark of hierfcst: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload item-zoo --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The run builds the workload's inputs from
the seed (three times; the median counts as set-up), then repeats whole
rounds of the workload until the rounds add up to --seconds, checks every
round's outputs against recomputations made apart from the package, and
prints one JSON object as its last line of standard output.  The same
object goes to BENCH_<label>.json at the root of the checkout.  With
--trace 1 the metrics are the per-layer ones from spans recorded around
calls into the package; otherwise they are the end-to-end ones.
"""

import os
import sys
import time

START = time.perf_counter()
# One BLAS thread: a single caller in a closed loop, and steadier timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "smape_top_mean": ("%", "lower"),
    "smape_best_mean": ("%", "lower"),
}
HIGHER_COUNTS = ("dataset.records_read", "models.lasso.optimal_fits",
                 "evaluate.forecasts_scored")


def per_layer_table():
    from spans import COUNT_METRICS, TIME_METRICS
    table = {name: ("s", "lower") for name in TIME_METRICS.values()}
    for name in COUNT_METRICS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        table[name] = (unit, "higher" if name in HIGHER_COUNTS else "lower")
    return table


def import_program():
    """Import hierfcst from this checkout's src/; exit non-zero if absent."""
    src = ROOT / "src"
    if not (src / "hierfcst" / "__init__.py").is_file():
        sys.exit(f"run.py: no hierfcst sources under {src}; run from a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import hierfcst
    import hierfcst.cli  # noqa: F401
    if Path(hierfcst.__file__).resolve().parent != src / "hierfcst":
        sys.exit(f"run.py: imported hierfcst from {hierfcst.__file__}, not {src}")
    return time.perf_counter()


def run(workload_name, seed, seconds, trace, smoke, import_done):
    """One run: set-up, timed rounds, checks.  Returns (result, extras)."""
    from spans import Probe, median_rounds
    from workloads import WORKLOADS

    work_dir = ROOT / ".bench_work" / workload_name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, smoke)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.build(str(work_dir))
        builds.append(time.perf_counter() - t0)
    setup_s = (import_done - START) + statistics.median(builds)

    rounds, layers, problems = [], [], []
    attempted = failed = 0
    smapes = (float("nan"), float("nan"))
    try:
        with Probe(trace, workload.captures) as probe:
            while True:
                t0 = time.perf_counter()
                out = workload.run_round()
                rounds.append(time.perf_counter() - t0)
                ops, fails, smapes = workload.check(out, probe, problems)
                attempted += ops
                failed += fails
                if trace:
                    layers.append(probe.take_round())
                probe.clear_captures()
                if problems or sum(rounds) >= seconds:
                    break
    except Exception:
        traceback.print_exc()
        problems.append("the workload raised")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"run.py: {workload_name}: {problem}", file=sys.stderr)

    if trace:
        table = per_layer_table()
        values = median_rounds(layers) if layers else dict.fromkeys(table, 0)
    else:
        table = END_TO_END
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(rounds) if rounds else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "smape_top_mean": smapes[0],
            "smape_best_mean": smapes[1],
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, (unit, _better) in table.items()}}
    extras = {"round_wall_s": rounds, "setup_builds_s": builds,
              "import_s": import_done - START}
    return result, extras


def smoke(import_done):
    """Every workload at a tiny size, untraced and traced; checks that the
    printed metrics match BENCHMARK.json in name, unit and direction."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    ok = True
    for kind, table in (("end_to_end", END_TO_END), ("per_layer", per_layer_table())):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}
        if listed != table:
            print(f"smoke: {kind} metrics of BENCHMARK.json differ from run.py: "
                  f"{sorted(set(listed.items()) ^ set(table.items()))}")
            ok = False
    names = [w["name"] for w in declared["workloads"]]
    for name in names:
        for trace, table in ((0, END_TO_END), (1, per_layer_table())):
            result, _ = run(name, 1, 0, trace, True, import_done)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (result["correct"] and result["attempted"] >= 1
                    and printed == {k: unit for k, (unit, _b) in table.items()})
            ok &= good
            print(f"smoke: {name} trace={trace} "
                  f"{'ok' if good else 'FAILED'} {json.dumps(result)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("item-zoo", "cross-item",
                                               "catalog-select"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="BENCH_<label>.json; default "
                        "<workload>-seed<seed>-trace<trace>")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the "
                        "printed metrics against BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import_done = import_program()
    if args.smoke:
        return smoke(import_done)

    result, extras = run(args.workload, args.seed, args.seconds, args.trace,
                         False, import_done)
    label = args.label or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"label": label, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **extras,
              "result": result}
    with open(ROOT / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
