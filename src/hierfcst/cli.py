"""Batch command-line entry point.

Subcommands: ingest, synth, transform, train, trmf, backtest, select,
report, pipeline.  Every run resolves its configuration (built-in defaults
< config file < explicit flags), writes the resolved key/value table next
to its outputs, and derives all stage randomness from one master seed, so
re-running a recorded config reproduces outputs byte-for-byte.  The tool is
fully offline.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import glob
import os
import pickle
import sys

import numpy as np

from . import __version__
from . import dataset as ds
from . import evaluate as ev
from . import tda
from . import trmf as trmf_mod
from .errors import HierfcstError, OutOfScopeError
from .features import extract_feature_matrix
from .models import ModelSpec, fit
from .models.spec import _coerce
from .preprocess import build_training_set, save_supervised

STAGE_EXIT = {"ingest": 10, "synth": 11, "transform": 12, "train": 13,
              "trmf": 14, "backtest": 15, "select": 16, "report": 17,
              "pipeline": 18}

_STAGE_IDS = {name: i for i, name in enumerate(sorted(STAGE_EXIT))}

MODEL_STORE_VERSION = 2
SELECTOR_VERSION = 1

# What `hierfcst pipeline` writes to its out_dir besides the tensor and
# supervised caches, the report_<item>.csv files and the INCOMPLETE marker.
PIPELINE_ARTIFACTS = ("leaderboard.csv", "graph.json", "graph.dot", "selector.bin",
                      "run_config.ini")

# Defaults shared by the subcommands' flags and the pipeline's config keys.
_SPLIT = ev.BacktestSplit()
_SYNTH_ITEMS, _SYNTH_PERIODS, _SYNTH_REGIME = 20, 45, "smooth"
_TRANSFORM_KIND = "none"
_MIN_CLUSTER_FRAC = 0.05


def stage_seed(master_seed: int, stage: str) -> int:
    """Deterministic per-stage expansion of the master seed."""
    ss = np.random.SeedSequence([int(master_seed), _STAGE_IDS[stage]])
    return int(ss.generate_state(1)[0])


def _atomic_write(path, text: str):
    with ds._atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_versioned(path, version: int, **fields):
    """Pickle {"format_version": version, **fields} atomically at path."""
    with ds._atomic_file(path) as fh:
        pickle.dump({"format_version": version, **fields}, fh)


def _read_versioned(path, what: str, version: int) -> dict:
    """The dict a _write_versioned file at path holds; an unreadable file or
    one of another version raises HierfcstError naming the path."""
    # The except clause lists what reading raises on a missing, truncated or
    # foreign file, or on one that names classes the package no longer has.
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, EOFError, MemoryError, pickle.UnpicklingError,
            AttributeError, ImportError, IndexError, KeyError, TypeError,
            ValueError, OverflowError) as exc:
        raise HierfcstError(f"cannot load {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise HierfcstError(f"cannot load {what} {path}: not a dict")
    if payload.get("format_version") != version:
        raise HierfcstError(f"unsupported {what} version in {path}")
    return payload


def _mark_incomplete(out_dir, stage, message):
    with contextlib.suppress(OSError):
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(os.path.join(out_dir, "INCOMPLETE"),
                      f"stage={stage}\nerror={message}\n")


def write_run_config(path, stage: str, resolved: dict):
    lines = [f"[{stage}]", f"version = {__version__}"]
    lines += [f"{key} = {resolved[key]}" for key in sorted(resolved)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _spec_records(specs) -> dict:
    """The run-record entries spec.<name>.<key> of every spec."""
    return {f"spec.{spec.name}.{k}": v
            for spec in specs for k, v in spec.resolved_config().items()}


# ---------------------------------------------------------------------------
# Spec config files
# ---------------------------------------------------------------------------

_SPEC_META_KEYS = ("family", "feeding", "transform", "label", "clip_negative")


def _section(parser, name) -> dict:
    """The keys of an INI section; an absent section has none."""
    return dict(parser.items(name)) if parser.has_section(name) else {}


def spec_from_mapping(name: str, mapping: dict) -> ModelSpec:
    family = mapping.get("family")
    if family is None:
        raise HierfcstError(f"spec {name!r} is missing the 'family' key")
    hyper = {key: _coerce(str(raw)) for key, raw in mapping.items()
             if key not in _SPEC_META_KEYS}
    clip = str(mapping.get("clip_negative", "true")).strip().lower() != "false"
    return ModelSpec(family=family, hyperparams=hyper,
                     transform=mapping.get("transform", "identity"),
                     feeding=mapping.get("feeding", "none"),
                     label=mapping.get("label", name), clip_negative=clip)


def load_specs(path) -> list:
    """Parse one ModelSpec per section of an INI file."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise HierfcstError(f"cannot read spec config {path}")
    specs = [spec_from_mapping(s, _section(parser, s)) for s in parser.sections()]
    if not specs:
        raise HierfcstError(f"no spec sections in {path}")
    return specs


# ---------------------------------------------------------------------------
# Stage implementations, each run by its subcommand and by the pipeline
# ---------------------------------------------------------------------------

def _ingest(csv_path, output, strict=False, max_lead=ds.DEFAULT_MAX_LEAD):
    tensor = ds.load_csv(csv_path, missing_as_zero=not strict, max_lead=max_lead)
    ds.save_cache(tensor, output)
    return tensor


def _synth(output, seed, items, periods, leads, regime):
    tensor = ds.synthesize(seed, items, periods, leads, regime)
    ds.save_cache(tensor, output)
    return tensor


_KIND_ALIASES = {"none": "identity", "log": "log1p", "minmax": "minmax",
                 "identity": "identity", "log1p": "log1p"}


def _transform(tensor, name, leads, output):
    kind = _KIND_ALIASES.get(name)
    if kind is None:
        raise HierfcstError(f"unknown transform kind {name!r}")
    sset = build_training_set(tensor, "all", leads, transform=kind)
    save_supervised(sset, output)
    return sset


def _select(tensor, board, train_periods, intervals, overlap, k, min_cluster_frac,
            out, graph_path):
    """Fit the TDA selector on the tensor's items labelled by their best
    specs; write it to out and the Mapper graph to graph_path and its .dot.
    An item that no spec scored has no label: it stops the stage."""
    missing = [item for item in tensor.items if item not in board.best_model]
    if missing:
        raise HierfcstError(f"no spec scored items {missing}")
    labels = [board.best_model[item] for item in tensor.items]
    series = [tensor.gross_series(i)[:train_periods] for i in range(tensor.n_items)]
    feats = extract_feature_matrix(series)
    graph = tda.mapper(feats, n_intervals=intervals, overlap=overlap)
    min_size = max(2, int(np.ceil(min_cluster_frac * tensor.n_items)))
    tda.fiedler_partition(graph, min_size)
    selector = tda.label_and_route(graph, feats, labels, k=k)
    _write_versioned(out, SELECTOR_VERSION, selector=selector,
                     train_periods=train_periods)
    _atomic_write(graph_path, graph.to_json())
    _atomic_write(os.path.splitext(graph_path)[0] + ".dot", graph.to_dot())
    return selector


def _report(board, item, out=None, out_dir=""):
    """The item's best-forecast report, written to out or out_dir/report_<item>.csv."""
    report = ev.best_forecast_report(board, item)
    out = out or os.path.join(out_dir, f"report_{_safe_name(item)}.csv")
    _atomic_write(out, report.to_csv())
    return report, out


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def cmd_ingest(args):
    tensor = _ingest(args.input, args.output, args.strict, args.max_lead)
    write_run_config(f"{args.output}.run.ini", "ingest", {
        "input": args.input, "output": args.output,
        "strict": args.strict, "max_lead": args.max_lead,
        "n_items": tensor.n_items, "n_periods": tensor.n_periods,
        "n_leads": tensor.n_leads})
    print(f"ingested {tensor.n_items} items x {tensor.n_periods} periods "
          f"x {tensor.n_leads} leads -> {args.output}")
    return 0


def cmd_synth(args):
    seed = args.seed if args.seed is not None else stage_seed(args.master_seed, "synth")
    _synth(args.output, seed, args.items, args.periods, args.leads, args.regime)
    write_run_config(f"{args.output}.run.ini", "synth", {
        "seed": seed, "items": args.items, "periods": args.periods,
        "leads": args.leads, "regime": args.regime, "output": args.output})
    print(f"synthesized {args.regime} tensor ({args.items} items, "
          f"T={args.periods}, H={args.leads}) -> {args.output}")
    return 0


def cmd_transform(args):
    tensor = ds.load_cache(args.data)
    sset = _transform(tensor, args.kind, args.leads, args.output)
    write_run_config(f"{args.output}.run.ini", "transform", {
        "data": args.data, "kind": _KIND_ALIASES[args.kind], "leads": args.leads,
        "output": args.output, "n_rows": sset.X.shape[0]})
    print(f"wrote supervised cache with {sset.X.shape[0]} rows -> {args.output}")
    return 0


def cmd_train(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.spec)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    split.validate(tensor.n_periods)
    os.makedirs(args.out, exist_ok=True)
    designs = {}
    n_models = 0
    for spec in specs:
        key = ev._design_key(spec)
        if key is None or key[0] != "df":
            # The series/matrix-route and no-feeding models are fitted
            # inside backtest; the store holds the diagonal-feeding ones.
            continue
        # The backtest's training rows: X[i], Y[i] are item i's frames.
        if key not in designs:
            designs[key] = ev._build_design(tensor, key, split)
        tf, X, Y = designs[key][:3]
        if spec.feeding == "df_all_items":
            _store_model(args.out, spec, "ALL", fit(spec, X.reshape(-1, X.shape[-1]),
                                                    Y.reshape(-1, Y.shape[-1])))
            n_models += 1
            continue
        for i, item in enumerate(tensor.items):
            _store_model(args.out, spec, item, fit(spec, X[i], Y[i], transform=tf[i]))
            n_models += 1
    write_run_config(os.path.join(args.out, "run_config.ini"), "train", {
        "data": args.data, "spec": args.spec, "out": args.out,
        "train_periods": args.train_periods, "test_periods": args.test_periods,
        "n_models": n_models})
    print(f"stored {n_models} fitted models in {args.out}")
    return 0


def _store_model(out_dir, spec, item, fitted):
    path = os.path.join(out_dir, f"{_safe_name(spec.name)}__{_safe_name(str(item))}.pkl")
    _write_versioned(path, MODEL_STORE_VERSION, item=item,
                     spec=spec.resolved_config(), model=fitted)


def load_stored_model(path):
    return _read_versioned(path, "model store", MODEL_STORE_VERSION)


def cmd_trmf(args):
    tensor = ds.load_cache(args.data)
    cfg = trmf_mod.TrmfConfig(rank=args.rank, ar_order=args.ar_order,
                              lam_f=args.lambda_f, lam_z=args.lambda_z,
                              lam_ar=args.lambda_ar, max_sweeps=args.sweeps,
                              tol=args.tol, seed=args.seed,
                              allow_low_density=args.allow_low_density)
    Y = tensor.values[:, :, 0].T
    mask = tensor.observed_mask[:, :, 0].T
    model = trmf_mod.factorize(Y, mask, cfg)
    fc = trmf_mod.forecast(model, args.horizon)
    os.makedirs(args.out_dir, exist_ok=True)

    for name, M, header in (
            ("factors", model.Z, [f"z{j}" for j in range(model.rank)]),
            ("loadings", model.F, tensor.items),
            ("ar_coefficients", model.phi, [f"lag{i+1}" for i in range(model.ar_order)]),
            ("forecasts", np.maximum(fc, 0.0), tensor.items)):
        rows = [",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(M)]
        _atomic_write(os.path.join(args.out_dir, f"{name}.csv"),
                      "\n".join([",".join(header)] + rows) + "\n")
    write_run_config(os.path.join(args.out_dir, "run_config.ini"), "trmf", {
        "data": args.data, "rank": args.rank, "ar_order": args.ar_order,
        "lambda_f": args.lambda_f, "lambda_z": args.lambda_z,
        "lambda_ar": args.lambda_ar, "sweeps": args.sweeps, "tol": args.tol,
        "seed": args.seed, "horizon": args.horizon,
        "final_objective": f"{model.objective_history[-1]:.12g}",
        "n_sweeps": len(model.objective_history) - 1, "converged": model.converged})
    print(f"factorized rank={args.rank} p={args.ar_order}; final objective "
          f"{model.objective_history[-1]:.6g}; forecasts -> {args.out_dir}")
    return 0


def cmd_backtest(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.specs)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    board = ev.backtest(tensor, specs, split)
    _atomic_write(args.out, board.to_csv())
    write_run_config(f"{args.out}.run.ini", "backtest", {
        "data": args.data, "specs": args.specs, "train_periods": args.train_periods,
        "test_periods": args.test_periods, "out": args.out,
        "n_failures": len(board.failures), **_spec_records(specs)})
    print(board.to_csv(), end="")
    if board.failures:
        print(f"{len(board.failures)} per-cell failures (excluded from argmin)",
              file=sys.stderr)
    return 0


def cmd_select(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.models)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    subset = min(args.subset, tensor.n_items)
    sub = ds.PreorderTensor(items=tensor.items[:subset], values=tensor.values[:subset],
                            observed_mask=tensor.observed_mask[:subset])
    board = ev.backtest(sub, specs, split)
    selector = _select(sub, board, split.train_periods, args.intervals, args.overlap,
                       args.k, args.min_cluster_frac, args.out, args.graph)
    write_run_config(f"{args.out}.run.ini", "select", {
        "data": args.data, "models": args.models, "subset": subset,
        "intervals": args.intervals, "overlap": args.overlap, "k": args.k,
        "min_cluster_frac": args.min_cluster_frac, "out": args.out,
        "graph": args.graph, "clusters": len(selector.cluster_labels)})
    print(f"selector with {len(selector.cluster_labels)} clusters -> {args.out}")
    for key, pct in selector.cluster_shares().items():
        print(f"  {key}: {pct:.1f}%")
    return 0


def load_selector(path):
    return _read_versioned(path, "selector", SELECTOR_VERSION)["selector"]


def cmd_report(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.specs)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    board = ev.backtest(tensor, specs, split)
    report, out = _report(board, args.item, args.out)
    write_run_config(f"{out}.run.ini", "report", {
        "data": args.data, "specs": args.specs, "item": args.item,
        "train_periods": args.train_periods, "test_periods": args.test_periods,
        "best_spec": report.spec_name, "smape": f"{report.smape:.12g}",
        "mimicry_flag": report.mimicry_flag, "out": out})
    print(f"item {args.item}: best={report.spec_name} "
          f"smape={report.smape:.4g} mimicry={report.mimicry_flag} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Whole pipeline from one config file
# ---------------------------------------------------------------------------

def run_pipeline(config_path) -> int:
    """Ingest/synthesize, transform, backtest, select and report from one
    recorded configuration; artifacts land in [run] out_dir."""
    parser = configparser.ConfigParser()
    if not parser.read(config_path):
        raise HierfcstError(f"cannot read pipeline config {config_path}")

    run = _section(parser, "run")
    out_dir = run.get("out_dir", "runs/latest")
    master_seed = int(run.get("seed", 0))
    os.makedirs(out_dir, exist_ok=True)
    # An earlier run's artifacts go before this run writes anything, so a
    # failed run leaves only its own files next to its INCOMPLETE marker.
    for name in PIPELINE_ARTIFACTS + tuple(glob.glob("report_*.csv", root_dir=out_dir)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))

    data = _section(parser, "data")
    tensor_path = os.path.join(out_dir, "tensor.npz")
    if data.get("source", "synth") == "csv":
        tensor = _ingest(data["csv_path"], tensor_path)
    else:
        tensor = _synth(tensor_path,
                        int(data.get("seed", stage_seed(master_seed, "synth"))),
                        int(data.get("items", _SYNTH_ITEMS)),
                        int(data.get("periods", _SYNTH_PERIODS)),
                        int(data.get("leads", ds.DEFAULT_MAX_LEAD)),
                        data.get("regime", _SYNTH_REGIME))

    pp = _section(parser, "preprocess")
    _transform(tensor, pp.get("transform", _TRANSFORM_KIND),
               int(pp.get("leads", ev.frame_leads(tensor))),
               os.path.join(out_dir, "supervised.npz"))

    specs = [spec_from_mapping(s.split(":", 1)[1], _section(parser, s))
             for s in parser.sections() if s.startswith("spec:")]
    if not specs:
        raise HierfcstError("pipeline config defines no [spec:*] sections")

    bt = _section(parser, "backtest")
    split = ev.BacktestSplit(int(bt.get("train_periods", _SPLIT.train_periods)),
                             int(bt.get("test_periods", _SPLIT.test_periods)))
    board = ev.backtest(tensor, specs, split)

    sel = _section(parser, "select")
    if str(sel.get("enabled", "true")).lower() != "false" and tensor.n_items >= 4:
        _select(tensor, board, split.train_periods,
                int(sel.get("intervals", tda.DEFAULT_INTERVALS)),
                float(sel.get("overlap", tda.DEFAULT_OVERLAP)),
                int(sel.get("k", tda.DEFAULT_KNN)),
                float(sel.get("min_cluster_frac", _MIN_CLUSTER_FRAC)),
                os.path.join(out_dir, "selector.bin"),
                os.path.join(out_dir, "graph.json"))

    for item in _section(parser, "report").get("items", "").split() or [tensor.items[0]]:
        _report(board, item, out_dir=out_dir)
    # Written once every stage has passed: a failed run leaves no leaderboard.
    _atomic_write(os.path.join(out_dir, "leaderboard.csv"), board.to_csv())

    write_run_config(os.path.join(out_dir, "run_config.ini"), "pipeline", {
        "config": str(config_path), "out_dir": out_dir, "seed": master_seed,
        "n_specs": len(specs), "train_periods": split.train_periods,
        "test_periods": split.test_periods, **_spec_records(specs)})
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "INCOMPLETE"))  # left by a failed run
    print(f"pipeline complete; artifacts in {out_dir}")
    return 0


def cmd_pipeline(args):
    return run_pipeline(args.config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_split_flags(p):
    p.add_argument("--train-periods", type=int, default=_SPLIT.train_periods)
    p.add_argument("--test-periods", type=int, default=_SPLIT.test_periods)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hierfcst",
        description="Hierarchical pre-order demand forecasting toolkit")
    parser.add_argument("--master-seed", type=int, default=0,
                        help="top-level seed; stage seeds derive from it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a pre-order CSV into a binary cache")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--strict", action="store_true",
                   help="error on absent grid combinations instead of zero-filling")
    p.add_argument("--max-lead", type=int, default=ds.DEFAULT_MAX_LEAD)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic tensor")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--regime", choices=ds.REGIMES, default=_SYNTH_REGIME)
    p.add_argument("--items", type=int, default=_SYNTH_ITEMS)
    p.add_argument("--periods", type=int, default=_SYNTH_PERIODS)
    p.add_argument("--leads", type=int, default=ds.DEFAULT_MAX_LEAD)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("transform", help="write a cached supervised dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), default=_TRANSFORM_KIND)
    p.add_argument("--leads", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="fit specs and store models per (item, spec)")
    p.add_argument("--spec", required=True, help="INI file, one section per spec")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_split_flags(p)
    p.set_defaults(func=cmd_train)

    cfg = trmf_mod.TrmfConfig()
    p = sub.add_parser("trmf", help="temporal-regularized matrix factorization")
    p.add_argument("--data", required=True)
    p.add_argument("--rank", type=int, default=cfg.rank)
    p.add_argument("--ar-order", type=int, default=cfg.ar_order)
    p.add_argument("--lambda-f", type=float, default=cfg.lam_f)
    p.add_argument("--lambda-z", type=float, default=cfg.lam_z)
    p.add_argument("--lambda-ar", type=float, default=cfg.lam_ar)
    p.add_argument("--sweeps", type=int, default=cfg.max_sweeps)
    p.add_argument("--tol", type=float, default=cfg.tol)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--allow-low-density", action="store_true")
    p.add_argument("--out-dir", default="trmf_out")
    p.set_defaults(func=cmd_trmf)

    p = sub.add_parser("backtest", help="score specs on the fixed split")
    p.add_argument("--specs", required=True)
    p.add_argument("--data", required=True)
    _add_split_flags(p)
    p.add_argument("--out", default="leaderboard.csv")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("select", help="fit the TDA model selector")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="spec INI for the candidates")
    p.add_argument("--subset", type=int, default=200)
    p.add_argument("--intervals", type=int, default=tda.DEFAULT_INTERVALS)
    p.add_argument("--overlap", type=float, default=tda.DEFAULT_OVERLAP)
    p.add_argument("--k", type=int, default=tda.DEFAULT_KNN)
    p.add_argument("--min-cluster-frac", type=float, default=_MIN_CLUSTER_FRAC)
    _add_split_flags(p)
    p.add_argument("--out", default="selector.bin")
    p.add_argument("--graph", default="graph.json")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="per-item forecast/actual CSV for plotting")
    p.add_argument("--data", required=True)
    p.add_argument("--specs", required=True)
    p.add_argument("--item", required=True)
    _add_split_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage from one config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _failure_dir(args) -> str:
    """Directory of the stage's intended output, for the INCOMPLETE marker."""
    if getattr(args, "out_dir", None):
        return args.out_dir
    for attr in ("out", "output"):
        target = getattr(args, attr, None)
        if target:
            return os.path.dirname(target) or "."
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        with contextlib.suppress(configparser.Error):
            parser.read(args.config)
            return parser.get("run", "out_dir", fallback=None) or "."
    return "."


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutOfScopeError, HierfcstError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        _mark_incomplete(_failure_dir(args), args.command, str(exc))
        return STAGE_EXIT.get(args.command, 1)


if __name__ == "__main__":
    sys.exit(main())
