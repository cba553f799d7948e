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


def stage_seed(master_seed: int, stage: str) -> int:
    """Deterministic per-stage expansion of the master seed."""
    ss = np.random.SeedSequence([int(master_seed), _STAGE_IDS[stage]])
    return int(ss.generate_state(1)[0])


def _atomic_write(path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _atomic_write_bytes(path, data: bytes):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _mark_incomplete(out_dir, stage, message):
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(os.path.join(out_dir, "INCOMPLETE"),
                      f"stage={stage}\nerror={message}\n")
    except OSError:
        pass


def write_run_config(path, stage: str, resolved: dict):
    lines = [f"[{stage}]"]
    lines.append(f"version = {__version__}")
    for key in sorted(resolved):
        lines.append(f"{key} = {resolved[key]}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Spec config files
# ---------------------------------------------------------------------------

_SPEC_META_KEYS = ("family", "feeding", "transform", "label", "clip_negative")


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
    specs = []
    for section in parser.sections():
        specs.append(spec_from_mapping(section, dict(parser.items(section))))
    if not specs:
        raise HierfcstError(f"no spec sections in {path}")
    return specs


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def cmd_ingest(args):
    tensor = ds.load_csv(args.input, missing_as_zero=not args.strict,
                         max_lead=args.max_lead)
    ds.save_cache(tensor, args.output)
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
    tensor = ds.synthesize(seed, args.items, args.periods, args.leads, args.regime)
    ds.save_cache(tensor, args.output)
    write_run_config(f"{args.output}.run.ini", "synth", {
        "seed": seed, "items": args.items, "periods": args.periods,
        "leads": args.leads, "regime": args.regime, "output": args.output})
    print(f"synthesized {args.regime} tensor ({args.items} items, "
          f"T={args.periods}, H={args.leads}) -> {args.output}")
    return 0


_KIND_ALIASES = {"none": "identity", "log": "log1p", "minmax": "minmax",
                 "identity": "identity", "log1p": "log1p"}


def _transform_kind(name: str) -> str:
    kind = _KIND_ALIASES.get(name)
    if kind is None:
        raise HierfcstError(f"unknown transform kind {name!r}")
    return kind


def cmd_transform(args):
    tensor = ds.load_cache(args.data)
    kind = _transform_kind(args.kind)
    sset = build_training_set(tensor, "all", args.window, args.leads, transform=kind)
    save_supervised(sset, args.output)
    write_run_config(f"{args.output}.run.ini", "transform", {
        "data": args.data, "kind": kind, "window": args.window,
        "leads": args.leads, "output": args.output,
        "n_rows": sset.X.shape[0]})
    print(f"wrote supervised cache with {sset.X.shape[0]} rows -> {args.output}")
    return 0


def cmd_train(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.spec)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    split.validate(tensor.n_periods)
    os.makedirs(args.out, exist_ok=True)
    H = min(tensor.n_leads, ds.DEFAULT_MAX_LEAD)
    W = H + 1
    n_models = 0
    for spec in specs:
        if spec.family in ("arx", "trmf") or spec.feeding == "none":
            # Series/matrix-route families are fitted inside backtest; the
            # store holds the matrix-interface models.
            continue
        anchors = range(split.train_periods - W + 1)
        if spec.feeding == "df_all_items":
            sset = build_training_set(tensor, "all", W, H, transform=spec.transform,
                                      fit_periods=split.train_range, anchors=anchors)
            fitted = fit(spec, sset.X, sset.Y)
            _store_model(args.out, spec, "ALL", fitted)
            n_models += 1
        else:
            for i, item in enumerate(tensor.items):
                sset = build_training_set(tensor, i, W, H, transform=spec.transform,
                                          fit_periods=split.train_range,
                                          anchors=anchors)
                fitted = fit(spec, sset.X, sset.Y, transform=sset.transforms[i])
                _store_model(args.out, spec, item, fitted)
                n_models += 1
    write_run_config(os.path.join(args.out, "run_config.ini"), "train", {
        "data": args.data, "spec": args.spec, "out": args.out,
        "train_periods": args.train_periods, "test_periods": args.test_periods,
        "n_models": n_models})
    print(f"stored {n_models} fitted models in {args.out}")
    return 0


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _store_model(out_dir, spec, item, fitted):
    path = os.path.join(out_dir, f"{_safe_name(spec.name)}__{_safe_name(str(item))}.pkl")
    payload = {"format_version": MODEL_STORE_VERSION, "item": item,
               "spec": spec.resolved_config(), "model": fitted}
    _atomic_write_bytes(path, pickle.dumps(payload))


def load_stored_model(path):
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except (AttributeError, ModuleNotFoundError) as exc:
            # Classes the store names no longer exist: a store written by
            # an older model format.
            raise HierfcstError(f"cannot load model store {path}: {exc}") from exc
    if payload.get("format_version") != MODEL_STORE_VERSION:
        raise HierfcstError(f"unsupported model store version in {path}")
    return payload


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

    def matrix_csv(M, header):
        lines = [",".join(header)]
        for row in np.atleast_2d(M):
            lines.append(",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"

    _atomic_write(os.path.join(args.out_dir, "factors.csv"),
                  matrix_csv(model.Z, [f"z{j}" for j in range(model.rank)]))
    _atomic_write(os.path.join(args.out_dir, "loadings.csv"),
                  matrix_csv(model.F, list(tensor.items)))
    _atomic_write(os.path.join(args.out_dir, "ar_coefficients.csv"),
                  matrix_csv(model.phi, [f"lag{i+1}" for i in range(model.ar_order)]))
    _atomic_write(os.path.join(args.out_dir, "forecasts.csv"),
                  matrix_csv(np.maximum(fc, 0.0), list(tensor.items)))
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
    resolved = {"data": args.data, "specs": args.specs,
                "train_periods": args.train_periods,
                "test_periods": args.test_periods, "out": args.out,
                "n_failures": len(board.failures)}
    for spec in specs:
        for k, v in spec.resolved_config().items():
            resolved[f"spec.{spec.name}.{k}"] = v
    write_run_config(f"{args.out}.run.ini", "backtest", resolved)
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
    indices = list(range(subset))
    sub = ds.PreorderTensor(items=[tensor.items[i] for i in indices],
                            values=tensor.values[indices],
                            observed_mask=tensor.observed_mask[indices])
    board = ev.backtest(sub, specs, split)
    labels = _best_labels(board, sub.items)

    series = [sub.gross_series(i)[:split.train_periods] for i in range(subset)]
    feats = extract_feature_matrix(series)
    graph = tda.mapper(feats, n_intervals=args.intervals, overlap=args.overlap)
    min_size = max(2, int(np.ceil(args.min_cluster_frac * subset)))
    tda.fiedler_partition(graph, min_size)
    selector = tda.label_and_route(graph, feats, labels, k=args.k)

    _atomic_write_bytes(args.out, pickle.dumps({
        "format_version": SELECTOR_VERSION, "selector": selector,
        "train_periods": split.train_periods}))
    _atomic_write(args.graph, graph.to_json())
    dot_path = os.path.splitext(args.graph)[0] + ".dot"
    _atomic_write(dot_path, graph.to_dot())
    write_run_config(f"{args.out}.run.ini", "select", {
        "data": args.data, "models": args.models, "subset": subset,
        "intervals": args.intervals, "overlap": args.overlap, "k": args.k,
        "min_cluster_frac": args.min_cluster_frac, "out": args.out,
        "graph": args.graph, "clusters": len(selector.cluster_labels)})
    shares = selector.cluster_shares()
    print(f"selector with {len(selector.cluster_labels)} clusters -> {args.out}")
    for key, pct in shares.items():
        print(f"  {key}: {pct:.1f}%")
    return 0


def _best_labels(board, items) -> list:
    """Best spec of every item; an item that no spec scored stops the stage."""
    missing = [item for item in items if item not in board.best_model]
    if missing:
        raise HierfcstError(f"no spec scored items {missing}")
    return [board.best_model[item] for item in items]


def load_selector(path):
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("format_version") != SELECTOR_VERSION:
        raise HierfcstError(f"unsupported selector version in {path}")
    return payload["selector"]


def cmd_report(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.specs)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    board = ev.backtest(tensor, specs, split)
    report = ev.best_forecast_report(board, args.item)
    out = args.out or f"report_{_safe_name(args.item)}.csv"
    _atomic_write(out, report.to_csv())
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

    run = dict(parser.items("run")) if parser.has_section("run") else {}
    out_dir = run.get("out_dir", "runs/latest")
    master_seed = int(run.get("seed", 0))
    os.makedirs(out_dir, exist_ok=True)

    data = dict(parser.items("data")) if parser.has_section("data") else {}
    tensor_path = os.path.join(out_dir, "tensor.npz")
    if data.get("source", "synth") == "csv":
        tensor = ds.load_csv(data["csv_path"])
    else:
        tensor = ds.synthesize(int(data.get("seed", stage_seed(master_seed, "synth"))),
                               int(data.get("items", 20)),
                               int(data.get("periods", 45)),
                               int(data.get("leads", 4)),
                               data.get("regime", "smooth"))
    ds.save_cache(tensor, tensor_path)

    pp = dict(parser.items("preprocess")) if parser.has_section("preprocess") else {}
    H = int(pp.get("leads", min(tensor.n_leads, ds.DEFAULT_MAX_LEAD)))
    W = int(pp.get("window", H + 1))
    kind = _transform_kind(pp.get("transform", "none"))
    sset = build_training_set(tensor, "all", W, H, transform=kind)
    save_supervised(sset, os.path.join(out_dir, "supervised.npz"))

    spec_sections = [s for s in parser.sections() if s.startswith("spec:")]
    specs = [spec_from_mapping(s.split(":", 1)[1], dict(parser.items(s)))
             for s in spec_sections]
    if not specs:
        raise HierfcstError("pipeline config defines no [spec:*] sections")

    bt = dict(parser.items("backtest")) if parser.has_section("backtest") else {}
    split = ev.BacktestSplit(int(bt.get("train_periods", 37)),
                             int(bt.get("test_periods", 8)))
    board = ev.backtest(tensor, specs, split)

    sel = dict(parser.items("select")) if parser.has_section("select") else {}
    if str(sel.get("enabled", "true")).lower() != "false" and tensor.n_items >= 4:
        labels = _best_labels(board, tensor.items)
        series = [tensor.gross_series(i)[:split.train_periods]
                  for i in range(tensor.n_items)]
        feats = extract_feature_matrix(series)
        graph = tda.mapper(feats, n_intervals=int(sel.get("intervals", 10)),
                           overlap=float(sel.get("overlap", 0.3)))
        min_size = max(2, int(np.ceil(float(sel.get("min_cluster_frac", 0.05))
                                      * tensor.n_items)))
        tda.fiedler_partition(graph, min_size)
        selector = tda.label_and_route(graph, feats, labels,
                                       k=int(sel.get("k", tda.DEFAULT_KNN)))
        _atomic_write_bytes(os.path.join(out_dir, "selector.bin"), pickle.dumps({
            "format_version": SELECTOR_VERSION, "selector": selector,
            "train_periods": split.train_periods}))
        _atomic_write(os.path.join(out_dir, "graph.json"), graph.to_json())
        _atomic_write(os.path.join(out_dir, "graph.dot"), graph.to_dot())

    rep = dict(parser.items("report")) if parser.has_section("report") else {}
    report_items = rep.get("items", "").split() or [tensor.items[0]]
    for item in report_items:
        report = ev.best_forecast_report(board, item)
        _atomic_write(os.path.join(out_dir, f"report_{_safe_name(item)}.csv"),
                      report.to_csv())
    # Written once every stage has passed: a failed run leaves no leaderboard.
    _atomic_write(os.path.join(out_dir, "leaderboard.csv"), board.to_csv())

    resolved = {"config": str(config_path), "out_dir": out_dir,
                "seed": master_seed, "n_specs": len(specs),
                "train_periods": split.train_periods,
                "test_periods": split.test_periods}
    for spec in specs:
        for k, v in spec.resolved_config().items():
            resolved[f"spec.{spec.name}.{k}"] = v
    write_run_config(os.path.join(out_dir, "run_config.ini"), "pipeline", resolved)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "INCOMPLETE"))  # left by a failed run
    print(f"pipeline complete; artifacts in {out_dir}")
    return 0


def cmd_pipeline(args):
    return run_pipeline(args.config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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
    p.add_argument("--regime", choices=ds.REGIMES, default="smooth")
    p.add_argument("--items", type=int, default=20)
    p.add_argument("--periods", type=int, default=45)
    p.add_argument("--leads", type=int, default=ds.DEFAULT_MAX_LEAD)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("transform", help="write a cached supervised dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), default="none")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--leads", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="fit specs and store models per (item, spec)")
    p.add_argument("--spec", required=True, help="INI file, one section per spec")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-periods", type=int, default=37)
    p.add_argument("--test-periods", type=int, default=8)
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
    p.add_argument("--train-periods", type=int, default=37)
    p.add_argument("--test-periods", type=int, default=8)
    p.add_argument("--out", default="leaderboard.csv")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("select", help="fit the TDA model selector")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="spec INI for the candidates")
    p.add_argument("--subset", type=int, default=200)
    p.add_argument("--intervals", type=int, default=tda.DEFAULT_INTERVALS)
    p.add_argument("--overlap", type=float, default=tda.DEFAULT_OVERLAP)
    p.add_argument("--k", type=int, default=tda.DEFAULT_KNN)
    p.add_argument("--min-cluster-frac", type=float, default=0.05)
    p.add_argument("--train-periods", type=int, default=37)
    p.add_argument("--test-periods", type=int, default=8)
    p.add_argument("--out", default="selector.bin")
    p.add_argument("--graph", default="graph.json")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="per-item forecast/actual CSV for plotting")
    p.add_argument("--data", required=True)
    p.add_argument("--specs", required=True)
    p.add_argument("--item", required=True)
    p.add_argument("--train-periods", type=int, default=37)
    p.add_argument("--test-periods", type=int, default=8)
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
        try:
            parser.read(args.config)
            out_dir = parser.get("run", "out_dir", fallback=None)
            if out_dir:
                return out_dir
        except configparser.Error:
            pass
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
