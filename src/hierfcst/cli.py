"""Batch command-line entry point.

Subcommands: ingest, synth, transform, train, trmf, backtest, select,
report, pipeline.  `pipeline` runs ingest or synth, backtest, select and
report from one config file.  Every run writes a record next to its outputs
(configparser, no interpolation): a [<command>] section with the version,
every flag under its argparse dest and what the run worked out, then one
[spec:NAME] section per spec.  The pipeline records its resolved config,
which re-runs to the same artifacts.  All stage randomness derives from
one master seed.  The tool is fully offline.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import glob
import io
import os
import pickle
import sys

import numpy as np

from . import __version__
from . import dataset as ds
from . import evaluate as ev
from . import tda
from . import trmf as trmf_mod
from .errors import HierfcstError, OutOfScopeError, require_at_least
from .features import extract_feature_matrix
from .models import ModelSpec, fit
from .models.spec import _coerce
from .preprocess import TRANSFORM_KINDS, build_training_set, save_supervised

STAGE_EXIT = {"ingest": 10, "synth": 11, "transform": 12, "train": 13,
              "trmf": 14, "backtest": 15, "select": 16, "report": 17,
              "pipeline": 18}

_STAGE_IDS = {name: i for i, name in enumerate(sorted(STAGE_EXIT))}

MODEL_STORE_VERSION = 4
SELECTOR_VERSION = 1

# What `hierfcst pipeline` writes to its out_dir besides the tensor cache,
# the report_<item>.csv files and the INCOMPLETE marker.
PIPELINE_ARTIFACTS = ("leaderboard.csv", "graph.json", "graph.dot", "selector.bin",
                      "run_config.ini")

# Defaults shared by the subcommands' flags and the pipeline's config keys.
_SPLIT = ev.BacktestSplit()
_SYNTH_ITEMS, _SYNTH_PERIODS, _SYNTH_REGIME = 20, 45, "smooth"
_MIN_CLUSTER_FRAC = 0.05
_OUT_DIR = "runs/latest"


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


# Every INI file is read and written without interpolation, so a `%` in a
# path or label reads back as written.
def _read_ini(path, what: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if parser.read(path):
            return parser
    except configparser.Error as exc:
        raise HierfcstError(f"cannot read {what} {path}: {exc}") from exc
    raise HierfcstError(f"cannot read {what} {path}")


def write_run_config(path, stage: str, record: dict, specs=(), tables=None):
    """Write a run record: [stage] holds the version and record, then come
    the sections of tables and one [spec:NAME] section per spec."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({stage: {"version": __version__, **record}, **(tables or {}),
                      **{f"spec:{spec.name}": spec.section() for spec in specs}})
    with io.StringIO() as text:
        parser.write(text)
        _atomic_write(path, text.getvalue())


def _record(args, path, specs=(), **worked_out):
    """Write a subcommand's run record: its flags by dest, overridden by
    what the run worked out."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    write_run_config(path, args.command, {**flags, **worked_out}, specs)


# ---------------------------------------------------------------------------
# Spec config files
# ---------------------------------------------------------------------------

_SPEC_META_KEYS = ("family", "feeding", "transform", "label")


def spec_from_mapping(name: str, mapping: dict) -> ModelSpec:
    family = mapping.get("family")
    if family is None:
        raise HierfcstError(f"spec {name!r} is missing the 'family' key")
    hyper = {key: _coerce(str(raw)) for key, raw in mapping.items()
             if key not in _SPEC_META_KEYS}
    try:
        return ModelSpec(family=family, hyperparams=hyper,
                         transform=mapping.get("transform", "identity"),
                         feeding=mapping.get("feeding", "none"),
                         label=mapping.get("label", name))
    except HierfcstError as exc:
        raise type(exc)(f"spec {name!r}: {exc}") from exc


def load_specs(path) -> list:
    """Parse one ModelSpec per section of an INI file."""
    parser = _read_ini(path, "spec config")
    specs = [spec_from_mapping(s, dict(parser[s])) for s in parser.sections()]
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


def _check_select(intervals, overlap, k, min_cluster_frac):
    """The checks of the selection values, made before the backtest whose
    board they would select over."""
    tda.check_cover(intervals, overlap)
    require_at_least("k", k, 1)
    if not 0.0 < min_cluster_frac <= 1.0:
        raise HierfcstError(f"min_cluster_frac must be in (0, 1], got {min_cluster_frac}")


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


def _first_clash(names):
    """Positions (i, j), i < j, of the first two of ``names`` that are equal
    ignoring case, or None: one file on a case-insensitive file system, and
    one key of a run record, whose keys configparser lower-cases."""
    seen = {}
    for j, name in enumerate(names):
        i = seen.setdefault(name.lower(), j)
        if i != j:
            return i, j
    return None


def cmd_ingest(args):
    tensor = _ingest(args.input, args.output, args.strict, args.max_lead)
    _record(args, f"{args.output}.run.ini", n_items=tensor.n_items,
            n_periods=tensor.n_periods, n_leads=tensor.n_leads)
    print(f"ingested {tensor.n_items} items x {tensor.n_periods} periods "
          f"x {tensor.n_leads} leads -> {args.output}")
    return 0


def cmd_synth(args):
    seed = args.seed if args.seed is not None else stage_seed(args.master_seed, "synth")
    _synth(args.output, seed, args.items, args.periods, args.leads, args.regime)
    _record(args, f"{args.output}.run.ini", seed=seed)
    print(f"synthesized {args.regime} tensor ({args.items} items, "
          f"T={args.periods}, H={args.leads}) -> {args.output}")
    return 0


def cmd_transform(args):
    """Export the diagonal-feeding rows the backtest fits under the split."""
    tensor = ds.load_cache(args.data)
    split = ev.BacktestSplit(args.train_periods)
    sset = build_training_set(tensor, **ev.df_training_rows(tensor, args.kind, split))
    save_supervised(sset, args.output)
    _record(args, f"{args.output}.run.ini", leads=sset.H, n_rows=sset.X.shape[0])
    print(f"wrote supervised cache with {sset.X.shape[0]} rows -> {args.output}")
    return 0


def cmd_train(args):
    tensor = ds.load_cache(args.data)
    # The series/matrix-route and no-feeding models are fitted inside
    # backtest; the store holds the diagonal-feeding ones.
    specs = [spec for spec in load_specs(args.spec) if spec.feeding in ev.DF_FEEDINGS]
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    split.validate(tensor.n_periods)
    stored = [(spec, item) for spec in specs for item in
              (["ALL"] if spec.feeding == "df_all_items" else tensor.items)]
    clash = _first_clash([_store_stem(*pair) for pair in stored])
    if clash:
        (a, i), (b, j) = (stored[c] for c in clash)
        raise HierfcstError(f"spec {a.name!r} item {i!r} and spec {b.name!r} item {j!r} "
                            f"would share the stored model {_store_stem(a, i)}.pkl "
                            "(names are compared ignoring case)")
    os.makedirs(args.out_dir, exist_ok=True)
    designs = {}
    n_models = 0
    failures = {}
    for spec in specs:
        key = ev._design_key(spec)
        # The backtest's training rows: X[i], Y[i] are item i's frames.
        if key not in designs:
            designs[key] = ev._build_design(tensor, key, split)
        tf, X, Y = designs[key][:3]
        if spec.feeding == "df_all_items":
            fits = [("ALL", X.reshape(-1, X.shape[-1]), Y.reshape(-1, Y.shape[-1]), None)]
        else:
            fits = [(item, X[i], Y[i], tf[i]) for i, item in enumerate(tensor.items)]
        # As in backtest, a fit that fails is recorded and the rest go on.
        for item, Xi, Yi, tfi in fits:
            try:
                fitted = fit(spec, Xi, Yi, transform=tfi)
            except ev.ITEM_ERRORS as exc:
                message = ev._failure_message(exc)
                print(f"train: {spec.name} {item}: {message}", file=sys.stderr)
                failures[f"failure.{_store_stem(spec, item)}"] = message
                continue
            _store_model(args.out_dir, spec, item, fitted)
            n_models += 1
    _record(args, os.path.join(args.out_dir, "run_config.ini"), n_models=n_models,
            n_failures=len(failures), **failures)
    print(f"stored {n_models} fitted models in {args.out_dir}")
    return 0


def _store_stem(spec, item) -> str:
    """The file name, without .pkl, of a spec's stored model of an item."""
    return f"{_safe_name(spec.name)}__{_safe_name(str(item))}"


def _store_model(out_dir, spec, item, fitted):
    _write_versioned(os.path.join(out_dir, f"{_store_stem(spec, item)}.pkl"),
                     MODEL_STORE_VERSION, item=item, spec=spec.section(),
                     model=fitted)


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
    _record(args, os.path.join(args.out_dir, "run_config.ini"),
            final_objective=f"{model.objective_history[-1]:.12g}",
            n_sweeps=len(model.objective_history) - 1, converged=model.converged,
            unobserved_periods=model.unobserved_periods)
    print(f"factorized rank={args.rank} p={args.ar_order}; final objective "
          f"{model.objective_history[-1]:.6g}; forecasts -> {args.out_dir}")
    return 0


def cmd_backtest(args):
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.specs)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    board = ev.backtest(tensor, specs, split)
    _atomic_write(args.out, board.to_csv())
    _record(args, f"{args.out}.run.ini", specs, n_failures=len(board.failures))
    print(board.to_csv(), end="")
    if board.failures:
        print(f"{len(board.failures)} per-cell failures (excluded from argmin)",
              file=sys.stderr)
    return 0


def cmd_select(args):
    require_at_least("--subset", args.subset, 1)
    _check_select(args.intervals, args.overlap, args.k, args.min_cluster_frac)
    tensor = ds.load_cache(args.data)
    specs = load_specs(args.models)
    split = ev.BacktestSplit(args.train_periods, args.test_periods)
    subset = min(args.subset, tensor.n_items)
    sub = ds.PreorderTensor(items=tensor.items[:subset], values=tensor.values[:subset],
                            observed_mask=tensor.observed_mask[:subset])
    board = ev.backtest(sub, specs, split)
    selector = _select(sub, board, split.train_periods, args.intervals, args.overlap,
                       args.k, args.min_cluster_frac, args.out, args.graph)
    _record(args, f"{args.out}.run.ini", specs, subset=subset,
            clusters=len(selector.cluster_labels))
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
    _record(args, f"{out}.run.ini", specs, out=out, best_spec=report.spec_name,
            smape=f"{report.smape:.12g}", mimicry_flag=report.mimicry_flag)
    print(f"item {args.item}: best={report.spec_name} "
          f"smape={report.smape:.4g} mimicry={report.mimicry_flag} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Whole pipeline from one config file
# ---------------------------------------------------------------------------

_GETTERS = {bool: "getboolean", int: "getint", float: "getfloat", str: "get"}


def _read_keys(parser, section: str, defaults: dict) -> dict:
    """Each key of defaults read from the section by its default's type (a
    bool takes configparser's boolean words), or its default if absent."""
    table = {}
    for key, default in defaults.items():
        try:
            table[key] = getattr(parser, _GETTERS[type(default)])(section, key,
                                                                  fallback=default)
        except ValueError as exc:
            raise HierfcstError(f"[{section}] {key}: {exc}") from exc
    return table


def _resolve_pipeline(parser, out_dir: str, master_seed: int) -> dict:
    """The [run], [data], [backtest], [select] and [report] tables, each key
    from the config or its default ([run] seed's is master_seed); [data]
    holds csv_path or the synth keys by its source, and the run fills in
    the default report item.  The [select] values are checked here, before
    any stage runs."""
    run = {"out_dir": out_dir, **_read_keys(parser, "run", {"seed": master_seed})}
    data = _read_keys(parser, "data", {"source": "synth"})
    if data["source"] not in ("csv", "synth"):
        raise HierfcstError(f"[data] source: expected csv or synth, got {data['source']!r}")
    data.update(_read_keys(parser, "data", {"csv_path": ""} if data["source"] == "csv" else {
        "seed": stage_seed(run["seed"], "synth"), "items": _SYNTH_ITEMS,
        "periods": _SYNTH_PERIODS, "leads": ds.DEFAULT_MAX_LEAD, "regime": _SYNTH_REGIME}))
    select = _read_keys(parser, "select", {
        "enabled": True, "intervals": tda.DEFAULT_INTERVALS, "overlap": tda.DEFAULT_OVERLAP,
        "k": tda.DEFAULT_KNN, "min_cluster_frac": _MIN_CLUSTER_FRAC})
    _check_select(select["intervals"], select["overlap"], select["k"],
                  select["min_cluster_frac"])
    return {
        "run": run, "data": data,
        "backtest": _read_keys(parser, "backtest", {
            "train_periods": _SPLIT.train_periods, "test_periods": _SPLIT.test_periods}),
        "select": select,
        "report": _read_keys(parser, "report", {"items": ""})}


def _check_report_items(items, catalog):
    """Each [report] item is the catalog's, and no two share a report file
    name ignoring case."""
    catalog = set(catalog)
    missing = [item for item in items if item not in catalog]
    if missing:
        raise HierfcstError(f"[report] items: {missing[0]!r} is not in the catalog")
    items = list(dict.fromkeys(items))
    clash = _first_clash([_safe_name(item) for item in items])
    if clash:
        a, b = (items[c] for c in clash)
        raise HierfcstError(f"[report] items: {a!r} and {b!r} would share the report "
                            f"file report_{_safe_name(a)}.csv (names are compared "
                            "ignoring case)")


def run_pipeline(config_path, master_seed: int = 0) -> int:
    """Ingest/synthesize, backtest, select and report from one config
    file, with master_seed (the global --master-seed) as [run] seed's
    default; artifacts land in [run] out_dir, and run_config.ini records
    the resolved tables, which re-run to the same artifacts."""
    parser = _read_ini(config_path, "pipeline config")
    out_dir = parser.get("run", "out_dir", fallback=_OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    # An earlier run's artifacts go before this run writes anything, so a
    # failed run leaves only its own files next to its INCOMPLETE marker.
    for name in PIPELINE_ARTIFACTS + tuple(glob.glob("report_*.csv", root_dir=out_dir)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    tables = _resolve_pipeline(parser, out_dir, master_seed)
    data, sel = tables["data"], tables["select"]

    tensor_path = os.path.join(out_dir, "tensor.npz")
    if data["source"] == "csv":
        if not data["csv_path"]:
            raise HierfcstError("[data] csv_path is required with source = csv")
        tensor = _ingest(data["csv_path"], tensor_path)
    else:
        tensor = _synth(tensor_path, data["seed"], data["items"], data["periods"],
                        data["leads"], data["regime"])
    items = tables["report"]["items"].split() or [tensor.items[0]]
    _check_report_items(items, tensor.items)
    split = ev.BacktestSplit(**tables["backtest"])

    specs = [spec_from_mapping(s.split(":", 1)[1], dict(parser[s]))
             for s in parser.sections() if s.startswith("spec:")]
    if not specs:
        raise HierfcstError("pipeline config defines no [spec:*] sections")

    board = ev.backtest(tensor, specs, split)

    if sel["enabled"] and tensor.n_items >= 4:
        _select(tensor, board, split.train_periods, sel["intervals"], sel["overlap"],
                sel["k"], sel["min_cluster_frac"], os.path.join(out_dir, "selector.bin"),
                os.path.join(out_dir, "graph.json"))

    tables["report"]["items"] = " ".join(items)
    for item in items:
        _report(board, item, out_dir=out_dir)
    # Written once every stage has passed: a failed run leaves no leaderboard.
    _atomic_write(os.path.join(out_dir, "leaderboard.csv"), board.to_csv())

    write_run_config(os.path.join(out_dir, "run_config.ini"), "pipeline",
                     {"config": str(config_path)}, specs, tables)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "INCOMPLETE"))  # left by a failed run
    print(f"pipeline complete; artifacts in {out_dir}")
    return 0


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

    p = sub.add_parser("transform", help="export the backtest's diagonal-feeding training design")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=TRANSFORM_KINDS, default="identity")
    p.add_argument("--train-periods", type=int, default=_SPLIT.train_periods)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="fit specs and store models per (item, spec)")
    p.add_argument("--spec", required=True, help="INI file, one section per spec")
    p.add_argument("--data", required=True)
    # A directory: out_dir, where a failed stage leaves its INCOMPLETE marker.
    p.add_argument("--out", dest="out_dir", metavar="DIR", required=True)
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
    p.set_defaults(func=lambda args: run_pipeline(args.config, args.master_seed))

    return parser


def _failure_dir(args) -> str | None:
    """Directory of the stage's intended output, for the INCOMPLETE marker;
    None for a pipeline whose config cannot be read."""
    if getattr(args, "out_dir", None):
        return args.out_dir
    for attr in ("out", "output"):
        target = getattr(args, attr, None)
        if target:
            return os.path.dirname(target) or "."
    if getattr(args, "config", None):
        with contextlib.suppress(HierfcstError):
            return _read_ini(args.config, "pipeline config").get(
                "run", "out_dir", fallback=_OUT_DIR)
        return None
    return "."          # report without --out writes to the working directory


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutOfScopeError, HierfcstError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        out_dir = _failure_dir(args)
        if out_dir is not None:
            _mark_incomplete(out_dir, args.command, str(exc))
        return STAGE_EXIT.get(args.command, 1)


if __name__ == "__main__":
    sys.exit(main())
