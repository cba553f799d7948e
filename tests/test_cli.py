import argparse
import configparser
import json
import os
import pickle

import numpy as np
import pytest

from hierfcst import dataset as ds
from hierfcst.errors import HierfcstError
from hierfcst import tda
from hierfcst.cli import (STAGE_EXIT, build_parser, load_selector, load_specs,
                          load_stored_model, main, run_pipeline, spec_from_mapping,
                          stage_seed)
from hierfcst.evaluate import BacktestSplit, _build_design, frame_leads
from hierfcst.models import ModelSpec, default_hyperparams, fit
from hierfcst.preprocess import TargetTransform, load_supervised

from oracles import training_rows


SPECS_INI = """
[ridge_df]
family = ridge
feeding = df_one_by_one
lam = 1e-4

[arx]
family = arx
p = 2
"""

PIPELINE_INI = """
[run]
seed = 7
out_dir = {out_dir}

[data]
source = synth
items = 10
periods = 45
leads = 4
regime = anticipatory

[backtest]
train_periods = 37
test_periods = 8

[select]
min_cluster_frac = 0.2

[spec:ridge_df]
family = ridge
feeding = df_one_by_one
lam = 1e-4

[spec:arx]
family = arx
p = 2
"""


FAILING_PIPELINE_INI = """
[run]
seed = 7
out_dir = {out_dir}

[data]
source = synth
items = 5
periods = 14
leads = 4

[backtest]
train_periods = 6
test_periods = 4

[spec:bad]
family = arx
p = 5
exog = preorders
"""


@pytest.fixture
def specs_file(tmp_path):
    p = tmp_path / "specs.ini"
    p.write_text(SPECS_INI)
    return str(p)


@pytest.fixture
def tensor_cache(tmp_path):
    path = tmp_path / "tensor.npz"
    code = main(["synth", "--seed", "3", "--regime", "anticipatory",
                 "--items", "8", "--periods", "45", "--leads", "4",
                 "--output", str(path)])
    assert code == 0
    return str(path)


class TestStages:
    def test_ingest_round_trip(self, tmp_path):
        tensor = ds.synthesize(1, 3, 12, 3, "smooth")
        csv_path = tmp_path / "raw.csv"
        ds.save_csv(tensor, csv_path)
        cache = tmp_path / "cache.npz"
        assert main(["ingest", "--input", str(csv_path),
                     "--output", str(cache)]) == 0
        back = ds.load_cache(cache)
        np.testing.assert_array_equal(back.values, tensor.values)
        assert (tmp_path / "cache.npz.run.ini").exists()

    def test_ingest_failure_exit_code_and_marker(self, tmp_path):
        code = main(["ingest", "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "out.npz")])
        assert code == STAGE_EXIT["ingest"]
        marker = (tmp_path / "INCOMPLETE").read_text()
        assert "stage=ingest" in marker
        assert not (tmp_path / "out.npz").exists()

    def test_synth_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        for path in (a, b):
            assert main(["synth", "--seed", "5", "--items", "4",
                         "--periods", "20", "--leads", "3",
                         "--output", str(path)]) == 0
        ta, tb = ds.load_cache(a), ds.load_cache(b)
        np.testing.assert_array_equal(ta.values, tb.values)

    def test_transform_writes_supervised_cache(self, tmp_path, tensor_cache):
        out = tmp_path / "sup.npz"
        assert main(["transform", "--data", tensor_cache, "--kind", "log1p",
                     "--output", str(out)]) == 0
        sset = load_supervised(out)
        assert sset.H == 4                      # the tensor's leads
        assert sset.X.shape == (8 * 33, 10)
        assert sset.item_transforms.kind == "log1p"
        assert "W" not in np.load(out).files
        parser = configparser.ConfigParser()
        parser.read(f"{out}.run.ini")
        assert (parser["transform"]["train_periods"], parser["transform"]["leads"]) == \
            ("37", "4")

    def test_outputs_land_at_exact_paths(self, tmp_path, specs_file):
        tensor, sup, board = (tmp_path / name for name in ("t.cache", "s.cache", "lb.out"))
        assert main(["synth", "--seed", "3", "--regime", "anticipatory", "--items", "5",
                     "--output", str(tensor)]) == 0
        assert main(["transform", "--data", str(tensor), "--output", str(sup)]) == 0
        assert main(["backtest", "--specs", specs_file, "--data", str(tensor),
                     "--out", str(board)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "lb.out", "lb.out.run.ini", "s.cache", "s.cache.run.ini", "specs.ini",
            "t.cache", "t.cache.run.ini"]
        assert load_supervised(sup).X.shape == (5 * 33, 10)
        parser = configparser.ConfigParser()
        parser.read(tmp_path / "s.cache.run.ini")
        assert parser["transform"]["data"] == str(tensor)
        assert parser["transform"]["output"] == str(sup)
        assert "window" not in parser["transform"]   # the leads fix the frame width

    @pytest.mark.parametrize("damage", ["truncated", "not a zip file"])
    def test_unreadable_cache_fails_the_stage(self, tmp_path, tensor_cache, specs_file,
                                              capsys, damage):
        bad = tmp_path / "bad.npz"
        whole = open(tensor_cache, "rb").read()
        bad.write_bytes(whole[:len(whole) // 2] if damage == "truncated"
                        else b"item_id,delivery_period,lead_time,quantity\n")
        code = main(["backtest", "--specs", specs_file, "--data", str(bad),
                     "--out", str(tmp_path / "lb.csv")])
        assert code == STAGE_EXIT["backtest"]
        assert f"cannot read cache {bad}" in capsys.readouterr().err
        marker = (tmp_path / "INCOMPLETE").read_text()
        assert "stage=backtest" in marker and str(bad) in marker
        assert not (tmp_path / "lb.csv").exists()

    def test_train_stores_versioned_models(self, tmp_path, tensor_cache, specs_file):
        out = tmp_path / "store"
        assert main(["train", "--spec", specs_file, "--data", tensor_cache,
                     "--out", str(out)]) == 0
        files = sorted(f for f in os.listdir(out) if f.endswith(".pkl"))
        assert len(files) == 8  # ridge_df per item; arx fits at backtest time
        payload = load_stored_model(out / files[0])
        assert payload["spec"]["family"] == "ridge"
        assert payload["model"].n_targets == 10  # H=4 window: H*(H+1)/2 cells

    def test_train_isolates_a_failing_item(self, tmp_path, capsys):
        tensor = ds.synthesize(3, 6, 45, 4, "anticipatory")
        tensor.values[3] = 5.0         # constant: singular normal equations at lam = 0
        data = tmp_path / "tensor.npz"
        ds.save_cache(tensor, data)
        specs = tmp_path / "specs.ini"
        specs.write_text("[r0]\nfamily = ridge\nlam = 0\nfeeding = df_one_by_one\n\n"
                         "[pooled]\nfamily = ridge\nfeeding = df_all_items\n")
        out = tmp_path / "models"
        assert main(["train", "--spec", str(specs), "--data", str(data),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.pkl")) == (
            ["pooled__ALL.pkl"] + [f"r0__item{i:04d}.pkl" for i in (0, 1, 2, 4, 5)])
        message = ("IllConditionedError: singular normal equations; "
                   "increase the ridge penalty lam above 0")
        assert f"train: r0 item0003: {message}" in capsys.readouterr().err
        record = configparser.ConfigParser()
        record.read(out / "run_config.ini")
        assert dict(record["train"], version="") == {
            "version": "", "master_seed": "0", "data": str(data), "spec": str(specs),
            "out_dir": str(out), "train_periods": "37", "test_periods": "8", "n_models": "6",
            "n_failures": "1", "failure.r0__item0003": message}
        assert not (out / "INCOMPLETE").exists()

    def test_train_failure_marks_its_store_directory(self, tmp_path, specs_file):
        out = tmp_path / "models"
        code = main(["train", "--spec", specs_file, "--data", str(tmp_path / "missing.npz"),
                     "--out", str(out)])
        assert code == STAGE_EXIT["train"]
        assert "stage=train" in (out / "INCOMPLETE").read_text()
        assert not (tmp_path / "INCOMPLETE").exists()

    def test_backtest_writes_leaderboard(self, tmp_path, tensor_cache, specs_file):
        out = tmp_path / "board.csv"
        assert main(["backtest", "--specs", specs_file, "--data", tensor_cache,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "spec,mean_smape,median_smape,n_items,best_count"
        assert len(lines) == 3

    def test_trmf_emits_csv_artifacts(self, tmp_path, tensor_cache):
        out = tmp_path / "mf"
        assert main(["trmf", "--data", tensor_cache, "--rank", "2",
                     "--ar-order", "1", "--lambda-f", "1e-4", "--lambda-z",
                     "1e-4", "--lambda-ar", "1e-3", "--sweeps", "30",
                     "--horizon", "4", "--out-dir", str(out)]) == 0
        for name in ("factors.csv", "loadings.csv", "ar_coefficients.csv",
                     "forecasts.csv", "run_config.ini"):
            assert (out / name).exists()
        fc = np.loadtxt(out / "forecasts.csv", delimiter=",", skiprows=1)
        assert fc.shape == (4, 8)
        assert np.all(fc >= 0)

    def test_trmf_flag_defaults_are_the_model_defaults(self, tmp_path, tensor_cache):
        out = tmp_path / "mf"
        assert main(["trmf", "--data", tensor_cache, "--horizon", "2",
                     "--out-dir", str(out)]) == 0
        parser = configparser.ConfigParser()
        parser.read(out / "run_config.ini")
        record = parser["trmf"]
        ini = default_hyperparams("trmf")
        for flag, key in (("rank", "rank"), ("ar_order", "ar_order"),
                          ("lambda_f", "lam_f"), ("lambda_z", "lam_z"),
                          ("lambda_ar", "lam_ar"), ("sweeps", "max_sweeps"),
                          ("tol", "tol"), ("seed", "seed")):
            assert float(record[flag]) == ini[key], flag

    def test_select_and_route(self, tmp_path, tensor_cache, specs_file):
        sel_path = tmp_path / "selector.bin"
        graph_path = tmp_path / "graph.json"
        assert main(["select", "--data", tensor_cache, "--models", specs_file,
                     "--subset", "8", "--intervals", "4", "--k", "3",
                     "--min-cluster-frac", "0.25",
                     "--out", str(sel_path), "--graph", str(graph_path)]) == 0
        selector = load_selector(sel_path)
        choice = selector.route_series(np.abs(np.random.default_rng(0).normal(
            loc=50, scale=5, size=37)))
        assert choice in ("ridge_df", "arx")
        payload = json.loads(graph_path.read_text())
        assert payload["n_series"] == 8
        assert (tmp_path / "graph.dot").read_text().startswith("graph mapper")

    def test_report_csv(self, tmp_path, tensor_cache, specs_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--data", tensor_cache, "--specs", specs_file,
                     "--item", "item0002"]) == 0
        text = (tmp_path / "report_item0002.csv").read_text()
        assert text.startswith("period,actual,forecast\n37,")


class TestSpecParsing:
    def test_load_specs(self, specs_file):
        specs = load_specs(specs_file)
        assert [s.name for s in specs] == ["ridge_df", "arx"]
        assert specs[0].feeding == "df_one_by_one"
        assert specs[0].hyperparams["lam"] == 1e-4

    def test_out_of_scope_family_fails_with_stage_code(self, tmp_path, tensor_cache):
        bad = tmp_path / "bad.ini"
        bad.write_text("[bsts]\nfamily = bsts\n")
        code = main(["backtest", "--specs", str(bad), "--data", tensor_cache,
                     "--out", str(tmp_path / "x.csv")])
        assert code == STAGE_EXIT["backtest"]
        assert not (tmp_path / "x.csv").exists()  # no partial artifact

    def test_label_that_breaks_a_leaderboard_row(self, tmp_path):
        # A section name is the spec's label, a leaderboard row's first field.
        bad = tmp_path / "bad.ini"
        bad.write_text("[r0, pooled]\nfamily = ridge\nfeeding = df_all_items\n")
        with pytest.raises(HierfcstError, match="spec 'r0, pooled': label 'r0, pooled' holds "
                                                "a comma, a double quote or a line break"):
            load_specs(str(bad))

    def test_missing_family_key(self, tmp_path):
        p = tmp_path / "nf.ini"
        p.write_text("[x]\nlam = 1\n")
        with pytest.raises(Exception):
            load_specs(str(p))


class TestPipeline:
    def test_smoke_two_specs_ten_items(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir))
        assert run_pipeline(str(cfg)) == 0
        board = (out_dir / "leaderboard.csv").read_text().strip().split("\n")
        assert len(board) == 3  # header + 2 spec rows
        for artifact in ("tensor.npz", "selector.bin", "graph.json", "graph.dot",
                         "run_config.ini"):
            assert (out_dir / artifact).exists()

    def test_pipeline_builds_the_training_design_once(self, tmp_path, monkeypatch):
        # The backtest builds the diagonal-feeding rows it fits; no stage
        # builds them again to write a supervised cache.
        import hierfcst.cli as cli_mod
        import hierfcst.evaluate as ev_mod
        calls = []
        for module in (cli_mod, ev_mod):
            def counted(*args, _build=module.build_training_set, _name=module.__name__,
                        **kwargs):
                calls.append(_name)
                return _build(*args, **kwargs)
            monkeypatch.setattr(module, "build_training_set", counted)
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir))
        assert run_pipeline(str(cfg)) == 0
        assert calls == ["hierfcst.evaluate"]
        assert not (out_dir / "supervised.npz").exists()

    def test_identical_config_byte_identical_leaderboard(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir))
        assert run_pipeline(str(cfg)) == 0
        first = (out_dir / "leaderboard.csv").read_bytes()
        graph_first = (out_dir / "graph.json").read_bytes()
        assert run_pipeline(str(cfg)) == 0
        assert (out_dir / "leaderboard.csv").read_bytes() == first
        assert (out_dir / "graph.json").read_bytes() == graph_first

    def test_out_of_scope_family_aborts_pipeline(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "runx"
        text = PIPELINE_INI.format(out_dir=out_dir) + "\n[spec:nn]\nfamily = nn\n"
        cfg.write_text(text)
        code = main(["pipeline", "--config", str(cfg)])
        assert code == STAGE_EXIT["pipeline"]
        marker = (out_dir / "INCOMPLETE").read_text()
        assert "stage=pipeline" in marker and "out of scope" in marker

    def test_item_without_scored_spec_fails_stage(self, tmp_path):
        # 6 train periods cannot support this AR(5)+exog spec, so no item
        # has a best model to label the selector with.
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(FAILING_PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        marker = (out_dir / "INCOMPLETE").read_text()
        assert "stage=pipeline" in marker and "no spec scored items" in marker
        assert "item0000" in marker

    def test_failed_pipeline_leaves_no_leaderboard(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(FAILING_PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        assert (out_dir / "INCOMPLETE").exists()
        assert not (out_dir / "leaderboard.csv").exists()

    def test_select_item_without_scored_spec_fails_stage(self, tmp_path):
        tensor = tmp_path / "tensor.npz"
        ds.save_cache(ds.synthesize(24, 5, 14, 4, "smooth"), tensor)
        specs = tmp_path / "specs.ini"
        specs.write_text("[bad]\nfamily = arx\np = 5\nexog = preorders\n")
        code = main(["select", "--data", str(tensor), "--models", str(specs),
                     "--train-periods", "6", "--test-periods", "4",
                     "--out", str(tmp_path / "selector.bin"),
                     "--graph", str(tmp_path / "graph.json")])
        assert code == STAGE_EXIT["select"]
        assert "no spec scored items" in (tmp_path / "INCOMPLETE").read_text()
        assert not (tmp_path / "selector.bin").exists()

    def test_failed_pipeline_removes_earlier_run_artifacts(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == 0
        earlier = {p.name for p in out_dir.iterdir()}
        assert {"leaderboard.csv", "graph.json", "graph.dot", "selector.bin",
                "run_config.ini", "report_item0000.csv"} <= earlier
        cfg.write_text(FAILING_PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        assert {p.name for p in out_dir.iterdir()} == {"tensor.npz", "INCOMPLETE"}
        assert ds.load_cache(out_dir / "tensor.npz").n_items == 5

    def test_success_removes_stale_incomplete_marker(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(FAILING_PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        assert (out_dir / "INCOMPLETE").exists()
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir))
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert not (out_dir / "INCOMPLETE").exists()

    def test_stage_seed_deterministic_and_distinct(self):
        assert stage_seed(0, "synth") == stage_seed(0, "synth")
        assert stage_seed(0, "synth") != stage_seed(0, "select")
        assert stage_seed(0, "synth") != stage_seed(1, "synth")


class TestArtifactsAndRecords:
    def test_trmf_records_converged_flag(self, tmp_path, tensor_cache):
        out = tmp_path / "mf"
        assert main(["trmf", "--data", tensor_cache, "--sweeps", "2", "--tol", "0",
                     "--horizon", "2", "--out-dir", str(out)]) == 0
        parser = configparser.ConfigParser()
        parser.read(out / "run_config.ini")
        assert parser["trmf"]["n_sweeps"] == "2"
        assert parser["trmf"]["converged"] == "False"
        assert parser["trmf"]["unobserved_periods"] == "[]"

    def test_trmf_records_unobserved_periods(self, tmp_path):
        data = str(tmp_path / "sparse.npz")
        assert main(["synth", "--seed", "1", "--regime", "sparse-spiky", "--items", "8",
                     "--periods", "45", "--leads", "4", "--output", data]) == 0
        out = tmp_path / "mf"
        assert main(["trmf", "--data", data, "--sweeps", "2", "--horizon", "2",
                     "--out-dir", str(out)]) == 0
        parser = configparser.ConfigParser()
        parser.read(out / "run_config.ini")
        assert parser["trmf"]["unobserved_periods"] == "[11, 12]"

    def test_stale_model_store_raises(self, tmp_path, monkeypatch):
        import hierfcst.models.trees as trees

        class _Node:  # stands in for a tree class the package no longer has
            pass
        _Node.__module__, _Node.__qualname__ = trees.__name__, "_Node"
        monkeypatch.setattr(trees, "_Node", _Node, raising=False)
        stale = tmp_path / "old_tree.pkl"
        stale.write_bytes(pickle.dumps({"format_version": 1, "model": _Node()}))
        monkeypatch.delattr(trees, "_Node")
        with pytest.raises(HierfcstError, match="old_tree.pkl"):
            load_stored_model(stale)
        v1 = tmp_path / "v1.pkl"
        v1.write_bytes(pickle.dumps({"format_version": 1, "model": None}))
        with pytest.raises(HierfcstError, match="version"):
            load_stored_model(v1)
        # A store of trees as objects, one per tree, before the node table.
        v2 = tmp_path / "v2.pkl"
        v2.write_bytes(pickle.dumps({"format_version": 2, "item": "A", "spec": {},
                                     "model": [trees.RegressionTree()]}))
        with pytest.raises(HierfcstError, match="unsupported model store version in .*v2.pkl"):
            load_stored_model(v2)
        # A single tree fit before every single fit was a stack of one.
        model = fit(ModelSpec("rforest", {"n_trees": 2}), np.ones((4, 2)), np.ones((4, 1)))
        model.payload.items = None
        v3 = tmp_path / "v3.pkl"
        v3.write_bytes(pickle.dumps({"format_version": 3, "item": "A", "spec": {},
                                     "model": model}))
        with pytest.raises(HierfcstError, match="unsupported model store version in .*v3.pkl"):
            load_stored_model(v3)

    def test_clip_negative_key_fails_stage(self, tmp_path):
        # Every forecast is clipped at zero: there is no key to turn it off.
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir) + "clip_negative = false\n")
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        assert "spec 'arx': arx: unknown hyperparameters ['clip_negative']" in \
            (out_dir / "INCOMPLETE").read_text()

    @pytest.mark.parametrize("name", ["none", "log"])
    def test_transform_kind_takes_no_aliases(self, tmp_path, tensor_cache, name):
        with pytest.raises(SystemExit):
            main(["transform", "--data", tensor_cache, "--kind", name,
                  "--output", str(tmp_path / "sup.npz")])


class TestVersionedPickles:
    @pytest.mark.parametrize("loader", [load_stored_model, load_selector])
    @pytest.mark.parametrize("damage", ["truncated", "not a pickle", "not a dict",
                                        "missing"])
    def test_unreadable_file_raises_naming_it(self, tmp_path, loader, damage):
        bad = tmp_path / "damaged.pkl"
        whole = pickle.dumps({"format_version": 1, "model": list(range(100))})
        if damage == "truncated":
            bad.write_bytes(whole[:len(whole) // 2])
        elif damage == "not a pickle":
            bad.write_bytes(b"item_id,delivery_period,lead_time,quantity\n")
        elif damage == "not a dict":
            bad.write_bytes(pickle.dumps([1, "format_version"]))
        with pytest.raises(HierfcstError, match="damaged.pkl"):
            loader(bad)

    def test_selector_of_another_version_raises(self, tmp_path):
        old = tmp_path / "old_selector.bin"
        old.write_bytes(pickle.dumps({"format_version": 0, "selector": None}))
        with pytest.raises(HierfcstError, match="version in .*old_selector.bin"):
            load_selector(old)


class TestSharedStages:
    def test_stored_model_predicts_as_its_own_fit(self, tmp_path, tensor_cache):
        specs = tmp_path / "specs.ini"
        specs.write_text("[ridge_log]\nfamily = ridge\nfeeding = df_one_by_one\n"
                         "transform = log1p\nlam = 1e-3\n\n"
                         "[kern]\nfamily = kernel\nfeeding = df_one_by_one\n"
                         "transform = minmax\n\n"
                         "[forest]\nfamily = rforest\nfeeding = df_one_by_one\n"
                         "n_trees = 3\nmax_features = 0.5\n\n"
                         "[bagged]\nfamily = ensemble\nfeeding = df_one_by_one\n"
                         "transform = log1p\nn_bags = 2\nboost_rounds = 3\n")
        out = tmp_path / "store"
        assert main(["train", "--spec", str(specs), "--data", tensor_cache,
                     "--out", str(out)]) == 0
        tensor = ds.load_cache(tensor_cache)
        train = BacktestSplit().train_periods
        H = frame_leads(tensor)
        # Item i's frames anchored in the training periods, read cell by
        # cell, under its transform fitted on its training periods.
        anchors = range(train - H)
        x_cells = [(s, h) for s in range(H + 1) for h in range(H) if s <= h]
        y_cells = [(s, h) for s in range(H + 1) for h in range(H) if s > h]
        for spec in load_specs(str(specs)):
            for i in (0, 3, tensor.n_items - 1):
                tf = {i: TargetTransform.fit(spec.transform, tensor.values[i, :train])}
                X = training_rows(tensor.values, [i], anchors, x_cells, tf)
                Y = training_rows(tensor.values, [i], anchors, y_cells, tf)
                expected = fit(spec, X, Y, transform=tf[i])
                stored = load_stored_model(out / f"{spec.name}__{tensor.items[i]}.pkl")
                assert stored["item"] == tensor.items[i]
                x = X[::-1] * 1.1
                np.testing.assert_array_equal(stored["model"].predict(x),
                                              expected.predict(x))

    @pytest.mark.parametrize("train, n_anchors", [(None, 33), (30, 26)])
    @pytest.mark.parametrize("name, kind", [("minmax", "minmax"), ("log1p", "log1p")])
    def test_cache_is_the_backtest_design(self, tmp_path, tensor_cache, train, n_anchors,
                                          name, kind):
        out = tmp_path / "sup.npz"
        split = ["--train-periods", str(train)] if train else []
        assert main(["transform", "--data", tensor_cache, "--kind", name,
                     "--output", str(out), *split]) == 0
        sset = load_supervised(out)
        tensor = ds.load_cache(tensor_cache)
        train = train or BacktestSplit().train_periods
        tf, X, Y = _build_design(tensor, ("df", kind), BacktestSplit(train))[:3]
        n = tensor.n_items
        assert X.shape[:2] == (n, n_anchors)
        assert sset.H == frame_leads(tensor)
        np.testing.assert_array_equal(sset.X, X.reshape(n * n_anchors, -1))
        np.testing.assert_array_equal(sset.Y, Y.reshape(n * n_anchors, -1))
        np.testing.assert_array_equal(sset.sample_items, np.repeat(np.arange(n), n_anchors))
        np.testing.assert_array_equal(sset.sample_anchors,
                                      np.tile(np.arange(n_anchors), n))
        assert sset.item_transforms.kind == tf.kind == kind
        if kind == "minmax":
            # Fitted on the training periods: test-period values set the
            # range of some items over all periods.
            vmax = TargetTransform.fit_items(kind, tensor.values[:, :train]).vmax
            np.testing.assert_array_equal(sset.item_transforms.vmax, vmax)
            np.testing.assert_array_equal(sset.item_transforms.vmin, tf.vmin)
            assert (vmax < TargetTransform.fit_items(kind, tensor.values).vmax).any()

    def test_pipeline_writes_what_the_subcommands_write(self, tmp_path):
        self.assert_pipeline_writes_what_the_subcommands_write(tmp_path, None)

    def test_pipeline_writes_what_the_subcommands_write_at_split_30(self, tmp_path):
        self.assert_pipeline_writes_what_the_subcommands_write(tmp_path, 30)

    @staticmethod
    def assert_pipeline_writes_what_the_subcommands_write(tmp_path, train):
        run_dir, sub_dir = tmp_path / "pipeline", tmp_path / "subcommands"
        sub_dir.mkdir()
        cfg = tmp_path / "pipe.ini"
        # The frames' geometry follows from the tensor's leads alone, and the
        # pipeline writes no supervised cache: window, leads and transform
        # keys left in [preprocess] by older configs are ignored.
        backtest = f"[backtest]\ntrain_periods = {train}\n\n" if train else ""
        cfg.write_text(f"[run]\nseed = 3\nout_dir = {run_dir}\n\n"
                       "[data]\nsource = synth\nseed = 5\nitems = 12\n"
                       "regime = anticipatory\n\n"
                       "[preprocess]\nwindow = 9\nleads = 3\ntransform = bogus\n\n"
                       + backtest + SPECS_INI.replace("[", "[spec:"))
        assert main(["pipeline", "--config", str(cfg)]) == 0

        specs = tmp_path / "specs.ini"
        specs.write_text(SPECS_INI)
        tensor, board = str(sub_dir / "tensor.npz"), str(sub_dir / "leaderboard.csv")
        split = ["--train-periods", str(train)] if train else []
        for argv in (["synth", "--seed", "5", "--regime", "anticipatory", "--items", "12",
                      "--output", tensor],
                     ["transform", "--data", tensor, *split,
                      "--output", str(sub_dir / "supervised.npz")],
                     ["backtest", "--specs", str(specs), "--data", tensor, *split,
                      "--out", board],
                     ["select", "--data", tensor, "--models", str(specs), "--subset", "12",
                      *split, "--out", str(sub_dir / "selector.bin"),
                      "--graph", str(sub_dir / "graph.json")],
                     ["report", "--data", tensor, "--specs", str(specs), *split,
                      "--item", "item0000", "--out", str(sub_dir / "report_item0000.csv")]):
            assert main(argv) == 0, argv
        for name in ("tensor.npz", "leaderboard.csv", "selector.bin",
                     "graph.json", "graph.dot", "report_item0000.csv"):
            assert (run_dir / name).read_bytes() == (sub_dir / name).read_bytes(), name
        assert not (run_dir / "supervised.npz").exists()
        assert load_supervised(sub_dir / "supervised.npz").X.shape[0] == \
            12 * ((train or BacktestSplit().train_periods) - 4)


# Default spec names hold ':' and spaces; a record keys its spec sections by name.
NAMED_SPECS_INI = """
[ridge 1:1 DF]
family = ridge
feeding = df_one_by_one
lam = 1e-4

[kernel AI DF LT]
family = kernel
feeding = df_all_items
transform = log1p

[arx]
family = arx
p = 2
"""
NAMED_PIPELINE_SPECS = NAMED_SPECS_INI.replace("\n[", "\n[spec:")


def _read_record(path):
    record = configparser.ConfigParser(interpolation=None)
    assert record.read(path) == [str(path)]
    return record


def _record_specs(record):
    return [spec_from_mapping(name.split(":", 1)[1], dict(record[name]))
            for name in record.sections() if name.startswith("spec:")]


def _flag_dests(command):
    """The dests of a subcommand's flags, the global --master-seed included."""
    parser = build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return ["master_seed"] + [a.dest for a in sub.choices[command]._actions
                              if a.dest != "help"]


class TestRunRecords:
    COMMANDS = ("ingest", "synth", "transform", "train", "trmf", "backtest", "select",
                "report", "pipeline")

    @pytest.fixture
    def runs(self, tmp_path, tensor_cache, monkeypatch):
        """argv and record path of one run of every subcommand."""
        monkeypatch.chdir(tmp_path)
        specs = tmp_path / "specs.ini"
        specs.write_text(NAMED_SPECS_INI)
        csv_path = tmp_path / "raw.csv"
        ds.save_csv(ds.synthesize(1, 3, 12, 3, "smooth"), csv_path)
        cfg = tmp_path / "pipe.ini"
        cfg.write_text(PIPELINE_INI.split("[spec:")[0].format(out_dir=tmp_path / "run")
                       + NAMED_PIPELINE_SPECS)
        data = ["--data", tensor_cache]
        return {
            "ingest": (["ingest", "--input", str(csv_path), "--output", "in.npz"],
                       "in.npz.run.ini"),
            "synth": (["synth", "--items", "4", "--periods", "20", "--output", "s.npz"],
                      "s.npz.run.ini"),
            "transform": (["transform", *data, "--output", "sup.npz"], "sup.npz.run.ini"),
            "train": (["train", "--spec", str(specs), *data, "--out", "store"],
                      "store/run_config.ini"),
            "trmf": (["trmf", *data, "--sweeps", "2", "--horizon", "2", "--out-dir", "mf"],
                     "mf/run_config.ini"),
            "backtest": (["backtest", "--specs", str(specs), *data], "leaderboard.csv.run.ini"),
            "select": (["select", *data, "--models", str(specs), "--min-cluster-frac", "0.25"],
                       "selector.bin.run.ini"),
            "report": (["report", *data, "--specs", str(specs), "--item", "item0002"],
                       "report_item0002.csv.run.ini"),
            "pipeline": (["pipeline", "--config", str(cfg)], "run/run_config.ini"),
        }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_holds_every_flag_under_its_dest(self, runs, command):
        argv, path = runs[command]
        assert main(argv) == 0
        record = _read_record(path)
        assert record.sections()[0] == command
        if command == "pipeline":
            # The pipeline's master seed is [run] seed; its tables follow.
            assert dict(record["pipeline"]) == {"version": record["pipeline"]["version"],
                                                "config": argv[-1]}
            assert record.sections()[1:6] == ["run", "data", "backtest", "select", "report"]
            assert record["run"]["seed"] == "7"
            return
        args = vars(build_parser().parse_args(argv))
        # What the run worked out stands for its flag: the synth seed derived
        # from the master seed, the subset cut to the 8 items, the report path.
        args.update({"synth": {"seed": stage_seed(0, "synth")}, "select": {"subset": 8},
                     "report": {"out": "report_item0002.csv"}}.get(command, {}))
        for dest in _flag_dests(command):
            assert record[command][dest] == str(args[dest]), dest

    @pytest.mark.parametrize("command", ["backtest", "select", "report", "pipeline"])
    def test_spec_sections_rebuild_the_run_specs(self, runs, tmp_path, command):
        argv, path = runs[command]
        assert main(argv) == 0
        rebuilt = _record_specs(_read_record(path))
        specs = load_specs(str(tmp_path / "specs.ini"))
        assert [s.name for s in rebuilt] == ["ridge 1:1 DF", "kernel AI DF LT", "arx"]
        for old, new in zip(specs, rebuilt):
            assert (new.name, new.family, new.feeding, new.transform, new.hyperparams) == \
                (old.name, old.family, old.feeding, old.transform, old.hyperparams)

    def test_stored_model_spec_is_its_section(self, runs, tmp_path):
        assert main(runs["train"][0]) == 0
        stored = load_stored_model(tmp_path / "store" / "ridge_1_1_DF__item0000.pkl")
        spec = load_specs(str(tmp_path / "specs.ini"))[0]
        assert stored["spec"] == spec.section()
        assert spec_from_mapping(spec.name, stored["spec"]) == spec

    def test_selector_pickled_with_its_graph_routes_alike(self, runs, tmp_path):
        # Selectors once held their Mapper graph; such a selector.bin loads
        # and routes as the graph-free selector does.
        assert main(runs["select"][0]) == 0
        selector = load_selector("selector.bin")
        payload = pickle.loads((tmp_path / "selector.bin").read_bytes())
        payload["selector"].graph = tda.MapperGraph(nodes=[], edges=[], n_series=8)
        (tmp_path / "old.bin").write_bytes(pickle.dumps(payload))
        old = load_selector("old.bin")
        rng = np.random.default_rng(0)
        for series in np.abs(rng.normal(50, 5, size=(20, 37))):
            assert old.route_series(series) == selector.route_series(series)
        assert old.cluster_shares() == selector.cluster_shares()

    @staticmethod
    def rerun_from_record(tmp_path, cfg, first):
        """Run cfg, re-run its record into another out_dir with the config
        gone, and check both runs wrote the same bytes."""
        assert main(["pipeline", "--config", str(cfg)]) == 0
        cfg.unlink()
        record = configparser.ConfigParser(interpolation=None)
        record.read(first / "run_config.ini")
        second = tmp_path / "again%"
        record["run"]["out_dir"] = str(second)
        rerun = tmp_path / "rerun.ini"
        with open(rerun, "w") as fh:
            record.write(fh)
        assert main(["pipeline", "--config", str(rerun)]) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            if name != "run_config.ini":
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        a, b = (_read_record(d / "run_config.ini") for d in (first, second))
        assert a.sections() == b.sections()
        for section in a.sections():
            differ = {k for k in a[section] if a[section][k] != b[section][k]}
            assert differ == {"pipeline": {"config"}, "run": {"out_dir"}}.get(section, set())
        return a, names

    def test_synth_pipeline_record_reruns_to_the_same_artifacts(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        first = tmp_path / "run%1"
        cfg.write_text(PIPELINE_INI.split("[spec:")[0].format(out_dir=first)
                       + NAMED_PIPELINE_SPECS)
        record, names = self.rerun_from_record(tmp_path, cfg, first)
        assert dict(record["data"]) == {"source": "synth", "seed": str(stage_seed(7, "synth")),
                                        "items": "10", "periods": "45", "leads": "4",
                                        "regime": "anticipatory"}
        assert dict(record["select"]) == {"enabled": "True", "intervals": "10",
                                          "overlap": "0.3", "k": "5",
                                          "min_cluster_frac": "0.2"}
        assert dict(record["report"]) == {"items": "item0000"}
        assert "selector.bin" in names and "report_item0000.csv" in names

    def test_csv_pipeline_record_reruns_to_the_same_artifacts(self, tmp_path):
        csv_path = tmp_path / "data%" / "preorders.csv"
        csv_path.parent.mkdir()
        ds.save_csv(ds.synthesize(4, 9, 30, 3, "anticipatory"), csv_path)
        cfg = tmp_path / "pipe.ini"
        first = tmp_path / "run"
        cfg.write_text(f"[run]\nout_dir = {first}\n\n[data]\nsource = csv\n"
                       f"csv_path = {csv_path}\n\n[backtest]\ntrain_periods = 24\n"
                       "test_periods = 6\n\n[select]\nenabled = yes\nk = 3\n\n"
                       "[report]\nitems = item0003 item0001\n"
                       + NAMED_PIPELINE_SPECS)
        record, names = self.rerun_from_record(tmp_path, cfg, first)
        assert dict(record["data"]) == {"source": "csv", "csv_path": str(csv_path)}
        assert dict(record["report"]) == {"items": "item0003 item0001"}
        assert {"selector.bin", "report_item0001.csv", "report_item0003.csv"} <= set(names)


class TestPipelineKeys:
    @pytest.mark.parametrize("section, key, value", [
        ("data", "items", "ten"), ("run", "seed", "7.5"), ("select", "overlap", "wide"),
        ("select", "enabled", "maybe"), ("data", "source", "CSV")])
    def test_a_value_that_does_not_convert_fails_the_stage(self, tmp_path, capsys,
                                                           section, key, value):
        out_dir = tmp_path / "run"
        config = configparser.ConfigParser(interpolation=None)
        config.read_string(PIPELINE_INI.format(out_dir=out_dir))
        config[section][key] = value
        cfg = tmp_path / "pipe.ini"
        with open(cfg, "w") as fh:
            config.write(fh)
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        message = f"[{section}] {key}: "
        err = capsys.readouterr().err
        assert message in err and value in err.split(message)[1]
        assert message in (out_dir / "INCOMPLETE").read_text()
        assert not (out_dir / "leaderboard.csv").exists()

    @pytest.mark.parametrize("value, enabled", [
        ("true", True), ("yes", True), ("on", True), ("1", True), ("TRUE", True),
        ("false", False), ("no", False), ("off", False), ("0", False), ("No", False)])
    def test_select_enabled_takes_the_boolean_words(self, tmp_path, value, enabled):
        out_dir = tmp_path / "run"
        cfg = tmp_path / "pipe.ini"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir).replace(
            "[select]\n", f"[select]\nenabled = {value}\n"))
        assert run_pipeline(str(cfg)) == 0
        assert (out_dir / "selector.bin").exists() == enabled
        assert (out_dir / "graph.json").exists() == enabled
        assert _read_record(out_dir / "run_config.ini")["select"]["enabled"] == str(enabled)

    def test_csv_source_needs_its_path(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.ini"
        cfg.write_text(f"[run]\nout_dir = {tmp_path / 'run'}\n\n[data]\nsource = csv\n"
                       "\n[spec:arx]\nfamily = arx\n")
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        assert "[data] csv_path is required with source = csv" in capsys.readouterr().err

    def test_master_seed_flag_is_the_default_run_seed(self, tmp_path):
        def run(name, seed_line, *flags):
            out_dir = tmp_path / name
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(PIPELINE_INI.format(out_dir=out_dir).replace("seed = 7\n", seed_line)
                           .replace("[select]\n", "[select]\nenabled = no\n"))
            assert main([*flags, "pipeline", "--config", str(cfg)]) == 0
            seed = _read_record(out_dir / "run_config.ini")["run"]["seed"]
            return (out_dir / "tensor.npz").read_bytes(), seed

        flag = run("flag", "", "--master-seed", "5")
        assert flag == run("key", "seed = 5\n")
        assert flag[1] == "5" and flag[0] != run("none", "")[0]
        assert run("both", "seed = 7\n", "--master-seed", "5")[1] == "7"

    @pytest.mark.parametrize("text", [None, "[run]\nseed = 1\nseed = 2\n"],
                             ids=["missing", "duplicate_key"])
    def test_unreadable_config_leaves_no_marker(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "pipe.ini").write_text(text)
        assert main(["pipeline", "--config", "pipe.ini"]) == STAGE_EXIT["pipeline"]
        assert "cannot read pipeline config pipe.ini" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ([] if text is None else ["pipe.ini"])
