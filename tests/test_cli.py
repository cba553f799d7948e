import configparser
import json
import os
import pickle

import numpy as np
import pytest

from hierfcst import dataset as ds
from hierfcst.errors import HierfcstError
from hierfcst.cli import (STAGE_EXIT, load_selector, load_specs,
                          load_stored_model, main, run_pipeline, stage_seed)
from hierfcst.evaluate import BacktestSplit, frame_leads
from hierfcst.models import default_hyperparams, fit
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
        assert main(["transform", "--data", tensor_cache, "--kind", "log",
                     "--leads", "3", "--output", str(out)]) == 0
        sset = load_supervised(out)
        assert sset.H == 3
        assert sset.X.shape[1] == 6
        assert int(np.load(out)["W"]) == 4      # the cache layout keeps W = H + 1

    def test_outputs_land_at_exact_paths(self, tmp_path, specs_file):
        tensor, sup, board = (tmp_path / name for name in ("t.cache", "s.cache", "lb.out"))
        assert main(["synth", "--seed", "3", "--regime", "anticipatory", "--items", "5",
                     "--output", str(tensor)]) == 0
        assert main(["transform", "--data", str(tensor), "--leads", "4",
                     "--output", str(sup)]) == 0
        assert main(["backtest", "--specs", specs_file, "--data", str(tensor),
                     "--out", str(board)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "lb.out", "lb.out.run.ini", "s.cache", "s.cache.run.ini", "specs.ini",
            "t.cache", "t.cache.run.ini"]
        assert load_supervised(sup).X.shape == (5 * 41, 10)
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
        for artifact in ("tensor.npz", "supervised.npz", "selector.bin",
                         "graph.json", "graph.dot", "run_config.ini"):
            assert (out_dir / artifact).exists()

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
        assert {p.name for p in out_dir.iterdir()} == {"tensor.npz", "supervised.npz",
                                                        "INCOMPLETE"}
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

    def test_unknown_pipeline_transform_fails_stage(self, tmp_path):
        cfg = tmp_path / "pipe.ini"
        out_dir = tmp_path / "run"
        cfg.write_text(PIPELINE_INI.format(out_dir=out_dir)
                       + "\n[preprocess]\ntransform = bogus\n")
        assert main(["pipeline", "--config", str(cfg)]) == STAGE_EXIT["pipeline"]
        marker = (out_dir / "INCOMPLETE").read_text()
        assert "unknown transform kind 'bogus'" in marker
        assert not (out_dir / "supervised.npz").exists()


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
                         "transform = minmax\n")
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

    def test_pipeline_writes_what_the_subcommands_write(self, tmp_path):
        run_dir, sub_dir = tmp_path / "pipeline", tmp_path / "subcommands"
        sub_dir.mkdir()
        cfg = tmp_path / "pipe.ini"
        # The frames' geometry follows from the leads alone: a window key
        # left in [preprocess] by an older config is ignored.
        cfg.write_text(f"[run]\nseed = 3\nout_dir = {run_dir}\n\n"
                       "[data]\nsource = synth\nseed = 5\nitems = 12\n"
                       "regime = anticipatory\n\n[preprocess]\nwindow = 9\n\n"
                       + SPECS_INI.replace("[", "[spec:"))
        assert main(["pipeline", "--config", str(cfg)]) == 0

        specs = tmp_path / "specs.ini"
        specs.write_text(SPECS_INI)
        tensor, board = str(sub_dir / "tensor.npz"), str(sub_dir / "leaderboard.csv")
        for argv in (["synth", "--seed", "5", "--regime", "anticipatory", "--items", "12",
                      "--output", tensor],
                     ["transform", "--data", tensor, "--leads", "4",
                      "--output", str(sub_dir / "supervised.npz")],
                     ["backtest", "--specs", str(specs), "--data", tensor, "--out", board],
                     ["select", "--data", tensor, "--models", str(specs), "--subset", "12",
                      "--out", str(sub_dir / "selector.bin"),
                      "--graph", str(sub_dir / "graph.json")],
                     ["report", "--data", tensor, "--specs", str(specs),
                      "--item", "item0000", "--out", str(sub_dir / "report_item0000.csv")]):
            assert main(argv) == 0, argv
        for name in ("tensor.npz", "supervised.npz", "leaderboard.csv", "selector.bin",
                     "graph.json", "graph.dot", "report_item0000.csv"):
            assert (run_dir / name).read_bytes() == (sub_dir / name).read_bytes(), name
