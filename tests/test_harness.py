"""Experiment harness and CLI: config handling, report emission, checkpoint
round-trips, determinism of every output file, and exit codes."""

import contextlib
import csv
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpcn.attacks
import gpcn.bp
from gpcn.graph import (largest_connected_component, load_dataset,
                        normalize_adjacency, save_dataset)
from gpcn.bp import train_bp
from gpcn.pc import train_pc
from gpcn.calibration import expected_calibration_error
from gpcn.harness import ExperimentConfig, load_checkpoint
from gpcn.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, MAX_BUDGET,
                      main)

SBM_SPEC = {"num_blocks": 2, "nodes_per_block": 30,
            "intra_block_edge_prob": 0.2, "inter_block_edge_prob": 0.02,
            "feature_dim": 8, "feature_noise_std": 0.3,
            "split_fractions": [0.2, 0.2, 0.6]}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"synthetic": {**SBM_SPEC, "seed": 5}, "model": "gcn",
           "epochs": 20, "seeds": [0, 1], "dataset_name": "sbm"}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def gen_dataset(tmp_path, name="data", **spec_overrides):
    spec = tmp_path / f"{name}_spec.json"
    spec.write_text(json.dumps({**SBM_SPEC, **spec_overrides}))
    data_dir = tmp_path / name
    assert main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
                 "--out", str(data_dir)]) == 0
    return data_dir


class TestDatasetCommands:
    def test_gen_inspect_lcc(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        out = tmp_path / "data"
        assert main(["dataset", "gen", "--spec", str(spec), "--seed", "3",
                     "--out", str(out)]) == 0
        info_code = main(["dataset", "inspect", str(out)])
        captured = capsys.readouterr().out
        assert info_code == 0
        assert '"num_nodes": 60' in captured
        lcc_out = tmp_path / "lcc"
        assert main(["dataset", "lcc", str(out), "--out", str(lcc_out)]) == 0
        assert load_dataset(lcc_out).num_nodes <= 60

    def test_lcc_of_written_and_respelled_source_agree(self, tmp_path):
        """``dataset lcc`` copies the kept lines of the features.csv ``gen``
        wrote, and formats those of the same values spelled otherwise;
        both give the files the formatting gave, on a cold cache and on
        the cache the first runs filled."""
        data_dir = gen_dataset(tmp_path, nodes_per_block=40,
                               inter_block_edge_prob=0.0)
        respelled = tmp_path / "respelled"
        respelled.mkdir()
        for p in data_dir.iterdir():
            text = p.read_bytes()
            if p.name == "features.csv":
                text = re.sub(rb"([0-9]\.[0-9]+)", rb"\g<1>0", text)
            (respelled / p.name).write_bytes(text)
        assert (respelled / "features.csv").read_bytes() != \
            (data_dir / "features.csv").read_bytes()
        trees = []
        for state in ("cold", "warm"):
            for src in (data_dir, respelled):
                out = tmp_path / f"{src.name}-{state}"
                assert main(["dataset", "lcc", str(src),
                             "--out", str(out)]) == 0
                trees.append(tree_bytes(out))
        g = load_dataset(data_dir)
        ref = tmp_path / "ref"
        save_dataset(largest_connected_component(g), ref, name="lcc")
        assert largest_connected_component(g).num_nodes < g.num_nodes
        assert all(tree == tree_bytes(ref) for tree in trees)

    def test_gen_rejects_feature_dim_below_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SBM_SPEC, "feature_dim": 0}))
        assert main(["dataset", "gen", "--spec", str(spec),
                     "--out", str(tmp_path / "data")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "feature_dim" in err

    @pytest.mark.parametrize("entry", ["dataset gen", "train"])
    @pytest.mark.parametrize("drop, add, named", [
        ("feature_noise_std", {"feature_noise": 0.3},
         "unknown {where} key(s): 'feature_noise'"),
        ("num_blocks", {}, "missing {where} key(s): 'num_blocks'"),
    ], ids=["misspelt", "missing"])
    def test_usage_error_names_bad_synthetic_key(self, tmp_path, capsys,
                                                 entry, drop, add, named):
        """A misspelt or a missing SyntheticSpec key, in a spec file or in a
        config's synthetic block, exits 1 naming the key."""
        fields = {k: v for k, v in SBM_SPEC.items() if k != drop} | add
        out = str(tmp_path / "o")
        if entry == "dataset gen":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(fields))
            argv = ["dataset", "gen", "--spec", str(spec), "--out", out]
            where = "spec"
        else:
            cfg = write_config(tmp_path, synthetic={**fields, "seed": 5})
            argv = ["train", "--config", str(cfg), "--out", out]
            where = "synthetic"
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error")
        assert named.format(where=where) in err

    def test_gen_byte_identical_for_same_seed(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        for d in ("a", "b"):
            main(["dataset", "gen", "--spec", str(spec), "--seed", "7",
                  "--out", str(tmp_path / d)])
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestTrainCommand:
    def test_runs_csv_schema_and_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "runs.csv")
        assert [r["seed"] for r in rows] == ["0", "1", "mean", "std"]
        assert list(rows[0]) == ["model", "seed", "train_acc", "val_acc",
                                 "test_acc", "ece", "mce", "final_energy",
                                 "selected_epoch"]
        accs = [float(r["test_acc"]) for r in rows[:2]]
        assert float(rows[2]["test_acc"]) == pytest.approx(np.mean(accs))
        assert float(rows[3]["test_acc"]) == pytest.approx(np.std(accs))
        for seed in (0, 1):
            params, meta = load_checkpoint(out / f"checkpoint_gcn_seed{seed}.json")
            assert meta["model"] == "gcn"
            assert params.layer_dims[0] == 8

    def test_gpcn_checkpoint_carries_energy(self, tmp_path):
        cfg = write_config(tmp_path, model="gpcn", epochs=5,
                           pc={"inference_steps": 4}, seeds=[0])
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        _, meta = load_checkpoint(out / "checkpoint_gpcn_seed0.json")
        assert meta["final_energy"] >= 0.0
        assert meta["pc_config"]["inference_steps"] == 4

    def test_cli_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path, epochs=5)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--model", "gpcn",
                     "--seed-list", "3", "--out", str(out)]) == 0
        assert (out / "checkpoint_gpcn_seed3.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        for d in ("r1", "r2"):
            main(["train", "--config", str(cfg), "--out", str(tmp_path / d)])
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")


@pytest.mark.parametrize("command, flags, model", [
    ("train", [], "gcn"),
    ("energy-study", ["--t-grid", "2,3"], "gpcn")])
def test_a_hat_formed_once(tmp_path, monkeypatch, command, flags, model):
    """Every seed, and every T of the energy study, trains on one graph
    object, so A_hat is formed once per command."""
    calls = []

    def counting(g):
        calls.append(g.num_nodes)
        return normalize_adjacency(g)

    monkeypatch.setattr("gpcn.graph.normalize_adjacency", counting)
    cfg = write_config(tmp_path, model=model, epochs=2, seeds=[0, 1],
                       pc={"inference_steps": 2})
    assert main([command, "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == [60]


class TestCalibrateCommand:
    def test_reports_from_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        data_dir = tmp_path / "data"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        cal = tmp_path / "cal"
        assert main(["calibrate", "--checkpoint",
                     str(out / "checkpoint_gcn_seed0.json"),
                     "--data", str(data_dir), "--out", str(cal)]) == 0
        report = json.loads((cal / "report.json").read_text())
        assert report["mce"] >= report["ece"] >= 0.0
        bins = read_csv(cal / "bins.csv")
        assert len(bins) == 10
        assert sum(int(r["count"]) for r in bins) \
            == sum(int(r["count"]) for r in read_csv(cal / "histogram.csv"))

    def test_perfectly_calibrated_override_gives_zero_ece(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        data_dir = tmp_path / "data"
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        g = load_dataset(data_dir)
        # confidence 0.75 rows whose accuracy over the test mask is 0.75
        test_nodes = np.flatnonzero(g.mask("test"))
        probs = np.full((g.num_nodes, 2), 0.25)
        for i, node in enumerate(test_nodes):
            hit = i < round(0.75 * test_nodes.size)
            cls = g.labels[node] if hit else 1 - g.labels[node]
            probs[node] = [0.25, 0.25]
            probs[node, cls] = 0.75
        report = expected_calibration_error(probs, g.labels, g.mask("test"))
        assert report.ece == pytest.approx(0.0, abs=1e-12)

    def test_dim_mismatch_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        other = dict(SBM_SPEC, feature_dim=5)
        spec = tmp_path / "other.json"
        spec.write_text(json.dumps(other))
        data_dir = tmp_path / "other_data"
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        assert main(["calibrate", "--checkpoint",
                     str(out / "checkpoint_gcn_seed0.json"),
                     "--data", str(data_dir),
                     "--out", str(tmp_path / "cal")]) == EXIT_USAGE
        # same input width, but three classes against the 2-class checkpoint
        spec.write_text(json.dumps(dict(SBM_SPEC, num_blocks=3)))
        data_dir = tmp_path / "three_class_data"
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        assert main(["calibrate", "--checkpoint",
                     str(out / "checkpoint_gcn_seed0.json"),
                     "--data", str(data_dir),
                     "--out", str(tmp_path / "cal3")]) == EXIT_USAGE

    @pytest.mark.parametrize("fractions, bins, named", [
        ([0.5, 0.5, 0.0], "10", "test split is empty"),
        ([0.2, 0.2, 0.6], "0", "bins must be >= 1, got 0"),
        ([0.2, 0.2, 0.6], "10", "calibration failed"),
        ([0.2, 0.2, 0.6], "10000000000000",
         "bins must be <= 10000, got 10000000000000"),
    ], ids=["empty_test_split", "zero_bins", "failing_ece", "huge_bins"])
    def test_checks_before_writing(self, tmp_path, capsys, monkeypatch,
                                   fractions, bins, named):
        """An empty test split, a bin count below 1, or an error in the
        report's own work exits 1 naming the cause, and leaves no output
        directory behind."""
        def failing_ece(*args):
            raise ValueError("calibration failed")

        if named == "calibration failed":
            monkeypatch.setattr("gpcn.harness.expected_calibration_error",
                                failing_ece)
        data_dir = gen_dataset(tmp_path, split_fractions=fractions)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"layer_dims": [8, 2],
                                    "weights": [[0.0] * 16]}))
        out = tmp_path / "cal"
        assert main(["calibrate", "--checkpoint", str(ckpt),
                     "--data", str(data_dir), "--bins", bins,
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert not out.exists()

    def test_bins_checked_before_the_dataset_is_read(self, tmp_path, capsys):
        """A missing dataset would exit 2; ``--bins`` is refused first."""
        out = tmp_path / "cal"
        assert main(["calibrate", "--checkpoint", str(tmp_path / "ckpt.json"),
                     "--data", str(tmp_path / "missing"),
                     "--bins", "10000000000000", "--out", str(out)]) \
            == EXIT_USAGE
        assert "bins must be <= 10000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        (json.dumps({"weights": [[0.0] * 16]}), "missing key 'layer_dims'"),
        (json.dumps({"layer_dims": [8, 2], "weights": [[0.0] * 15]}),
         "layer 1 has 15 weights, its shape (8, 2) needs 16"),
        ('{"layer_dims": [8, 2], "weights": [[0.0]]', "not valid JSON"),
        (json.dumps({"layer_dims": ["8", 2], "weights": [[0.0] * 16]}),
         "'layer_dims' must be a list of at least two"),
        (json.dumps({"layer_dims": [8, 2],
                     "weights": [[0.0] * 16, [0.0] * 4]}),
         "'weights' must hold one list per layer, 1 for"),
        ('{"layer_dims": [8, 2], "weights": [[0.0]]}\udcff',
         "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        # JSON readers take these tokens as floats: nan, inf and inf
        *[('{"layer_dims": [8, 2], "weights": [[%s%s]]}'
           % (token, ", 0.0" * 15), "layer 1 holds a non-finite weight")
          for token in ("NaN", "-Infinity", "1e400")],
        # an integer past float64's range, which numpy refuses to convert
        ('{"layer_dims": [8, 2], "weights": [[1%s%s]]}'
         % ("0" * 400, ", 0.0" * 15), "layer 1 holds a non-finite weight"),
        # numpy would take strings, booleans and nested lists as numbers
        *[(json.dumps({"layer_dims": [2, 1, 2], "weights": weights}),
           f"layer {k} must be a flat list of JSON numbers")
          for weights, k in [([["1.5", "2"], [1.0, 0.0]], 1),
                             ([[1.5, 2.0], [True, False]], 2),
                             ([[[1.0], [2.0]], [1.0, 0.0]], 1)]],
    ], ids=["missing_key", "short_row", "not_json", "text_dims",
            "extra_layer", "not_utf8", "nan", "infinity", "overflow",
            "integer_overflow", "strings", "booleans", "nested"])
    def test_bad_checkpoint_names_file_and_fault(self, tmp_path, capsys,
                                                 text, named):
        data_dir = gen_dataset(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        # a lone surrogate escape writes its byte as it is
        ckpt.write_bytes(text.encode("utf-8", "surrogateescape"))
        out = tmp_path / "cal"
        assert main(["calibrate", "--checkpoint", str(ckpt),
                     "--data", str(data_dir), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {ckpt}: ") and named in err
        assert not out.exists()


    def test_overflowing_weights_exit_3_naming_the_checkpoint(self, tmp_path,
                                                              capsys):
        """Finite weights of +-1e200: the hidden layer holds values near
        1e200, and the output layer's product overflows."""
        data_dir = gen_dataset(tmp_path)
        signs = np.resize([1.0, -1.0], 8 * 4 + 4 * 2) * 1e200
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"layer_dims": [8, 4, 2],
                                    "weights": [list(signs[:32]),
                                                list(signs[32:])]}))
        out = tmp_path / "cal"
        assert main(["calibrate", "--checkpoint", str(ckpt),
                     "--data", str(data_dir), "--out", str(out)]) \
            == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {ckpt}: ")
        assert "overflows" in err
        assert not out.exists()


class TestOneForwardPassPerModel:
    """A command forms each trained model's prediction on the graph it was
    trained on once: ``fit`` runs E + 1 forward passes (the initial
    weights', then one per epoch) and hands the selected epoch's on. Only
    an attack walk's steps, on graphs the weights were not trained on,
    add passes."""

    EPOCHS = 3

    def run(self, tmp_path, monkeypatch, argv, **overrides):
        """Run ``argv`` on a fresh config; returns the gcn_forward calls,
        the models trained, and the attack walk steps taken."""
        counts = {"forwards": 0, "models": 0, "steps": 0}
        forward = gpcn.bp.gcn_forward

        def counting_forward(*args, **kwargs):
            counts["forwards"] += 1
            return forward(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("gpcn.")
                    and getattr(module, "gcn_forward", None) is forward):
                monkeypatch.setattr(module, "gcn_forward", counting_forward)

        def counting(train_fn):
            def wrapper(graph, config):
                counts["models"] += 1
                return train_fn(graph, config)
            return wrapper

        monkeypatch.setattr("gpcn.harness.train_bp", counting(train_bp))
        monkeypatch.setattr("gpcn.harness.train_pc", counting(train_pc))
        walk = gpcn.attacks.fga_attack

        def counting_walk(*args):
            steps = walk(*args)
            counts["steps"] += len(steps)
            return steps

        monkeypatch.setattr(gpcn.attacks, "fga_attack", counting_walk)
        cfg = write_config(tmp_path, epochs=self.EPOCHS,
                           pc={"inference_steps": 2}, **overrides)
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "o")]) == 0
        return counts["forwards"], counts["models"], counts["steps"]

    def test_train(self, tmp_path, monkeypatch):
        got = self.run(tmp_path, monkeypatch, ["train"], seeds=[0, 1])
        assert got == (2 * (self.EPOCHS + 1), 2, 0)

    def test_energy_study(self, tmp_path, monkeypatch):
        got = self.run(tmp_path, monkeypatch,
                       ["energy-study", "--t-grid", "2,3"], model="gpcn",
                       seeds=[0])
        assert got == (2 * (self.EPOCHS + 1), 2, 0)

    def test_fga_evasion(self, tmp_path, monkeypatch):
        forwards, models, steps = self.run(
            tmp_path, monkeypatch,
            ["attack", "--kind", "fga_structure", "--mode", "evasion",
             "--budget", "2"], seeds=[0])
        assert models == 1 and steps > 0
        assert forwards == self.EPOCHS + 1 + steps

    def test_fga_poisoning(self, tmp_path, monkeypatch):
        forwards, models, steps = self.run(
            tmp_path, monkeypatch,
            ["attack", "--kind", "fga_structure", "--mode", "poisoning",
             "--budget", "2"], seeds=[0])
        assert models > 1 and steps > 0
        assert forwards == models * (self.EPOCHS + 1) + steps

    def test_random_global_poisoning(self, tmp_path, monkeypatch):
        got = self.run(tmp_path, monkeypatch,
                       ["attack", "--kind", "random_global", "--mode",
                        "poisoning", "--ptb-rate", "0.0,0.1,0.2"],
                       seeds=[0])
        # the clean model and one per rate that adds edges
        assert got == (3 * (self.EPOCHS + 1), 3, 0)


class TestAttackCommand:
    def test_random_global_rate_zero_matches_clean(self, tmp_path):
        cfg = write_config(tmp_path, epochs=15, seeds=[0])
        out = tmp_path / "att"
        assert main(["attack", "--config", str(cfg), "--kind",
                     "random_global", "--mode", "poisoning",
                     "--ptb-rate", "0,0.5", "--out", str(out)]) == 0
        rows = read_csv(out / "robustness.csv")
        assert len(rows) == 2
        clean_margins = [r for r in read_csv(out / "margins.csv")
                         if r["condition"] == "before"]
        clean_acc = np.mean([int(r["correct"]) for r in clean_margins])
        zero_row = [r for r in rows if float(r["budget"]) == 0.0][0]
        assert float(zero_row["accuracy"]) == pytest.approx(clean_acc)
        assert zero_row["holistic_metric"] == ""

    def test_fga_sweep_row_count_and_holistic(self, tmp_path):
        cfg = write_config(tmp_path, epochs=15, seeds=[0, 1])
        out = tmp_path / "att"
        assert main(["attack", "--config", str(cfg), "--kind",
                     "fga_structure", "--mode", "evasion", "--budget", "2",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "robustness.csv")
        assert len(rows) == 2 * 2          # budgets 1..2 x seeds
        for seed in ("0", "1"):
            per_seed = [r for r in rows if r["seed"] == seed]
            recomputed = sum(int(r["budget"]) * float(r["accuracy"])
                             for r in per_seed)
            assert float(per_seed[0]["holistic_metric"]) \
                == pytest.approx(recomputed)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, epochs=10, seeds=[0])
        for d in ("a1", "a2"):
            main(["attack", "--config", str(cfg), "--kind", "fga_structure",
                  "--mode", "evasion", "--budget", "1",
                  "--out", str(tmp_path / d)])
        assert tree_bytes(tmp_path / "a1") == tree_bytes(tmp_path / "a2")


class TestEnergyStudy:
    def test_study_rows_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, model="gpcn", epochs=5, seeds=[0, 1],
                           pc={"inference_steps": 4})
        for d in ("e1", "e2"):
            assert main(["energy-study", "--config", str(cfg),
                         "--t-grid", "4,8", "--out", str(tmp_path / d)]) == 0
        rows = read_csv(tmp_path / "e1" / "study.csv")
        assert len(rows) == 4
        assert list(rows[0]) == ["T", "seed", "final_energy", "ece", "mce"]
        assert tree_bytes(tmp_path / "e1") == tree_bytes(tmp_path / "e2")

    def test_requires_gpcn(self, tmp_path):
        cfg = write_config(tmp_path, model="gcn")
        assert main(["energy-study", "--config", str(cfg), "--t-grid", "4",
                     "--out", str(tmp_path / "e")]) == EXIT_USAGE

    def test_bad_grid_point_fails_before_training(self, tmp_path, capsys,
                                                  monkeypatch):
        """A T the learner rejects fails the command before any seed trains
        at the good grid points before it."""
        trained = []

        def counting(graph, config):
            trained.append((config.inference_steps, config.seed))
            return train_pc(graph, config)

        monkeypatch.setattr("gpcn.harness.train_pc", counting)
        cfg = write_config(tmp_path, model="gpcn", epochs=1, seeds=[0, 1, 2])
        assert main(["energy-study", "--config", str(cfg),
                     "--t-grid", "12,0", "--out", str(tmp_path / "e")]) \
            == EXIT_USAGE
        assert "inference_steps must be >= 1" in capsys.readouterr().err
        assert trained == []


class TestExitCodes:
    def test_usage_error_on_bad_flag(self):
        assert main(["train", "--no-such-flag"]) == EXIT_USAGE

    def test_usage_error_on_bad_model(self, tmp_path):
        cfg = write_config(tmp_path, model="gcn")
        cfg.write_text(json.dumps({"synthetic": {**SBM_SPEC, "seed": 1},
                                   "model": "resnet"}))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_data_error_on_missing_dataset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(tmp_path / "nope"),
                                   "model": "gcn"}))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_data_error_on_non_finite_features(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        data_dir = tmp_path / "data"
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        features = data_dir / "features.csv"
        rows = features.read_text().splitlines()
        rows[3] = ",".join(["nan"] + rows[3].split(",")[1:])
        features.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data_dir), "model": "gcn"}))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_data_error_on_negative_edge_endpoint(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        data_dir = tmp_path / "data"
        main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
              "--out", str(data_dir)])
        with open(data_dir / "edges.csv", "a") as fh:
            fh.write("-1,2\n")
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        assert "edge endpoint out of range" in capsys.readouterr().err

    @pytest.fixture
    def data_dir(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        data_dir = tmp_path / "data"
        assert main(["dataset", "gen", "--spec", str(spec), "--seed", "5",
                     "--out", str(data_dir)]) == 0
        return data_dir

    @pytest.mark.parametrize("text, cause", [
        ("{\"num_nodes\": 60,", "not valid JSON"),
        ("[60, 8, 2]", "expected a JSON object, got list")])
    def test_data_error_on_unreadable_meta(self, data_dir, capsys, text,
                                           cause):
        (data_dir / "meta.json").write_text(text)
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "meta.json" in err and cause in err

    @pytest.mark.parametrize("key", ["num_nodes", "num_features",
                                     "num_classes"])
    def test_data_error_on_missing_meta_key(self, data_dir, capsys, key):
        meta = json.loads((data_dir / "meta.json").read_text())
        del meta[key]
        (data_dir / "meta.json").write_text(json.dumps(meta))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "meta.json" in err and f"missing key '{key}'" in err

    @pytest.mark.parametrize("key, value", [
        ("num_nodes", "60"), ("num_nodes", 60.5), ("num_features", None),
        ("num_classes", "two")])
    def test_data_error_on_non_integer_meta_count(self, data_dir, capsys, key,
                                                  value):
        meta = json.loads((data_dir / "meta.json").read_text())
        meta[key] = value
        (data_dir / "meta.json").write_text(json.dumps(meta))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "meta.json" in err and f"'{key}' must be" in err

    def test_data_error_on_zero_num_features(self, data_dir, capsys):
        meta = json.loads((data_dir / "meta.json").read_text())
        meta["num_features"] = 0
        (data_dir / "meta.json").write_text(json.dumps(meta))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "meta.json" in err
        assert "'num_features' must be at least 1, got 0" in err

    @pytest.mark.parametrize("name, byte", [
        ("labels.csv", b"\xff"), ("features.csv", b"\xe9"),
        ("edges.csv", b"\xff"), ("splits.csv", b"\xff")])
    def test_data_error_on_non_utf8_file(self, data_dir, capsys, name, byte):
        """A byte that is not UTF-8 in a dataset file exits 2 naming the
        file; features.csv reaches the per-line reader, as the
        ``np.loadtxt`` reader declines a byte outside its allowlist."""
        path = data_dir / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = byte + lines[2]
        path.write_bytes(b"".join(lines))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {name}: not UTF-8 text")

    @pytest.mark.parametrize("separator", [
        "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["ff", "vt", "fs", "gs", "rs", "nel", "ls", "ps"])
    @pytest.mark.parametrize("name", ["edges.csv", "features.csv",
                                      "labels.csv", "splits.csv"])
    def test_data_error_on_lines_joined_by_a_separator(
            self, data_dir, capsys, name, separator):
        """A line ends at '\\n' alone: a character that ``str.splitlines``
        also ends a line at, put in place of the '\\n' that ends line 2,
        joins lines 2 and 3, and the command exits 2 naming the file (a
        malformed line, or splits.csv one row short)."""
        path = data_dir / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:-1] + separator.encode()
        path.write_bytes(b"".join(lines))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {name}")

    def test_data_error_on_trailing_unit_separator(self, data_dir, capsys):
        """'\\x1f' at the end of a features.csv line stays in it, and
        ``float`` refuses it."""
        path = data_dir / "features.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:-1] + b"\x1f\n"
        path.write_bytes(b"".join(lines))
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: features.csv:3: malformed line")

    def test_data_error_names_ragged_feature_row(self, data_dir, capsys):
        features = data_dir / "features.csv"
        rows = features.read_text().splitlines()
        rows[3] += ",0.5"
        features.write_text("\n".join(rows) + "\n")
        assert main(["dataset", "inspect", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "features.csv:4: malformed line: 9 values, expected 8" in err

    @pytest.mark.parametrize("model", ["gcn", "gpcn"])
    def test_usage_error_on_zero_epochs(self, tmp_path, model):
        cfg = write_config(tmp_path, model=model, epochs=0, seeds=[0])
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("where", ["top_level", "pc"])
    def test_usage_error_names_unknown_config_key(self, tmp_path, capsys,
                                                  where):
        typo = {"inference_step": 4}
        cfg = write_config(tmp_path, model="gpcn", epochs=1, seeds=[0],
                           **(typo if where == "top_level" else {"pc": typo}))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "'inference_step'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, content, named", [
        ("train", [1, 2], "expected a JSON object, got list"),
        ("train", {"synthetic": 5}, "'synthetic' must be a JSON object or "
                                    "null, got 5"),
        ("train", {"hidden_dims": 16}, "'hidden_dims' must be a JSON list "
                                       "of integers, got 16"),
        ("train", b'{"epochs": 2', "not valid JSON"),
        ("train", b'{"dataset_name": "\xff"}', "not valid JSON"),
        ("dataset gen", [1, 2], "expected a JSON object, got list"),
        ("dataset gen", {**SBM_SPEC, "nodes_per_block": 3.5},
         "spec key 'nodes_per_block' must be a JSON integer, got 3.5"),
        ("dataset gen", {**SBM_SPEC, "split_fractions": [0.5, 0.5]},
         "'split_fractions' must be a JSON list of 3 numbers"),
        ("dataset gen", b"{", "not valid JSON"),
        ("dataset gen", {**SBM_SPEC, "feature_noise_std": float("nan")},
         "feature_noise_std must be finite and >= 0, got nan"),
        ("dataset gen", {**SBM_SPEC, "feature_noise_std": -1.0},
         "feature_noise_std must be finite and >= 0, got -1.0"),
        ("dataset gen", {**SBM_SPEC, "split_fractions": [float("nan"), 0.2,
                                                         0.2]},
         "split_fractions must be finite and nonnegative, got (nan, "),
    ])
    def test_usage_error_on_wrong_json_shape(self, tmp_path, capsys,
                                             monkeypatch, entry, content,
                                             named):
        """A config or spec that is not a JSON object, or holds a value of
        another JSON type than its field's or one its field refuses, exits
        1 naming the file and the key, before any seed trains
        (``TestConfigJsonTypes`` checks every config field's type)."""
        def no_training(graph, config):
            raise AssertionError("trained on a malformed config")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        path = tmp_path / "in.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, dict) and entry == "train":
            path = write_config(tmp_path, **content)
        else:
            path.write_text(json.dumps(content))
        out = tmp_path / "o"
        flag = "--config" if entry == "train" else "--spec"
        assert main([*entry.split(), flag, str(path),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: ") and named in err
        assert not out.exists()

    def test_usage_error_on_zero_budget(self, tmp_path, capsys, monkeypatch):
        def no_training(graph, config):
            raise AssertionError("trained for an empty budget sweep")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        cfg = write_config(tmp_path, epochs=1, seeds=[0])
        assert main(["attack", "--config", str(cfg), "--kind",
                     "fga_structure", "--mode", "evasion", "--budget", "0",
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --budget must be >= 1, got 0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget, named", [
        (MAX_BUDGET + 1, f"--budget must be <= {MAX_BUDGET}, got "
                         f"{MAX_BUDGET + 1}"),
        (MAX_BUDGET, "missing.json: cannot read")],
        ids=["above", "at"])
    def test_budget_cap_checked_before_the_config_is_read(
            self, tmp_path, capsys, budget, named):
        """A --budget past ``MAX_BUDGET`` exits 1 before the config, here
        a missing file, is read, and makes no output directory; the cap
        itself passes on to the config."""
        out = tmp_path / "o"
        assert main(["attack", "--config", str(tmp_path / "missing.json"),
                     "--kind", "fga_structure", "--mode", "evasion",
                     "--budget", str(budget), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags, named", [
        ("random_global", ["--ptb-rate", "inf"], "inf"),
        ("random_global", ["--ptb-rate", "0.1,nan"], "nan"),
        ("random_global", ["--budget", "2"], "--budget"),
        ("fga_structure", ["--ptb-rate", "0.1"], "--ptb-rate"),
    ])
    def test_usage_error_names_bad_attack_flag(self, tmp_path, capsys, kind,
                                               flags, named):
        cfg = write_config(tmp_path, epochs=1, seeds=[0])
        assert main(["attack", "--config", str(cfg), "--kind", kind,
                     "--mode", "evasion", *flags,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and named in err

    @pytest.mark.parametrize("overrides, named", [
        ({"weight_lr": -1.0}, "weight_lr must be finite and positive, "
                              "got -1.0"),
        ({"weight_lr": float("nan")}, "weight_lr must be finite and "
                                      "positive, got nan"),
        ({"pc": {"value_update_rate": float("nan")}},
         "value_update_rate must be finite and positive, got nan"),
        ({"pc": {"value_update_rate": float("inf")}},
         "value_update_rate must be finite and positive, got inf"),
    ])
    def test_usage_error_on_bad_learning_rate(self, tmp_path, capsys,
                                              monkeypatch, overrides, named):
        """A learning rate that is not finite and positive exits 1 naming
        the field, before any seed trains."""
        trained = []

        def no_training(graph, config):
            trained.append(config.seed)
            raise AssertionError("trained with a bad learning rate")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        model = "gpcn" if "pc" in overrides else "gcn"
        cfg = write_config(tmp_path, model=model, epochs=1, **overrides)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, named", [
        (["energy-study", "--t-grid", "2,3,2"],
         "2 appears twice in the inference-step grid"),
        (["attack", "--kind", "random_global", "--mode", "poisoning",
          "--ptb-rate", "0.5,0.50"], "0.5 appears twice in the budget grid"),
    ], ids=["t-grid", "ptb-rate"])
    def test_usage_error_on_repeated_grid_value(self, tmp_path, capsys,
                                                monkeypatch, argv, named):
        """A grid value given twice would train and write its rows twice:
        it exits 1 naming the value, before any seed trains."""
        trained = []

        def no_training(graph, config):
            trained.append(config.seed)
            raise AssertionError("trained on a repeated grid value")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        model = "gpcn" if argv[0] == "energy-study" else "gcn"
        cfg = write_config(tmp_path, model=model, epochs=1)
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config, named", [
        (["dataset", "gen", "--seed", "-1"], None,
         "--seed: seeds must be >= 0, got -1"),
        (["train", "--seed-list", "0,-3"], {},
         "--seed-list: seeds must be >= 0, got -3"),
        (["train"], {"seeds": [0, -1]},
         "config key 'seeds': seeds must be >= 0, got -1"),
        (["train"], {"synthetic": {**SBM_SPEC, "seed": -2}},
         "synthetic key 'seed': seeds must be >= 0, got -2"),
    ], ids=["gen-seed", "seed-list", "config-seeds", "synthetic-seed"])
    def test_usage_error_on_negative_seed(self, tmp_path, capsys, monkeypatch,
                                          argv, config, named):
        """numpy's generators take no negative seed: each way one comes in
        exits 1 naming the flag or key and the value, before any seed
        trains and before --out is made."""
        trained = []

        def no_training(graph, config):
            trained.append(config.seed)
            raise AssertionError("trained with a negative seed")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        if config is None:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(SBM_SPEC))
            argv = [*argv, "--spec", str(spec)]
        else:
            argv = [*argv, "--config", str(write_config(tmp_path, **config))]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, synthetic, flags, named", [
        ("train", {"split_fractions": [0.5, 0.5, 0.0]}, [], "test split"),
        ("energy-study", {"split_fractions": [0.5, 0.5, 0.0]},
         ["--t-grid", "2"], "test split"),
        ("attack", {"num_blocks": 1},
         ["--kind", "fga_structure", "--mode", "evasion", "--budget", "1"],
         "has 1"),
        ("attack", {},
         ["--kind", "fga_feature", "--mode", "evasion", "--budget", "1"],
         "binary"),
        ("attack", {},
         ["--kind", "fga_both", "--mode", "poisoning", "--budget", "2"],
         "binary"),
    ], ids=["train-synthetic0-test split",
            "energy-study-synthetic1-test split", "attack-synthetic2-has 1",
            "attack-fga_feature-binary", "attack-fga_both-binary"])
    def test_usage_error_before_training(self, tmp_path, capsys, monkeypatch,
                                         command, synthetic, flags, named):
        """An empty test split (train, energy-study), a single class
        (attack), or a feature attack on the SBM's Gaussian features fails
        before the first seed trains, naming the cause."""
        trained = []

        def no_training(graph, config):
            trained.append(config.seed)
            raise AssertionError("trained before the dataset was checked")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        model = "gpcn" if command == "energy-study" else "gcn"
        cfg = write_config(tmp_path, model=model, epochs=1,
                           synthetic={**SBM_SPEC, **synthetic, "seed": 5})
        assert main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, bins, named", [
        ("train", 0, "bins must be >= 1"),
        ("energy-study", 0, "bins must be >= 1"),
        ("train", 10**13, "bins must be <= 10000, got 10000000000000"),
        ("energy-study", 10**13, "bins must be <= 10000"),
    ], ids=["train", "energy-study", "train-huge", "energy-study-huge"])
    def test_bins_checked_before_training(self, tmp_path, capsys,
                                          monkeypatch, command, bins, named):
        trained = []

        def counting(train_fn):
            def wrapper(graph, config):
                trained.append(config.seed)
                return train_fn(graph, config)
            return wrapper

        monkeypatch.setattr("gpcn.harness.train_bp", counting(train_bp))
        monkeypatch.setattr("gpcn.harness.train_pc", counting(train_pc))
        model = "gpcn" if command == "energy-study" else "gcn"
        cfg = write_config(tmp_path, model=model, epochs=1, bins=bins)
        flags = ["--t-grid", "2"] if command == "energy-study" else []
        assert main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("strategy, fractions, named", [
        ("nettack", [0.2, 0.2, 0.6], "'nettack'"),
        ("nettack_style", [0.5, 0.5, 0.0], "no test nodes"),
        ("random_1000", [1.0, 0.0, 0.0], "no val or test nodes"),
    ])
    def test_victim_strategy_checked_before_training(
            self, tmp_path, capsys, monkeypatch, strategy, fractions, named):
        """An unknown victim strategy, or one whose candidate pool is empty,
        fails before the first seed trains, naming the strategy or split."""
        trained = []

        def counting(graph, config):
            trained.append(config.seed)
            return train_bp(graph, config)

        monkeypatch.setattr("gpcn.harness.train_bp", counting)
        cfg = write_config(tmp_path, epochs=1, victim_strategy=strategy,
                           synthetic={**SBM_SPEC, "seed": 5,
                                      "split_fractions": fractions})
        assert main(["attack", "--config", str(cfg), "--kind",
                     "fga_structure", "--mode", "evasion", "--budget", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    def test_random_global_absent_pairs_checked_before_training(
            self, tmp_path, capsys, monkeypatch):
        """A rate that asks for more new edges than the graph has absent
        node pairs fails before the first seed trains, at any grid point."""
        trained = []

        def counting(graph, config):
            trained.append(config.seed)
            return train_bp(graph, config)

        monkeypatch.setattr("gpcn.harness.train_bp", counting)
        cfg = write_config(tmp_path, epochs=1)
        assert main(["attack", "--config", str(cfg), "--kind",
                     "random_global", "--mode", "poisoning",
                     "--ptb-rate", "0.1,1000", "--out",
                     str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "absent node pairs" in err
        assert trained == []
        assert not (tmp_path / "o").exists()

    def test_numeric_error_on_divergent_inference(self, tmp_path):
        cfg = write_config(tmp_path, model="gpcn", epochs=1, seeds=[0],
                           pc={"inference_steps": 200,
                               "value_update_rate": 1000.0})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        # the seed failed in training, before the output directory is made
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "runs.csv" in out and "histogram.csv" in out

    @pytest.mark.parametrize("flag, fault", [
        ("--config", "directory"), ("--config", "missing"),
        ("--spec", "directory"), ("--checkpoint", "directory"),
        ("--checkpoint", "missing")])
    def test_usage_error_on_unreadable_json_path(self, tmp_path, capsys,
                                                 monkeypatch, flag, fault):
        """A --config, --spec or checkpoint path that is a directory or
        does not exist exits 1 with one line naming it, before any seed
        trains."""
        trained = []

        def no_training(graph, config):
            trained.append(config.seed)
            raise AssertionError("trained without a readable config")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        path = tmp_path / "in.json"
        if fault == "directory":
            path.mkdir()
        argv = {"--config": ["train", "--config", str(path)],
                "--spec": ["dataset", "gen", "--spec", str(path)],
                "--checkpoint": ["calibrate", "--checkpoint", str(path),
                                 "--data", str(gen_dataset(tmp_path))]}[flag]
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: cannot read: ")
        assert err.count("\n") == 1
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("argv", [
        ["train", "--config", "CFG"],
        ["dataset", "gen", "--spec", "SPEC"],
        ["dataset", "lcc", "DATA"],
        ["calibrate", "--checkpoint", "CKPT", "--data", "DATA"],
        ["attack", "--config", "CFG", "--kind", "fga_structure", "--mode",
         "evasion", "--budget", "1"],
        ["energy-study", "--config", "CFG", "--t-grid", "2"],
    ], ids=["train", "gen", "lcc", "calibrate", "attack", "energy-study"])
    def test_usage_error_on_out_that_is_a_file(self, tmp_path, capsys,
                                               monkeypatch, argv, below):
        """An --out that is a file, or lies below one, exits 1 naming the
        file, before the command reads its inputs or trains a seed, and the
        file is left as it was."""
        called = []
        for name in ("cmd_train", "cmd_dataset_gen", "cmd_dataset_lcc",
                     "cmd_calibrate", "cmd_attack", "cmd_energy_study"):
            monkeypatch.setattr(f"gpcn.cli.{name}",
                                lambda *args, name=name, **kwargs:
                                called.append(name))
        cfg = write_config(tmp_path, model="gpcn", epochs=1, seeds=[0])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SBM_SPEC))
        paths = {"CFG": cfg, "SPEC": spec, "DATA": tmp_path / "data",
                 "CKPT": tmp_path / "ckpt.json"}
        file = tmp_path / "out.txt"
        file.write_text("kept\n")
        out = file / "sub" if below else file
        assert main([str(paths.get(a, a)) for a in argv]
                    + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"usage error: --out {out}: "
                                           f"{file} is not a directory\n")
        assert called == []
        assert file.read_text() == "kept\n"


class TestConfigObject:
    def test_seeds_must_be_distinct(self):
        with pytest.raises(ValueError, match="0 appears twice in seeds"):
            ExperimentConfig(synthetic=SBM_SPEC, seeds=(0, 0))

    def test_unknown_victim_strategy_rejected(self):
        with pytest.raises(ValueError, match="'nettack'"):
            ExperimentConfig(synthetic=SBM_SPEC, victim_strategy="nettack")


class TestReadme:
    def test_command_line_example_runs(self, tmp_path, monkeypatch, capsys):
        """The README's command-line block runs as written, in a directory
        holding its own small spec.json and exp.json, so an example that
        names a flag or a file the commands do not have fails here."""
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        (block,) = [b for b in blocks if b.startswith("gpcn ")]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.strip()]
        (tmp_path / "spec.json").write_text(json.dumps(
            {**SBM_SPEC, "nodes_per_block": 8, "feature_dim": 4}))
        (tmp_path / "exp.json").write_text(json.dumps(
            {"dataset": "data/sbm", "model": "gpcn", "epochs": 2,
             "hidden_dims": [4], "seeds": [0],
             "pc": {"inference_steps": 2}}))
        monkeypatch.chdir(tmp_path)
        for command in commands:
            argv = shlex.split(command)
            assert argv[0] == "gpcn"
            assert main(argv[1:]) == 0, (command, capsys.readouterr().err)


# Small degenerate SBM specs: no edges, complete graphs, one node per class,
# isolated nodes among the victims, and empty splits.
DEGENERATE_SPECS = {
    "no_edges": {"num_blocks": 2, "nodes_per_block": 3,
                 "intra_block_edge_prob": 0.0, "inter_block_edge_prob": 0.0},
    "complete": {"num_blocks": 2, "nodes_per_block": 3,
                 "intra_block_edge_prob": 1.0, "inter_block_edge_prob": 1.0},
    "one_node_per_class": {"num_blocks": 3, "nodes_per_block": 1,
                           "intra_block_edge_prob": 1.0,
                           "inter_block_edge_prob": 0.5},
    "isolated_victims": {"num_blocks": 2, "nodes_per_block": 4,
                         "intra_block_edge_prob": 0.3,
                         "inter_block_edge_prob": 0.0},
}
SPLITS = {"usual": [0.4, 0.3, 0.3], "no_test": [0.5, 0.5, 0.0],
          "no_val": [0.5, 0.0, 0.5], "no_train": [0.0, 0.5, 0.5],
          "all_none": [0.0, 0.0, 0.0]}
ATTACK_FLAGS = {"fga_structure": ["--budget", "2"],
                "fga_feature": ["--budget", "2"],
                "fga_both": ["--budget", "2"],
                "fga_indirect": ["--budget", "2", "--influencers", "1"],
                "random_global": ["--ptb-rate", "0,0.5"]}
MESSAGES = {EXIT_USAGE: "usage error: ", EXIT_DATA: "data error: ",
            EXIT_NUMERIC: "numeric failure: "}


class TestDegenerateGraphs:
    """``gpcn train`` and every attack kind on tiny degenerate graphs exit
    with a documented code, a nonzero one with a message naming the cause,
    and never raise."""

    @settings(deadline=None, max_examples=60)
    @given(shape=st.sampled_from(sorted(DEGENERATE_SPECS)),
           splits=st.sampled_from(sorted(SPLITS)),
           noise=st.sampled_from([0.0, 0.5]),
           model=st.sampled_from(["gcn", "gpcn"]),
           command=st.sampled_from(["train", *sorted(ATTACK_FLAGS)]),
           mode=st.sampled_from(["evasion", "poisoning"]),
           strategy=st.sampled_from(["random_1000", "nettack_style"]),
           seed=st.integers(0, 3))
    def test_documented_exit(self, shape, splits, noise, model, command,
                             mode, strategy, seed):
        """A nonzero exit also leaves no output directory."""
        spec = {**DEGENERATE_SPECS[shape], "feature_dim": 3,
                "feature_noise_std": noise,
                "split_fractions": SPLITS[splits], "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({
                "synthetic": spec, "model": model, "epochs": 2,
                "hidden_dims": [3], "seeds": [0],
                "victim_strategy": strategy, "pc": {"inference_steps": 2}}))
            out = Path(tmp) / "out"
            if command == "train":
                argv = ["train", "--config", str(cfg), "--out", str(out)]
            else:
                argv = ["attack", "--config", str(cfg), "--kind", command,
                        "--mode", mode, *ATTACK_FLAGS[command],
                        "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            wrote = out.exists()
        assert code in (0, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert wrote == (code == 0)
        if code:
            message = err.getvalue()
            assert message.startswith(MESSAGES[code])
            assert len(message.strip()) > len(MESSAGES[code])


# A tiny valid config that sets every field, the JSON type of each field,
# and per JSON type values of other JSON types.
TINY_CONFIG = {
    "dataset": None,
    "synthetic": {**DEGENERATE_SPECS["isolated_victims"], "feature_dim": 3,
                  "feature_noise_std": 0.5, "split_fractions": [0.4, 0.3, 0.3],
                  "seed": 0},
    "model": "gpcn", "epochs": 1, "weight_lr": 0.01, "hidden_dims": [3],
    "pc": {"inference_steps": 2, "value_update_rate": 0.1,
           "weight_update_timing": "end_of_T", "mode": "inter_layer"},
    "seeds": [0], "bins": 5, "victim_strategy": "random_1000",
    "dataset_name": "tiny"}
FIELD_TYPES = {
    ("dataset",): "string or null", ("synthetic",): "object or null",
    ("model",): "string", ("epochs",): "integer", ("weight_lr",): "number",
    ("hidden_dims",): "list of integers", ("pc",): "object",
    ("seeds",): "list of integers", ("bins",): "integer",
    ("victim_strategy",): "string", ("dataset_name",): "string",
    ("pc", "inference_steps"): "integer",
    ("pc", "value_update_rate"): "number",
    ("pc", "weight_update_timing"): "string", ("pc", "mode"): "string",
    ("synthetic", "num_blocks"): "integer",
    ("synthetic", "nodes_per_block"): "integer",
    ("synthetic", "intra_block_edge_prob"): "number",
    ("synthetic", "inter_block_edge_prob"): "number",
    ("synthetic", "feature_dim"): "integer",
    ("synthetic", "feature_noise_std"): "number",
    ("synthetic", "split_fractions"): "list of 3 numbers",
    ("synthetic", "seed"): "integer"}
WRONG_VALUES = {
    "integer": [None, True, 2.5, "2", [1], {}],
    "number": [None, False, "0.1", [0.1], {"x": 1}],
    "string": [None, True, 3, 2.5, ["x"], {}],
    "string or null": [True, 3, 2.5, ["x"], {}],
    "object": [None, True, 3, 2.5, "x", [1]],
    "object or null": [True, 3, 2.5, "x", [{}]],
    "list of integers": [None, True, 3, "3", {}, [2.5], ["3"], [True],
                         [1, None]],
    "list of 3 numbers": [None, 0.5, "x", [0.5, 0.5], [0.5, "x", 0.0],
                          [True, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2]],
}


class TestConfigJsonTypes:
    def test_tiny_config_is_valid(self):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(TINY_CONFIG))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "--config", str(cfg),
                             "--out", str(Path(tmp) / "out")]) == 0

    @settings(deadline=None, max_examples=100)
    @given(case=st.sampled_from(sorted(FIELD_TYPES)).flatmap(
        lambda key: st.tuples(st.just(key),
                              st.sampled_from(WRONG_VALUES[FIELD_TYPES[key]]))))
    @example(case=(("seeds",), 3))
    @example(case=(("epochs",), "5"))
    @example(case=(("epochs",), True))
    @example(case=(("pc", "inference_steps"), "12"))
    def test_wrong_json_type_names_key(self, case):
        """One field of the tiny config replaced by a value of another JSON
        type exits 1 naming the file and the key, and writes nothing."""
        key, value = case
        config = json.loads(json.dumps(TINY_CONFIG))
        parent = config if len(key) == 1 else config[key[0]]
        parent[key[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["train", "--config", str(cfg),
                             "--out", str(out)])
            wrote = out.exists()
        assert code == EXIT_USAGE
        assert err.getvalue().startswith(f"usage error: {cfg}: ")
        assert (f"key {key[-1]!r} must be a JSON {FIELD_TYPES[key]}, "
                f"got {value!r}") in err.getvalue()
        assert not wrote
