"""Experiment harness and CLI: config handling, report emission, checkpoint
round-trips, determinism of every output file, and exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gpcn.graph import load_dataset
from gpcn.bp import train_bp
from gpcn.pc import train_pc
from gpcn.calibration import expected_calibration_error
from gpcn.harness import ExperimentConfig, load_checkpoint
from gpcn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, main

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

        def counting(prepared, config):
            trained.append((config.inference_steps, config.seed))
            return train_pc(prepared, config)

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

    @pytest.mark.parametrize("command, synthetic, named", [
        ("train", {"split_fractions": [0.5, 0.5, 0.0]}, "test split"),
        ("energy-study", {"split_fractions": [0.5, 0.5, 0.0]}, "test split"),
        ("attack", {"num_blocks": 1}, "has 1"),
    ])
    def test_usage_error_before_training(self, tmp_path, capsys, monkeypatch,
                                         command, synthetic, named):
        """An empty test split (train, energy-study) or a single class
        (attack) fails before the first seed trains, naming the cause."""
        trained = []

        def no_training(prepared, config):
            trained.append(config.seed)
            raise AssertionError("trained before the dataset was checked")

        monkeypatch.setattr("gpcn.harness.train_bp", no_training)
        monkeypatch.setattr("gpcn.harness.train_pc", no_training)
        model = "gpcn" if command == "energy-study" else "gcn"
        cfg = write_config(tmp_path, model=model, epochs=1,
                           synthetic={**SBM_SPEC, **synthetic, "seed": 5})
        flags = {"train": [],
                 "energy-study": ["--t-grid", "2"],
                 "attack": ["--kind", "fga_structure", "--mode", "evasion",
                            "--budget", "1"]}[command]
        assert main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert trained == []

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

        def counting(prepared, config):
            trained.append(config.seed)
            return train_bp(prepared, config)

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

    def test_random_global_absent_pairs_checked_before_training(
            self, tmp_path, capsys, monkeypatch):
        """A rate that asks for more new edges than the graph has absent
        node pairs fails before the first seed trains, at any grid point."""
        trained = []

        def counting(prepared, config):
            trained.append(config.seed)
            return train_bp(prepared, config)

        monkeypatch.setattr("gpcn.harness.train_bp", counting)
        cfg = write_config(tmp_path, epochs=1)
        assert main(["attack", "--config", str(cfg), "--kind",
                     "random_global", "--mode", "poisoning",
                     "--ptb-rate", "0.1,1000", "--out",
                     str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "absent node pairs" in err
        assert trained == []

    def test_numeric_error_on_divergent_inference(self, tmp_path):
        cfg = write_config(tmp_path, model="gpcn", epochs=1, seeds=[0],
                           pc={"inference_steps": 200,
                               "value_update_rate": 1000.0})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERIC

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "runs.csv" in capsys.readouterr().out


class TestConfigObject:
    def test_seeds_must_be_distinct(self):
        with pytest.raises(ValueError):
            ExperimentConfig(synthetic=SBM_SPEC, seeds=(0, 0))

    def test_unknown_victim_strategy_rejected(self):
        with pytest.raises(ValueError, match="'nettack'"):
            ExperimentConfig(synthetic=SBM_SPEC, victim_strategy="nettack")
