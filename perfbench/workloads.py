"""The benchmark's workloads: seeded inputs and the gpcn commands run on them.

Each ``setup_*`` function writes a workload's inputs (JSON specs and
experiment configs) from the workload seed and returns the commands of one
iteration. The program sees only those files.
Epochs, victim counts and budgets are sized so one iteration takes 3-25 s
on one core.

Why these workloads:

- ``cora_train`` covers dataset I/O and the first-layer product A_hat X W1:
  1433-column features make both dominate. Its dataset is written by
  ``gpcn dataset gen`` inside each iteration, so the 3-4 s text write is
  timed with the other commands over the whole run rather than as set-up.
  It makes no attack calls, so it is the workload on which an attack-path
  change predicts no change.
- ``robustness`` runs the attack and energy-study commands. On the small,
  narrow SBM graphs time goes to per-call overhead, ``apply_edits``
  rebuilds, retraining under poisoning and PC inference steps; it is the
  only workload that runs ``intra_layer_step`` and ``every_step`` weight
  updates. FGA on the Cora-sized graph (n = 2709) adds the dense n x n
  gradient and candidate scoring, which dominate its time and peak memory.
  The small-graph commands alone were too sensitive to the speed of a
  shared host to be a workload of their own: their sum of medians spread
  0.30 of its median over ten runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from gpcn.graph import SyntheticSpec, generate_synthetic

# Cora-sized stochastic block model: 7 x 387 = 2709 nodes, ~8k edges.
CORA_SBM = {"num_blocks": 7, "nodes_per_block": 387,
            "intra_block_edge_prob": 0.0125, "inter_block_edge_prob": 0.0005,
            "feature_dim": 1433, "feature_noise_std": 1.0,
            "split_fractions": [0.2, 0.2, 0.6]}
# The acceptance suite's attack and energy-study graphs.
ATTACK_SBM = {"num_blocks": 2, "nodes_per_block": 75,
              "intra_block_edge_prob": 0.12, "inter_block_edge_prob": 0.02,
              "feature_dim": 12, "feature_noise_std": 0.6,
              "split_fractions": [0.1, 0.2, 0.7]}
ENERGY_SBM = {"num_blocks": 2, "nodes_per_block": 150,
              "intra_block_edge_prob": 0.10, "inter_block_edge_prob": 0.02,
              "feature_dim": 12, "feature_noise_std": 0.5,
              "split_fractions": [0.1, 0.2, 0.7]}

CORA_TRAIN_EPOCHS = 6
FGA_BUDGET = 1
POISON_RATES = ["0.0", "0.25", "0.5", "0.75", "1.0"]
ENERGY_T_GRID = [12, 24]
CORA_FGA_BUDGET = 1
NETTACK_VICTIMS = 40
BINS = 10


@dataclass
class Command:
    kind: str                          # gen, lcc, train, calibrate, ...
    label: str                         # output directory name
    argv: list
    out: Path
    check: Callable[[], list]          # problems in the command's output


@dataclass
class Workload:
    setup: Callable                    # (seed, in_dir, out_dir) -> [Command]
    quality: Callable                  # out_dir -> {name: value}


def _spec(fields: dict) -> SyntheticSpec:
    return SyntheticSpec(**{**fields,
                            "split_fractions": tuple(fields["split_fractions"])})


def _write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields, sort_keys=True, indent=1))
    return str(path)


def setup_cora_train(seed: int, inp: Path, out: Path) -> list:
    inp.mkdir(parents=True, exist_ok=True)
    spec = _write_config(inp / "spec.json", **CORA_SBM)
    raw, lcc = out / "gen", out / "lcc"
    config = _write_config(
        inp / "train.json", dataset=str(lcc), epochs=CORA_TRAIN_EPOCHS,
        weight_lr=0.01, seeds=[seed], bins=BINS,
        pc={"mode": "inter_layer", "weight_update_timing": "end_of_T",
            "inference_steps": 12})
    classes, features = CORA_SBM["num_blocks"], CORA_SBM["feature_dim"]
    nodes = classes * CORA_SBM["nodes_per_block"]
    commands = [
        Command("gen", "gen",
                ["dataset", "gen", "--spec", spec, "--seed", str(seed),
                 "--out", str(raw)],
                raw, lambda: checks.check_dataset_dir(raw, features, classes,
                                                      nodes)),
        Command("lcc", "lcc",
                ["dataset", "lcc", str(raw), "--out", str(lcc)],
                lcc, lambda: checks.check_dataset_dir(lcc, features, classes,
                                                      nodes))]
    for model in ("gcn", "gpcn"):
        dest = out / f"train_{model}"
        commands.append(Command(
            "train", f"train_{model}",
            ["train", "--config", config, "--model", model, "--out", str(dest)],
            dest, lambda dest=dest, model=model: checks.check_train(
                dest, model, [seed], classes, features, CORA_TRAIN_EPOCHS)))
    cal = out / "calibrate"
    commands.append(Command(
        "calibrate", "calibrate",
        ["calibrate", "--checkpoint",
         str(out / "train_gpcn" / f"checkpoint_gpcn_seed{seed}.json"),
         "--data", str(lcc), "--bins", str(BINS), "--out", str(cal)],
        cal, lambda: checks.check_calibrate(cal, BINS, lcc)))
    return commands


def quality_cora_train(out: Path) -> dict:
    return {"test_acc": checks.runs_test_acc(out / "train_gpcn"),
            "ece": checks.report_ece(out / "calibrate")}


def _attack_command(label, config, kind, mode, budget_flag, budgets, model,
                    dataset, seed, num_victims, out: Path) -> Command:
    dest = out / label
    return Command(
        "attack", label,
        ["attack", "--config", config, "--kind", kind, "--mode", mode,
         *budget_flag, "--out", str(dest)],
        dest, lambda: checks.check_attack(dest, dataset, model, kind, mode,
                                          budgets, [seed], num_victims))


def setup_sbm_robustness(seed: int, inp: Path, out: Path) -> list:
    inp.mkdir(parents=True, exist_ok=True)
    graph = generate_synthetic(_spec(ATTACK_SBM), seed)
    victims = int((graph.mask("val") | graph.mask("test")).sum())
    attack = {"synthetic": {**ATTACK_SBM, "seed": seed}, "seeds": [seed],
              "weight_lr": 0.01, "victim_strategy": "random_1000",
              "dataset_name": "sbm150"}
    commands = []
    for model in ("gcn", "gpcn"):
        config = _write_config(inp / f"fga_{model}.json", **attack,
                               model=model, epochs=30)
        commands.append(_attack_command(
            f"fga_{model}", config, "fga_structure", "evasion",
            ["--budget", str(FGA_BUDGET)],
            [str(q) for q in range(1, FGA_BUDGET + 1)], model, "sbm150",
            seed, victims, out))
    config = _write_config(inp / "poison.json", **attack, model="gcn",
                           epochs=100)
    commands.append(_attack_command(
        "random_global", config, "random_global", "poisoning",
        ["--ptb-rate", ",".join(POISON_RATES)], POISON_RATES, "gcn",
        "sbm150", seed, victims, out))
    config = _write_config(
        inp / "energy.json", synthetic={**ENERGY_SBM, "seed": seed},
        model="gpcn", epochs=40, weight_lr=0.01, seeds=[seed], bins=BINS,
        pc={"mode": "intra_layer", "weight_update_timing": "every_step"})
    study = out / "energy_study"
    commands.append(Command(
        "energy_study", "energy_study",
        ["energy-study", "--config", config, "--t-grid",
         ",".join(str(t) for t in ENERGY_T_GRID), "--out", str(study)],
        study, lambda: checks.check_study(study, ENERGY_T_GRID, [seed])))
    return commands


def quality_attacks(out: Path) -> dict:
    dirs = sorted(p.parent for p in out.glob("*/robustness.csv"))
    values = [checks.accuracy_at_largest_budget(d) for d in dirs]
    return {"robust_acc": sum(values) / len(values)}


def setup_robustness(seed: int, inp: Path, out: Path) -> list:
    """The small-SBM commands, then FGA on the Cora-sized graph."""
    commands = setup_sbm_robustness(seed, inp, out)
    graph = generate_synthetic(_spec(CORA_SBM), seed)
    if int(graph.mask("test").sum()) < NETTACK_VICTIMS:
        raise ValueError("too few test nodes for nettack_style victims")
    config = _write_config(
        inp / "fga_cora.json", synthetic={**CORA_SBM, "seed": seed},
        model="gcn", epochs=10, weight_lr=0.01, seeds=[seed],
        victim_strategy="nettack_style", dataset_name="cora_sbm")
    return commands + [_attack_command(
        "fga_cora", config, "fga_structure", "evasion",
        ["--budget", str(CORA_FGA_BUDGET)],
        [str(q) for q in range(1, CORA_FGA_BUDGET + 1)], "gcn", "cora_sbm",
        seed, NETTACK_VICTIMS, out)]


WORKLOADS = {
    "cora_train": Workload(setup_cora_train, quality_cora_train),
    "robustness": Workload(setup_robustness, quality_attacks),
}
