"""Experiment orchestration: multi-seed sweeps, calibration and energy
studies, attack protocols, checkpoints, and CSV/JSON report emission.

Seeds run one after another on the calling thread, in the config's order;
for parallel seeds, run one ``gpcn train --seed-list`` process per seed.
Every number in every emitted file is a pure function of the experiment
config and seeds; timing is kept in memory only so repeated invocations are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from gpcn.graph import (Graph, PreparedGraph, SyntheticSpec,
                        generate_synthetic, largest_connected_component,
                        load_dataset, prepare, save_dataset)
from gpcn.nn import ModelParams
from gpcn.bp import TrainConfig, predict, train_bp
from gpcn.pc import PCConfig, train_pc
from gpcn.calibration import classification_margins, expected_calibration_error
from gpcn.attacks import (VICTIM_STRATEGIES, AttackSpec, candidate_pool,
                          evaluate_attack, poison_edge_count, select_victims)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    """One experiment: a dataset, a model backend, and its hyperparameters."""

    dataset: str | None = None                 # dataset directory
    synthetic: dict | None = None              # SyntheticSpec fields + "seed"
    model: str = "gcn"                         # or "gpcn"
    epochs: int = 300
    weight_lr: float = 0.001
    hidden_dims: tuple[int, ...] = (16,)
    pc: dict = field(default_factory=dict)     # PCConfig overrides
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    bins: int = 10
    victim_strategy: str = "random_1000"
    dataset_name: str = "dataset"

    def __post_init__(self):
        if self.model not in ("gcn", "gpcn"):
            raise ValueError(f"unknown model {self.model!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be nonempty and distinct")
        if self.victim_strategy not in VICTIM_STRATEGIES:
            raise ValueError(f"unknown victim_strategy "
                             f"{self.victim_strategy!r}; expected one of "
                             f"{', '.join(VICTIM_STRATEGIES)}")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        data.update({k: v for k, v in overrides.items() if v is not None})
        _reject_unknown_keys(data, cls, "config")
        if "hidden_dims" in data:
            data["hidden_dims"] = tuple(data["hidden_dims"])
        if "seeds" in data:
            data["seeds"] = tuple(data["seeds"])
        return cls(**data)

    def load_graph(self) -> Graph:
        if self.dataset is not None:
            return load_dataset(self.dataset)
        if self.synthetic is not None:
            fields = dict(self.synthetic)
            seed = fields.pop("seed", 0)
            return generate_synthetic(_synthetic_spec(fields, "synthetic"),
                                      seed)
        raise ValueError("config needs either a dataset path or a synthetic spec")

    def learner(self, seed: int):
        """The train function of this config's model and its config."""
        shared = dict(epochs=self.epochs, weight_lr=self.weight_lr,
                      seed=seed, hidden_dims=self.hidden_dims)
        if self.model == "gcn":
            return train_bp, TrainConfig(**shared)
        _reject_unknown_keys(self.pc, PCConfig, "pc", exclude=shared)
        return train_pc, PCConfig(**shared, **self.pc)


def _reject_unknown_keys(data: dict, cls, where: str, exclude=()) -> None:
    """ValueError naming the keys of ``data`` that are not fields of the
    dataclass ``cls``, or that are in ``exclude``."""
    known = {f.name for f in fields(cls)} - set(exclude)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {where} key(s): "
                         f"{', '.join(map(repr, unknown))}")


def _synthetic_spec(data: dict, where: str) -> SyntheticSpec:
    """The ``SyntheticSpec`` of the JSON object ``data``; ValueError naming
    an unknown or a missing key."""
    _reject_unknown_keys(data, SyntheticSpec, where)
    missing = [f.name for f in fields(SyntheticSpec)
               if f.name not in data and f.default is MISSING]
    if missing:
        raise ValueError(f"missing {where} key(s): "
                         f"{', '.join(map(repr, missing))}")
    if "split_fractions" in data:
        data = {**data, "split_fractions": tuple(data["split_fractions"])}
    return SyntheticSpec(**data)


@dataclass
class RunRecord:
    model: str
    seed: int
    metrics: dict
    wall_clock: float


class Trainer:
    """A learner (train_bp or train_pc) and its config behind the
    attack-protocol trainer interface. Both learners train the same GCN, so
    ``bp.predict`` predicts for either."""

    def __init__(self, train_fn, config: TrainConfig):
        self.train_fn = train_fn
        self.config = config

    def train(self, prepared: PreparedGraph) -> ModelParams:
        params, _ = self.train_fn(prepared, self.config)
        return params


def _require_test_split(graph: Graph) -> None:
    """Calibration is measured on the test split, so a command that reports
    it checks the split before any seed trains (``fit`` checks train and
    val)."""
    if not graph.mask("test").any():
        raise ValueError("the dataset's test split is empty; calibration "
                         "is measured on it")


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    return v


def checkpoint_dict(config: ExperimentConfig, seed: int, params: ModelParams,
                    history) -> dict:
    data = {
        "model": config.model,
        "layer_dims": list(params.layer_dims),
        "weights": [w.reshape(-1).tolist() for w in params.weights],
        "config": {"epochs": config.epochs, "weight_lr": config.weight_lr,
                   "hidden_dims": list(config.hidden_dims)},
        "seed": seed,
        "selected_epoch": history.selected_epoch,
    }
    if config.model == "gpcn":
        data["pc_config"] = dict(config.pc)
        data["final_energy"] = history.energy[-1]
    return data


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    data = json.loads(Path(path).read_text())
    dims = data["layer_dims"]
    weights = [np.array(flat, dtype=np.float64).reshape(dims[k], dims[k + 1])
               for k, flat in enumerate(data["weights"])]
    return ModelParams(dims, weights), data


def _train_one(config: ExperimentConfig, prepared: PreparedGraph,
               seed: int) -> tuple[RunRecord, ModelParams, object]:
    start = time.perf_counter()
    train_fn, train_config = config.learner(seed)
    params, history = train_fn(prepared, train_config)
    probs = predict(prepared, params)
    graph = prepared.graph
    test_mask = graph.mask("test")
    cal = expected_calibration_error(probs, graph.labels, test_mask,
                                     config.bins)
    sel = history.selected_epoch
    metrics = {
        "train_acc": history.train_acc[sel],
        "val_acc": history.val_acc[sel],
        "test_acc": history.test_acc[sel],
        "ece": cal.ece,
        "mce": cal.mce,
        "final_energy": (history.energy[-1] if history.energy else 0.0),
        "selected_epoch": sel,
    }
    record = RunRecord(model=config.model, seed=seed, metrics=metrics,
                       wall_clock=time.perf_counter() - start)
    return record, params, history


def cmd_train(config: ExperimentConfig, out_dir) -> list[RunRecord]:
    """Train every seed; write checkpoints and runs.csv with mean and
    population std per metric."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = config.load_graph()
    _require_test_split(graph)
    prepared = prepare(graph)
    # every seed trains before any checkpoint is written, so a failing
    # seed leaves no partial output
    results = [_train_one(config, prepared, seed) for seed in config.seeds]
    records = []
    for record, params, history in results:
        ckpt = out / f"checkpoint_{config.model}_seed{record.seed}.json"
        ckpt.write_text(json.dumps(
            checkpoint_dict(config, record.seed, params, history),
            sort_keys=True))
        records.append(record)

    metric_names = ["train_acc", "val_acc", "test_acc", "ece", "mce",
                    "final_energy", "selected_epoch"]
    rows = [{"model": r.model, "seed": r.seed,
             **{m: r.metrics[m] for m in metric_names}} for r in records]
    values = {m: np.array([r.metrics[m] for r in records])
              for m in metric_names}
    rows.append({"model": config.model, "seed": "mean",
                 **{m: float(values[m].mean()) for m in metric_names}})
    rows.append({"model": config.model, "seed": "std",
                 **{m: float(values[m].std()) for m in metric_names}})
    _write_csv(out / "runs.csv", ["model", "seed", *metric_names], rows)
    return records


def cmd_calibrate(checkpoint, data_dir, out_dir, bins: int = 10) -> dict:
    """Emit bins.csv, histogram.csv, and report.json for one checkpoint."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = load_dataset(data_dir)
    params, _ = load_checkpoint(checkpoint)
    if params.layer_dims[0] != graph.num_features:
        raise ValueError("checkpoint input width does not match dataset")
    if params.layer_dims[-1] != graph.num_classes:
        raise ValueError("checkpoint output width does not match classes")
    probs = predict(prepare(graph), params)
    test_mask = graph.mask("test")
    report = expected_calibration_error(probs, graph.labels, test_mask, bins)

    bin_rows = []
    for b in range(bins):
        bin_rows.append({
            "bin_lo": report.bins.lo[b], "bin_hi": report.bins.hi[b],
            "count": int(report.bins.count[b]),
            "mean_conf": report.bins.mean_conf[b],
            "mean_acc": report.bins.mean_acc[b]})
    _write_csv(out / "bins.csv",
               ["bin_lo", "bin_hi", "count", "mean_conf", "mean_acc"],
               bin_rows)
    _write_csv(out / "histogram.csv", ["bin_lo", "bin_hi", "count"],
               [{"bin_lo": report.bins.lo[b], "bin_hi": report.bins.hi[b],
                 "count": int(report.bins.count[b])} for b in range(bins)])
    payload = {"ece": report.ece, "mce": report.mce, "bins": bins}
    (out / "report.json").write_text(json.dumps(payload, sort_keys=True))
    return payload


def cmd_attack(config: ExperimentConfig, spec: AttackSpec, budgets,
               out_dir) -> None:
    """Run the attack protocol for every seed; emit robustness.csv and
    margins.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = config.load_graph()
    if graph.num_classes < 2:
        raise ValueError(f"attack margins need at least 2 classes; the "
                         f"dataset has {graph.num_classes}")
    candidate_pool(graph, config.victim_strategy)
    if spec.kind == "random_global":
        for rate in budgets:
            poison_edge_count(graph, rate)
    prepared = prepare(graph)

    rob_rows, margin_rows = [], []
    for seed in config.seeds:
        trainer = Trainer(*config.learner(seed))
        params = trainer.train(prepared)
        victims = select_victims(graph, predict(prepared, params),
                                 config.victim_strategy, seed)
        report = evaluate_attack(trainer, prepared, params, victims,
                                 replace(spec, seed=seed), budgets)
        for q in report.budgets:
            rob_rows.append({
                "dataset": config.dataset_name, "model": config.model,
                "attack_kind": spec.kind, "mode": spec.mode, "budget": q,
                "seed": seed, "accuracy": report.accuracy[q],
                "holistic_metric": ("" if report.holistic is None
                                    else report.holistic)})
            for rec in report.margins_after[q]:
                margin_rows.append({
                    "node": rec.node, "margin": rec.margin,
                    "correct": rec.correct, "seed": seed,
                    "condition": "after", "budget": q,
                    "attack_kind": spec.kind})
        for rec in report.margins_before:
            margin_rows.append({
                "node": rec.node, "margin": rec.margin,
                "correct": rec.correct, "seed": seed, "condition": "before",
                "budget": 0, "attack_kind": spec.kind})
    _write_csv(out / "robustness.csv",
               ["dataset", "model", "attack_kind", "mode", "budget", "seed",
                "accuracy", "holistic_metric"], rob_rows)
    _write_csv(out / "margins.csv",
               ["node", "margin", "correct", "seed", "condition", "budget",
                "attack_kind"], margin_rows)


def cmd_energy_study(config: ExperimentConfig, t_grid, out_dir) -> None:
    """Per (inference-step count, seed): final training energy, ECE, MCE."""
    if config.model != "gpcn":
        raise ValueError("the energy study applies to the gpcn model only")
    if not t_grid:
        raise ValueError("empty inference-step grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = config.load_graph()
    _require_test_split(graph)
    prepared = prepare(graph)

    # every grid point's learner config is built here, so a bad T fails
    # before any seed trains
    studies = {}
    for t in t_grid:
        studies[t] = ExperimentConfig(**{**config.__dict__, "pc": {
            **config.pc, "inference_steps": t}})
        studies[t].learner(config.seeds[0])
    rows = []
    for t in t_grid:
        for seed in config.seeds:
            metrics = _train_one(studies[t], prepared, seed)[0].metrics
            rows.append({"T": t, "seed": seed,
                         "final_energy": metrics["final_energy"],
                         "ece": metrics["ece"], "mce": metrics["mce"]})
    _write_csv(out / "study.csv", ["T", "seed", "final_energy", "ece", "mce"],
               rows)


def cmd_dataset_gen(spec_path, seed: int, out_dir) -> Graph:
    spec = _synthetic_spec(json.loads(Path(spec_path).read_text()), "spec")
    g = generate_synthetic(spec, seed)
    save_dataset(g, out_dir, name=f"sbm_seed{seed}")
    return g


def cmd_dataset_inspect(data_dir) -> dict:
    g = load_dataset(data_dir)
    counts = {tag: int(g.mask(tag).sum())
              for tag in ("train", "val", "test", "none")}
    return {"num_nodes": g.num_nodes, "num_edges": g.num_edges,
            "num_features": g.num_features, "num_classes": g.num_classes,
            "splits": counts}


def cmd_dataset_lcc(data_dir, out_dir) -> Graph:
    g = largest_connected_component(load_dataset(data_dir))
    save_dataset(g, out_dir, name="lcc")
    return g
