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
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from gpcn.graph import (Graph, SyntheticSpec, generate_synthetic,
                        load_dataset, save_dataset, save_largest_component)
from gpcn.nn import ModelParams, softmax_rows
from gpcn.bp import TrainConfig, gcn_forward, train_bp
from gpcn.pc import PCConfig, train_pc
from gpcn.calibration import classification_margins, expected_calibration_error
from gpcn.attacks import (VICTIM_STRATEGIES, AttackSpec, candidate_pool,
                          check_attack, evaluate_attack, select_victims)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# The most calibration bins: each is a row of bins.csv, allocated at once.
MAX_BINS = 10_000


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
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        _require_distinct(self.seeds, "seeds")
        check_seeds(self.seeds, "config key 'seeds'")
        _require_bins(self.bins)
        if self.victim_strategy not in VICTIM_STRATEGIES:
            raise ValueError(f"unknown victim_strategy "
                             f"{self.victim_strategy!r}; expected one of "
                             f"{', '.join(VICTIM_STRATEGIES)}")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config in the JSON file ``path``, with the ``overrides`` that
        are not None on top; ValueError, starting with ``path``, for a file
        ``_read_json`` rejects or a key ``_check_config`` rejects."""
        data = _read_json(path, _check_config)
        data.update({k: v for k, v in overrides.items() if v is not None})
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
        return train_pc, PCConfig(**shared, **self.pc)


def _read_json(path, parse):
    """``parse`` of the JSON object in the file ``path``; ValueError,
    starting with ``path``, for a file that cannot be read, bytes that are
    not UTF-8, text that is not JSON, a JSON value that is not an object, or
    a ValueError of ``parse``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:        # missing, a directory, no permission
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:     # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got "
                             f"{type(data).__name__}")
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_config(data: dict) -> dict:
    """``data``, once its keys and those of its "pc" and "synthetic" objects
    are known fields holding values of their fields' JSON types."""
    _check_fields(data, ExperimentConfig, "config")
    _check_fields(data.get("pc", {}), PCConfig, "pc",
                  exclude={f.name for f in fields(TrainConfig)})
    if data.get("synthetic") is not None:
        _check_fields(data["synthetic"], SyntheticSpec, "synthetic",
                      extra={"seed": int})
        check_seeds([data["synthetic"].get("seed", 0)],
                    "synthetic key 'seed'")
    return data


# JSON's name for the values of each field type
_JSON_NAMES = {int: "integer", float: "number", str: "string", dict: "object",
               type(None): "null"}


def _json_type(hint) -> str:
    """The JSON type of the values a field of type ``hint`` takes:
    "integer", "list of numbers", "string or null", ..."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"list of {count}{_JSON_NAMES[args[0]]}s"
    if args:                                      # a union
        return " or ".join(map(_json_type, args))
    return _JSON_NAMES[hint]


def _is_json_type(value, hint) -> bool:
    """Whether the JSON value ``value`` is of the JSON type of ``hint``.
    JSON true and false load as bool, a subclass of int that is no
    integer here; an integer is a number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return (len(value) == len(args)
                and all(map(_is_json_type, value, args)))
    if args:
        return any(_is_json_type(value, a) for a in args)
    return type(value) is hint or (hint is float and type(value) is int)


def _check_fields(data: dict, cls, where: str, exclude=(),
                  extra=None) -> None:
    """Check the JSON object ``data`` against the fields of the dataclass
    ``cls`` less ``exclude``, plus ``extra`` (name -> type). ValueError
    names every key that is no such field, or else every field without a
    default that is missing, or else the first key whose value is not of
    its field's JSON type."""
    hints = typing.get_type_hints(cls)
    kept = [f for f in fields(cls) if f.name not in exclude]
    types = {f.name: hints[f.name] for f in kept}
    types.update(extra or {})
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown {where} key(s): "
                         f"{', '.join(map(repr, unknown))}")
    missing = [f.name for f in kept if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {where} key(s): "
                         f"{', '.join(map(repr, missing))}")
    for key, value in data.items():
        if not _is_json_type(value, types[key]):
            raise ValueError(f"{where} key {key!r} must be a JSON "
                             f"{_json_type(types[key])}, got {value!r}")


def _synthetic_spec(data: dict, where: str) -> SyntheticSpec:
    """The ``SyntheticSpec`` of the JSON object ``data``; ValueError naming
    an unknown or a missing key, or one of another JSON type."""
    _check_fields(data, SyntheticSpec, where)
    if "split_fractions" in data:
        data = {**data, "split_fractions": tuple(data["split_fractions"])}
    return SyntheticSpec(**data)


@dataclass
class RunRecord:
    model: str
    seed: int
    metrics: dict
    wall_clock: float


def _require_distinct(values, what: str) -> None:
    """Each seed and grid point trains and writes its rows once, so a
    repeated value is refused before any seed trains."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{v!r} appears twice in {what}")
        seen.add(v)


def check_seeds(seeds, where: str) -> None:
    """numpy's generators take no negative seed, so one is refused before
    any seed trains, naming ``where`` it came from and the value."""
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"{where}: seeds must be >= 0, got {seed}")


def _require_bins(bins: int) -> None:
    """Calibration needs at least one bin and takes at most ``MAX_BINS``;
    checked before any seed trains or any output directory is made."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if bins > MAX_BINS:
        raise ValueError(f"bins must be <= {MAX_BINS}, got {bins}")


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
    """The params and the JSON object of a checkpoint; ValueError, starting
    with ``path``, for a file that is not UTF-8 JSON, a missing or malformed
    key, or a layer that is not a flat list of JSON numbers, or whose
    weights do not fill its shape in ``layer_dims`` or are not all finite
    (JSON readers take NaN, Infinity and 1e400)."""
    data = _read_json(path, lambda data: data)
    for key in ("layer_dims", "weights"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    dims, flats = data["layer_dims"], data["weights"]
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise ValueError(f"{path}: 'layer_dims' must be a list of at least "
                         f"two positive integers, got {dims!r}")
    if not isinstance(flats, list) or len(flats) != len(dims) - 1:
        raise ValueError(f"{path}: 'weights' must hold one list per layer, "
                         f"{len(dims) - 1} for layer_dims {dims}")
    weights = []
    for k, flat in enumerate(flats):
        # numpy would take "1.5", true and nested lists; bool is not int here
        if not (isinstance(flat, list)
                and set(map(type, flat)) <= {int, float}):
            raise ValueError(f"{path}: layer {k + 1} must be a flat list of "
                             "JSON numbers")
        try:
            w = np.array(flat, dtype=np.float64)
        except OverflowError:       # an integer past float64's range
            raise ValueError(f"{path}: layer {k + 1} holds a non-finite "
                             "weight") from None
        if w.size != dims[k] * dims[k + 1]:
            raise ValueError(f"{path}: layer {k + 1} has {w.size} weights, "
                             f"its shape ({dims[k]}, {dims[k + 1]}) needs "
                             f"{dims[k] * dims[k + 1]}")
        if not np.isfinite(w).all():
            raise ValueError(f"{path}: layer {k + 1} holds a non-finite "
                             "weight")
        weights.append(w.reshape(dims[k], dims[k + 1]))
    return ModelParams(weights), data


def _train_one(config: ExperimentConfig, graph: Graph,
               seed: int) -> tuple[RunRecord, ModelParams, object]:
    start = time.perf_counter()
    train_fn, train_config = config.learner(seed)
    params, history = train_fn(graph, train_config)
    probs = softmax_rows(history.forward.logits)
    history.forward = None   # cmd_train holds every seed's history at once
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
    graph = config.load_graph()
    _require_test_split(graph)
    # every seed trains before the output directory is made, so a failing
    # seed leaves no partial output
    results = [_train_one(config, graph, seed) for seed in config.seeds]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    _require_bins(bins)
    graph = load_dataset(data_dir)
    _require_test_split(graph)
    params, _ = load_checkpoint(checkpoint)
    if params.layer_dims[0] != graph.num_features:
        raise ValueError("checkpoint input width does not match dataset")
    if params.layer_dims[-1] != graph.num_classes:
        raise ValueError("checkpoint output width does not match classes")
    # finite weights can still overflow; that is a numeric failure of the
    # checkpoint, named as one, not a warning and then non-finite probs
    with np.errstate(over="ignore", invalid="ignore"):
        logits = gcn_forward(graph, params).logits
    if not np.isfinite(logits).all():
        raise FloatingPointError(f"{checkpoint}: the forward pass overflows "
                                 f"on these weights: the logits are not "
                                 f"finite")
    probs = softmax_rows(logits)
    test_mask = graph.mask("test")
    report = expected_calibration_error(probs, graph.labels, test_mask, bins)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    columns = ["bin_lo", "bin_hi", "count", "mean_conf", "mean_acc"]
    bin_rows = [dict(zip(columns, row)) for row in zip(
        report.bins.lo, report.bins.hi, report.bins.count.tolist(),
        report.bins.mean_conf, report.bins.mean_acc)]
    _write_csv(out / "bins.csv", columns, bin_rows)
    _write_csv(out / "histogram.csv", columns[:3],
               [{k: row[k] for k in columns[:3]} for row in bin_rows])
    payload = {"ece": report.ece, "mce": report.mce, "bins": bins}
    (out / "report.json").write_text(json.dumps(payload, sort_keys=True))
    return payload


def cmd_attack(config: ExperimentConfig, spec: AttackSpec, out_dir) -> None:
    """Run the attack protocol over ``spec``'s sweep for every seed; emit
    robustness.csv and margins.csv."""
    graph = config.load_graph()
    if graph.num_classes < 2:
        raise ValueError(f"attack margins need at least 2 classes; the "
                         f"dataset has {graph.num_classes}")
    candidate_pool(graph, config.victim_strategy)
    check_attack(graph, spec)

    rob_rows, margin_rows = [], []

    def margins(records, seed: int, condition: str, budget: int) -> list:
        return [{"node": rec.node, "margin": rec.margin,
                 "correct": rec.correct, "seed": seed,
                 "condition": condition, "budget": budget,
                 "attack_kind": spec.kind} for rec in records]

    for seed in config.seeds:
        train_fn, train_config = config.learner(seed)

        # positional: perfbench's tracer reads the config off args[1]
        def train(g: Graph):
            return train_fn(g, train_config)

        trained = train(graph)
        victims = select_victims(
            graph, softmax_rows(trained[1].forward.logits),
            config.victim_strategy, seed)
        report = evaluate_attack(train, graph, trained, victims,
                                 replace(spec, seed=seed))
        for q in spec.budgets:
            rob_rows.append({
                "dataset": config.dataset_name, "model": config.model,
                "attack_kind": spec.kind, "mode": spec.mode, "budget": q,
                "seed": seed, "accuracy": report.accuracy[q],
                "holistic_metric": ("" if report.holistic is None
                                    else report.holistic)})
            margin_rows += margins(report.margins_after[q], seed, "after", q)
        margin_rows += margins(report.margins_before, seed, "before", 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    _require_distinct(t_grid, "the inference-step grid")
    graph = config.load_graph()
    _require_test_split(graph)

    # every grid point's learner config is built here, so a bad T fails
    # before any seed trains
    studies = {}
    for t in t_grid:
        studies[t] = replace(config, pc={**config.pc, "inference_steps": t})
        studies[t].learner(config.seeds[0])
    rows = []
    for t in t_grid:
        for seed in config.seeds:
            metrics = _train_one(studies[t], graph, seed)[0].metrics
            rows.append({"T": t, "seed": seed,
                         "final_energy": metrics["final_energy"],
                         "ece": metrics["ece"], "mce": metrics["mce"]})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "study.csv", ["T", "seed", "final_energy", "ece", "mce"],
               rows)


def cmd_dataset_gen(spec_path, seed: int, out_dir) -> Graph:
    spec = _read_json(spec_path, lambda data: _synthetic_spec(data, "spec"))
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
    return save_largest_component(data_dir, out_dir, name="lcc")
