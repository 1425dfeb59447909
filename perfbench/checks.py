"""Output checks and digests for the files the gpcn commands write.

Each ``check_*`` function returns a list of problems; an empty list means
the output has the documented schema, only finite values, and every value
in its range. A command whose output has any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RUNS_COLUMNS = ["model", "seed", "train_acc", "val_acc", "test_acc", "ece",
                "mce", "final_energy", "selected_epoch"]
BINS_COLUMNS = ["bin_lo", "bin_hi", "count", "mean_conf", "mean_acc"]
HISTOGRAM_COLUMNS = ["bin_lo", "bin_hi", "count"]
ROBUSTNESS_COLUMNS = ["dataset", "model", "attack_kind", "mode", "budget",
                      "seed", "accuracy", "holistic_metric"]
MARGINS_COLUMNS = ["node", "margin", "correct", "seed", "condition", "budget",
                   "attack_kind"]
STUDY_COLUMNS = ["T", "seed", "final_energy", "ece", "mce"]
SPLIT_TAGS = {"train", "val", "test", "none"}


def digest_dir(path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    root = Path(path)
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode() + b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path, columns, problems):
    path = Path(path)
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != columns:
            problems.append(f"{path.name}: header {header} != {columns}")
            return []
        rows = []
        for i, raw in enumerate(reader, 2):
            if len(raw) != len(columns):
                problems.append(f"{path.name}:{i}: {len(raw)} fields")
            else:
                rows.append(dict(zip(columns, raw)))
    return rows


def _number(row, key, where, problems, lo=-math.inf, hi=math.inf):
    """Parse a finite float in [lo, hi]; record a problem otherwise."""
    try:
        value = float(row[key])
    except (KeyError, ValueError):
        problems.append(f"{where}: {key}={row.get(key)!r} is not a number")
        return math.nan
    if not math.isfinite(value) or not lo <= value <= hi:
        problems.append(f"{where}: {key}={value!r} outside [{lo}, {hi}]")
    return value


def check_dataset_dir(path, num_features, num_classes, max_nodes) -> list:
    """A dataset directory as written by ``gpcn dataset``."""
    problems = []
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"meta.json unreadable: {exc}"]
    if set(meta) != {"name", "num_nodes", "num_features", "num_classes"}:
        problems.append(f"meta.json keys {sorted(meta)}")
        return problems
    n = meta["num_nodes"]
    if not 0 < n <= max_nodes:
        problems.append(f"num_nodes {n} outside (0, {max_nodes}]")
    if (meta["num_features"], meta["num_classes"]) != (num_features,
                                                       num_classes):
        problems.append("meta.json feature or class count changed")
    try:
        labels = [int(x) for x in (path / "labels.csv").read_text().split()]
        splits = (path / "splits.csv").read_text().split()
        feature_rows = (path / "features.csv").read_bytes().count(b"\n")
        edges = [tuple(int(v) for v in line.split(","))
                 for line in (path / "edges.csv").read_text().split()]
    except (OSError, ValueError) as exc:
        return problems + [f"dataset files unreadable: {exc}"]
    if len(labels) != n or len(splits) != n or feature_rows != n:
        problems.append("labels/splits/features row counts != num_nodes")
    if any(not 0 <= y < num_classes for y in labels):
        problems.append("label out of range")
    if set(splits) - SPLIT_TAGS:
        problems.append("unknown split tag")
    if any(len(e) != 2 or not 0 <= e[0] < e[1] < n for e in edges):
        problems.append("edge not a pair u < v < num_nodes")
    if len(set(edges)) != len(edges):
        problems.append("duplicate edge")
    return problems


def check_train(out_dir, model, seeds, num_classes, num_features,
                epochs) -> list:
    """runs.csv plus one checkpoint per seed from ``gpcn train``."""
    problems = []
    out = Path(out_dir)
    rows = _read_csv(out / "runs.csv", RUNS_COLUMNS, problems)
    expect_seeds = [str(s) for s in seeds] + ["mean", "std"]
    if [r["seed"] for r in rows] != expect_seeds:
        problems.append(f"runs.csv seeds {[r['seed'] for r in rows]}")
    chance = 1.0 / num_classes
    for row in rows:
        where = f"runs.csv seed {row['seed']}"
        if row["model"] != model:
            problems.append(f"{where}: model {row['model']!r}")
        for key in ("train_acc", "val_acc", "test_acc", "ece", "mce"):
            _number(row, key, where, problems, 0.0, 1.0)
        _number(row, "final_energy", where, problems, 0.0)
        _number(row, "selected_epoch", where, problems, 0, epochs - 1)
        if row["seed"] not in ("mean", "std"):
            # twice chance: a model that learned nothing fails the run
            _number(row, "test_acc", where, problems, 2 * chance, 1.0)
    for seed in seeds:
        path = out / f"checkpoint_{model}_seed{seed}.json"
        try:
            ckpt = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            continue
        dims = ckpt.get("layer_dims", [])
        if (ckpt.get("model") != model or len(dims) < 2
                or dims[0] != num_features or dims[-1] != num_classes):
            problems.append(f"{path.name}: model or layer_dims wrong")
            continue
        weights = ckpt.get("weights", [])
        if len(weights) != len(dims) - 1 or any(
                len(w) != dims[k] * dims[k + 1] for k, w in enumerate(weights)):
            problems.append(f"{path.name}: weight shapes do not chain dims")
        elif not all(math.isfinite(x) for w in weights for x in w):
            problems.append(f"{path.name}: non-finite weight")
    return problems


def check_calibrate(out_dir, bins, data_dir) -> list:
    """report.json, bins.csv and histogram.csv from ``gpcn calibrate``."""
    problems = []
    out = Path(out_dir)
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    if set(report) != {"ece", "mce", "bins"} or report["bins"] != bins:
        problems.append(f"report.json {report}")
        return problems
    ece = _number(report, "ece", "report.json", problems, 0.0, 1.0)
    mce = _number(report, "mce", "report.json", problems, 0.0, 1.0)
    if ece > mce + 1e-12:
        problems.append("report.json: ece above mce")
    n_test = (Path(data_dir) / "splits.csv").read_text().split().count("test")
    bin_rows = _read_csv(out / "bins.csv", BINS_COLUMNS, problems)
    hist_rows = _read_csv(out / "histogram.csv", HISTOGRAM_COLUMNS, problems)
    if len(bin_rows) != bins or len(hist_rows) != bins:
        problems.append("bins.csv/histogram.csv row count != bins")
        return problems
    total = 0
    for b, (row, hist) in enumerate(zip(bin_rows, hist_rows)):
        where = f"bins.csv bin {b}"
        count = int(_number(row, "count", where, problems, 0, n_test))
        total += count
        if hist["count"] != row["count"]:
            problems.append(f"{where}: histogram count differs")
        for key in ("bin_lo", "bin_hi"):
            _number(row, key, where, problems, 0.0, 1.0)
        for key in ("mean_conf", "mean_acc"):
            if count == 0:
                if row[key] != "nan":
                    problems.append(f"{where}: empty bin {key}={row[key]}")
            else:
                _number(row, key, where, problems, 0.0, 1.0)
    if total != n_test:
        problems.append(f"bin counts sum to {total}, test nodes {n_test}")
    return problems


def check_attack(out_dir, dataset, model, kind, mode, budgets, seeds,
                 num_victims) -> list:
    """robustness.csv and margins.csv from ``gpcn attack``.

    ``budgets`` are the strings the CSV holds, in order.
    """
    problems = []
    out = Path(out_dir)
    rows = _read_csv(out / "robustness.csv", ROBUSTNESS_COLUMNS, problems)
    expect = [(b, str(s)) for s in seeds for b in budgets]
    if [(r["budget"], r["seed"]) for r in rows] != expect:
        problems.append("robustness.csv budget/seed rows differ")
        return problems
    for row in rows:
        where = f"robustness.csv budget {row['budget']}"
        if (row["dataset"], row["model"], row["attack_kind"],
                row["mode"]) != (dataset, model, kind, mode):
            problems.append(f"{where}: condition columns differ")
        _number(row, "accuracy", where, problems, 0.0, 1.0)
        if kind == "random_global":
            if row["holistic_metric"] != "":
                problems.append(f"{where}: holistic metric for rates")
        else:
            holistic = _number(row, "holistic_metric", where, problems, 0.0)
            want = sum(int(r["budget"]) * float(r["accuracy"]) for r in rows
                       if r["seed"] == row["seed"])
            if abs(holistic - want) > 1e-9 * max(1.0, want):
                problems.append(f"{where}: holistic {holistic} != {want}")
    margins = _read_csv(out / "margins.csv", MARGINS_COLUMNS, problems)
    if len(margins) != num_victims * (len(budgets) + 1) * len(seeds):
        problems.append(f"margins.csv has {len(margins)} rows for "
                        f"{num_victims} victims")
    for i, row in enumerate(margins, 2):
        where = f"margins.csv:{i}"
        margin = _number(row, "margin", where, problems, -1.0, 1.0)
        if row["correct"] not in ("0", "1"):
            problems.append(f"{where}: correct={row['correct']!r}")
        elif (margin > 0) != (row["correct"] == "1") and margin != 0:
            problems.append(f"{where}: margin sign disagrees with correct")
        if row["condition"] not in ("before", "after") or \
                row["attack_kind"] != kind:
            problems.append(f"{where}: condition columns differ")
    return problems


def check_study(out_dir, t_grid, seeds) -> list:
    """study.csv from ``gpcn energy-study``."""
    problems = []
    rows = _read_csv(Path(out_dir) / "study.csv", STUDY_COLUMNS, problems)
    expect = [(str(t), str(s)) for t in t_grid for s in seeds]
    if [(r["T"], r["seed"]) for r in rows] != expect:
        problems.append("study.csv T/seed rows differ")
        return problems
    for row in rows:
        where = f"study.csv T={row['T']}"
        _number(row, "final_energy", where, problems, 0.0)
        ece = _number(row, "ece", where, problems, 0.0, 1.0)
        mce = _number(row, "mce", where, problems, 0.0, 1.0)
        if ece > mce + 1e-12:
            problems.append(f"{where}: ece above mce")
    return problems


def runs_test_acc(out_dir) -> float:
    with open(Path(out_dir) / "runs.csv", newline="") as fh:
        return float(next(csv.DictReader(fh))["test_acc"])


def report_ece(out_dir) -> float:
    return float(json.loads((Path(out_dir) / "report.json").read_text())["ece"])


def accuracy_at_largest_budget(out_dir) -> float:
    """Mean victim accuracy over seeds at the last budget or rate."""
    with open(Path(out_dir) / "robustness.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]["budget"]
    values = [float(r["accuracy"]) for r in rows if r["budget"] == last]
    return sum(values) / len(values)
