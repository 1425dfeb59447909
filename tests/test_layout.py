"""Where gpcn's names live: the functions the benchmark's per-layer metrics
name, and the modules a command imports only when it reads a dataset."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import gpcn

ROOT = Path(__file__).resolve().parents[1]

# The stats perfbench's tracer gives a span, named <module>.<function>.
SPAN_STATS = {"calls", "s", "self_s", "cols", "edits", "call_s"}
# Metrics of a function that no longer exists, kept until the benchmark's
# metric list is next changed; each still fails the check below.
KNOWN_DEAD = {"pc.intra_layer_step"}


def span_functions() -> set[str]:
    """The <module>.<function> of every per-layer metric of BENCHMARK.json
    that is a span's stat."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set()
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in SPAN_STATS:
            names.add(".".join(parts[:2]))
    return names


def defined_in(module: str, function: str) -> bool:
    """Whether ``gpcn.<module>`` defines the public function ``function``:
    the tracer names a span by the module that defines it."""
    obj = getattr(importlib.import_module(f"gpcn.{module}"), function, None)
    return (not function.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == f"gpcn.{module}")


def test_every_span_metric_names_a_function_of_its_module():
    names = span_functions()
    assert "graph.load_dataset" in names and "graph.save_dataset" in names
    dead = {name for name in names if not defined_in(*name.split("."))}
    assert dead == KNOWN_DEAD


def test_cli_import_defers_dataset_readers():
    """``import gpcn.cli`` leaves out what only reading or writing a dataset
    needs (scipy.io, mmap) and the csgraph module that components once
    took: a command that loads no dataset does not pay their memory."""
    code = ("import sys, gpcn.cli; print(sorted(m for m in sys.argv[1:] "
            "if m in sys.modules))")
    src = str(Path(gpcn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, "scipy.io", "mmap",
         "scipy.sparse.csgraph"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_load_of_a_file_not_written_by_gpcn_imports_no_scipy_io(tmp_path):
    """A features.csv that no save wrote, with the cache off: its load
    parses the file, and only ``_write_features`` imports scipy.io."""
    (tmp_path / "meta.json").write_text(
        '{"num_nodes": 2, "num_features": 2, "num_classes": 1}')
    (tmp_path / "edges.csv").write_text("0,1\n")
    (tmp_path / "features.csv").write_text("1,0\n0.5,1e-3\n")
    (tmp_path / "labels.csv").write_text("0\n0\n")
    (tmp_path / "splits.csv").write_text("train\ntest\n")
    code = ("import sys\n"
            "from unittest import mock\n"
            "import gpcn.dataset, gpcn.graph\n"
            "with mock.patch.object(gpcn.dataset, '_cache_dir', "
            "return_value=None):\n"
            "    g = gpcn.graph.load_dataset(sys.argv[1])\n"
            "print(g.features.tolist(), 'scipy.io' in sys.modules)")
    src = str(Path(gpcn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[[1.0, 0.0], [0.5, 0.001]] False\n"
