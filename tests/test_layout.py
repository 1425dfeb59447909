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
