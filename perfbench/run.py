"""Benchmark of the gpcn command line on two seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cora_train --seed 0 --seconds 40 --trace 0

The benchmark imports the program from ``src/`` and calls
``gpcn.cli.main(argv)`` in this one process, the code path of the ``gpcn``
console script. It sets the workload up, then runs whole iterations of the
workload's commands, at least two and until ``--seconds`` have passed,
setting up again into a spare directory after each one (``setup_s`` is the
median of all set-ups). After every iteration it checks each command's exit
code and outputs, and compares the output bytes with the first iteration's.

``--trace 0`` prints the end-to-end metrics: set-up time, the wall time of
an iteration (the sum of each command's median time), and peak RSS.
``--trace 1`` runs one untraced iteration, then wraps the public functions
of every gpcn layer module and runs traced iterations; it prints per-layer
metrics and checks that traced outputs equal untraced ones.

The last line of standard output is the result object; the line before it
holds the per-command times, quality outputs, output digests and the
environment. Both, and the spans of a traced run, are also written under
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import Tracer

BLAS_THREADS = 1
GPCN_THREADS = 1   # one seed at a time; the tracer relies on it
NUMPY_MADVISE_HUGEPAGE = 0
WORK_DIR = ".perfbench"
SETUP_SLICE_S = 0.2    # set-up time taken after each iteration, at least

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
COMMAND_KINDS = ("gen", "lcc", "train", "calibrate", "attack",
                 "energy_study")

# Per-layer metrics of a traced iteration, <module>.<function>.<stat>.
LAYER_STATS = [
    ("graph.propagate", "calls"), ("graph.propagate", "cols"),
    ("graph.propagate", "s"),
    ("graph.normalize_adjacency", "calls"), ("graph.normalize_adjacency", "s"),
    ("graph.make_graph", "calls"),
    ("graph.apply_edits", "calls"), ("graph.apply_edits", "s"),
    ("graph.load_dataset", "calls"), ("graph.load_dataset", "s"),
    ("graph.save_dataset", "s"),
    ("graph.largest_connected_component", "s"),
    ("harness.load_checkpoint", "s"),
    ("pc.train_pc", "s"),
    ("pc.pc_predictions", "calls"), ("pc.pc_predictions", "self_s"),
    ("pc.pc_init_feedforward", "s"),
    ("pc.inference_step", "calls"), ("pc.inference_step", "s"),
    ("pc.intra_layer_step", "calls"), ("pc.intra_layer_step", "s"),
    ("pc.pc_weight_gradients", "s"), ("pc.compute_energy", "s"),
    ("bp.train_bp", "s"),
    ("bp.gcn_forward", "calls"), ("bp.gcn_forward", "s"),
    ("bp.gcn_backward", "s"), ("bp.predict", "calls"),
    ("nn.adam_step", "calls"), ("nn.adam_step", "s"),
    ("attacks.loss_gradient_wrt_inputs", "calls"),
    ("attacks.loss_gradient_wrt_inputs", "s"),
    ("attacks.fga_attack", "calls"), ("attacks.fga_attack", "self_s"),
    ("attacks.fga_attack", "edits"),
    ("attacks.random_global_poison", "s"),
    ("attacks.evaluate_attack", "self_s"), ("attacks.select_victims", "s"),
    ("calibration.classification_margins", "calls"),
    ("calibration.classification_margins", "s"),
    ("calibration.expected_calibration_error", "s"),
    ("harness.cmd_dataset_lcc", "self_s"), ("harness.cmd_train", "self_s"),
    ("harness.cmd_calibrate", "self_s"), ("harness.cmd_attack", "self_s"),
    ("harness.cmd_energy_study", "self_s"),
]
UNITS = {"calls": "count", "cols": "count", "edits": "count", "s": "s",
         "self_s": "s"}


def pin_threads() -> dict:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["GPCN_THREADS"] = str(GPCN_THREADS)
    # numpy asks for transparent huge pages for arrays of 4 MB or more, and
    # whether the host has free ones changes from minute to minute; with
    # them the Cora-sized commands' time moved by up to 35% and peak RSS by
    # 10%. Without the request both repeat.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = str(NUMPY_MADVISE_HUGEPAGE)
    return {"BLAS_THREADS": BLAS_THREADS, "GPCN_THREADS": GPCN_THREADS,
            "NUMPY_MADVISE_HUGEPAGE": NUMPY_MADVISE_HUGEPAGE}


def import_program(root: Path):
    """Import gpcn from the checkout's src/, never from site-packages."""
    package = root / "src" / "gpcn"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: no gpcn sources at {package}; run from "
                         "the repository root")
    sys.path.insert(0, str(root / "src"))
    import gpcn.cli
    if Path(gpcn.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported gpcn from {gpcn.cli.__file__}")
    return gpcn.cli


def git_revision(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "gpcn").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, pinned: dict) -> dict:
    import numpy            # loaded only after pin_threads
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_runtime_threads(),
        **pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "machine": platform.machine(),
    }


def blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, if it exposes one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def call_cli(cli, argv) -> tuple:
    """Run one gpcn command in-process; returns (exit code, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:                  # a crash counts as a failed command
        return None, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def run_iteration(cli, commands, out: Path, tracer) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    first = len(tracer.spans) if tracer else 0
    results = []
    start = time.perf_counter()
    with (tracer.span("bench.iteration") if tracer
          else contextlib.nullcontext()):
        for cmd in commands:
            t0 = time.perf_counter()
            with (tracer.span(f"cli.{cmd.kind}") if tracer
                  else contextlib.nullcontext()):
                code, err = call_cli(cli, cmd.argv)
            results.append((cmd, code, err, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    last = len(tracer.spans) if tracer else 0

    command_s = {}
    digests = {}
    problems = {}
    for cmd, code, err, seconds in results:
        command_s[cmd.label] = seconds
        if code != 0:
            problems[cmd.label] = [f"exit code {code}: {err.strip()}"]
        else:
            try:
                found = cmd.check()
            except (OSError, ValueError, KeyError) as exc:
                found = [f"output unreadable: {exc!r}"]
            if found:
                problems[cmd.label] = found
        digests[cmd.label] = (checks.digest_dir(cmd.out) if cmd.out.exists()
                              else "missing")
    return {"wall_s": wall, "command_s": command_s, "digests": digests,
            "problems": problems, "span_range": (first, last),
            "traced": tracer is not None}


def layer_metrics(tracer, first: int, last: int) -> dict:
    stats = tracer.summarize(first, last)

    def get(name, stat):
        return stats.get(name, {}).get(stat, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {f"{name}.{stat}": get(name, stat) for name, stat in LAYER_STATS}
    for width in ("wide", "narrow"):
        values[f"graph.propagate.{width}_ms"] = ratio(
            get("graph.propagate", f"{width}_s"),
            get("graph.propagate", f"{width}_calls"), 1e3)
    values["graph.load_dataset.call_s"] = ratio(
        get("graph.load_dataset", "s"), get("graph.load_dataset", "calls"))
    values["graph.save_dataset.call_s"] = ratio(
        get("graph.save_dataset", "s"), get("graph.save_dataset", "calls"))
    values["pc.epoch_ms"] = ratio(get("pc.train_pc", "s"),
                                  get("pc.train_pc", "epochs"), 1e3)
    values["bp.epoch_ms"] = ratio(get("bp.train_bp", "s"),
                                  get("bp.train_bp", "epochs"), 1e3)
    values["attacks.fga_attack.yield"] = ratio(
        get("attacks.fga_attack", "edits"), get("attacks.fga_attack", "budget"))
    values["attacks.fga_edit_s"] = ratio(get("attacks.fga_attack", "s"),
                                         get("attacks.fga_attack", "edits"))
    values["trace.spans"] = last - first
    return values


LAYER_UNITS = {
    **{f"{name}.{stat}": UNITS[stat] for name, stat in LAYER_STATS},
    "graph.propagate.wide_ms": "ms", "graph.propagate.narrow_ms": "ms",
    "graph.load_dataset.call_s": "s", "graph.save_dataset.call_s": "s",
    "pc.epoch_ms": "ms", "bp.epoch_ms": "ms",
    "attacks.fga_attack.yield": "ratio", "attacks.fga_edit_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
    "process.peak_rss_mb": "MB",
}

# Per-layer numbers under the row names of the ROADMAP baseline table.
ROADMAP_ROWS = {
    "PC epoch (ms)": "pc.epoch_ms",
    "BP epoch (ms)": "bp.epoch_ms",
    "one A_hat X, >64 columns (ms)": "graph.propagate.wide_ms",
    "one A_hat H, <=64 columns (ms)": "graph.propagate.narrow_ms",
    "dataset load (s)": "graph.load_dataset.call_s",
    "dataset save (s)": "graph.save_dataset.call_s",
    "FGA, per edit per victim (s)": "attacks.fga_edit_s",
    "peak RSS (MB)": "process.peak_rss_mb",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = pin_threads()
    root = Path.cwd()
    cli = import_program(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / WORK_DIR / run_name
    shutil.rmtree(work, ignore_errors=True)
    inp, out = work / "in", work / "out"

    setup_times = []

    def set_up(dest: Path) -> list:
        shutil.rmtree(dest, ignore_errors=True)
        t0 = time.perf_counter()
        found = workload.setup(args.seed, dest, out)
        setup_times.append(time.perf_counter() - t0)
        return found

    commands = set_up(inp)
    tracer = Tracer() if args.trace else None
    iterations = []
    start = time.perf_counter()
    # At least two iterations, so the second can be compared with the first.
    while len(iterations) < 2 or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(iterations) > 0
        if traced and not tracer.installed:
            tracer.install()
        iterations.append(run_iteration(cli, commands, out,
                                        tracer if traced else None))
        if len(iterations) == 1:
            # Peak memory of a fresh process that ran each command once, as
            # the console script does; later iterations add heap
            # fragmentation and huge-page retention that no user run has.
            first_peak_mb = peak_rss_mb()
        # Set up again after every iteration, into a spare directory, for
        # at least SETUP_SLICE_S: the set-ups are spread over the whole run
        # instead of one moment of it.
        slice_end = time.perf_counter() + SETUP_SLICE_S
        set_up(work / "spare")
        while time.perf_counter() < slice_end:
            set_up(work / "spare")
    if tracer:
        tracer.uninstall()
    quality = {} if iterations[-1]["problems"] else workload.quality(out)

    # Every iteration's outputs must equal the first (untraced) iteration's.
    reference = iterations[0]["digests"]
    for it in iterations[1:]:
        for label, digest in it["digests"].items():
            if digest != reference[label]:
                it["problems"].setdefault(label, []).append(
                    "output bytes differ from the first iteration")
    attempted = sum(len(it["digests"]) for it in iterations)
    failed = sum(len(it["problems"]) for it in iterations)
    problems = [f"iteration {k} {label}: {p}"
                for k, it in enumerate(iterations)
                for label, found in it["problems"].items() for p in found]
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    # On a shared host, other tenants slow the program for stretches of
    # seconds to minutes, so one slow command should not move the result:
    # each command's time is its median over the run, and an iteration's is
    # the sum of those.
    typical = {label: statistics.median(it["command_s"][label]
                                        for it in untraced)
               for label in untraced[0]["command_s"]}
    workload_metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(typical.values()), "s"),
        "peak_rss_mb": (first_peak_mb, "MB"),
        **{f"{kind}_s": (sum(typical[cmd.label] for cmd in commands
                             if cmd.kind == kind), "s")
           for kind in COMMAND_KINDS
           if any(cmd.kind == kind for cmd in commands)},
        **{name: (value, "1") for name, value in quality.items()},
        "fail_ratio": (failed / attempted, "1"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": len(iterations), "setup_runs": len(setup_times),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "command_s": {label: [it["command_s"][label] for it in iterations]
                      for label in typical},
        "workload_metrics": {name: {"value": v, "unit": u}
                             for name, (v, u) in workload_metrics.items()},
        "workload_digest": combined_digest(reference),
        "output_digests": reference,
        "environment": environment(root, pinned),
    }

    if args.trace:
        per_iteration = [layer_metrics(tracer, *it["span_range"])
                         for it in traced]
        # median_low keeps the counts whole: it returns one of the values
        metrics = {name: statistics.median_low([m[name]
                                                for m in per_iteration])
                   for name in per_iteration[0]}
        metrics["trace.overhead_s"] = (min(it["wall_s"] for it in traced)
                                       - untraced[0]["wall_s"])
        metrics["process.peak_rss_mb"] = peak_rss_mb()
        report["traced_digests_equal_untraced"] = all(
            it["digests"] == reference for it in traced)
        report["roadmap_baseline"] = {row: metrics[name]
                                      for row, name in ROADMAP_ROWS.items()}
        tracer.write(work / "spans.jsonl")
        result_metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                          for name, value in metrics.items()}
    else:
        result_metrics = {name: report["workload_metrics"][name]
                          for name in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    for done in (out, inp, work / "spare"):
        shutil.rmtree(done, ignore_errors=True)
    (work / "report.json").write_text(json.dumps(
        {"report": report, "result": result}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def combined_digest(digests: dict) -> str:
    blob = json.dumps(digests, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
