"""Command-line entry point.

Subcommands: dataset (gen/inspect/lcc), train, calibrate, attack,
energy-study. Flags override fields of the JSON experiment config. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. Seeds
run one after another; for parallel seeds, run one process per
``--seed-list``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gpcn.attacks import ATTACK_KINDS, AttackSpec
from gpcn.dataset import DatasetError
from gpcn.harness import (ExperimentConfig, check_seeds, cmd_attack,
                          cmd_calibrate, cmd_dataset_gen, cmd_dataset_inspect,
                          cmd_dataset_lcc, cmd_energy_study, cmd_train)

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _int_list(text: str):
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcn",
        description="Train and evaluate graph classifiers with backprop or "
                    "predictive coding. CSV columns are fixed: runs.csv "
                    "(model,seed,train_acc,val_acc,test_acc,ece,mce,"
                    "final_energy,selected_epoch; std rows use population "
                    "std), bins.csv (bin_lo,bin_hi,count,mean_conf,mean_acc),"
                    " histogram.csv (bin_lo,bin_hi,count), robustness.csv (dataset,model,attack_kind,mode,budget,"
                    "seed,accuracy,holistic_metric), margins.csv (node,"
                    "margin,correct,seed,condition,budget,attack_kind), "
                    "study.csv (T,seed,final_energy,ece,mce).")
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate / inspect / reduce datasets")
    ds_sub = ds.add_subparsers(dest="ds_command", required=True)
    gen = ds_sub.add_parser("gen", help="generate a synthetic SBM dataset")
    gen.add_argument("--spec", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    ins = ds_sub.add_parser("inspect", help="print dataset summary")
    ins.add_argument("data_dir")
    lcc = ds_sub.add_parser("lcc", help="keep the largest connected component")
    lcc.add_argument("data_dir")
    lcc.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="multi-seed training run")
    tr.add_argument("--config", required=True)
    tr.add_argument("--model", choices=["gcn", "gpcn"])
    tr.add_argument("--seed-list", type=_int_list)
    tr.add_argument("--out", default="out")

    cal = sub.add_parser("calibrate", help="calibration report for a checkpoint")
    cal.add_argument("--checkpoint", required=True)
    cal.add_argument("--data", required=True)
    cal.add_argument("--bins", type=int, default=10)
    cal.add_argument("--out", required=True)

    att = sub.add_parser("attack", help="robustness evaluation")
    att.add_argument("--config", required=True)
    att.add_argument("--kind", required=True, choices=list(ATTACK_KINDS))
    att.add_argument("--mode", required=True,
                     choices=["evasion", "poisoning"])
    group = att.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=int,
                       help="max edit budget; evaluates 1..budget")
    group.add_argument("--ptb-rate", type=_ptb_rates,
                       help="comma-separated edge fractions for random_global")
    att.add_argument("--influencers", type=int, default=5)
    att.add_argument("--out", required=True)

    es = sub.add_parser("energy-study",
                        help="final energy vs calibration across T grid")
    es.add_argument("--config", required=True)
    es.add_argument("--t-grid", type=_int_list, required=True)
    es.add_argument("--out", required=True)
    return parser


def _ptb_rates(text: str):
    return tuple(float(x) for x in text.split(","))


def run(args) -> int:
    # every command makes --out only after its work, so a path it cannot
    # make is refused first: one whose first existing part is no directory
    if getattr(args, "out", None) is not None:
        out = Path(args.out)
        stop = next(p for p in (out, *out.parents) if p.exists())
        if not stop.is_dir():
            raise ValueError(f"--out {out}: {stop} is not a directory")
    if args.command == "dataset":
        if args.ds_command == "gen":
            check_seeds([args.seed], "--seed")
            g = cmd_dataset_gen(args.spec, args.seed, args.out)
            print(f"wrote {g.num_nodes} nodes, {g.num_edges} edges to "
                  f"{args.out}")
        elif args.ds_command == "inspect":
            print(json.dumps(cmd_dataset_inspect(args.data_dir), indent=2))
        else:
            g = cmd_dataset_lcc(args.data_dir, args.out)
            print(f"largest component: {g.num_nodes} nodes, "
                  f"{g.num_edges} edges -> {args.out}")
        return 0

    if args.command == "train":
        check_seeds(args.seed_list or (), "--seed-list")
        config = ExperimentConfig.from_json(args.config, model=args.model,
                                            seeds=args.seed_list)
        records = cmd_train(config, args.out)
        for r in records:
            print(f"seed {r.seed}: test_acc={r.metrics['test_acc']:.4f} "
                  f"({r.wall_clock:.1f}s)")
        return 0

    if args.command == "calibrate":
        payload = cmd_calibrate(args.checkpoint, args.data, args.out,
                                bins=args.bins)
        print(json.dumps(payload))
        return 0

    if args.command == "attack":
        config = ExperimentConfig.from_json(args.config)
        if args.kind == "random_global":
            if args.ptb_rate is None:
                raise ValueError("random_global takes --ptb-rate, not "
                                 "--budget")
            budgets = args.ptb_rate
        else:
            if args.budget is None:
                raise ValueError(f"{args.kind} takes --budget, not "
                                 "--ptb-rate")
            if args.budget < 1:
                raise ValueError(f"--budget must be >= 1, got {args.budget}")
            budgets = range(1, args.budget + 1)
        spec = AttackSpec(kind=args.kind, budgets=budgets, mode=args.mode,
                          influencer_count=args.influencers)
        cmd_attack(config, spec, args.out)
        print(f"wrote robustness.csv and margins.csv to {args.out}")
        return 0

    if args.command == "energy-study":
        config = ExperimentConfig.from_json(args.config)
        cmd_energy_study(config, list(args.t_grid), args.out)
        print(f"wrote study.csv to {args.out}")
        return 0
    raise SystemExit(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return run(args)
    except (DatasetError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
