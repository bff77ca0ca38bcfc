"""Command line entry point: train, eval, compare, selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as deval
from . import selftest
from .config import parse_config
from .experiment import compare_runs, parse_dataset_arg, run_experiment
from .network import load_checkpoint


def _cmd_train(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seeds=(args.seed,)))
    summary = run_experiment(cfg, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = parse_dataset_arg(args.dataset)
    acc = deval.top1_accuracy(params, dataset)
    print(f"top1 {acc:.6f} on {len(dataset)} samples")
    return 0


def _cmd_compare(args) -> int:
    a = json.loads(Path(args.summary_a).read_text())
    b = json.loads(Path(args.summary_b).read_text())
    report = compare_runs(a, b)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if selftest.run_all() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demix", description="decoupled-mixup experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run an experiment from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override run.seeds")
    p_train.add_argument("--out", default=None, help="override run.out")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--dataset",
        required=True,
        help="idx:<images>:<labels>, or a config file such as a run's config.conf",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="paired comparison of two summaries")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")
    p_cmp.set_defaults(func=_cmd_compare)

    p_self = sub.add_parser("selftest", help="gradient-oracle and stationarity suites")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
