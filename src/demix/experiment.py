"""Experiment orchestration: datasets, runs, metric persistence, comparison.

Metrics go to one append-only CSV (``run,seed,step,metric,value``, floats at
17 significant digits) plus a JSON summary whose per-seed finals are exactly
the final CSV rows. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as ddata
from . import evaluation as deval
from .config import DatasetSpec, ExperimentConfig, parse_config, serialize_config
from .losses import LossSpec
from .network import (
    make_conv,
    make_mlp,
    save_checkpoint,
    train_supervised,
)
from .semisup import train_ssl

METRIC_REGISTRY = frozenset(
    {
        "train_loss",
        "val_top1",
        "final_top1",
        "test_top1",
        "best_top1",
        "accepted_frac",
        "clean_top1",
        "fgsm_top1",
        "fgsm_error",
        "mixed_top1_pair",
        "mixed_top2_pair",
        "mixed_mean_conf",
        "occlusion_top1",
        "confidence_hist",
    }
)

CSV_HEADER = "run,seed,step,metric,value"


def metric_row(run: str, seed: int, step: int, metric: str, value: float) -> tuple:
    base = metric.split("@", 1)[0]
    if base not in METRIC_REGISTRY:
        raise ValueError(f"metric {metric!r} is not in the registry")
    return (run, seed, step, metric, float(value))


def rows_to_csv(rows: list[tuple]) -> str:
    lines = [CSV_HEADER]
    for run, seed, step, metric, value in rows:
        lines.append(f"{run},{seed},{step},{metric},{format(value, '.17g')}")
    return "\n".join(lines) + "\n"


def load_dataset(spec: DatasetSpec):
    """Materialize (train, val, unlabeled_x) per the dataset spec.

    ``train`` holds the labeled rows that supervised and SSL runs train on: all rows
    at label_fraction = 1, else a class-stratified share; the rest is the unlabeled pool.
    """
    total = spec.size + spec.val_size
    if spec.source == "idx":
        full = ddata.load_idx(spec.images, spec.labels)
        top = int(full.y.max())
        if top >= spec.num_classes:
            raise ddata.IdxError(
                f"{spec.labels}: label {top} is not below "
                f"dataset.num_classes = {spec.num_classes}"
            )
        full = ddata.Dataset(full.x, full.y, spec.num_classes)
        if len(full) < total:
            raise ValueError(f"IDX source has {len(full)} samples, need {total}")
    elif spec.source == "images":
        full = ddata.make_image_classes(
            total, num_classes=spec.num_classes, noise=spec.noise, shift=spec.shift, seed=spec.seed
        )
    else:
        full = ddata.make_synthetic(spec.source, total, spec.noise, spec.seed, spec.num_classes)
    train, val = ddata.split(full, (spec.size, spec.val_size), spec.seed)
    if spec.label_fraction < 1.0:
        n_labeled = max(train.num_classes, round(spec.label_fraction * len(train)))
        labeled, rest = ddata.stratified_take(train, n_labeled, spec.seed)
        return labeled, val, rest.x
    return train, val, np.empty((0,) + train.x.shape[1:])


def build_specs(cfg: ExperimentConfig, train_ds):
    if cfg.network.arch == "conv":
        return make_conv(1, train_ds.num_classes, train_ds.x.shape[1:])
    return make_mlp(train_ds.x[0].size, cfg.network.hidden, train_ds.num_classes)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Train and evaluate once per seed; write metrics.csv, summary.json and
    the config as run (``serialize_config``) to config.conf.

    Supervised runs report the median validation top-1 of the last 10 epochs
    as the per-seed final; SSL runs report the best test top-1 seen at any
    evaluation point.
    """
    out = Path(out_dir if out_dir is not None else cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds, unlabeled_x = load_dataset(cfg.dataset)
    specs = build_specs(cfg, train_ds)
    hard = _check_probes(cfg, val_ds)

    final_metric = "best_top1" if cfg.ssl is not None else "final_top1"
    rows: list[tuple] = []
    finals: dict[str, float] = {}
    for seed in cfg.run.seeds:
        tcfg = replace(cfg.train, seed=seed)
        if cfg.ssl is not None:
            params, log = train_ssl(train_ds, unlabeled_x, val_ds, specs, cfg.ssl, tcfg)
            final = max(v for m, _, v in log if m == "test_top1")
        else:
            params, log = train_supervised(train_ds, val_ds, specs, cfg.mixer, cfg.loss, tcfg)
            curve = [v for m, _, v in log if m == "val_top1"]
            final = float(np.median(curve[-10:])) if curve else deval.top1_accuracy(params, val_ds)
        finals[str(seed)] = final
        at_last = [(final_metric, final), *_probe_values(cfg, seed, params, val_ds, hard)]
        last = log[-1][1] if log else 0  # the last SSL step or epoch
        entries = log + [(m, last, v) for m, v in at_last]
        rows.extend(metric_row(cfg.run.name, seed, step, m, v) for m, step, v in entries)
        save_checkpoint(params, out / f"seed_{seed}.dmx")

    values = [finals[str(s)] for s in cfg.run.seeds]
    summary = {
        "run": cfg.run.name,
        "metric": final_metric,
        "seeds": finals,
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
    }
    (out / "metrics.csv").write_text(rows_to_csv(rows))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (out / "config.conf").write_text(serialize_config(cfg))
    return summary


def _check_probes(cfg: ExperimentConfig, val_ds):
    """Check the eval probes before any seed trains and build the hard mixed
    set that every seed shares (None when off); a fault names its key."""
    e, key = cfg.eval, "eval.occlusion_patch"
    try:
        if e.occlusion:
            deval.occlusion_grid(val_ds, e.occlusion_patch)
        key = "eval.mixed_pairs"
        if e.mixed_pairs:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 1)))
            return deval.make_hard_mixed_set(val_ds, e.mixed_pair_count, rng)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _probe_values(cfg: ExperimentConfig, seed: int, params, val_ds, hard) -> list[tuple]:
    """(metric, value) of every enabled eval probe on the validation set."""
    e = cfg.eval
    if not (e.mixed_pairs or e.fgsm or e.occlusion or e.confidence_bins > 0):
        return []
    out = [("clean_top1", deval.top1_accuracy(params, val_ds))]
    if hard is not None:
        res = deval.mixed_pair_eval(params, hard)
        out += [("mixed_top1_pair", res.top1_pair_acc), ("mixed_top2_pair", res.top2_pair_acc),
                ("mixed_mean_conf", res.mean_max_confidence)]
    if e.fgsm:
        acc, err = deval.fgsm_attack(params, val_ds, deval.AttackConfig(e.fgsm_epsilon))
        out += [("fgsm_top1", acc), ("fgsm_error", err)]
    if e.occlusion:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 2, seed)))
        occlusion = deval.OcclusionConfig(e.occlusion_patch, e.occlusion_ratios)
        curve = deval.occlusion_eval(params, val_ds, occlusion, rng)
        out += [(f"occlusion_top1@{format(ratio, 'g')}", acc) for ratio, acc in curve]
    if e.confidence_bins > 0:
        counts = deval.confidence_histogram(params, val_ds, e.confidence_bins)
        out += [(f"confidence_hist@{i}", float(c)) for i, c in enumerate(counts)]
    return out


def compare_runs(summary_a: dict, summary_b: dict) -> dict:
    """Seed-keyed paired comparison of two summaries (B minus A), each an object
    whose ``seeds`` maps every seed to a finite number (else ``ValueError``)."""
    for name, summary in (("A", summary_a), ("B", summary_b)):
        if not isinstance(summary, dict):
            raise ValueError(f"summary {name} is not an object: {type(summary).__name__}")
        seeds = summary.get("seeds")
        if not seeds or not isinstance(seeds, dict):
            raise ValueError(f"summary {name} has no per-seed results ('seeds')")
        for seed, value in seeds.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and np.isfinite(value)):
                raise ValueError(f"summary {name}: seed {seed} has {value!r}, not a finite number")
    seeds_a = set(summary_a["seeds"])
    seeds_b = set(summary_b["seeds"])
    if seeds_a != seeds_b:
        raise ValueError(f"seed sets differ: {sorted(seeds_a)} vs {sorted(seeds_b)}")
    deltas = {
        s: summary_b["seeds"][s] - summary_a["seeds"][s] for s in sorted(seeds_a)
    }
    values = list(deltas.values())
    return {
        "run_a": summary_a.get("run", "A"),
        "run_b": summary_b.get("run", "B"),
        "deltas": deltas,
        "mean_delta": float(np.mean(values)),
        "wins_a": sum(1 for d in values if d < 0),
        "wins_b": sum(1 for d in values if d > 0),
        "ties": sum(1 for d in values if d == 0),
    }


def parse_dataset_arg(arg: str) -> ddata.Dataset:
    """The rows ``demix eval --dataset`` scores: all of 'idx:<images>:<labels>',
    or else the validation split (SSL: test set) of the config file at ``arg``,
    the rows a run with that config scores at each evaluation point."""
    kind, _, rest = arg.partition(":")
    if kind == "idx":
        img, _, lbl = rest.partition(":")
        if not img or not lbl:
            raise ValueError("idx spec needs 'idx:<images>:<labels>'")
        return ddata.load_idx(img, lbl)
    return load_dataset(parse_config(Path(arg).read_text()).dataset)[1]
