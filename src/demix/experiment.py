"""Experiment orchestration: datasets, runs, metric persistence, comparison.

Metrics go to one append-only CSV (``run,seed,step,metric,value``, floats at
17 significant digits) plus a JSON summary whose per-seed finals are exactly
the final CSV rows. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as ddata
from . import evaluation as deval
from .config import DatasetSpec, ExperimentConfig
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
    """Materialize (train, val, labeled, unlabeled_x) per the dataset spec.

    The unlabeled pool is the training remainder when label_fraction < 1,
    chosen stratified so every class keeps labeled examples.
    """
    total = spec.size + spec.val_size
    if spec.source == "images":
        full = ddata.make_image_classes(
            total,
            num_classes=spec.num_classes,
            noise=spec.noise,
            shift=spec.shift,
            seed=spec.seed,
        )
    elif spec.source in ("blobs", "two_moons"):
        full = ddata.make_synthetic(
            spec.source, total, spec.noise, spec.seed, num_classes=spec.num_classes
        )
    else:
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
    train, val = ddata.split(full, (spec.size, spec.val_size), spec.seed)
    if spec.label_fraction < 1.0:
        n_labeled = max(train.num_classes, round(spec.label_fraction * len(train)))
        labeled, rest = ddata.stratified_take(train, n_labeled, spec.seed)
        return train, val, labeled, rest.x
    return train, val, train, np.empty((0,) + train.x.shape[1:])


def build_specs(cfg: ExperimentConfig, train_ds):
    sample = train_ds.x[0]
    if cfg.network.arch == "conv":
        if sample.ndim != 2:
            raise ValueError("conv architecture needs 2-D image inputs")
        return make_conv(1, train_ds.num_classes, sample.shape)
    return make_mlp(int(np.prod(sample.shape)), cfg.network.hidden, train_ds.num_classes)


def _median_last(values: list[float], k: int = 10) -> float:
    tail = values[-k:] if len(values) >= k else values
    return float(np.median(tail))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Train and evaluate once per seed; write metrics.csv and summary.json.

    Supervised runs report the median validation top-1 of the last 10 epochs
    as the per-seed final; SSL runs report the best test top-1 seen at any
    evaluation point.
    """
    out = Path(out_dir if out_dir is not None else cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds, labeled_ds, unlabeled_x = load_dataset(cfg.dataset)
    specs = build_specs(cfg, train_ds)

    rows: list[tuple] = []
    finals: dict[str, float] = {}
    for seed in cfg.run.seeds:
        tcfg = replace(cfg.train, seed=seed)
        if cfg.ssl is not None:
            params, log = train_ssl(
                labeled_ds, unlabeled_x, val_ds, specs, cfg.ssl, tcfg
            )
            for metric, step, value in log:
                rows.append(metric_row(cfg.run.name, seed, step, metric, value))
            best = max(v for m, _, v in log if m == "test_top1")
            rows.append(
                metric_row(cfg.run.name, seed, cfg.ssl.steps - 1, "best_top1", best)
            )
            finals[str(seed)] = best
        else:
            params, log = train_supervised(
                train_ds, val_ds, specs, cfg.mixer, cfg.loss, tcfg
            )
            for metric, epoch, value in log:
                rows.append(metric_row(cfg.run.name, seed, epoch, metric, value))
            curve = [v for m, _, v in log if m == "val_top1"]
            final = _median_last(curve) if curve else deval.top1_accuracy(params, val_ds)
            last = cfg.train.epochs - 1 if cfg.train.epochs else 0
            rows.append(metric_row(cfg.run.name, seed, last, "final_top1", final))
            finals[str(seed)] = final
        rows.extend(_eval_rows(cfg, seed, params, val_ds))
        save_checkpoint(params, out / f"seed_{seed}.dmx")

    values = [finals[str(s)] for s in cfg.run.seeds]
    summary = {
        "run": cfg.run.name,
        "metric": "best_top1" if cfg.ssl is not None else "final_top1",
        "seeds": finals,
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
    }
    (out / "metrics.csv").write_text(rows_to_csv(rows))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _eval_rows(cfg: ExperimentConfig, seed: int, params, val_ds) -> list[tuple]:
    rows = []
    e = cfg.eval
    name = cfg.run.name
    last = (cfg.ssl.steps if cfg.ssl else cfg.train.epochs) - 1
    any_eval = e.mixed_pairs or e.fgsm or e.occlusion or e.confidence_bins > 0
    if not any_eval:
        return rows
    rows.append(
        metric_row(name, seed, last, "clean_top1", deval.top1_accuracy(params, val_ds))
    )
    if e.mixed_pairs:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 1)))
        hard = deval.make_hard_mixed_set(val_ds, e.mixed_pair_count, rng)
        res = deval.mixed_pair_eval(params, hard)
        rows.append(metric_row(name, seed, last, "mixed_top1_pair", res.top1_pair_acc))
        rows.append(metric_row(name, seed, last, "mixed_top2_pair", res.top2_pair_acc))
        rows.append(
            metric_row(name, seed, last, "mixed_mean_conf", res.mean_max_confidence)
        )
    if e.fgsm:
        acc, err = deval.fgsm_attack(
            params, val_ds, deval.AttackConfig(epsilon=e.fgsm_epsilon)
        )
        rows.append(metric_row(name, seed, last, "fgsm_top1", acc))
        rows.append(metric_row(name, seed, last, "fgsm_error", err))
    if e.occlusion:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 2, seed)))
        curve = deval.occlusion_eval(
            params,
            val_ds,
            deval.OcclusionConfig(e.occlusion_patch, e.occlusion_ratios),
            rng,
        )
        for ratio, acc in curve:
            rows.append(
                metric_row(name, seed, last, f"occlusion_top1@{format(ratio, 'g')}", acc)
            )
    if e.confidence_bins > 0:
        counts = deval.confidence_histogram(params, val_ds, e.confidence_bins)
        for i, c in enumerate(counts):
            rows.append(metric_row(name, seed, last, f"confidence_hist@{i}", float(c)))
    return rows


def compare_runs(summary_a: dict, summary_b: dict) -> dict:
    """Seed-keyed paired comparison of two summaries (B minus A)."""
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
    """CLI dataset specs: 'two_moons:n=500,noise=0.1,seed=3', 'blobs:...',
    'images:n=500,...', or 'idx:<images-path>:<labels-path>'."""
    kind, _, rest = arg.partition(":")
    if kind == "idx":
        img, _, lbl = rest.partition(":")
        if not img or not lbl:
            raise ValueError("idx spec needs 'idx:<images>:<labels>'")
        return ddata.load_idx(img, lbl)
    opts = {}
    if rest:
        for piece in rest.split(","):
            k, _, v = piece.partition("=")
            if not _:
                raise ValueError(f"bad dataset option {piece!r}")
            opts[k.strip()] = v.strip()
    n = int(opts.pop("n", 500))
    noise = float(opts.pop("noise", 0.25 if kind == "images" else 0.1))
    seed = int(opts.pop("seed", 0))
    classes = int(opts.pop("classes", 10 if kind == "images" else 3))
    if opts:
        raise ValueError(f"unknown dataset options {sorted(opts)}")
    if kind == "images":
        return ddata.make_image_classes(n, num_classes=classes, noise=noise, seed=seed)
    return ddata.make_synthetic(kind, n, noise, seed, num_classes=classes)
