"""Supervised trend experiment: decoupled regularizer vs plain mixed CE.

Trains MLP or conv-net classifiers on the synthetic glyph dataset (written
to and read back from IDX files) for Mixup and CutMix, with and without the
decoupled term, over several seeds, then prints paired comparisons,
hard-sample pair metrics and the wall-clock of each arm.

Usage: python scripts/supervised_trend.py [--arch mlp|conv] [--out runs/trend]
       [--seeds 1,2,3,4,5] [--epochs 50] [--eta 0.1]
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from demix import data as dd
from demix import evaluation as deval
from demix import network as net
from demix.losses import DMConfig, LossSpec
from demix.mixers import MixConfig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--arch", choices=("mlp", "conv"), default="mlp")
    ap.add_argument("--out", default="runs/trend")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--eta", type=float, default=0.1)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    raw = dd.make_image_classes(2000, noise=0.25, shift=3, seed=0)
    dd.save_idx(raw.x, raw.y, out / "images.idx", out / "labels.idx")
    full = dd.load_idx(out / "images.idx", out / "labels.idx")
    train, val = dd.split(full, (1000, 1000), 0)
    if args.arch == "conv":
        specs = net.make_conv(1, 10, (28, 28))
    else:
        specs = net.make_mlp(784, 256, 10)
    hard = deval.make_hard_mixed_set(
        val, 1000, np.random.default_rng(123), lam=0.5, area_band=(0.35, 0.65)
    )

    results = {}
    for policy in ("linear", "cutmix"):
        for kind, eta in (("mce", 0.0), ("dm_ce", args.eta)):
            accs, pair_metrics = [], []
            start = time.perf_counter()
            for seed in seeds:
                cfg = net.TrainConfig(epochs=args.epochs, batch_size=100, seed=seed)
                params, log = net.train_supervised(
                    train, val, specs, MixConfig(policy, 0.2),
                    LossSpec(kind, DMConfig(eta)), cfg,
                )
                curve = [v for m, _, v in log if m == "val_top1"]
                accs.append(float(np.median(curve[-10:])))
                pair_metrics.append(deval.mixed_pair_eval(params, hard))
            r = results[f"{policy}/{kind}"] = {
                "top1": accs,
                "top2_pair": [m.top2_pair_acc for m in pair_metrics],
                "mean_conf": [m.mean_max_confidence for m in pair_metrics],
                "wall_s": time.perf_counter() - start,
            }
            print(f"{policy}/{kind}: top1 {np.mean(accs):.4f} "
                  f"top2_pair {np.mean(r['top2_pair']):.4f} "
                  f"conf {np.mean(r['mean_conf']):.4f} ({r['wall_s']:.1f} s)")

    for policy in ("linear", "cutmix"):
        base = results[f"{policy}/mce"]["top1"]
        ours = results[f"{policy}/dm_ce"]["top1"]
        deltas = [b - a for a, b in zip(base, ours)]
        print(f"{policy}: mean gain {np.mean(deltas)*100:+.2f}pp, "
              f"wins {sum(d > 0 for d in deltas)}/{len(deltas)}")

    (out / "trend.json").write_text(json.dumps(results, indent=2))
    print(f"wrote {out / 'trend.json'}")


if __name__ == "__main__":
    main()
