"""Semi-supervised trend on two moons with 10 labels.

Compares supervised-only, plain pseudo-labeling, and pseudo-labeling with
the asymmetric mixing and decoupled term over several seeds, and prints
each arm's wall-clock.

Usage: python scripts/ssl_trend.py [--steps 2000] [--seeds 1,2,3,4,5]
"""

import argparse
import time

import numpy as np

from demix import data as dd
from demix import network as net
from demix.semisup import SSLConfig, train_ssl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--labels", type=int, default=10)
    ap.add_argument("--noise", type=float, default=0.15)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    train = dd.make_synthetic("two_moons", 1000, args.noise, seed=0)
    test = dd.make_synthetic("two_moons", 1000, args.noise, seed=1)
    labeled, rest = dd.stratified_take(train, args.labels, seed=0)
    specs = net.make_mlp(2, 32, 2)

    variants = {
        "supervised": SSLConfig(unlabeled_weight=0.0, eta=0.0, steps=args.steps,
                                asymmetric_mixing=False, eval_interval=100),
        "pseudo_label": SSLConfig(unlabeled_weight=1.0, eta=0.0, steps=args.steps,
                                  asymmetric_mixing=False, eval_interval=100),
        "pl_asym_decoupled": SSLConfig(unlabeled_weight=1.0, eta=0.1, alpha=0.2,
                                       steps=args.steps, asymmetric_mixing=True,
                                       eval_interval=100),
    }
    means = {}
    for name, cfg in variants.items():
        best = []
        start = time.perf_counter()
        for seed in seeds:
            tcfg = net.TrainConfig(base_lr=0.3, min_lr=0.003, seed=seed)
            _, log = train_ssl(labeled, rest.x, test, specs, cfg, tcfg)
            best.append(max(v for m, _, v in log if m == "test_top1"))
        wall_s = time.perf_counter() - start
        means[name] = float(np.mean(best))
        print(f"{name}: per-seed best {[round(b, 4) for b in best]} "
              f"mean {means[name]:.4f} ({wall_s:.1f} s)")
    print(f"gain over supervised: {(means['pl_asym_decoupled'] - means['supervised'])*100:+.2f}pp")
    print(f"gain over pseudo-labeling: {(means['pl_asym_decoupled'] - means['pseudo_label'])*100:+.2f}pp")


if __name__ == "__main__":
    main()
