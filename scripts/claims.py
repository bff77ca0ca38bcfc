"""Claims report runner: decoupled regularizer vs plain mixed CE, supervised
and semi-supervised.

Each arm is an ExperimentConfig run by run_experiment into --out/<arm>. The
trend arms <policy>/<loss> (Mixup, CutMix; MLP or conv net; over the seeds)
train on the glyph dataset written to and read back from IDX files; the
runner prints top-1, hard mixed-pair metrics, wall-clock and paired gains.
The SSL arms ssl/<arm> (two moons, 10 labels, MLP; over the seeds) compare
supervised-only, plain pseudo-labeling and pseudo-labeling with asymmetric
mixing and the decoupled term. Both go to trend.json. The robustness arms
robustness/<loss> (CutMix MLP, seed 1, float glyph images) write sign-attack
numbers and the occlusion curve, averaged over mask seeds, to robustness.csv.

Usage: python scripts/claims.py [--arch mlp|conv] [--out runs/trend]
       [--seeds 1,2,3,4,5] [--epochs 50] [--eta 0.1] [--epsilon 0.0314]
       [--mask-seeds 5] [--ssl-steps 2000]
"""

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from demix import data as dd
from demix import evaluation as deval
from demix.config import DatasetSpec, ExperimentConfig, NetworkConfig, RunConfig
from demix.experiment import compare_runs, load_dataset, run_experiment
from demix.losses import DMConfig, LossSpec
from demix.mixers import MixConfig
from demix.network import TrainConfig, load_checkpoint
from demix.semisup import SSLConfig

RATIOS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
# Two moons, 1000 training rows of which 1% (10, stratified) keep labels.
MOONS = DatasetSpec(source="two_moons", size=1000, val_size=1000, label_fraction=0.01,
                    noise=0.15, seed=0, num_classes=2)
# SSL arm -> (unlabeled_weight, asymmetric mixing with eta = --eta).
SSL_ARMS = {"supervised": (0.0, False), "pseudo_label": (1.0, False),
            "pl_asym_decoupled": (1.0, True)}


def arm(name, dataset, arch, policy, kind, eta, epochs, seeds):
    return ExperimentConfig(
        dataset=dataset, mixer=MixConfig(policy, 0.2), loss=LossSpec(kind, DMConfig(eta)),
        network=NetworkConfig(arch), train=TrainConfig(epochs=epochs, batch_size=100),
        run=RunConfig(name, tuple(seeds)),
    )


def ssl_arm(name, eta, steps, seeds):
    weight, dm = SSL_ARMS[name]
    ssl = SSLConfig(unlabeled_weight=weight, eta=eta if dm else 0.0, alpha=0.2, steps=steps,
                    asymmetric_mixing=dm, eval_interval=100)
    return ExperimentConfig(
        dataset=MOONS, mixer=None, network=NetworkConfig("mlp", 32),
        train=TrainConfig(base_lr=0.3, min_lr=0.003), ssl=ssl,
        run=RunConfig(f"ssl/{name}", tuple(seeds)),
    )


def print_gains(summaries, pairs):
    for a, b in pairs:
        gain = compare_runs(summaries[a], summaries[b])
        print(f"{b} over {a}: mean gain {gain['mean_delta']*100:+.2f}pp, "
              f"wins {gain['wins_b']}/{len(gain['deltas'])}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--arch", choices=("mlp", "conv"), default="mlp")
    ap.add_argument("--out", default="runs/trend")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--eta", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=8 / 255)
    ap.add_argument("--mask-seeds", type=int, default=5)
    ap.add_argument("--ssl-steps", type=int, default=2000)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    raw = dd.make_image_classes(2000, noise=0.25, shift=3, seed=0)
    dd.save_idx(raw.x, raw.y, out / "images.idx", out / "labels.idx")
    glyphs = DatasetSpec(size=1000, val_size=1000)
    idx = replace(glyphs, source="idx", images=str(out / "images.idx"),
                  labels=str(out / "labels.idx"))
    hard = deval.make_hard_mixed_set(
        load_dataset(idx)[1], 1000, np.random.default_rng(123), lam=0.5, area_band=(0.35, 0.65)
    )

    results, summaries = {}, {}
    for policy in ("linear", "cutmix"):
        for kind, eta in (("mce", 0.0), ("dm_ce", args.eta)):
            name = f"{policy}/{kind}"
            start = time.perf_counter()
            cfg = arm(name, idx, args.arch, policy, kind, eta, args.epochs, seeds)
            summary = summaries[name] = run_experiment(cfg, out / name)
            pair_metrics = [deval.mixed_pair_eval(load_checkpoint(out / name / f"seed_{s}.dmx"),
                                                  hard) for s in seeds]
            r = results[name] = {
                "top1": [summary["seeds"][str(s)] for s in seeds],
                "top2_pair": [m.top2_pair_acc for m in pair_metrics],
                "mean_conf": [m.mean_max_confidence for m in pair_metrics],
                "wall_s": time.perf_counter() - start,
            }
            print(f"{name}: top1 {np.mean(r['top1']):.4f} "
                  f"top2_pair {np.mean(r['top2_pair']):.4f} "
                  f"conf {np.mean(r['mean_conf']):.4f} ({r['wall_s']:.1f} s)")
    print_gains(summaries, [(f"{p}/mce", f"{p}/dm_ce") for p in ("linear", "cutmix")])

    for name in SSL_ARMS:
        start = time.perf_counter()
        cfg = ssl_arm(name, args.eta, args.ssl_steps, seeds)
        summary = summaries[cfg.run.name] = run_experiment(cfg, out / cfg.run.name)
        r = results[cfg.run.name] = {"top1": [summary["seeds"][str(s)] for s in seeds],
                                     "wall_s": time.perf_counter() - start}
        print(f"{cfg.run.name}: per-seed best {[round(b, 4) for b in r['top1']]} "
              f"mean {summary['mean']:.4f} ({r['wall_s']:.1f} s)")
    print_gains(summaries, [(f"ssl/{a}", "ssl/pl_asym_decoupled")
                            for a in ("supervised", "pseudo_label")])

    (out / "trend.json").write_text(json.dumps(results, indent=2))
    print(f"wrote {out / 'trend.json'}")

    val = load_dataset(glyphs)[1]
    rows = ["loss,metric,param,value"]
    for kind, eta in (("mce", 0.0), ("dm_ce", 0.1)):
        name = f"robustness/{kind}"
        run_experiment(arm(name, glyphs, "mlp", "cutmix", kind, eta, args.epochs, (1,)), out / name)
        params = load_checkpoint(out / name / "seed_1.dmx")
        clean = deval.top1_accuracy(params, val)
        attacked, err = deval.fgsm_attack(params, val, deval.AttackConfig(args.epsilon))
        rows.append(f"{kind},clean_top1,,{clean:.6f}")
        rows.append(f"{kind},fgsm_top1,{args.epsilon:.6f},{attacked:.6f}")
        rows.append(f"{kind},fgsm_error,{args.epsilon:.6f},{err:.6f}")
        occlusion = deval.OcclusionConfig(4, RATIOS)
        curve = np.mean([[a for _, a in deval.occlusion_eval(
            params, val, occlusion, np.random.default_rng(1000 + ms))]
            for ms in range(args.mask_seeds)], axis=0)
        rows += [f"{kind},occlusion_top1,{ratio:g},{a:.6f}" for ratio, a in zip(RATIOS, curve)]
        print(f"{kind}: clean {clean:.4f}, attacked {attacked:.6f}, "
              f"occlusion {[round(float(v), 3) for v in curve]}")

    (out / "robustness.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out / 'robustness.csv'}")


if __name__ == "__main__":
    main()
