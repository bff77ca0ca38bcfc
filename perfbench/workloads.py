"""The benchmark's workloads and the per-layer stage probes.

Every workload builds its inputs from the run seed (``setup``) and then runs
one fixed, deterministic job on them (``job``), which gives ``final_top1`` and
the per-layer profile. ``sample`` is the same call at a length of a second or
two, repeated to time throughput. Each sample draws its training and probe
streams from the run seed and a stream number: how much work a step does can
depend on the stream (the pseudo-labels SSL accepts, the cut masks the hard
mixed set rejects), and a run that times several streams does not hang its
throughput on one of them. A job returns what it drew and scored, the time
its timed calls took, its ``final_top1`` and any failed check. Calls into the
program go through module attributes (``network.forward``, never a name bound
at import) so that a tracer can replace them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from demix import data, evaluation, losses, mixers, network, semisup

CUTMIX = mixers.MixConfig("cutmix", 0.2)
DM_CE = losses.LossSpec("dm_ce", losses.DMConfig(0.1))
# A final_top1 below chance plus this margin means the model did not learn.
ABOVE_CHANCE = 0.2


@dataclass
class Job:
    final_top1: float
    num_classes: int
    train_rows: int = 0
    train_s: float = 0.0
    eval_rows: int = 0
    eval_s: float = 0.0
    logged: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    accept_ratio: float = 0.0  # accepted pseudo-labels over unlabeled rows drawn
    pairs_kept: int = 0  # pairs returned by make_hard_mixed_set
    params: object = None  # the trained model, if the job trained one

    def check(self, full_length: bool) -> list[str]:
        """Failed checks that need no other job to compare with.

        A timing sample trains too briefly to be held to the accuracy floor.
        """
        out = list(self.problems)
        if not all(math.isfinite(v) for v in self.logged):
            out.append("a logged training value is not finite")
        floor = 1.0 / self.num_classes + ABOVE_CHANCE
        if full_length and not self.final_top1 >= floor:
            out.append(f"final_top1 {self.final_top1} is not above {floor}")
        return out


def stream_seed(seed: int, stream: int) -> int:
    """The training seed of timing stream ``stream`` of run seed ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _score(params, ds, repeats: int) -> tuple[int, float]:
    """Score ``ds`` ``repeats`` times; rows per call and the fastest call's seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluation.top1_accuracy(params, ds)
        times.append(time.perf_counter() - t0)
    return len(ds), min(times)


# The glyph templates of the acceptance gate. The run seed picks the split and
# the training streams; with templates drawn per seed as well, the spread of
# final_top1 across seeds is dominated by how hard each template set happens
# to be, and on the conv net it exceeds what the metric's bound can allow.
GLYPH_SEED = 0


def glyph_split(seed: int, workdir: Path):
    """2000 glyph images through an IDX round trip, split 1000/1000 by ``seed``."""
    raw = data.make_image_classes(2000, noise=0.25, shift=3, seed=GLYPH_SEED)
    images, labels = workdir / "images.idx", workdir / "labels.idx"
    data.save_idx(raw.x, raw.y, images, labels)
    full = data.load_idx(images, labels)
    return data.split(full, (1000, 1000), seed)


class Supervised:
    """CutMix (alpha 0.2) with dm_ce (eta 0.1) via train_supervised."""

    def __init__(
        self, arch: str, epochs: int, sample_epochs: int, batch_size: int,
        base_lr: float, score_repeats: int,
    ):
        self.arch = arch
        self.epochs = epochs
        self.sample_epochs = sample_epochs
        self.batch_size = batch_size
        self.base_lr = base_lr
        self.score_repeats = score_repeats

    def setup(self, seed: int, workdir: Path) -> dict:
        train, val = glyph_split(seed, workdir)
        return {"seed": seed, "train": train, "val": val}

    def job(self, st: dict) -> Job:
        return self._train(st, self.epochs, st["seed"])

    def sample(self, st: dict, stream: int) -> Job:
        return self._train(st, self.sample_epochs, stream_seed(st["seed"], stream))

    def _train(self, st: dict, epochs: int, seed: int) -> Job:
        train, val = st["train"], st["val"]
        if self.arch == "conv":
            specs = network.make_conv(1, train.num_classes, train.x.shape[1:])
        else:
            specs = network.make_mlp(train.x[0].size, 256, train.num_classes)
        cfg = network.TrainConfig(
            base_lr=self.base_lr, epochs=epochs, batch_size=self.batch_size, seed=seed
        )
        t0 = time.perf_counter()
        params, log = network.train_supervised(train, val, specs, CUTMIX, DM_CE, cfg)
        train_s = time.perf_counter() - t0
        curve = [v for m, _, v in log if m == "val_top1"]
        eval_rows, eval_s = (
            _score(params, val, self.score_repeats) if self.score_repeats else (0, 0.0)
        )
        return Job(
            final_top1=float(np.median(curve[-10:])),
            num_classes=train.num_classes,
            train_rows=epochs * len(train),
            train_s=train_s,
            eval_rows=eval_rows,
            eval_s=eval_s,
            logged=[v for m, _, v in log if m == "train_loss"],
            params=params,
        )


def _cycled_rows(n: int, batch: int, steps: int) -> int:
    """Rows drawn by ``steps`` batches of an epoch-cycling sampler over n rows."""
    batch = min(batch, n)
    full, rest = divmod(steps, -(-n // batch))
    return full * n + min(rest * batch, n)


class SemiSupervised:
    """Two moons, 10 labels, MLP 2-32-2, asymmetric mixing with eta 0.1."""

    def __init__(self, steps: int, sample_steps: int, score_repeats: int):
        self.steps = steps
        self.sample_steps = sample_steps
        self.score_repeats = score_repeats

    def setup(self, seed: int, workdir: Path) -> dict:
        # The data and labels of the acceptance gate's SSL arm; the run seed
        # picks the training streams. The work of a step grows with the share
        # of pseudo-labels accepted, and with the 10 labels drawn per seed that
        # share, and so the throughput, differed by a fifth between seeds.
        train = data.make_synthetic("two_moons", 1000, 0.15, seed=0)
        test = data.make_synthetic("two_moons", 1000, 0.15, seed=1)
        labeled, rest = data.stratified_take(train, 10, seed=0)
        return {"seed": seed, "labeled": labeled, "unlabeled": rest.x, "test": test}

    def job(self, st: dict) -> Job:
        return self._train(st, self.steps, st["seed"])

    def sample(self, st: dict, stream: int) -> Job:
        return self._train(st, self.sample_steps, stream_seed(st["seed"], stream))

    def _train(self, st: dict, steps: int, seed: int) -> Job:
        labeled, unlabeled, test = st["labeled"], st["unlabeled"], st["test"]
        cfg = semisup.SSLConfig(
            tau=0.95, unlabeled_weight=1.0, eta=0.1, alpha=0.2, steps=steps,
            asymmetric_mixing=True, eval_interval=100,
        )
        tcfg = network.TrainConfig(
            base_lr=0.3, min_lr=0.003, epochs=1, batch_size=len(labeled), seed=seed
        )
        specs = network.make_mlp(2, 32, 2)
        t0 = time.perf_counter()
        params, log = semisup.train_ssl(labeled, unlabeled, test, specs, cfg, tcfg)
        train_s = time.perf_counter() - t0
        eval_rows, eval_s = _score(params, test, self.score_repeats)
        drawn = _cycled_rows(len(unlabeled), cfg.unlabeled_batch, steps)
        rows = steps * len(labeled) + drawn
        return Job(
            final_top1=max(v for m, _, v in log if m == "test_top1"),
            num_classes=test.num_classes,
            train_rows=rows,
            train_s=train_s,
            eval_rows=eval_rows,
            eval_s=eval_s,
            logged=[v for _, _, v in log],
            accept_ratio=statistics.fmean(v for m, _, v in log if m == "accepted_frac"),
        )


class EvalProbes:
    """A DMX1 checkpoint scored by the robustness and mixed-pair probes."""

    checkpoint = Supervised(
        "mlp", epochs=5, sample_epochs=2, batch_size=100, base_lr=0.1, score_repeats=0
    )
    mask_seeds = 3
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)

    def setup(self, seed: int, workdir: Path) -> dict:
        st = self.checkpoint.setup(seed, workdir)
        trained = self.checkpoint.job(st)
        st["path"] = workdir / "model.dmx"
        network.save_checkpoint(trained.params, st["path"])
        st["trained"] = trained
        return st

    def sample(self, st: dict, stream: int) -> Job:
        """The probe suite, plus a short training call of the checkpoint's kind."""
        job = self._probe(st, stream_seed(st["seed"], stream))
        short = self.checkpoint.sample(st, stream)
        job.train_rows, job.train_s = short.train_rows, short.train_s
        job.logged += short.logged
        return job

    def job(self, st: dict) -> Job:
        return self._probe(st, st["seed"])

    def _probe(self, st: dict, seed: int) -> Job:
        val = st["val"]
        t0 = time.perf_counter()
        model = network.load_checkpoint(st["path"])
        hard = evaluation.make_hard_mixed_set(
            val, 1000, np.random.default_rng(seed), lam=0.5, area_band=(0.35, 0.65)
        )
        evaluation.mixed_pair_eval(model, hard)
        clean = evaluation.top1_accuracy(model, val)
        fgsm_zero, _ = evaluation.fgsm_attack(model, val, evaluation.AttackConfig(0.0))
        evaluation.fgsm_attack(model, val, evaluation.AttackConfig())
        occlusion = evaluation.OcclusionConfig(4, self.ratios)
        rngs = [np.random.default_rng([seed, k]) for k in range(self.mask_seeds)]
        curves = [evaluation.occlusion_eval(model, val, occlusion, r) for r in rngs]
        hist = evaluation.confidence_histogram(model, val, 10)
        eval_s = time.perf_counter() - t0

        problems = []
        trained = st["trained"]
        saved = trained.params
        if model.specs != saved.specs or any(
            a.shape != b.shape or a.tobytes() != b.tobytes()
            for a, b in zip(model.arrays(), saved.arrays(), strict=True)
        ):
            problems.append("DMX1 round trip is not bit-equal")
        if fgsm_zero != clean:
            problems.append(f"FGSM at eps 0 gives {fgsm_zero}, clean top-1 is {clean}")
        if any(curve[0] != (0.0, clean) for curve in curves):
            problems.append("occlusion at ratio 0 differs from clean top-1")
        if int(hist.sum()) != len(val):
            problems.append("confidence histogram does not count every row")
        scored = len(hard.targets) + 3 * len(val) + len(val) * (
            self.mask_seeds * len(self.ratios) + 1
        )
        return Job(
            final_top1=clean,
            num_classes=val.num_classes,
            train_rows=trained.train_rows,
            train_s=trained.train_s,
            eval_rows=scored,
            eval_s=eval_s,
            logged=list(trained.logged),
            problems=problems,
            pairs_kept=len(hard.targets),
        )


# The conv net runs at batch 20 and base_lr 0.02: at batch 100 and the default
# 0.1 it stays at chance on some seeds within the epochs a run can afford.
WORKLOADS = {
    "mlp_cutmix_dm": Supervised(
        "mlp", epochs=20, sample_epochs=2, batch_size=100, base_lr=0.1, score_repeats=5
    ),
    "conv_cutmix_dm": Supervised(
        "conv", epochs=4, sample_epochs=1, batch_size=20, base_lr=0.02, score_repeats=1
    ),
    "ssl_moons_asym_dm": SemiSupervised(steps=2000, sample_steps=500, score_repeats=100),
    "eval_probes": EvalProbes(),
}


# ---------------------------------------------------------------------------
# Stage probes: each layer of both architectures as a one-layer network, and
# each loss kind on one batch, at batch 100 through the public API.
# ---------------------------------------------------------------------------

PROBE_BATCH = 100
LOSS_KINDS = ("mce", "dm_ce", "mbce_one", "mbce_two", "dm_bce")


def _best_ms(fn, repeats: int) -> float:
    """Fastest of ``repeats`` calls, in milliseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def stage_probes(seed: int, repeats: int = 7) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    conv = network.make_conv(1, 10, (28, 28))
    mlp = network.make_mlp(784, 256, 10)
    chains = (
        (rng.uniform(size=(PROBE_BATCH, 1, 28, 28)),
         (("conv1", conv[0]), ("pool1", conv[1]), ("conv2", conv[2]),
          ("pool2", conv[3]), ("conv_head", conv[5]))),
        (rng.uniform(size=(PROBE_BATCH, 784)), (("dense0", mlp[0]), ("dense1", mlp[1]))),
    )
    out = {}
    for x, layers in chains:
        for name, spec in layers:
            if isinstance(spec, network.DenseSpec):
                x = x.reshape(len(x), -1)
            params = network.init_params((spec,), rng)
            y, cache = network.forward(params, x)
            grad = rng.normal(size=y.shape)
            out[f"network.probe.{name}.fwd_ms"] = _best_ms(
                lambda: network.forward(params, x), repeats
            )
            out[f"network.probe.{name}.bwd_ms"] = _best_ms(
                lambda: network.backward(params, cache, grad), repeats
            )
            x = y

    z = rng.normal(scale=2.0, size=(PROBE_BATCH, 10))
    a = rng.integers(10, size=PROBE_BATCH)
    b = (a + rng.integers(1, 10, size=PROBE_BATCH)) % 10
    lam = rng.uniform(size=PROBE_BATCH)
    targets = [
        mixers.MixedTarget(int(a[i]), int(b[i]), mixers.Lambda(float(lam[i])))
        for i in range(PROBE_BATCH)
    ]
    for kind in LOSS_KINDS:
        spec = losses.LossSpec(kind)
        out[f"losses.probe.{kind}.ms"] = _best_ms(
            lambda: losses.batch_loss(z, targets, spec), repeats
        )
    return out
