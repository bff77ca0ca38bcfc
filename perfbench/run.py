"""Benchmark of the demix training and evaluation paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one process on one workload. The program is imported from
``src/`` next to this directory; without it the run exits with an error and
prints no result. Inputs are generated from ``--seed``. The workload's
full-length job runs once, then short timing samples of the same call repeat
until ``--seconds`` have passed since the job started, with the set-up
repeated between samples. Samples cycle through ``STREAMS`` training streams
drawn from the seed. The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
environment, every job's and sample's times and any failures.

End-to-end metrics (``--trace 0``, no tracer installed):

* ``setup_s``: median time to build the inputs (generation, IDX round trip,
  split; for ``eval_probes`` also training and saving the checkpoint), over
  at least three set-ups that take up to a tenth of the run.
* ``train_samples_per_s``: training rows drawn per second of the training
  call (labeled plus unlabeled rows for SSL). For ``eval_probes`` this is the
  training call of the checkpoint's kind.
* ``eval_samples_per_s``: rows scored per second. For ``eval_probes`` it
  covers the probe suite; for the training workloads it is the trained model
  scoring its held-out set with ``top1_accuracy``.
* ``final_top1``: of the full-length job, the median val top-1 of the last 10
  epochs (supervised), the best test top-1 (SSL) or the clean top-1 of the
  loaded checkpoint (``eval_probes``). It is bit-identical for a seed.
* ``peak_rss_mb``: the process's ``ru_maxrss``.

Every time in these metrics is on the reference clock of ``refclock.py``:
the host seconds of each set-up, job and sample are scaled by the host's
speed just before and after it, measured with a fixed loop that does not use
the program. On a shared machine other tenants slow whole stretches of a run
by a third or more; scaling cancels that, while a slower program still shows
in full. ``setup_s`` and both throughputs are medians over the run's
set-ups or its job and samples. The host seconds and scale factors are in
the line before the result.

Per-layer metrics (``--trace 1``): set-up plus job run alternately traced
and untraced (at least two traced units and one untraced). The tracer in
``spans.py`` reports calls and self time for each wrapped function, self time
and share of wall time per module, ``trace.overhead_frac`` (traced over
untraced unit wall time) and ``trace.unaccounted_frac`` (traced wall time
outside any top-level span). Call counts must repeat exactly across traced
units. ``semisup.accept_ratio`` is the mean logged ``accepted_frac``;
``evaluation.hard_set_accept_ratio`` is pairs kept over cut masks drawn by
``make_hard_mixed_set``. Untimed stage probes time each layer's forward and
backward and each loss kind's ``batch_loss`` at batch 100.

A job or sample counts as failed when it raises, logs a non-finite loss,
fails an ``eval_probes`` exactness check (occlusion at ratio 0 and FGSM at
eps 0 equal clean top-1; DMX1 round trip bit-equal), gives another
``final_top1`` than the first of its kind or, traced, changes a call count.
A full-length job also fails when its ``final_top1`` is within 0.2 of chance.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread. With the default of one per core, a BLAS call waits for its
# slowest thread, so any other load on the machine slowed the MLP workload by
# up to six times; one thread is also the faster setting at these sizes.
# It is set before numpy loads and recorded with every result; DEMIX_THREADS
# is left at its default.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import ctypes

# Fixed glibc malloc thresholds. By default glibc raises its mmap threshold
# each time it frees a block mapped above it, so whether a block of a few
# hundred KiB comes from the heap or from a fresh mapping (with a page fault
# per 4 KiB) depends on what the process freed before. Between runs of the
# same code that made the SSL workload's scoring 2.8x faster or slower. The
# values are those the dynamic rule settles at on 64-bit glibc: mmap above
# 32 MiB, trim above twice that. They are recorded with every result; without
# glibc nothing is set.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 64 << 20


def fix_malloc_thresholds() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h;
    # mallopt returns 1 on success.
    return bool(mallopt(-3, MALLOC_MMAP_THRESHOLD)) and bool(
        mallopt(-1, MALLOC_TRIM_THRESHOLD)
    )


MALLOC_FIXED = fix_malloc_thresholds()

import argparse
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Share of a timed run's budget that repeated set-ups may take.
SETUP_SHARE = 0.1
# Timing samples cycle through this many training streams of the run seed.
STREAMS = 8


def import_program():
    """Put ``src/`` first on the path and import demix from there, or exit."""
    src = ROOT / "src"
    if not (src / "demix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'demix'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import demix

    if Path(demix.__file__).resolve().parent != (src / "demix").resolve():
        sys.exit(f"perfbench: imported demix from {demix.__file__}, not from {src}")


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode:
            return {"sha": None, "dirty": None}
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DEMIX_THREADS": os.environ.get("DEMIX_THREADS"),
        "malloc_thresholds": {
            "mmap": MALLOC_MMAP_THRESHOLD, "trim": MALLOC_TRIM_THRESHOLD
        } if MALLOC_FIXED else None,
        "git": git_state(),
    }


class Run:
    """Attempted and failed jobs of one run, with the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_top1: dict[str, float] = {}

    def attempt(self, label: str, fn):
        """Call ``fn``; a raise counts as one failed attempt and returns None."""
        try:
            return fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail(label, [f"raised {exc!r}"])
            return None

    def record(self, label: str, job, kind: str = "job", extra: list[str] = ()) -> None:
        """Check a finished job; jobs of one kind must agree on ``final_top1``."""
        self.attempted += 1
        problems = job.check(full_length=kind == "job") + list(extra)
        reference = self.reference_top1.setdefault(kind, job.final_top1)
        if job.final_top1 != reference:
            problems.append(f"final_top1 {job.final_top1!r} differs from {reference!r}")
        self.fail(label, problems)

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def _unit(wl, seed: int, workdir: Path):
    t0 = time.perf_counter()
    state = wl.setup(seed, workdir)
    job = wl.job(state)
    return job, time.perf_counter() - t0


def timed_run(wl, seed: int, seconds: float, workdir: Path, run: Run):
    from refclock import HostClock

    clock = HostClock()
    setups = []  # (host seconds, reference-clock factor) of each set-up

    def fresh_setup():
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setups.append((time.perf_counter() - t0, clock.scale()))
        return state

    state = run.attempt("setup", fresh_setup)
    if state is None:
        return {}, {}
    start = time.perf_counter()
    job = run.attempt("job", lambda: wl.job(state))
    if job is None:
        return {}, {}
    run.record("job", job)

    def timing(j):
        return j.train_rows, j.train_s, j.eval_rows, j.eval_s, clock.scale()

    timed = [timing(job)]
    # Timing samples run until the next one would end past the budget by half.
    # Set-ups are repeated between them, spread over the run, so that their
    # median does not hang on the machine's speed at one moment. Each repeat
    # of a stream, on the same or a fresh set-up, must reproduce its first
    # result exactly.
    sample_s = []
    while True:
        stream = len(sample_s) % STREAMS
        label = f"sample {len(sample_s)}"
        t0 = time.perf_counter()
        sample = run.attempt(label, lambda: wl.sample(state, stream))
        if sample is None:
            break
        sample_s.append(time.perf_counter() - t0)
        timed.append(timing(sample))
        run.record(label, sample, kind=f"stream {stream}")
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(sample_s) >= seconds:
            break
        if len(setups) < 3 or sum(s for s, _ in setups) < SETUP_SHARE * elapsed:
            state = sample = None  # release the old inputs before building new ones
            state = run.attempt(f"setup {len(setups)}", fresh_setup)
            if state is None:
                break
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "train_samples_per_s": statistics.median(
            rows / (secs * f) for rows, secs, _, _, f in timed
        ),
        "eval_samples_per_s": statistics.median(
            rows / (secs * f) for _, _, rows, secs, f in timed if rows
        ),
        "final_top1": job.final_top1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "setup_s": [s for s, _ in setups],
        "setup_factor": [f for _, f in setups],
        "train_s": [t[1] for t in timed],
        "eval_s": [t[3] for t in timed],
        "reference_factor": [t[4] for t in timed],
        "reference_loop_s": clock.loop_s,
    }
    return metrics, info


def traced_run(wl, seed: int, seconds: float, workdir: Path, run: Run, warnings: list):
    import spans
    from workloads import stage_probes

    probes = run.attempt("probes", lambda: stage_probes(seed))
    untraced, summaries, ratios = [], [], []
    start = time.perf_counter()
    # The first unit pays one-off warm-up costs; make it a traced one, since
    # the overhead compares the fastest unit of each kind.
    plan = ["traced", "untraced", "traced"]
    kind = None
    while plan or time.perf_counter() - start + statistics.median(untraced) < seconds:
        kind = plan.pop(0) if plan else ("traced" if kind == "untraced" else "untraced")
        label = f"{kind} unit {len(untraced) + len(summaries)}"
        if kind == "untraced":
            out = run.attempt(label, lambda: _unit(wl, seed, workdir))
            if out is None:
                break
            run.record(label, out[0])
            untraced.append(out[1])
            continue
        tracer = spans.Tracer()
        with tracer:
            out = run.attempt(label, lambda: _unit(wl, seed, workdir))
        if out is None:
            break
        job, wall = out
        summary = tracer.summary(wall)
        extra = []
        if summaries and summary["calls"] != summaries[0]["calls"]:
            changed = sorted(
                n for n, c in summary["calls"].items() if c != summaries[0]["calls"][n]
            )
            extra.append(f"call counts differ from the first traced unit: {changed}")
        run.record(label, job, extra=extra)
        masks = tracer.count_children(
            "evaluation.make_hard_mixed_set", "mixers.make_cutmix_mask"
        )
        ratios.append((job.accept_ratio, job.pairs_kept / masks if masks else 0.0))
        summaries.append(summary)
        for name in tracer.missing:
            msg = f"trace target {name} not found; reported as 0 calls"
            if msg not in warnings:
                warnings.append(msg)
                print(f"perfbench: warning: {msg}", file=sys.stderr)
    if probes is None or not untraced or not summaries:
        return {}, {}
    metrics = spans.layer_metrics(summaries, min(untraced))
    metrics["semisup.accept_ratio"] = statistics.median(r[0] for r in ratios)
    metrics["evaluation.hard_set_accept_ratio"] = statistics.median(r[1] for r in ratios)
    metrics.update(probes)
    info = {
        "untraced_unit_s": untraced,
        "traced_unit_s": [s["wall_s"] for s in summaries],
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    run = Run()
    warnings: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, info = traced_run(
                wl, args.seed, args.seconds, Path(tmp), run, warnings
            )
        else:
            metrics, info = timed_run(wl, args.seed, args.seconds, Path(tmp), run)
    if metrics and set(metrics) != set(declared):
        raise SystemExit(
            "perfbench: metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "warnings": warnings,
        "failures": run.failures,
        **info,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in declared
        } if metrics else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
