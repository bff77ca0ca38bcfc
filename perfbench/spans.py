"""In-memory span recorder that wraps the public functions of the program.

A wrapper replaces a function's name in its defining module and in every
other ``demix`` module that imported the same object, so calls made through
``from .losses import batch_loss`` are recorded too. Spans are kept as
``(name, start, end, parent)`` tuples, with the parent taken from a stack of
open spans; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Layer (module) -> public functions recorded when tracing.
TARGETS = {
    "data": (
        "make_image_classes", "save_idx", "load_idx", "split", "make_synthetic",
        "stratified_take",
    ),
    "mixers": (
        "mix_batch", "sample_lambda", "make_cutmix_mask", "apply_mask", "asymmetric_pair",
    ),
    "losses": (
        "batch_loss", "per_sample_loss", "mce_loss", "dm_ce_loss", "asymmetric_dm_loss",
    ),
    "network": (
        "train_supervised", "forward", "forward_manifold_mix", "backward", "sgd_step",
        "init_params", "save_checkpoint", "load_checkpoint",
    ),
    "semisup": ("train_ssl", "ssl_step", "pseudo_label_batch"),
    "evaluation": (
        "predict_logits", "top1_accuracy", "make_hard_mixed_set", "mixed_pair_eval",
        "input_gradients", "fgsm_attack", "occlusion_eval", "confidence_histogram",
    ),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
PACKAGE = "demix"


class Tracer:
    """Records spans while installed; use as a context manager per traced unit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, fns in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def summary(self, wall_s: float) -> dict:
        """Per-function calls and self time, and the share of ``wall_s`` outside
        every top-level span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(NAMES, 0)
        self_s = dict.fromkeys(NAMES, 0.0)
        top_level = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                top_level += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "unaccounted_frac": (wall_s - top_level) / wall_s,
            "wall_s": wall_s,
        }

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans opened directly by a ``parent_name`` span."""
        return sum(
            1 for name, _, _, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def layer_metrics(summaries: list[dict], untraced_wall_s: float) -> dict[str, float]:
    """Medians over traced units of every per-function and per-module figure.

    ``untraced_wall_s`` is the fastest untraced unit; the overhead compares it
    with the fastest traced one.
    """
    out: dict[str, float] = {}
    for name in NAMES:
        out[f"{name}.calls"] = summaries[0]["calls"][name]
        out[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in summaries)
    for mod, fns in TARGETS.items():
        per_unit = [sum(s["self_s"][f"{mod}.{fn}"] for fn in fns) for s in summaries]
        out[f"{mod}.self_s"] = statistics.median(per_unit)
        out[f"{mod}.share"] = statistics.median(
            v / s["wall_s"] for v, s in zip(per_unit, summaries)
        )
    out["trace.overhead_frac"] = min(s["wall_s"] for s in summaries) / untraced_wall_s
    out["trace.unaccounted_frac"] = statistics.median(
        s["unaccounted_frac"] for s in summaries
    )
    return out
