"""The benchmark's stage probes still run against the package's public API."""

import importlib
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_stage_probes_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    probes = workloads.stage_probes(0, repeats=1)
    # Forward and backward of 7 layers, plus 5 loss kinds.
    assert len(probes) == 19
    assert all(math.isfinite(v) for v in probes.values()), probes
