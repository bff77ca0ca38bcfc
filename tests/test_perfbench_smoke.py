"""The benchmark's stage probes and workloads still run against the package's public API."""

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_stage_probes_run(workloads):
    probes = workloads.stage_probes(0, repeats=1)
    # Forward and backward of 7 layers, plus 5 loss kinds.
    assert len(probes) == 19
    assert all(math.isfinite(v) for v in probes.values()), probes


@pytest.mark.parametrize(
    "name", ["mlp_cutmix_dm", "conv_cutmix_dm", "ssl_moons_asym_dm", "eval_probes"]
)
def test_workload_sample_runs(workloads, name, tmp_path):
    # One timing sample of each workload, with the checks it is held to.
    workload = workloads.WORKLOADS[name]
    job = workload.sample(workload.setup(1, tmp_path), 0)
    assert job.check(False) == []
    assert job.train_rows > 0
