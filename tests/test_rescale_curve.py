"""scripts/rescale_curve.py at 5 points, checked against losses.rescale."""

import importlib.util
from pathlib import Path

import numpy as np

from demix.losses import RescaleParams, rescale

SCRIPT = Path(__file__).parent.parent / "scripts" / "rescale_curve.py"
SETTINGS = [(1.0, 1.0), (0.0, 0.0), (1.0, 0.8), (0.5, 1.0), (2.0, 0.8), (0.3, 1.0)]


def test_every_row_is_the_rescaled_ratio(tmp_path):
    spec = importlib.util.spec_from_file_location("rescale_curve", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "curve.csv"
    script.main(["--out", str(out), "--points", "5"])
    header, *rows = out.read_text().splitlines()
    assert header == "t,xi,ratio,rescaled"
    assert len(rows) == len(SETTINGS) * 5
    points = [(t, xi, lam) for t, xi in SETTINGS for lam in np.linspace(0.0, 1.0, 5)]
    for row, (t, xi, lam) in zip(rows, points):
        r = float(rescale(np.array([lam]), RescaleParams(t=t, xi=xi))[0])
        assert row == f"{t:g},{xi:g},{lam:.6f},{r:.6f}"
