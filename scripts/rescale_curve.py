"""Dump the label-rescaling curve r(ratio, t, xi) as CSV for plotting.

Covers the anchor settings: (t=1, xi=1) identity, (t=0, xi=0) two-hot, and
the recommended cut-based (t=1, xi=0.8) and interpolation-based (t=0.5, xi=1)
operating points.

Usage: python scripts/rescale_curve.py [--out runs/rescale.csv] [--points 101]
"""

import argparse
from pathlib import Path

import numpy as np

from demix.losses import RescaleParams, rescale


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/rescale.csv")
    ap.add_argument("--points", type=int, default=101)
    args = ap.parse_args(argv)

    settings = [(1.0, 1.0), (0.0, 0.0), (1.0, 0.8), (0.5, 1.0), (2.0, 0.8), (0.3, 1.0)]
    rows = ["t,xi,ratio,rescaled"]
    lams = np.linspace(0.0, 1.0, args.points)
    for t, xi in settings:
        curve = rescale(lams, RescaleParams(t=t, xi=xi))
        rows.extend(f"{t:g},{xi:g},{lam:.6f},{r:.6f}" for lam, r in zip(lams, curve))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n")
    print(f"wrote {out} ({len(settings)} settings x {args.points} points)")


if __name__ == "__main__":
    main()
