"""Verification suites: gradient oracles, stationarity, form equivalence.

Each suite draws the cases of one acceptance criterion (1 to 4) and returns
what it measured. The suites call the row kernels that training runs
(``mce_rows`` and ``_dm_rows``), on one row per case or per descent run.
``run_all`` checks the numbers for ``demix selftest`` against ``BOUNDS``;
the acceptance tests call the same suites and read the same bounds.
"""

from __future__ import annotations

import numpy as np

from .losses import _dm_rows, mce_rows, softmax

RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)

# The bound each measured number of criteria 1-4 must stay below; p_a + p_b
# after the mutual-boost descent must stay above its bound.
BOUNDS = {
    "gradient_closed_forms": 1e-12,
    "gradient_finite_differences": 1e-6,
    "mce_stationarity": 1e-3,
    "dm_mutual_boost": 0.999,
    "dm_form_equivalence": 1e-12,
}


def _mce(z: np.ndarray, a: int, b: int, lam: float) -> tuple[float, np.ndarray]:
    """Value and gradient of the mixed CE on one logit vector."""
    value, grad = mce_rows(z[None], a, b, lam)
    return value[0], grad[0]


def _dm(z: np.ndarray, a: int, b: int) -> tuple[float, np.ndarray]:
    """Value and gradient of the decoupled regularizer on one logit vector."""
    value, grad = _dm_rows(z[None], np.array([a]), np.array([b]))
    return value[0], grad[0]


def _central_diff(f, z: np.ndarray, at=None, h: float = 1e-6) -> np.ndarray:
    """Central differences of ``f()``, which reads ``z``, at each index in ``at``
    (default: every entry, shaped like ``z``); each entry is put back bit for bit."""
    g = []
    for i in np.ndindex(z.shape) if at is None else at:
        orig = z[i]
        z[i] = orig + h
        fp = f()
        z[i] = orig - h
        g.append((fp - f()) / (2.0 * h))
        z[i] = orig
    return np.reshape(g, z.shape) if at is None else np.array(g)


def gradient_oracle_suite() -> tuple[float, float, int]:
    """Mixed-CE and decoupled-regularizer gradients against naive closed forms
    and central differences: 40 cases at each of C = 2, 3, 10, seed 0.

    Returns the worst absolute closed-form deviation, the worst relative
    finite-difference error (relative to max(|grad|, 1)) and the case count.
    """
    rng = np.random.default_rng(0)
    worst_closed = worst_fd = 0.0
    cases = 0
    for c in (2, 3, 10):
        for _ in range(40):
            z = rng.normal(scale=2.0, size=c)
            a, b = (int(v) for v in rng.choice(c, size=2, replace=False))
            lam = float(rng.uniform())

            # naive closed forms, written straight from the definitions
            e = np.exp(z)
            mce_closed = e / e.sum()
            mce_closed[a] -= lam
            mce_closed[b] -= 1.0 - lam
            no_a, no_b = e.sum() - e[a], e.sum() - e[b]
            dm_closed = e / no_a + e / no_b
            dm_closed[a] = -1.0 + e[a] / no_b
            dm_closed[b] = -1.0 + e[b] / no_a

            for grad, closed, f in (
                (_mce(z, a, b, lam)[1], mce_closed, lambda: _mce(z, a, b, lam)[0]),
                (_dm(z, a, b)[1], dm_closed, lambda: _dm(z, a, b)[0]),
            ):
                worst_closed = max(worst_closed, float(np.abs(grad - closed).max()))
                fd = _central_diff(f, z)
                rel = np.abs(grad - fd) / np.maximum(np.abs(grad), 1.0)
                worst_fd = max(worst_fd, float(rel.max()))
            cases += 1
    return worst_closed, worst_fd, cases


def mce_stationarity_suite() -> float:
    """Descent on free logits under the mixed CE, at each ratio in RATIOS.

    Each ratio descends in its own row of one kernel call; rows do not
    interact, so each row retraces a run of its own bit for bit. Returns the
    worst |p - target weight| over both mixed classes.
    """
    lam = np.array(RATIOS)
    z = np.zeros((len(lam), 3))
    for _ in range(4000):
        z -= 0.5 * mce_rows(z, 0, 1, lam)[1]
    p = softmax(z)
    return float(max(np.abs(p[:, 0] - lam).max(), np.abs(p[:, 1] - (1.0 - lam)).max()))


def dm_mutual_boost_suite() -> tuple[float, bool]:
    """Descent under the decoupled regularizer alone, once per ratio in RATIOS,
    each in its own row of one kernel call.

    The regularizer takes no ratio, so every run must retrace the first bit
    for bit. Returns the lowest p_a + p_b after descent and whether the value
    and gradient trajectories are bit-identical.
    """
    z = np.zeros((len(RATIOS), 4))
    a, b = np.zeros(len(z), dtype=np.int64), np.ones(len(z), dtype=np.int64)
    values, grads = [], []
    for _ in range(1500):
        value, grad = _dm_rows(z, a, b)
        values.append(value)
        grads.append(grad)
        z -= 0.8 * grad
    values, grads = np.array(values), np.array(grads)  # step, run[, class]
    identical = bool((values == values[:, :1]).all() and (grads == grads[:, :1]).all())
    p = softmax(z)
    return float((p[:, 0] + p[:, 1]).min()), identical


def dm_form_equivalence_suite() -> float:
    """The decoupled form of the regularizer against its probability-ratio
    form over 10,000 draws at seed 1. Returns the worst absolute deviation."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        c = int(rng.integers(2, 12))
        z = rng.normal(scale=2.0, size=c)
        a, b = (int(v) for v in rng.choice(c, size=2, replace=False))
        p = softmax(z)
        ratio_form = -(np.log(p[a] / (1 - p[b])) + np.log(p[b] / (1 - p[a])))
        worst = max(worst, abs(_dm(z, a, b)[0] - ratio_form))
    return worst


def run_all() -> bool:
    closed, fd, cases = gradient_oracle_suite()
    stationarity = mce_stationarity_suite()
    boost, identical = dm_mutual_boost_suite()
    form = dm_form_equivalence_suite()
    checks = [
        ("gradient_closed_forms", closed < BOUNDS["gradient_closed_forms"],
         f"max |analytic - closed| = {closed:.3e} over {cases} cases"),
        ("gradient_finite_differences", fd < BOUNDS["gradient_finite_differences"],
         f"max relative FD error = {fd:.3e} over {cases} cases"),
        ("mce_stationarity", stationarity < BOUNDS["mce_stationarity"],
         f"max |p - target weight| = {stationarity:.3e} over {len(RATIOS)} ratios"),
        ("dm_mutual_boost", boost > BOUNDS["dm_mutual_boost"],
         f"p_a + p_b = {boost:.6f} after descent"),
        ("dm_lambda_independence", identical,
         "value and gradient trajectories bit-identical across mixing ratios"),
        ("dm_form_equivalence", form < BOUNDS["dm_form_equivalence"],
         f"max |phi-form - ratio-form| = {form:.3e} over 10000 draws"),
    ]
    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return ok
