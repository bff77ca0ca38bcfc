"""Time on a reference clock: host seconds scaled by the host's current speed.

The benchmark's host is a few cores of a shared machine whose speed drifts by
a third or more over stretches of seconds, with the process's CPU time
drifting just as much as its wall time. A fixed reference loop, which does not
use the program, is timed before and after each measured call; the call's
host seconds are scaled by ``REFERENCE_S`` over the mean of those two times.
A slower host stretches both the call and the loop, and the ratio cancels;
a slower program stretches only the call, and shows in full.

The loop has two parts. About nine tenths of its time is interpreter-bound
Python: function calls, tuples and integer arithmetic. The rest is forward
and backward steps of a tiny two-layer numpy network, many small ufunc and
matmul calls. A neighbour's load can slow the two kinds of work unequally,
and the workloads do both. A pure-Python
reference alone was tried first and was also chosen over numpy calls on
small arrays, a BLAS matmul and a strided copy of a large array. Scaled by
it, the spread (quartile distance over median) of back-to-back timing
samples fell from 0.20 to 0.10 on mlp_cutmix_dm, 0.29 to 0.11 on
conv_cutmix_dm and 0.45 to 0.18 on ssl_moons_asym_dm. In runs of one seed
alternated between the two references, adding the numpy half narrowed SSL
throughput from +-10% to +-5% and conv from +-8% to +-5%, and widened MLP from
+-4.5% to +-7%. ``REFERENCE_S`` is about the loop's time on an undisturbed
core of the 2-core x86-64 host the benchmark was written on, so reference
seconds read close to that host's wall seconds at its fastest.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.045

_rng = np.random.default_rng(0)
_x = _rng.normal(size=(64, 2))
_w1 = _rng.normal(size=(2, 32))
_b1 = np.zeros(32)
_w2 = _rng.normal(size=(32, 2))


def _mix(a: int, b: int) -> tuple[int, int]:
    return b, (a * 31 + b) % 1009


def reference_loop() -> float:
    """Run the fixed reference work once; its host seconds."""
    t0 = time.perf_counter()
    a, b = 1, 2
    for i in range(200_000):
        a, b = _mix(a, b + i)
    for _ in range(120):
        h = _x @ _w1 + _b1
        r = np.maximum(h, 0.0)
        z = r @ _w2
        e = np.exp(z - z.max(axis=1, keepdims=True))
        g = (e / e.sum(axis=1, keepdims=True) - 0.5) / len(_x)
        gr = g @ _w2.T
        gr[h <= 0.0] = 0.0
        _x.T @ gr, r.T @ g
    return time.perf_counter() - t0


class HostClock:
    """Scales the host seconds of successive calls to reference seconds.

    Run the reference loop once on creation; then call ``scale()`` right after
    each measured call. It runs the loop again and returns the factor that
    turns the call's host seconds into reference seconds. Each loop time
    brackets the call before it and the call after it.
    """

    def __init__(self):
        self.loop_s = [reference_loop()]

    def scale(self) -> float:
        self.loop_s.append(reference_loop())
        return REFERENCE_S / (0.5 * (self.loop_s[-2] + self.loop_s[-1]))
