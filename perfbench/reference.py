"""A fixed reference computation, timed to express unit times in units of
the machine's current speed.

On a shared VM the same unit of work ran 30 % faster or slower for
minutes at a time, and a run's median moved with it.  The reference speeds
up and slows down with it.  It touches no wirebeam code, so a change to the
program cannot move it.

It runs forward, backward and Adam passes of a 3x128 MLP on 32-sample
minibatches in numpy: small matrix products, elementwise array updates and
a Python loop around them, the mix of work that fills all three workloads.
A pure-interpreter reference (small-array steps and dictionary arithmetic)
was tried beside it and dropped: it swung about twice as far as the
workloads did, so dividing by it added spread instead of removing it.
"""

from __future__ import annotations

import time

import numpy as np


def reference_kernel() -> float:
    """About 45 ms of fixed work on a 2.1 GHz Xeon; returns a checksum."""
    rng = np.random.default_rng(0)
    dims = (4, 128, 128, 128, 9)
    weights = [0.1 * rng.standard_normal((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    m = [np.zeros_like(w) for w in weights]
    v = [np.zeros_like(w) for w in weights]
    x = rng.standard_normal((32, dims[0]))
    for _ in range(80):
        acts = [x]
        for w in weights[:-1]:
            acts.append(np.maximum(acts[-1] @ w, 0.0))
        grad = acts[-1] @ weights[-1] - 1.0
        for i in reversed(range(len(weights))):
            g_w = acts[i].T @ grad
            if i:
                grad = (grad @ weights[i].T) * (acts[i] > 0)
            m[i] = 0.9 * m[i] + 0.1 * g_w
            v[i] = 0.999 * v[i] + 0.001 * g_w * g_w
            weights[i] -= 1e-6 * m[i] / (np.sqrt(v[i]) + 1e-8)
    return float(sum(w.sum() for w in weights))


def timed_reference() -> float:
    """Wall time of one reference_kernel call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
