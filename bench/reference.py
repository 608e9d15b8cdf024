"""The reference task: a fixed piece of work that uses numpy but not jacobigeom.

A shared host changes speed by up to 1.6x, in phases that last from under
a second to minutes, and every process on it slows together.  The
benchmark runs this task right after each operation.  Dividing the
operation's time by the task's time taken at the same moment cancels the
host's speed, and the task never changes with the library, so what is
left is the program's own cost.  ``REF_MS`` turns that ratio back into
milliseconds: it is the task's time on the host used to define the
benchmark (a 2-vCPU Intel Xeon VM, OpenBLAS on one thread) in a calm
phase.

The task mixes the three kinds of work the library does: small LAPACK
calls, numpy calls on tiny arrays, where the call overhead dominates,
and plain Python on dicts, tuples and small objects.
"""

import statistics
import time

import numpy as np

REF_MS = 1.65

_A = np.random.default_rng(12345).standard_normal((12, 12))
_A = _A @ _A.T + 12.0 * np.eye(12)
_B = _A[:4, :4].copy()


def reference_task():
    s = 0.0
    for k in range(4):
        w, v = np.linalg.eigh(_A)
        s += float(np.linalg.solve((v * np.sqrt(w)) @ v.T, _A[:, k])[0])
        for _ in range(6):
            c = _B @ _B.T - _B.T @ _B
            s += float(np.max(np.abs(c - c.T), initial=0.0)) + bool(np.allclose(c, -c.T))
        d = {}
        for j in range(40):
            d[j] = (j * 1.5 + s, str(j))
        s += sum(x for x, _ in d.values()) * 1e-9
    return s


def time_reference(reps):
    """Median time (s) of ``reps`` runs of the reference task."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
