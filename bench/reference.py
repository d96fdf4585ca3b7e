"""Fixed reference computations that measure how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes, for whole stretches of reps, with CPU time rising as much as
wall time.  No estimator inside one run removes a drift that outlasts the
run, so every rep also times a reference computation, once before and
once after its commands, in the same process.  The rep's times divided by
the reference's give the rep's cost in units of the reference, which the
host speed cancels out of; ``run.py`` scales that back to seconds with
``quiet_seconds``.

Different kinds of work slow down by different amounts when the host is
busy, so each workload is paired with the parts that do its kind of work
(``workloads.REFERENCE_PARTS``): interpreted float arithmetic on small
tuples and numpy calls on tiny arrays (point-wise jets and 3x3 tensors),
elementwise numpy on 27k-long columns (batched quadrature), or dense
matrix products and streaming over megabyte arrays (the solver).  The
computations are the benchmark's own and never change with the program.
"""

import time

import numpy as np

COLUMN = 27_000
DENSE = 256
STREAM = 1_000_000


def interpreted() -> float:
    acc = 0.0
    pair = (1.0, 0.5)
    table = {}
    for i in range(100_000):
        a, b = pair
        pair = (b, a * 0.5 + b * 0.25 + 1e-3 * (i & 7))
        acc += pair[0] * pair[1]
        table[i & 63] = acc
    return acc + len(table)


def small_arrays() -> float:
    m = np.eye(3) + 0.1
    v = np.ones(3)
    for _ in range(3_000):
        v = m @ v
        v = v / np.sqrt(v @ v)
        m = m + 1e-3 * np.outer(v, v)
    return float(v.sum())


def columns() -> float:
    x = np.linspace(0.0, 1.0, COLUMN)
    a, b, c = x, 0.5 * x + 1.0, np.sqrt(x + 1.0)
    for _ in range(200):
        d = np.sin(a * b - c) + c * c * 0.25
        a, b, c = b, 0.9 * c + 0.1 * d, np.sqrt(np.abs(d) + 1.0)
    return float(a.sum() + b.sum() + c.sum())


def dense() -> float:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((DENSE, DENSE)) * (0.5 / DENSE**0.5)
    p = m
    for _ in range(12):
        p = np.tanh(m @ p)
    big = np.linspace(0.0, 1.0, STREAM)
    out = np.empty_like(big)
    for _ in range(12):
        np.multiply(big, 1.000001, out=out)
        big += out
    return float(p.sum() + big[-1])


PARTS = {
    "interpreted": interpreted,
    "small_arrays": small_arrays,
    "columns": columns,
    "dense": dense,
}
# Seconds each part takes on a 2-core Intel Xeon host: the fastest of 50
# readings while the host was moderately busy.  Only a scale: normalised
# times then read as seconds at that speed.
QUIET_S = {
    "interpreted": 0.019,
    "small_arrays": 0.017,
    "columns": 0.057,
    "dense": 0.037,
}


def quiet_seconds(parts) -> float:
    return sum(QUIET_S[part] for part in parts)


def measure(parts) -> dict:
    """Wall and process CPU seconds of each of the reference ``parts``, run once."""
    times, checksum = {}, 0.0
    for part in parts:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        checksum += PARTS[part]()
        times[part] = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    return {"parts": times, "checksum": checksum}
