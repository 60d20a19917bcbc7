"""Machine-speed probe: a fixed piece of work written in the benchmark itself.

On a virtual machine whose cores are shared with other tenants, speed
drifts by tens of percent over minutes, for Python code and for this probe
alike.  The worker runs the probe between operations and scales each
operation's wall time by REFERENCE_S / (median probe time nearby), so the
reported times are seconds at a fixed reference speed.  The probe mixes the
kinds of work magflows does per step: small numpy arrays, small
``numpy.linalg`` calls, scalar math, Python loops and float formatting.  It
never calls magflows, so a change to the program cannot change the probe.
"""

from __future__ import annotations

import math
import time

import numpy as np

# probe time of one calibration point at the reference speed (chosen so the
# scaled times read close to the wall times on an unloaded 2.1 GHz Xeon core)
REFERENCE_S = 0.015


def _field_rhs(state, metric):
    x, y, p1, p2 = state
    lam = 1.5 + 0.5 * math.cos(x) * math.sin(y)
    g = metric * lam
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    w = ginv @ np.array([p1, p2])
    omega = 0.7 * math.cos(x - y)
    return np.array([w[0], w[1], 0.1 * p1 + omega * w[1], 0.1 * p2 - omega * w[0]])


def _agm(m):
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(40):
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def probe_work() -> float:
    """The fixed work of one calibration point; returns a checksum."""
    metric = np.array([[1.0, 0.2], [0.2, 1.3]])
    y = np.array([0.3, -0.2, 0.5, 0.4])
    h = 0.01
    rows = []
    for step in range(200):
        k1 = _field_rhs(y, metric)
        k2 = _field_rhs(y + 0.5 * h * k1, metric)
        k3 = _field_rhs(y + 0.5 * h * k2, metric)
        k4 = _field_rhs(y + h * k3, metric)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(",".join(format(float(v), ".17g") for v in y))
    total = sum(_agm(-0.01 * i) for i in range(700))
    for i in range(150):
        g = metric * (1.0 + 0.01 * i)
        total += float(np.linalg.cholesky(g)[1, 1]) + float(np.linalg.svd(g, compute_uv=False)[0])
        total += float(np.linalg.det(np.eye(3) + 0.001 * i))
    return float(y[0]) + total + len(rows)


def probe(clock=time.perf_counter) -> float:
    """Wall time of one calibration point."""
    t0 = clock()
    probe_work()
    return clock() - t0
