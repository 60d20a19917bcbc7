"""Order statistics shared by the runner, the worker and the tests."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    A weighted mean of all order statistics; the i-th smallest of n values
    weighs I((i)/n) - I((i-1)/n), with I the regularized incomplete beta
    function of parameters (n+1) q and (n+1) (1-q).  On few or unlike
    values it moves less with noise than a single order statistic does.
    """
    from scipy.special import betainc

    if not values:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level {q} outside (0, 1)")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], ordered))
