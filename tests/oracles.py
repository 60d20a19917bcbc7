"""The tests' difference oracles for the first-order field system and for
the fixed-step order of the integrator.

``pde41_residual_fd`` takes the derivatives of U = (Lambda, u0, f, g) by
O(h^2) central differences of sampled fields; ``solve_fields`` computes the
same residual exactly, and ``omega_fd`` its Omega = (g_x - f_y)/4 by
``richardson_gradient``.  ``convergence_order`` fits the decay of a conserved
scalar's drift over fixed-step runs.  Exact derivatives elsewhere are
checked against ``richardson.py``.
"""

from typing import Callable, Sequence

import numpy as np

from magflows.errors import StepFailure
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import MagneticSystem
from magflows.hodograph import FieldPoint, _system_residual
from richardson import richardson_gradient

Sampler = Callable[[float, float], FieldPoint]


def _uvec(pt: FieldPoint) -> np.ndarray:
    return np.array([pt.lam, pt.u0, pt.f, pt.g])


def pde41_residual_fd(sampler: Sampler, x: float, y: float, h: float = 1e-4) -> np.ndarray:
    """Residual of the governing first-order system at one point.

    ``sampler`` maps a chart point to a FieldPoint; derivatives of
    U = (Lambda, u0, f, g) are O(h^2) central differences, so on an exact
    solution the residual decreases as h^2.
    """
    if not h > 0.0:
        raise ValueError(f"difference step must be positive, got {h}")
    u0 = _uvec(sampler(x, y))
    ux = (_uvec(sampler(x + h, y)) - _uvec(sampler(x - h, y))) / (2.0 * h)
    uy = (_uvec(sampler(x, y + h)) - _uvec(sampler(x, y - h))) / (2.0 * h)
    return np.array(_system_residual(u0[0], u0[2], u0[3], ux, uy))


def omega_fd(sampler: Sampler, x: float, y: float, h: float = 1e-3) -> float:
    """Omega = (g_x - f_y)/4 from Richardson differences of the sampled
    (f, g)."""
    def fg(q):
        point = sampler(q[0], q[1])
        return point.f, point.g

    (_, g_x), (f_y, _) = richardson_gradient(fg, (x, y), h)
    return 0.25 * (g_x - f_y)


def convergence_order(
    system: MagneticSystem,
    phase0,
    scalar: Callable,
    steps: Sequence[float],
    t_end: float = 10.0,
) -> float:
    """Observed order of fixed-step drift decay for a conserved scalar.

    Integrates with the fixed-step scheme at each step size, measures the
    maximum drift of ``scalar`` and returns the least-squares slope of
    log(drift) against log(step).  Returns ``nan`` when the regression is
    degenerate: a drift at the round-off floor (an exactly conserved
    scalar) carries no order information.
    """
    steps = list(steps)
    if len(steps) < 3:
        raise ValueError("need at least 3 step sizes")
    drifts = []
    for h in steps:
        config = TrajectoryConfig(t_end=t_end, method="fixed_rk4", step=float(h))
        traj = integrate(system, phase0, config)
        if traj.domain_exit:
            raise StepFailure(f"orbit left the domain at step size {h}")
        drifts.append(conservation_drift(system, traj, scalar).max_abs_drift)
    drifts = np.asarray(drifts)
    if np.any(drifts < 1e-14):
        return float("nan")
    slope = np.polyfit(np.log(np.asarray(steps, dtype=float)), np.log(drifts), 1)[0]
    return float(slope)
