"""The tests' oracles: code that only the tests call, each a reference
that the package's own route is checked against.

``pde41_residual_fd`` takes the derivatives of U = (Lambda, u0, f, g) by
O(h^2) central differences of sampled fields; ``solve_fields`` computes the
same residual exactly, and ``omega_fd`` its Omega = (g_x - f_y)/4 by
``richardson_gradient``.  ``convergence_order`` fits the decay of a conserved
scalar's drift over fixed-step runs.  ``ex3_integral`` transcribes the
curved system's quadratic integral, and ``complex_step_gradient`` gives its
gradient by complex step.  ``magnetic_bracket_pair`` is the bracket at one
phase, which every bracket-scan sample must equal bit for bit;
``larmor_orbit`` is ex1's exact trajectory; ``pde511_residual`` and
``condition_D`` evaluate the generating equation's residual and D at one
chart point, through the helpers that the profile screen calls; and
``chart_to_xy`` with ``xy_to_chart_logradial`` is the chart-to-plane map of
the rational families.  Exact derivatives elsewhere are checked against
``richardson.py``.
"""

import math
from typing import Callable, Sequence

import numpy as np

from magflows.catalog import get_example
from magflows.errors import DomainError, StepFailure
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import MagneticSystem, vector_field
from magflows.hodograph import FieldPoint, _poly_m, _poly_s, _poly_w, _system_residual
from magflows.integrals import _guarded, _pairing
from magflows.rational import ZSolution, _discriminant, _residual
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


# step h of the complex-step gradient
COMPLEX_STEP = 1e-20


def ex3_integral(state):
    """ex3's quadratic integral F = (a11 p1^2 + a12 p1 p2 + a22 p2^2 + b1 p1
    + b2 p2 + cc) / S^2, transcribed from its polynomials at one phase of
    floats or complex numbers, in the package's operation order."""
    x, y, p1, p2 = state
    s = _poly_s(x, y)
    m = _poly_m(x, y)
    w = _poly_w(x, y)
    a11 = 16.0 * m * m
    a22 = 4.0 * w * w
    a12 = -16.0 * m * w
    b1 = 2.0 * s * (x * x * y - y * y * (3.0 * y))
    b2 = s * (-2.0 * (x - 6.0) * (3.0 * x * x - y * y - 8.0 * x))
    cc = s * s * (x * x + y * y - 4.0 * x)
    return (a11 * p1 * p1 + a12 * p1 * p2 + a22 * p2 * p2 + b1 * p1 + b2 * p2 + cc) / (s * s)


def complex_step_gradient(fn: Callable, phase) -> np.ndarray:
    """The gradient of a real-analytic ``fn`` at a phase by complex step
    (Squire & Trapp 1998): row k is Im fn(phase + i h e_k) / h, free of the
    cancellation of a difference quotient, so exact to round-off."""
    phase = [complex(v) for v in phase]
    rows = []
    for k in range(len(phase)):
        probe = list(phase)
        probe[k] += 1j * COMPLEX_STEP
        rows.append(fn(probe).imag / COMPLEX_STEP)
    return np.array(rows)


def magnetic_bracket_pair(system: MagneticSystem, f_int, g_int, phase) -> float:
    """Magnetic bracket {F, G} = dF(X_G) of two integrals; {F, H} when
    ``g_int`` is :func:`hamiltonian_integral`."""
    system.require_inside(phase[0], phase[1])
    state = _guarded((f_int, g_int), phase)
    x_g = vector_field(system, state[0], state[1], g_int.grad(state))
    return float(_pairing(f_int.grad(state), x_g))


# ex1's uniform field
_EX1_B = get_example("ex1").system.field(0.0, 0.0)


def larmor_orbit(phase0, t: float) -> np.ndarray:
    """Exact trajectory of ex1, the flat system with uniform field b.

    Momenta rotate with angular velocity -b; positions integrate them.
    Serves as the reference solution in integrator convergence checks.
    """
    b = _EX1_B
    x0, y0, p10, p20 = (float(v) for v in phase0)
    cb, sb = math.cos(b * t), math.sin(b * t)
    p1 = p10 * cb + p20 * sb
    p2 = -p10 * sb + p20 * cb
    x = x0 + (p10 * sb + p20 * (1.0 - cb)) / b
    y = y0 + (-p10 * (1.0 - cb) + p20 * sb) / b
    return np.array([x, y, p1, p2])


def pde511_residual(z: ZSolution, rho: float, psi: float, scaled: bool = False) -> float:
    """Residual of the generating equation at one chart point; ``scaled``
    as in the profile screen."""
    return _residual(rho, z.jet(rho, psi), scaled)


def condition_D(z: ZSolution, rho: float, psi: float) -> float:
    """Discriminant whose zeros must be excluded from a working domain."""
    if rho == 0.0:
        raise DomainError("the discriminant is undefined at rho = 0")
    return _discriminant(rho, z.jet(rho, psi))[0]


def chart_to_xy(z: ZSolution, rho: float, psi: float) -> tuple[float, float]:
    """Plane coordinates of a chart point:

    x = -Z_r cos(psi) + (Z_p / rho) sin(psi),
    y =  Z_r sin(psi) + (Z_p / rho) cos(psi).
    """
    if rho == 0.0:
        raise DomainError("the chart map degenerates at rho = 0")
    _, z_r, z_p = z.jet(rho, psi)[:3]
    cp, sp = math.cos(psi), math.sin(psi)
    x = -z_r * cp + (z_p / rho) * sp
    y = z_r * sp + (z_p / rho) * cp
    return x, y


def xy_to_chart_logradial(x: float, y: float) -> tuple[float, float]:
    """Closed-form inverse of the chart map for the log-radial profile."""
    r = math.hypot(x, y)
    if r == 0.0:
        raise DomainError("the inverse chart map is singular at the origin")
    rho = 1.0 / r - 1.0
    psi = math.atan2(y, -x)
    return rho, psi
