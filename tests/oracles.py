"""The tests' oracles: code that only the tests call, each a reference
that the package's own route is checked against.

``pde41_residual_fd`` takes the derivatives of U = (Lambda, u0, f, g) by
O(h^2) central differences of sampled fields and forms the system's rows
from its own transcription; ``solve_fields`` computes the same residual
exactly, and ``omega_fd`` its Omega = (g_x - f_y)/4 by
``richardson_gradient``.  ``convergence_order`` fits the decay of a conserved
scalar's drift over fixed-step runs.  ``ex3_pullback_integral`` is the
curved system's quadratic integral pulled back by ``numpy.linalg.solve``
through the hodograph map's Jacobian, and ``complex_step_gradient`` gives
its gradient by complex step; ``ex3_transcribed_integral`` and
``ex3_quartics`` are the hand-expanded transcriptions of ex3's integral on
the level and of its metric and S, that the pull-back and the frame form
replaced.  The oracles read only public
names of :mod:`magflows.hodograph`.
``hamiltonian_gradient_formula`` is dH written out from a chart point's
local geometry, which ``hamiltonian_gradient`` must equal (==) though it
reads dH back from the X_H kernel;
``vector_field`` is the magnetic field X_G of a phase function G from its
gradient, which ``hamiltonian_flow`` must equal bit for bit for G = H, and
``magnetic_bracket_pair`` the bracket {F, G} = dF(X_G) at one phase, which
every bracket-scan sample must equal bit for bit (divided by 1 + F^2 for a
rational integral); ``larmor_orbit`` is ex1's exact
trajectory; ``pde511_residual`` and ``condition_D`` evaluate the generating
equation's residual and D at one chart point, through the helpers that the
profile screen calls; ``ex5_level_momenta`` and ``ex6_level_momenta``
(``LEVEL_MOMENTA`` by name) give closed-form momenta on the level
{H = 1/2} of ex5 and ex6; ``radial_third`` is each family's R''' written
out by hand, which the jet derives from the generating equation instead;
and ``chart_to_xy`` with ``xy_to_chart_logradial`` is the chart-to-plane
map of the rational families.  Exact derivatives elsewhere are checked
against ``richardson.py``.
"""

import math
from typing import Callable, Sequence

import mpmath
import numpy as np

from magflows.catalog import get_example
from magflows.errors import DomainError, StepFailure
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import MagneticSystem, chart_columns
from magflows.hodograph import (
    FieldPoint,
    HodographConstants,
    algebraic_jacobian,
    reconstruct_fields,
)
from magflows.integrals import _pairing
from magflows.rational import ZSolution, _discriminant, _residual
from richardson import richardson_gradient

Sampler = Callable[[float, float], FieldPoint]


def _uvec(pt: FieldPoint) -> np.ndarray:
    return np.array([pt.lam, pt.u0, pt.f, pt.g])


def _first_order_rows(lam, f, g, ux, uy) -> tuple:
    """The four rows of A U_x + B U_y, U = (Lambda, u0, f, g), transcribed
    apart from the package's ``solve_fields``."""
    return (
        ux[2] + uy[3],
        f * ux[0] + lam * ux[2] - g * uy[0] - lam * uy[3],
        2.0 * ux[0] + ux[1] + 0.5 * g * ux[3] - 0.5 * g * uy[2],
        -0.5 * f * ux[3] + 2.0 * uy[0] - uy[1] + 0.5 * f * uy[2],
    )


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
    return np.array(_first_order_rows(u0[0], u0[2], u0[3], ux, uy))


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


def ex3_transcribed_integral(state):
    """ex3's first integral as first transcribed, (a11 p1^2 + a12 p1 p2 +
    a22 p2^2 + b1 p1 + b2 p2 + cc) / S^2 from the polynomials m = xy - 3y,
    q = x^2 - 6x + 3y^2, w = (3x - 8)(x - 6) + y^2 and S = q w - 4 m^2, with
    hand-expanded cubics u, v and e in b1 = 2 S u, b2 = S v and
    cc = S^2 e.  On the level {H = 1/2} it is twice the pull-back of
    :func:`ex3_pullback_terms`: it equals 2 F + 4 k (H - 1/2) at every
    phase, k = -r/2, r = x^2 - 8x + y^2."""
    x, y, p1, p2 = state
    m = x * y - 3.0 * y
    w = (3.0 * x - 8.0) * (x - 6.0) + y * y
    s = (x * x - 6.0 * x + 3.0 * y * y) * w - 4.0 * m * m
    a11 = 16.0 * m * m
    a22 = 4.0 * w * w
    a12 = -16.0 * m * w
    b1 = 2.0 * s * (x * x * y - y * y * (3.0 * y))
    b2 = s * (-2.0 * (x - 6.0) * (3.0 * x * x - y * y - 8.0 * x))
    cc = s * s * (x * x + y * y - 4.0 * x)
    return (a11 * p1 * p1 + a12 * p1 * p2 + a22 * p2 * p2 + b1 * p1 + b2 * p2 + cc) / (s * s)


# the hodograph constants of ex3's chart
EX3_CONSTANTS = HodographConstants(1.0, 0.0, 0.0, 0.0, 0.0, 2.0)


def ex3_pullback_terms(state) -> tuple:
    """The terms (p1^2, -p2^2, f p1, -g p2, u0/2) of the flat chart's
    integral p1^2 - p2^2 + f p1 - g p2 + u0/2 at a phase (f, g, P1, P2) of
    ex3's hodograph chart, of floats or complex numbers: M = d(x, y)/d(f, g)
    from ``algebraic_jacobian`` at ``EX3_CONSTANTS``, the flat momenta p
    from M^T p = P by ``numpy.linalg.solve``, and u0 from
    ``reconstruct_fields``.  Their sum is ex3's integral F."""
    f, g, p1, p2 = state
    (j11, j12), (j21, j22) = algebraic_jacobian(EX3_CONSTANTS, 0.0, 0.0, f, g)
    jac = -np.array([[j21, j22], [j11, j12]]) / (2.0 * EX3_CONSTANTS.zeta)
    q1, q2 = np.linalg.solve(jac.T, np.array([p1, p2]))
    u0 = reconstruct_fields(EX3_CONSTANTS, f, g)[1]
    return q1 * q1, -q2 * q2, f * q1, -g * q2, 0.5 * u0


def ex3_pullback_integral(state):
    """ex3's integral F, the sum of :func:`ex3_pullback_terms`."""
    return sum(ex3_pullback_terms(state))


def ex3_quartics(x: float, y: float) -> tuple:
    """ex3's metric as hand-expanded quartics, the transcription that its
    frame form replaced: ((g11, g12, g22), their partials, S, (S_x, S_y)),
    with G = ((-r/2) t1, -4 r m n, (-r/2) t2), n = (x - 6)(x - 2) + y^2
    and S and every partial expanded and differentiated by hand."""
    r, m, n = x * x - 8.0 * x + y * y, x * y - 3.0 * y, (x - 6.0) * (x - 2.0) + y * y
    t1 = (9.0 * x ** 4 + 10.0 * x * x * y * y + y ** 4 - 156.0 * x ** 3 - 76.0 * x * y * y
          + 964.0 * x * x + 132.0 * y * y - 2496.0 * x + 2304.0)
    t1x = 36.0 * x ** 3 + 20.0 * x * y * y - 468.0 * x * x - 76.0 * y * y + 1928.0 * x - 2496.0
    t1y = 20.0 * x * x * y + 4.0 * y ** 3 - 152.0 * x * y + 264.0 * y
    t2 = (x ** 4 - 12.0 * x ** 3 - 4.0 * x * (3.0 * y) * (5.0 * y) + 2.0 * x * x * (5.0 * y * y + 18.0)
          + (3.0 * y) ** 2 * (4.0 + y ** 2))
    t2x = 4.0 * x ** 3 - 36.0 * x * x - 4.0 * (3.0 * y) * (5.0 * y) + 4.0 * x * (5.0 * y * y + 18.0)
    t2y = (-4.0 * x * (30.0 * y) + 2.0 * x * x * (10.0 * y) + 6.0 * (3.0 * y) * (4.0 + y ** 2)
           + 2.0 * (3.0 * y) ** 2 * y)
    s = (3.0 * x ** 4 - 44.0 * x ** 3 + 6.0 * x * x * (y * y + 34.0) - 12.0 * x * (5.0 * y * y + 24.0)
         + 3.0 * y * (y ** 3 + 36.0 * y))
    sx = 12.0 * x ** 3 - 132.0 * x * x + 12.0 * x * (y * y + 34.0) - 12.0 * (5.0 * y * y + 24.0)
    sy = 12.0 * x * x * y - 120.0 * x * y + 12.0 * y ** 3 + 216.0 * y
    # r and n differ by a constant, so they share one gradient
    rx, ry, mx, my = 2.0 * x - 8.0, 2.0 * y, y, x - 3.0
    partials = tuple((-0.5 * (rk * t1 + r * t1k), -4.0 * (rk * m * n + r * mk * n + r * m * rk),
                      -0.5 * (rk * t2 + r * t2k))
                     for rk, mk, t1k, t2k in ((rx, mx, t1x, t2x), (ry, my, t1y, t2y)))
    return (-0.5 * r * t1, -4.0 * r * m * n, -0.5 * r * t2), partials, s, (sx, sy)


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


def hamiltonian_gradient_formula(local, p1, p2) -> tuple:
    """(H_x, H_y, H_p1, H_p2) composed from a chart point's local geometry
    (G^{-1}, dG, Omega): w = G^{-1} p and H_k = -(1/2) w^T (dG/dq_k) w."""
    (i11, i12, i22), dg, _ = local
    w1, w2 = i11 * p1 + i12 * p2, i12 * p1 + i22 * p2
    (e_x, f_x, g_x), (e_y, f_y, g_y) = dg
    h_x = -0.5 * (e_x * w1 * w1 + 2.0 * f_x * w1 * w2 + g_x * w2 * w2)
    h_y = -0.5 * (e_y * w1 * w1 + 2.0 * f_y * w1 * w2 + g_y * w2 * w2)
    return h_x, h_y, w1, w2


def vector_field(system: MagneticSystem, x: float, y: float, grad, local=None) -> list:
    """Magnetic Hamiltonian vector field X_G at (x, y) of a function G with
    phase gradient ``grad`` = (G_x, G_y, G_p1, G_p2):
    X_G = (G_p1, G_p2, -G_x + Omega G_p2, -G_y - Omega G_p1).

    Omega is read from ``local`` (as in ``hamiltonian_gradient``) when
    given.  Returns the list of the four components: floats for one
    gradient of floats, arrays of n values when the gradient's components
    are arrays of n values at the same chart point, and (P, n) arrays at
    chart columns."""
    g_x, g_y, g_p1, g_p2 = grad
    omega = chart_columns(system.field, x, y) if local is None else local[2]
    return [g_p1, g_p2, -g_x + omega * g_p2, -g_y - omega * g_p1]


def magnetic_bracket_pair(system: MagneticSystem, f_int, g_int, phase) -> float:
    """Magnetic bracket {F, G} = dF(X_G) of two integrals; {F, H} when
    ``g_int`` is :func:`hamiltonian_integral`."""
    system.require_inside(phase[0], phase[1])
    state = np.asarray(phase, dtype=float)
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
    """Residual rho (rho + 1) Z_rr + rho Z_r + Z_pp of the generating
    equation at one chart point; ``scaled`` divides it as the profile
    screen does."""
    jet = z.jet(rho, psi)
    if scaled:
        return _residual(rho, jet)
    _, z_r, _, z_rr, _, z_pp = jet[:6]
    return rho * (rho + 1.0) * z_rr + rho * z_r + z_pp


def condition_D(z: ZSolution, rho: float, psi: float) -> float:
    """Discriminant whose zeros must be excluded from a working domain;
    the jet raises DomainError at rho = 0."""
    return _discriminant(rho, z.jet(rho, psi))[0]


def chart_to_xy(z: ZSolution, rho: float, psi: float) -> tuple[float, float]:
    """Plane coordinates of a chart point:

    x = -Z_r cos(psi) + (Z_p / rho) sin(psi),
    y =  Z_r sin(psi) + (Z_p / rho) cos(psi),

    DomainError at rho = 0, where the jet refuses.
    """
    _, z_r, z_p = z.jet(rho, psi)[:3]
    cp, sp = math.cos(psi), math.sin(psi)
    x = -z_r * cp + (z_p / rho) * sp
    y = z_r * sp + (z_p / rho) * cp
    return x, y


# the gamma of the ex5 and ex6 catalog entries
_EX56_GAMMA = 1.0


def ex5_level_momenta(rho: float, psi: float, phi: float) -> tuple[float, float]:
    """ex5's momenta (p_r, p_p) on {H = 1/2} at a chart point, in closed
    form with the angle phi as parameter."""
    g2 = _EX56_GAMMA * _EX56_GAMMA
    s = math.sqrt(g2 * (1.0 + rho))
    p_r = -2.0 * s * math.cos(phi - psi)
    p_p = -s * (math.sin(phi + 3.0 * psi) + (1.0 + 2.0 * rho) * math.sin(phi - psi))
    return p_r, p_p


def ex6_level_momenta(rho: float, psi: float, phi: float) -> tuple[float, float]:
    """ex6's momenta (p_r, p_p) on {H = 1/2} at a chart point, in closed
    form with the angle phi as parameter."""
    gamma = _EX56_GAMMA
    p_r = gamma * (
        -math.cos(phi) + (1.0 + 2.0 * rho) * math.cos(phi + 2.0 * psi)
    ) / (2.0 * rho * rho * (1.0 + rho) ** 1.5)
    p_p = gamma * math.sin(phi + 2.0 * psi) / (rho * math.sqrt(1.0 + rho))
    return p_r, p_p


LEVEL_MOMENTA = {"ex5": ex5_level_momenta, "ex6": ex6_level_momenta}


def radial_third(z: ZSolution, rho: float) -> float:
    """R'''(rho) of a family's profile written out by hand: the poly-cos
    sum differentiated term by term, 2 / (1 + rho)^3 for log-radial,
    (3 rho + 1) / (rho^2 (rho + 1)^3) for log-nu1, and for elliptic-half
    the third derivative of (4/pi) (E(-rho) - K(-rho)) by mpmath at 40
    digits."""
    if z.family == "poly-cos":
        p3 = 0.0
        for j in range(z.k, 2, -1):
            p3 += z.coeffs[j - 1] * j * (j - 1) * (j - 2) * rho ** (j - 3)
        return p3
    if z.family == "log-radial":
        return 2.0 / (1.0 + rho) ** 3
    if z.family == "log-nu1":
        return (3.0 * rho + 1.0) / (rho * rho * (rho + 1.0) ** 3)
    with mpmath.workdps(40):
        def profile(r):
            return 4 / mpmath.pi * (mpmath.ellipe(-r) - mpmath.ellipk(-r))
        return float(mpmath.diff(profile, mpmath.mpf(rho), 3))


def xy_to_chart_logradial(x: float, y: float) -> tuple[float, float]:
    """Closed-form inverse of the chart map for the log-radial profile."""
    r = math.hypot(x, y)
    if r == 0.0:
        raise DomainError("the inverse chart map is singular at the origin")
    rho = 1.0 / r - 1.0
    psi = math.atan2(y, -x)
    return rho, psi
