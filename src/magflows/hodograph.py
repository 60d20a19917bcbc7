"""Quadratic-integral construction: algebraic system, Newton continuation,
field reconstruction and the assembled curved example.

A conformal metric Lambda(x,y)(dx^2+dy^2) with a magnetic field and a
quadratic first integral is determined by two auxiliary fields f(x,y),
g(x,y) satisfying a pair of pointwise polynomial relations parametrized by
six constants (alpha, beta, gamma, delta, epsilon, zeta), zeta != 0.  From
a solution, the conformal factor and the potential constant follow
algebraically and the magnetic field is Omega = (g_x - f_y)/4.

At alpha = beta = 0 the system has a closed-form solution (real cube-root
branch), which both seeds the continuation to nonzero alpha, beta and
serves as an exact oracle for the solver.  The continuation follows that
branch along (a, b) = (t alpha, t beta), t from 0 to 1, handing t (1 by
default) to the residual, the Jacobian and the Newton solve; a fold is a
SingularPoint, and the corrector ends with one full polishing step.  The
derivatives of the fields, and so Omega and the first-order system
residual, come exactly from the Jacobian at the solution by the implicit
function theorem.  The per-point algebra runs on Python floats, with a
closed-form 2x2 solve and closed-form singular values for the Jacobian's
conditioning.

The module also assembles the curved quadratic-integral system at the
constants (1, 0, 0, 0, 0, 2), in the hodograph chart (X, Y) = (f, g): R is
linear in (x, y), so the map (f, g) -> (x, y) is polynomial with Jacobian
M = -(1/(2 zeta)) ((j21, j22), (j11, j12)).  The metric is the pull-back
Lambda M^T M of Lambda (dx^2 + dy^2), a frame chart that
``geometry._frame_system`` builds as it builds each rational bundle, and
the integral the pull-back through p = M^{-T} P of the flat chart's
p1^2 - p2^2 + f p1 - g p2 + u0/2, valid on the energy level {H = 1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    NoConvergence,
    SingularJacobian,
    SingularPoint,
)
from .geometry import ChartDomain, MagneticSystem, _frame_system
from .integrals import FirstIntegral, ratio_integral

__all__ = [
    "HodographConstants",
    "FieldPoint",
    "NewtonResult",
    "algebraic_residual",
    "algebraic_jacobian",
    "newton_solve",
    "continued_solve",
    "solve_fields",
    "reconstruct_fields",
    "closed_form_abzero",
    "example3_system",
    "EXAMPLE3_BBOX",
]


@dataclass(frozen=True)
class HodographConstants:
    """The six constants of the quadratic-integral algebraic system."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    epsilon: float = 0.0
    zeta: float = 2.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.zeta == 0.0:
            raise DomainError("zeta = 0 admits only trivial solutions")
        # the closed-form seed's f^3 and Lambda scale like 1/zeta and overflow with it
        if not math.isfinite(1.0 / self.zeta):
            raise DomainError(f"zeta must have a finite reciprocal, got {self.zeta}")


@dataclass(frozen=True)
class FieldPoint:
    """Field values (f, g, Lambda, u0) at one chart point."""

    f: float
    g: float
    lam: float
    u0: float


class NewtonResult(NamedTuple):
    f: float
    g: float
    iterations: int
    residual_inf: float
    jacobian_cond: float
    residual: tuple


def algebraic_residual(k: HodographConstants, x, y, f, g, t: float = 1.0):
    """The two polynomial relations tying (f, g) to the chart point, at
    (a, b) = (t alpha, t beta) on the continuation path.

    Returns (R1, R2); a solution satisfies R1 = R2 = 0.
    """
    a, b, z = t * k.alpha, t * k.beta, k.zeta
    z2 = z * z
    r1 = (
        -z2 * f * g * g
        - 12.0 * b * z * f * g
        - z2 * f ** 3
        + 26.0 * a * z * f * f
        - 192.0 * a * a * f
        + 6.0 * a * z * g * g
        + 64.0 * a * b * g
        - 32.0 * a * k.epsilon
        + k.gamma * z
        + 2.0 * z * y
    )
    r2 = (
        z2 * f * f * g
        - 12.0 * a * z * f * g
        + z2 * g ** 3
        + 26.0 * b * z * g * g
        + 192.0 * b * b * g
        + 6.0 * b * z * f * f
        - 64.0 * a * b * f
        + 32.0 * b * k.epsilon
        + k.delta * z
        + 2.0 * z * x
    )
    return r1, r2


def algebraic_jacobian(k: HodographConstants, x, y, f, g, t: float = 1.0):
    """Analytic Jacobian d(R1,R2)/d(f,g) at (a, b) = (t alpha, t beta) as
    the float rows ((j11, j12), (j21, j22)); independent of (x, y)."""
    a, b, z = t * k.alpha, t * k.beta, k.zeta
    z2 = z * z
    j11 = -z2 * g * g - 12.0 * b * z * g - 3.0 * z2 * f * f + 52.0 * a * z * f - 192.0 * a * a
    j12 = -2.0 * z2 * f * g - 12.0 * b * z * f + 12.0 * a * z * g + 64.0 * a * b
    j21 = 2.0 * z2 * f * g - 12.0 * a * z * g + 12.0 * b * z * f - 64.0 * a * b
    j22 = z2 * f * f - 12.0 * a * z * f + 3.0 * z2 * g * g + 52.0 * b * z * g + 192.0 * b * b
    return (j11, j12), (j21, j22)


def _solve2(jac, b1: float, b2: float) -> tuple[float, float, float]:
    """(J^{-1} (b1, b2), det J) by Cramer's rule; SingularJacobian where
    det J = 0."""
    (j11, j12), (j21, j22) = jac
    det = j11 * j22 - j12 * j21
    if det == 0.0:
        raise SingularJacobian(f"singular Jacobian {jac}")
    return (j22 * b1 - j12 * b2) / det, (j11 * b2 - j21 * b1) / det, det


def _singular_values(jac) -> tuple[float, float]:
    """Singular values s0 >= s1 of the rows ((a, b), (c, d)) in closed form:
    s0 = sqrt((|J|_F^2 + sqrt(|J|_F^4 - 4 det^2)) / 2) = (hypot(a + d, b - c)
    + hypot(a - d, b + c)) / 2 and s1 = |det| / s0 (0 where s0 is 0 or NaN)."""
    (a, b), (c, d) = jac
    s0 = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    return s0, abs(a * d - b * c) / s0 if s0 > 0.0 else 0.0


def _sup_norm(values) -> float:
    """max |v| over floats, NaN when any is NaN (a bare ``max`` keeps a NaN
    only when it comes first)."""
    sizes = [abs(v) for v in values]
    return math.nan if any(s != s for s in sizes) else max(sizes)


def newton_solve(
    k: HodographConstants,
    x: float,
    y: float,
    guess,
    tol: float = 1e-12,
    t: float = 1.0,
) -> NewtonResult:
    """Damped Newton iteration on the algebraic system at one point and
    continuation parameter t, on Python floats.  Steps are halved (up to 30
    times) until max |R| (NaN when R has a NaN) decreases; after 50 steps
    NoConvergence is raised.
    Once max |R| <= tol, which can leave f and g off by about 1e-12
    relative, one full step with the Jacobian at the root polishes it and
    is kept when max |R| does not grow.  ``iterations`` counts the steps
    before the polish, ``residual`` is (R1, R2) at the root and
    ``jacobian_cond`` = s0 / s1 its condition number, from the closed-form
    singular values s0 >= s1 of J; SingularJacobian is raised where s1 <=
    1e-14 max(s0, 1) or J is not finite.
    """
    f, g = float(guess[0]), float(guess[1])
    r = algebraic_residual(k, x, y, f, g, t)
    rnorm = _sup_norm(r)
    for it in range(51):
        jac = algebraic_jacobian(k, x, y, f, g, t)
        s0, s1 = _singular_values(jac)
        if not s1 > 1e-14 * max(s0, 1.0):
            raise SingularJacobian(f"singular Jacobian at ({x}, {y}), f = {f}, g = {g}: "
                                   f"singular values {[s0, s1]}")
        cond = s0 / s1
        df, dg, _ = _solve2(jac, -r[0], -r[1])
        if rnorm <= tol:
            fp, gp = f + df, g + dg
            rp = algebraic_residual(k, x, y, fp, gp, t)
            pnorm = _sup_norm(rp)
            if pnorm <= rnorm:
                return NewtonResult(fp, gp, it, pnorm, cond, rp)
            return NewtonResult(f, g, it, rnorm, cond, r)
        lam = 1.0
        for _ in range(30):
            ft, gt = f + lam * df, g + lam * dg
            rt = algebraic_residual(k, x, y, ft, gt, t)
            rtn = _sup_norm(rt)
            if rtn < rnorm:
                f, g, r, rnorm = ft, gt, rt, rtn
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at ({x}, {y}) with residual {rnorm}"
            )
    raise NoConvergence(
        f"no convergence after 50 iterations at ({x}, {y}); "
        f"residual {rnorm}"
    )


def continued_solve(k: HodographConstants, x: float, y: float) -> NewtonResult:
    """Follow the branch of the closed form along (a, b) = (t alpha, t beta),
    t from 0 to 1 (Allgower & Georg, ch. 2), with no constants built on the
    way: Euler predictor along -J^{-1} dR/dt, exact as (R(t+1) - R(t-1))/2
    since R is quadratic in t, and Newton corrector.  A step halves when
    the corrector fails, sign(det J)
    (-1, 0 or 1) leaves its seed value, or the trapezoid rule on the end
    tangents misses the step by over a quarter of its length plus 1e-12 of
    round-off (a jump to another branch); it doubles after at most 3
    iterations.  A step below 1e-4 means the branch folds: SingularPoint.
    """
    def tangent(t, f, g):
        jac = algebraic_jacobian(k, x, y, f, g, t)
        up = algebraic_residual(k, x, y, f, g, t + 1.0)
        down = algebraic_residual(k, x, y, f, g, t - 1.0)
        sf, sg, det = _solve2(jac, -0.5 * (up[0] - down[0]), -0.5 * (up[1] - down[1]))
        return int(det > 0.0) - int(det < 0.0), sf, sg

    (f, g, _), t, h = _cube_root_branch(k, x, y), 0.0, 1.0
    sign, sf, sg = tangent(0.0, f, g)
    while h >= 1e-4:
        t_new = 1.0 if h >= 1.0 - t else t + h
        step = t_new - t
        try:
            result = newton_solve(k, x, y, (f + step * sf, g + step * sg), t=t_new)
            new_sign, nf, ng = tangent(t_new, result.f, result.g)
            df, dg = result.f - f, result.g - g
            miss = math.hypot(df - 0.5 * step * (sf + nf), dg - 0.5 * step * (sg + ng))
            ok = new_sign == sign and miss <= 0.25 * math.hypot(df, dg) + 1e-12
        except (NoConvergence, SingularJacobian):
            ok = False
        if not ok:
            h = 0.5 * step
        elif t_new == 1.0:
            return result
        else:
            t, f, g, sf, sg = t_new, result.f, result.g, nf, ng
            h = 2.0 * step if result.iterations <= 3 else step
    raise SingularPoint(f"the branch of the closed form folds at t = {t:.3g} at ({x}, {y})")


def reconstruct_fields(k: HodographConstants, f: float, g: float) -> tuple[float, float]:
    """Conformal factor and potential constant from a solution (f, g):

    Lambda = (-zeta f^2 - zeta g^2 + 16 alpha f - 16 beta g) / (2 zeta),
    u0 = 4 (2 alpha f + 2 beta g + epsilon) / zeta.
    """
    a, b, z = k.alpha, k.beta, k.zeta
    lam = (-z * f * f - z * g * g + 16.0 * a * f - 16.0 * b * g) / (2.0 * z)
    u0 = 4.0 * (2.0 * a * f + 2.0 * b * g + k.epsilon) / z
    return lam, u0


def closed_form_abzero(k: HodographConstants, x: float, y: float):
    """Exact solution at alpha = beta = 0, plus the magnetic coefficient.

    With s = zeta ((2x+delta)^2 + (2y+gamma)^2) and c its real cube root:

        f = (2y+gamma)/c,   g = -(2x+delta)/c,
        Lambda = -c/(2 zeta),   u0 = 4 epsilon / zeta,
        Omega = -2/(3c).

    Returns (FieldPoint, Omega).
    """
    if k.alpha != 0.0 or k.beta != 0.0:
        raise DomainError("closed form requires alpha = beta = 0")
    f, g, c = _cube_root_branch(k, x, y)
    return FieldPoint(f, g, -c / (2.0 * k.zeta), 4.0 * k.epsilon / k.zeta), -2.0 / (3.0 * c)


def _cube_root_branch(k: HodographConstants, x: float, y: float) -> tuple:
    """(f, g, c) of :func:`closed_form_abzero` from gamma, delta and zeta
    alone: the continuation's seed at t = 0, whatever alpha and beta are."""
    u, v = 2.0 * x + k.delta, 2.0 * y + k.gamma
    s = k.zeta * (u * u + v * v)
    if s == 0.0:
        raise SingularPoint(f"cube-root branch point at ({x}, {y})")
    c = float(np.cbrt(s))
    return v / c, -u / c, c


def _system_residual(lam, f, g, ux, uy):
    """The four rows of A U_x + B U_y of the first-order system
    A U_x + B U_y = 0, U = (Lambda, u0, f, g), from the value of U and its
    partials ``ux``, ``uy``."""
    return (
        ux[2] + uy[3],
        f * ux[0] + lam * ux[2] - g * uy[0] - lam * uy[3],
        2.0 * ux[0] + ux[1] + 0.5 * g * ux[3] - 0.5 * g * uy[2],
        -0.5 * f * ux[3] + 2.0 * uy[0] - uy[1] + 0.5 * f * uy[2],
    )


def solve_fields(k: HodographConstants, x: float, y: float):
    """(FieldPoint, Omega = (g_x - f_y)/4, residual A U_x + B U_y as four
    floats, (R1, R2) of the solve) at one chart point from one continued
    solve.  R depends on (x, y) only through 2 zeta y in R1 and 2 zeta x in R2, so
    d(f, g)/dx = -2 zeta J^{-1} (0, 1) and d(f, g)/dy = -2 zeta J^{-1} (1, 0)
    exactly; (Lambda, u0) follow by the chain rule.
    """
    f, g, *_, r = continued_solve(k, x, y)
    lam, u0 = reconstruct_fields(k, f, g)
    jac = algebraic_jacobian(k, x, y, f, g)
    fx, gx, _ = _solve2(jac, 0.0, -2.0 * k.zeta)
    fy, gy, _ = _solve2(jac, -2.0 * k.zeta, 0.0)
    a8, b8 = 8.0 * k.alpha / k.zeta, 8.0 * k.beta / k.zeta
    ux = ((-f + a8) * fx + (-g - b8) * gx, a8 * fx + b8 * gx, fx, gx)
    uy = ((-f + a8) * fy + (-g - b8) * gy, a8 * fy + b8 * gy, fy, gy)
    return FieldPoint(f, g, lam, u0), 0.25 * (gx - fy), _system_residual(lam, f, g, ux, uy), r


# ---------------------------------------------------------------------------
# Curved quadratic-integral system in the transformed chart (X, Y)
# ---------------------------------------------------------------------------

# Working rectangle of the curved system at alpha = 1, beta = 0.  On it
# r <= -14.48 and |S| >= 14.03 (801 x 801 grid), so the metric (-r/2) M^T M
# is positive definite and the integral's S^2 stays far from 0 everywhere:
# the domain is the box itself.  The test suite pins r <= -10 and |S| >= 10.
EXAMPLE3_BBOX = (3.0, 5.0, -0.72, 0.72)


def _ex3_frame(x, y):
    """(k, M, dk, dM, Omega) of the curved system at a chart point: k = -r/2
    with r = x^2 - 8x + y^2, the frame M row by row as (-2m, -q, w, 2m) with
    m = xy - 3y, q = x^2 - 6x + 3y^2 and w = (3x - 8)(x - 6) + y^2, so
    G = k M^T M, their linear chart partials dk = (k_x, k_y) and dM =
    (M_x, M_y), and the field Omega = -(r + 12).  M is the hodograph map's
    Jacobian -(1/(2 zeta)) ((j21, j22), (j11, j12)) and k its Lambda at
    (1, 0, 0, 0, 0, 2), (f, g) = (x, y)."""
    m, r = x * y - 3.0 * y, x * x - 8.0 * x + y * y
    q, w = x * x - 6.0 * x + 3.0 * y * y, (3.0 * x - 8.0) * (x - 6.0) + y * y
    return (-0.5 * r, (-2.0 * m, -q, w, 2.0 * m), (4.0 - x, -y),
            ((-2.0 * y, 6.0 - 2.0 * x, 6.0 * x - 26.0, 2.0 * y),
             (6.0 - 2.0 * x, -6.0 * y, 2.0 * y, 2.0 * x - 6.0)), -(r + 12.0))


def _pullback_parts(m, dm, f, g, u0, du0) -> tuple:
    """The chart data, as :func:`magflows.integrals.ratio_integral` takes
    it, of the flat chart's integral p1^2 - p2^2 + f p1 - g p2 + u0/2 in a
    hodograph chart, whose coordinates are (f, g).  Its momenta P pull it
    back through p = M^{-T} P, M = d(x, y)/d(f, g) = (m11, m12, m21, m22):
    by adj M, S p1 = m22 P1 - m21 P2 and S p2 = m11 P2 - m12 P1 with
    S = det M, so F = N/D with D = (S^2,) and N = S^2 F of coefficients
    (m22^2 - m12^2, 2 (m11 m12 - m21 m22), m21^2 - m11^2, S (f m22 + g m12),
    -S (f m21 + g m11), S^2 u0/2).  ``partials()`` takes their product rule
    from f_x = g_y = 1, f_y = g_x = 0, du0 and the frame partials dm =
    (M_x, M_y)."""
    m11, m12, m21, m22 = m
    s = m11 * m22 - m12 * m21
    b1, b2 = f * m22 + g * m12, f * m21 + g * m11
    num = (m22 * m22 - m12 * m12, 2.0 * (m11 * m12 - m21 * m22), m21 * m21 - m11 * m11,
           s * b1, -s * b2, 0.5 * s * s * u0)

    def row(dm_k, b1_fg, b2_fg, u0_k):
        # the partials of N and D along one chart axis; b1_fg, b2_fg are
        # the terms of b1, b2 from that axis's partial of f or g
        k11, k12, k21, k22 = dm_k
        s_k = k11 * m22 + m11 * k22 - k12 * m21 - m12 * k21
        return ((2.0 * (m22 * k22 - m12 * k12),
                 2.0 * (k11 * m12 + m11 * k12 - k21 * m22 - m21 * k22),
                 2.0 * (m21 * k21 - m11 * k11),
                 s_k * b1 + s * (b1_fg + f * k22 + g * k12),
                 -(s_k * b2 + s * (b2_fg + f * k21 + g * k11)),
                 s * (s_k * u0 + 0.5 * s * u0_k)),
                (2.0 * s * s_k,))

    def partials():
        return tuple(zip(*map(row, dm, (m22, m12), (m21, m11), du0)))

    return num, (s * s,), partials


def example3_system() -> tuple[MagneticSystem, FirstIntegral]:
    """The curved chart system with its quadratic integral on {H = 1/2},
    at the hodograph constants alpha = 1, beta = 0.

    The chart is the hodograph one, (f, g) = (x, y).  The metric is the
    pull-back Lambda M^T M of Lambda (dx^2 + dy^2) through the hodograph
    map, a frame chart of ``_ex3_frame`` built by
    :func:`magflows.geometry._frame_system`, with the field -(r + 12).  The
    integral is the flat chart's, with u0 = 4x, pulled back through the
    same frame by ``_pullback_parts``.  The working domain is
    ``EXAMPLE3_BBOX``.
    """
    x0, x1, y0, y1 = EXAMPLE3_BBOX
    system = _frame_system(
        _ex3_frame,
        ChartDomain(bbox=EXAMPLE3_BBOX, predicate=lambda x, y: x0 <= x <= x1 and y0 <= y <= y1),
        energy=1.0,
        name="quadratic-hodograph chart",
        coords=("X", "Y"),
    )

    def parts(x, y):
        _, m, _, dm, _ = _ex3_frame(x, y)
        return _pullback_parts(m, dm, x, y, 4.0 * x, (4.0, 0.0))

    return system, ratio_integral("F", "quadratic", parts, level=1.0)
