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
branch and reports a fold as SingularPoint; its Newton corrector ends with
one full polishing step.  The derivatives of the fields, and so Omega and
the first-order system residual, come exactly from the Jacobian at the
solution by the implicit function theorem.  The per-point algebra runs on
Python floats, with a closed-form 2x2 solve.

The module also assembles the curved quadratic-integral system in the
transformed chart (X, Y) at the constants alpha = 1, beta = 0: an explicit
polynomial metric, field and quadratic integral, valid on the energy level
{H = 1/2}.
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
from .geometry import ChartDomain, MagneticSystem, Metric
from .integrals import FirstIntegral, quadratic_integral

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

    def with_ab(self, alpha: float, beta: float) -> "HodographConstants":
        return HodographConstants(
            alpha, beta, self.gamma, self.delta, self.epsilon, self.zeta
        )


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


def algebraic_residual(k: HodographConstants, x, y, f, g):
    """The two polynomial relations tying (f, g) to the chart point.

    Returns (R1, R2); a solution satisfies R1 = R2 = 0.
    """
    a, b, z = k.alpha, k.beta, k.zeta
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


def algebraic_jacobian(k: HodographConstants, x, y, f, g):
    """Analytic Jacobian d(R1,R2)/d(f,g) as the float rows ((j11, j12),
    (j21, j22)); independent of (x, y)."""
    a, b, z = k.alpha, k.beta, k.zeta
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
) -> NewtonResult:
    """Damped Newton iteration on the algebraic system at one point, on
    Python floats.  Steps are halved (up to 30 times) until max |R| (NaN
    when R has a NaN) decreases; after 50 steps NoConvergence is raised.
    Once max |R| <= tol, which can leave f and g off by about 1e-12
    relative, one full step with the Jacobian at the root polishes it and
    is kept when max |R| does not grow.  ``iterations`` counts the steps
    before the polish; ``jacobian_cond`` is the condition number at the root.
    """
    f, g = float(guess[0]), float(guess[1])
    r = algebraic_residual(k, x, y, f, g)
    rnorm = _sup_norm(r)
    for it in range(51):
        jac = algebraic_jacobian(k, x, y, f, g)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[1] <= 1e-14 * max(sv[0], 1.0):
            raise SingularJacobian(
                f"singular Jacobian at ({x}, {y}), f = {f}, g = {g}: "
                f"singular values {sv.tolist()}"
            )
        cond = float(sv[0] / sv[1])
        df, dg, _ = _solve2(jac, -r[0], -r[1])
        if rnorm <= tol:
            fp, gp = f + df, g + dg
            pnorm = _sup_norm(algebraic_residual(k, x, y, fp, gp))
            if pnorm <= rnorm:
                return NewtonResult(fp, gp, it, pnorm, cond)
            return NewtonResult(f, g, it, rnorm, cond)
        lam = 1.0
        for _ in range(30):
            ft, gt = f + lam * df, g + lam * dg
            rt = algebraic_residual(k, x, y, ft, gt)
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
    """Follow the branch of the closed form along (alpha, beta) = t (alpha*,
    beta*), t from 0 to 1 (Allgower & Georg, ch. 2): Euler predictor along
    -J^{-1} dR/dt, exact as (R(t+1) - R(t-1))/2 since R is quadratic in t,
    and Newton corrector.  A step halves when the corrector fails, sign(det J)
    (-1, 0 or 1) leaves its seed value, or the trapezoid rule on the end
    tangents misses the step by over a quarter of its length plus 1e-12 of
    round-off (a jump to another branch); it doubles after at most 3
    iterations.  A step below 1e-4 means the branch folds: SingularPoint.
    """
    def at(t):
        return k.with_ab(t * k.alpha, t * k.beta)

    def tangent(t, f, g):
        jac = algebraic_jacobian(at(t), x, y, f, g)
        up = algebraic_residual(at(t + 1.0), x, y, f, g)
        down = algebraic_residual(at(t - 1.0), x, y, f, g)
        sf, sg, det = _solve2(jac, -0.5 * (up[0] - down[0]), -0.5 * (up[1] - down[1]))
        return int(det > 0.0) - int(det < 0.0), sf, sg

    seed, _ = closed_form_abzero(at(0.0), x, y)
    t, h, f, g = 0.0, 1.0, seed.f, seed.g
    sign, sf, sg = tangent(0.0, f, g)
    while h >= 1e-4:
        t_new = 1.0 if h >= 1.0 - t else t + h
        step = t_new - t
        try:
            result = newton_solve(at(t_new), x, y, (f + step * sf, g + step * sg))
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
    u = 2.0 * x + k.delta
    v = 2.0 * y + k.gamma
    s = k.zeta * (u * u + v * v)
    if s == 0.0:
        raise SingularPoint(f"cube-root branch point at ({x}, {y})")
    c = float(np.cbrt(s))
    f = v / c
    g = -u / c
    lam = -c / (2.0 * k.zeta)
    u0 = 4.0 * k.epsilon / k.zeta
    omega = -2.0 / (3.0 * c)
    return FieldPoint(f=f, g=g, lam=lam, u0=u0), omega


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
    floats) at one chart point from one continued solve.  R depends on
    (x, y) only through 2 zeta y in R1 and 2 zeta x in R2, so
    d(f, g)/dx = -2 zeta J^{-1} (0, 1) and d(f, g)/dy = -2 zeta J^{-1} (1, 0)
    exactly; (Lambda, u0) follow by the chain rule.
    """
    f, g = continued_solve(k, x, y)[:2]
    lam, u0 = reconstruct_fields(k, f, g)
    jac = algebraic_jacobian(k, x, y, f, g)
    fx, gx, _ = _solve2(jac, 0.0, -2.0 * k.zeta)
    fy, gy, _ = _solve2(jac, -2.0 * k.zeta, 0.0)
    a8, b8 = 8.0 * k.alpha / k.zeta, 8.0 * k.beta / k.zeta
    ux = ((-f + a8) * fx + (-g - b8) * gx, a8 * fx + b8 * gx, fx, gx)
    uy = ((-f + a8) * fy + (-g - b8) * gy, a8 * fy + b8 * gy, fy, gy)
    return FieldPoint(f, g, lam, u0), 0.25 * (gx - fy), _system_residual(lam, f, g, ux, uy)


# ---------------------------------------------------------------------------
# Curved quadratic-integral system in the transformed chart (X, Y)
# ---------------------------------------------------------------------------

# Working rectangle of the curved system at alpha = 1, beta = 0,
# determined by grid-scanning positive-definiteness of the metric and
# |S| > 1e-6 (the integral divides by S^2); re-verified by the test suite.
EXAMPLE3_BBOX = (3.0, 5.0, -0.72, 0.72)

def _poly_r(x, y):
    return x * x - 8.0 * x + y * y


def _poly_s(x, y):
    return (
        3.0 * x ** 4
        - 44.0 * x ** 3
        + 6.0 * x * x * (y * y + 34.0)
        - 12.0 * x * (5.0 * y * y + 24.0)
        + 3.0 * y * (y ** 3 + 36.0 * y)
    )


def _poly_s_grad(x, y):
    sx = 12.0 * x ** 3 - 132.0 * x * x + 12.0 * x * (y * y + 34.0) - 12.0 * (5.0 * y * y + 24.0)
    sy = 12.0 * x * x * y - 120.0 * x * y + 12.0 * y ** 3 + 216.0 * y
    return sx, sy


def _poly_m(x, y):
    # cross factor of the integral's quadratic part
    return x * y - 3.0 * y


def _poly_w(x, y):
    return (3.0 * x - 8.0) * (x - 6.0) + y * y


def _poly_n(x, y):
    # also the negated magnetic coefficient
    return (x - 6.0) * (x - 2.0) + y * y


def _poly_t1(x, y):
    return (
        9.0 * x ** 4
        + 10.0 * x * x * y * y
        + y ** 4
        - 156.0 * x ** 3
        - 76.0 * x * y * y
        + 964.0 * x * x
        + 132.0 * y * y
        - 2496.0 * x
        + 2304.0
    )


def _poly_t1_grad(x, y):
    t1x = (
        36.0 * x ** 3
        + 20.0 * x * y * y
        - 468.0 * x * x
        - 76.0 * y * y
        + 1928.0 * x
        - 2496.0
    )
    t1y = 20.0 * x * x * y + 4.0 * y ** 3 - 152.0 * x * y + 264.0 * y
    return t1x, t1y


def _poly_t2(x, y):
    return (
        x ** 4
        - 12.0 * x ** 3
        - 4.0 * x * (3.0 * y) * (5.0 * y)
        + 2.0 * x * x * (5.0 * y * y + 18.0)
        + (3.0 * y) ** 2 * (4.0 + y ** 2)
    )


def _poly_t2_grad(x, y):
    t2x = (
        4.0 * x ** 3
        - 36.0 * x * x
        - 4.0 * (3.0 * y) * (5.0 * y)
        + 4.0 * x * (5.0 * y * y + 18.0)
    )
    t2y = (
        -4.0 * x * (30.0 * y)
        + 2.0 * x * x * (10.0 * y)
        + 6.0 * (3.0 * y) * (4.0 + y ** 2)
        + 2.0 * (3.0 * y) ** 2 * y
    )
    return t2x, t2y


def example3_system() -> tuple[MagneticSystem, FirstIntegral]:
    """The curved chart system with its quadratic integral on {H = 1/2},
    at the hodograph constants alpha = 1, beta = 0.

    The metric and integral are polynomial in the chart point.  The metric
    carries hand-differentiated analytic partials.  The integral is built
    by :func:`magflows.integrals.quadratic_integral` from its momentum
    coefficients over S^2 and their chart partials, written from the same
    ``_poly_*`` polynomials, each evaluated once per chart point.  The
    metric is positive definite on a neighborhood of (4, 0); the working
    domain is ``EXAMPLE3_BBOX`` less the points where |S| <= 1e-6.
    """

    def components(x, y):
        r = _poly_r(x, y)
        g11 = -0.5 * r * _poly_t1(x, y)
        g12 = -4.0 * r * _poly_m(x, y) * _poly_n(x, y)
        g22 = -0.5 * r * _poly_t2(x, y)
        return g11, g12, g22

    def dg(x, y):
        r = _poly_r(x, y)
        # R and N differ by a constant, so they share one gradient
        rx, ry = nx, ny = 2.0 * x - 8.0, 2.0 * y
        t1 = _poly_t1(x, y)
        t1x, t1y = _poly_t1_grad(x, y)
        t2 = _poly_t2(x, y)
        t2x, t2y = _poly_t2_grad(x, y)
        m = _poly_m(x, y)
        mx, my = y, x - 3.0
        n = _poly_n(x, y)
        dg11x = -0.5 * (rx * t1 + r * t1x)
        dg11y = -0.5 * (ry * t1 + r * t1y)
        dg12x = -4.0 * (rx * m * n + r * mx * n + r * m * nx)
        dg12y = -4.0 * (ry * m * n + r * my * n + r * m * ny)
        dg22x = -0.5 * (rx * t2 + r * t2x)
        dg22y = -0.5 * (ry * t2 + r * t2y)
        return (dg11x, dg12x, dg22x), (dg11y, dg12y, dg22y)

    def positive_definite(x, y):
        g11, g12, g22 = components(x, y)
        return g11 > 0.0 and g11 * g22 - g12 * g12 > 0.0

    x0, x1, y0, y1 = EXAMPLE3_BBOX

    def predicate(x, y):
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return False
        if abs(_poly_s(x, y)) <= 1e-6:
            return False
        return positive_definite(x, y)

    metric = Metric(components=components, partials=dg)
    system = MagneticSystem(
        metric=metric,
        field=lambda x, y: -_poly_n(x, y),
        domain=ChartDomain(bbox=EXAMPLE3_BBOX, predicate=predicate),
        energy=1.0,
        name="quadratic-hodograph chart",
        coords=("X", "Y"),
    )

    def parts(x, y):
        # F = (a11 p1^2 + a12 p1 p2 + a22 p2^2 + b1 p1 + b2 p2 + cc) / S^2,
        # with b1 = 2 S u, b2 = S v and cc = S^2 e
        s = _poly_s(x, y)
        m = _poly_m(x, y)
        w = _poly_w(x, y)
        u = x * x * y - y * y * (3.0 * y)
        v = -2.0 * (x - 6.0) * (3.0 * x * x - y * y - 8.0 * x)
        e = x * x + y * y - 4.0 * x
        s2 = s * s
        coefficients = (16.0 * m * m, -16.0 * m * w, 4.0 * w * w, 2.0 * s * u, s * v, s2 * e)

        def partials():
            sx, sy = _poly_s_grad(x, y)
            mx, my = y, x - 3.0
            wx, wy = 6.0 * x - 26.0, 2.0 * y
            ux, uy = 2.0 * x * y, x * x - 9.0 * y * y
            vx = -2.0 * ((3.0 * x * x - y * y - 8.0 * x) + (x - 6.0) * (6.0 * x - 8.0))
            vy = 4.0 * y * (x - 6.0)
            ex, ey = 2.0 * x - 4.0, 2.0 * y

            def chart_row(sk, mk, wk, uk, vk, ek):
                return (32.0 * m * mk, -16.0 * (mk * w + m * wk), 8.0 * w * wk,
                        2.0 * (sk * u + s * uk), sk * v + s * vk,
                        2.0 * s * sk * e + s2 * ek)

            return ((chart_row(sx, mx, wx, ux, vx, ex), chart_row(sy, my, wy, uy, vy, ey)),
                    (2.0 * s * sx, 2.0 * s * sy))

        return coefficients, s2, partials

    integral = quadratic_integral("F", parts, level=1.0)
    return system, integral
