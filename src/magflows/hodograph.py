"""Quadratic-integral construction: algebraic system, Newton continuation,
field reconstruction and the assembled curved example.

A conformal metric Lambda(x,y)(dx^2+dy^2) with a magnetic field and a
quadratic first integral is determined by two auxiliary fields f(x,y),
g(x,y) satisfying a pair of pointwise polynomial relations parametrized by
six constants (alpha, beta, gamma, delta, epsilon, zeta), zeta != 0.  From
a solution, the conformal factor and the potential constant follow
algebraically and the magnetic field is Omega = (g_x - f_y)/4.

At alpha = beta = 0 the system has a closed-form solution (real cube-root
branch), which both seeds the Newton continuation to nonzero alpha, beta
and serves as an exact oracle for the solver.

The module also assembles the curved quadratic-integral system in the
transformed chart (X, Y): an explicit polynomial metric, field and
quadratic integral, valid on the energy level {H = 1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    NoConvergence,
    SingularJacobian,
    SingularPoint,
)
from .geometry import ChartDomain, MagneticSystem, Metric
from .integrals import FirstIntegral

__all__ = [
    "HodographConstants",
    "FieldPoint",
    "NewtonResult",
    "algebraic_residual",
    "algebraic_jacobian",
    "newton_solve",
    "continued_solve",
    "reconstruct_fields",
    "closed_form_abzero",
    "pde41_residual_fd",
    "magnetic_from_fg",
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


def algebraic_jacobian(k: HodographConstants, x, y, f, g) -> np.ndarray:
    """Analytic Jacobian d(R1,R2)/d(f,g); independent of (x, y)."""
    a, b, z = k.alpha, k.beta, k.zeta
    z2 = z * z
    j11 = -z2 * g * g - 12.0 * b * z * g - 3.0 * z2 * f * f + 52.0 * a * z * f - 192.0 * a * a
    j12 = -2.0 * z2 * f * g - 12.0 * b * z * f + 12.0 * a * z * g + 64.0 * a * b
    j21 = 2.0 * z2 * f * g - 12.0 * a * z * g + 12.0 * b * z * f - 64.0 * a * b
    j22 = z2 * f * f - 12.0 * a * z * f + 3.0 * z2 * g * g + 52.0 * b * z * g + 192.0 * b * b
    return np.array([[j11, j12], [j21, j22]])


def newton_solve(
    k: HodographConstants,
    x: float,
    y: float,
    guess,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> NewtonResult:
    """Damped Newton iteration on the algebraic system at one point.

    Steps are halved (up to 30 times) until the residual sup-norm
    decreases; the returned record carries the Jacobian condition number
    at the solution.
    """
    f, g = float(guess[0]), float(guess[1])
    r = np.array(algebraic_residual(k, x, y, f, g))
    rnorm = float(np.max(np.abs(r)))
    cond = float("nan")
    for it in range(max_iter + 1):
        jac = algebraic_jacobian(k, x, y, f, g)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[1] <= 1e-14 * max(sv[0], 1.0):
            raise SingularJacobian(
                f"singular Jacobian at ({x}, {y}), f = {f}, g = {g}: "
                f"singular values {sv.tolist()}"
            )
        cond = float(sv[0] / sv[1])
        if rnorm <= tol:
            return NewtonResult(f, g, it, rnorm, cond)
        delta = np.linalg.solve(jac, -r)
        lam = 1.0
        for _ in range(30):
            ft, gt = f + lam * delta[0], g + lam * delta[1]
            rt = np.array(algebraic_residual(k, x, y, ft, gt))
            rtn = float(np.max(np.abs(rt)))
            if rtn < rnorm:
                f, g, r, rnorm = ft, gt, rt, rtn
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at ({x}, {y}) with residual {rnorm}"
            )
    raise NoConvergence(
        f"no convergence after {max_iter} iterations at ({x}, {y}); "
        f"residual {rnorm}"
    )


def continued_solve(
    k: HodographConstants,
    x: float,
    y: float,
    step: float = 0.02,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> NewtonResult:
    """Solve at general (alpha, beta) by continuation from the closed form.

    Seeds with the exact alpha = beta = 0 solution at the same remaining
    constants, then walks (alpha, beta) to the target in increments of at
    most ``step`` (in the max norm), Newton-correcting at each stage.
    """
    seed, _ = closed_form_abzero(k.with_ab(0.0, 0.0), x, y)
    f, g = seed.f, seed.g
    reach = max(abs(k.alpha), abs(k.beta))
    n_stages = max(1, int(math.ceil(reach / step)))
    result = None
    for i in range(1, n_stages + 1):
        t = i / n_stages
        ki = k.with_ab(t * k.alpha, t * k.beta)
        result = newton_solve(ki, x, y, (f, g), tol=tol, max_iter=max_iter)
        f, g = result.f, result.g
    return result


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


# Coefficient matrices of the first-order system satisfied by
# U = (Lambda, u0, f, g):  A(U) U_x + B(U) U_y = 0.


def _system_matrices(lam: float, f: float, g: float):
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [f, 0.0, lam, 0.0],
            [2.0, 1.0, 0.0, 0.5 * g],
            [0.0, 0.0, 0.0, -0.5 * f],
        ]
    )
    b = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [-g, 0.0, 0.0, -lam],
            [0.0, 0.0, -0.5 * g, 0.0],
            [2.0, -1.0, 0.5 * f, 0.0],
        ]
    )
    return a, b


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
    a, b = _system_matrices(u0[0], u0[2], u0[3])
    return a @ ux + b @ uy


def magnetic_from_fg(sampler: Sampler, x: float, y: float, h: float = 1e-4) -> float:
    """Magnetic coefficient Omega = (g_x - f_y)/4 by Richardson-extrapolated
    central differences of the sampled fields."""
    if not h > 0.0:
        raise ValueError(f"difference step must be positive, got {h}")

    def gx(step):
        return (sampler(x + step, y).g - sampler(x - step, y).g) / (2.0 * step)

    def fy(step):
        return (sampler(x, y + step).f - sampler(x, y - step).f) / (2.0 * step)

    g_x = (4.0 * gx(0.5 * h) - gx(h)) / 3.0
    f_y = (4.0 * fy(0.5 * h) - fy(h)) / 3.0
    return 0.25 * (g_x - f_y)


# ---------------------------------------------------------------------------
# Curved quadratic-integral system in the transformed chart (X, Y)
# ---------------------------------------------------------------------------

# Working rectangle for the default constants alpha = 1, beta = 0,
# determined by grid-scanning positive-definiteness of the metric and
# |S| > 1e-6 (the integral divides by S^2); re-verified by the test suite.
EXAMPLE3_BBOX = (3.0, 5.0, -0.72, 0.72)


def _poly_r(x, y, a, b):
    return x * x - 8.0 * a * x + y * y + 8.0 * b * y


def _poly_r_grad(x, y, a, b):
    return 2.0 * x - 8.0 * a, 2.0 * y + 8.0 * b


def _poly_s(x, y, a, b):
    return (
        3.0 * x ** 4
        - 44.0 * x ** 3 * a
        + 6.0 * x * x * (y * y + 34.0 * a * a + 10.0 * y * b + 18.0 * b * b)
        - 12.0 * x * a * (5.0 * y * y + 24.0 * a * a + 48.0 * y * b + 88.0 * b * b)
        + (3.0 * y + 8.0 * b)
        * (y ** 3 + 12.0 * y * y * b + 256.0 * a * a * b + 36.0 * y * (a * a + b * b))
    )


def _poly_m(x, y, a, b):
    # cross factor of the integral's quadratic part
    return x * y - 3.0 * a * y + 3.0 * x * b - 8.0 * a * b


def _poly_w(x, y, a, b):
    return (3.0 * x - 8.0 * a) * (x - 6.0 * a) + y * (y + 6.0 * b)


def _poly_n(x, y, a, b):
    # also the negated magnetic coefficient
    return (x - 6.0 * a) * (x - 2.0 * a) + (y + 2.0 * b) * (y + 6.0 * b)


def _poly_t1(x, y, a, b):
    return (
        9.0 * x ** 4
        + 10.0 * x * x * y * y
        + y ** 4
        - 156.0 * a * x ** 3
        - 76.0 * a * x * y * y
        + 964.0 * x * x * a * a
        + 132.0 * y * y * a * a
        - 2496.0 * x * a ** 3
        + 2304.0 * a ** 4
        + 4.0 * y * (3.0 * y * y + (5.0 * x - 24.0 * a) * (3.0 * x - 8.0 * a)) * b
        + 4.0 * (9.0 * y * y + (3.0 * x - 8.0 * a) ** 2) * b * b
    )


def _poly_t1_grad(x, y, a, b):
    t1x = (
        36.0 * x ** 3
        + 20.0 * x * y * y
        - 468.0 * a * x * x
        - 76.0 * a * y * y
        + 1928.0 * x * a * a
        - 2496.0 * a ** 3
        + 4.0 * y * b * (30.0 * x - 112.0 * a)
        + 24.0 * b * b * (3.0 * x - 8.0 * a)
    )
    t1y = (
        20.0 * x * x * y
        + 4.0 * y ** 3
        - 152.0 * a * x * y
        + 264.0 * y * a * a
        + 4.0 * b * (9.0 * y * y + (5.0 * x - 24.0 * a) * (3.0 * x - 8.0 * a))
        + 72.0 * b * b * y
    )
    return t1x, t1y


def _poly_t2(x, y, a, b):
    return (
        x ** 4
        - 12.0 * x ** 3 * a
        - 4.0 * x * a * (3.0 * y + 8.0 * b) * (5.0 * y + 24.0 * b)
        + 2.0 * x * x * (5.0 * y * y + 18.0 * a * a + 38.0 * y * b + 66.0 * b * b)
        + (3.0 * y + 8.0 * b) ** 2 * (4.0 * a * a + (y + 6.0 * b) ** 2)
    )


def _poly_t2_grad(x, y, a, b):
    t2x = (
        4.0 * x ** 3
        - 36.0 * x * x * a
        - 4.0 * a * (3.0 * y + 8.0 * b) * (5.0 * y + 24.0 * b)
        + 4.0 * x * (5.0 * y * y + 18.0 * a * a + 38.0 * y * b + 66.0 * b * b)
    )
    t2y = (
        -4.0 * x * a * (30.0 * y + 112.0 * b)
        + 2.0 * x * x * (10.0 * y + 38.0 * b)
        + 6.0 * (3.0 * y + 8.0 * b) * (4.0 * a * a + (y + 6.0 * b) ** 2)
        + 2.0 * (3.0 * y + 8.0 * b) ** 2 * (y + 6.0 * b)
    )
    return t2x, t2y


def example3_system(
    alpha: float = 1.0,
    beta: float = 0.0,
    bbox: Optional[tuple] = None,
    s_floor: float = 1e-6,
) -> tuple[MagneticSystem, FirstIntegral]:
    """The curved chart system with its quadratic integral on {H = 1/2}.

    The metric and integral are polynomial in the chart point; the metric
    carries hand-differentiated analytic partials.  With the default
    constants (alpha = 1, beta = 0) the metric is positive definite on a
    neighborhood of (4, 0); the shipped bounding box is the empirically
    verified rectangle.  At alpha = beta = 0 the metric is nowhere
    positive definite and no working domain exists.
    """
    a, b = float(alpha), float(beta)
    if bbox is None:
        bbox = EXAMPLE3_BBOX

    def components(x, y):
        r = _poly_r(x, y, a, b)
        g11 = -0.5 * r * _poly_t1(x, y, a, b)
        g12 = -4.0 * r * _poly_m(x, y, a, b) * _poly_n(x, y, a, b)
        g22 = -0.5 * r * _poly_t2(x, y, a, b)
        return g11, g12, g22

    def partials(x, y):
        r = _poly_r(x, y, a, b)
        rx, ry = _poly_r_grad(x, y, a, b)
        t1 = _poly_t1(x, y, a, b)
        t1x, t1y = _poly_t1_grad(x, y, a, b)
        t2 = _poly_t2(x, y, a, b)
        t2x, t2y = _poly_t2_grad(x, y, a, b)
        m = _poly_m(x, y, a, b)
        mx, my = y + 3.0 * b, x - 3.0 * a
        n = _poly_n(x, y, a, b)
        nx, ny = 2.0 * x - 8.0 * a, 2.0 * y + 8.0 * b
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

    x0, x1, y0, y1 = bbox

    def predicate(x, y):
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return False
        if abs(_poly_s(x, y, a, b)) <= s_floor:
            return False
        return positive_definite(x, y)

    metric = Metric(components=components, partials=partials)
    system = MagneticSystem(
        metric=metric,
        field=lambda x, y: -_poly_n(x, y, a, b),
        domain=ChartDomain(bbox=bbox, predicate=predicate),
        energy=1.0,
        name="quadratic-hodograph chart",
        coords=("X", "Y"),
    )

    def func(state):
        x, y, p1, p2 = state
        s = _poly_s(x, y, a, b)
        m = _poly_m(x, y, a, b)
        w = _poly_w(x, y, a, b)
        a11 = 16.0 * m * m
        a22 = 4.0 * w * w
        a12 = -16.0 * m * w
        b1 = 2.0 * s * (
            -16.0 * x * a * b
            + x * x * (y + 6.0 * b)
            - y * (y + 6.0 * b) * (3.0 * y + 8.0 * b)
        )
        b2 = s * (
            -2.0 * (x - 6.0 * a) * (3.0 * x * x - y * y - 8.0 * x * a)
            - 32.0 * y * a * b
        )
        cc = s * s * (x * x + y * y - 4.0 * x * a + 12.0 * y * b)
        return (
            a11 * p1 * p1 + a12 * p1 * p2 + a22 * p2 * p2 + b1 * p1 + b2 * p2 + cc
        ) / (s * s)

    def guard(state):
        s = _poly_s(state[0], state[1], a, b)
        return s * s >= 1e-8

    integral = FirstIntegral(
        name="F", kind="quadratic", func=func, level=1.0, guard=guard
    )
    return system, integral
