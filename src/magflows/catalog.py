"""Worked example systems: metrics, magnetic coefficients and first
integrals, transcribed in closed form.

Each entry couples a MagneticSystem with its known first integrals and a
few sample phase points on the reference energy level.  Entries generated
by the rational-integral machinery (ex5, ex6) are deliberately transcribed
here as explicit formulas rather than built through
:mod:`magflows.rational`; tests compare the two routes against each other.
The rational integrals of ex4, ex5 and ex6 are written here only as the
momentum coefficient triples of their numerator and denominator and the
chart partials of those; :func:`magflows.integrals.ratio_integral` turns
them into integrals, as it does for every bundle and for ex3's pull-back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import UnknownExample
from .geometry import (
    ChartDomain,
    MagneticSystem,
    Metric,
    _local_system,
    chart_columns,
    conformal_metric,
    momentum_on_level,
)
from .hodograph import example3_system
from .integrals import FirstIntegral, gradient_rows, ratio_integral

__all__ = [
    "CatalogEntry",
    "EXAMPLE_NAMES",
    "get_example",
    "list_examples",
]


@dataclass(frozen=True)
class CatalogEntry:
    """One worked example with everything its checks need."""

    name: str
    description: str
    system: MagneticSystem
    integrals: tuple
    sample_phases: np.ndarray
    curvature_kind: str  # "flat" or "curved"
    curvature_probes: tuple
    independent_count: Optional[int] = None
    bundle_descriptor: Optional[dict] = field(default=None)


def _phases(system: MagneticSystem, points_angles) -> np.ndarray:
    rows = []
    for x, y, phi in points_angles:
        p = momentum_on_level(system, x, y, phi)
        rows.append([x, y, p[0], p[1]])
    return np.array(rows)


# ---------------------------------------------------------------------------
# ex1: uniform field on the Euclidean plane
# ---------------------------------------------------------------------------

def _make_ex1() -> CatalogEntry:
    b = 1.0
    metric = Metric(
        components=lambda x, y: (1.0, 0.0, 1.0),
        partials=lambda x, y: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )
    system = MagneticSystem(
        metric=metric,
        field=lambda x, y: b,
        domain=ChartDomain(bbox=(-8.0, 8.0, -8.0, 8.0)),
        energy=1.0,
        name="uniform field, flat plane",
    )

    def func(state):
        return np.cos(state[2] / b - state[1])

    def grad(state):
        s = np.sin(state[2] / b - state[1])
        return gradient_rows(s, (0.0, s, -s / b, 0.0))

    integral = FirstIntegral(name="F", kind="transcendental", func=func, grad=grad)
    return CatalogEntry(
        name="ex1",
        description="Euclidean plane with a uniform magnetic field and a "
        "transcendental integral of a shifted momentum phase.",
        system=system,
        integrals=(integral,),
        sample_phases=_phases(system, [(0.0, 0.0, 0.3), (1.0, -0.5, 2.0), (-2.0, 1.5, 4.4)]),
        curvature_kind="flat",
        curvature_probes=((0.0, 0.0), (1.5, -1.0)),
    )


# ---------------------------------------------------------------------------
# ex2 and ex2b: conformal factor depending on one coordinate
# ---------------------------------------------------------------------------


def _channel_entry(
    name: str,
    description: str,
    lam: Callable[[float, float], float],
    lam_partials: Callable[[float, float], tuple[float, float]],
    potential: Callable[[float, float], float],
    field: Callable[[float, float], float],
) -> CatalogEntry:
    """Conformal metric lam (dx^2 + dy^2) with field Omega = -U_y and the
    linear integral p1 + U, conserved on every level, from lam, its
    partials, the potential U and the field as functions of (x, y) that
    read y alone."""
    system = MagneticSystem(
        metric=conformal_metric(lam, lam_partials),
        field=field,
        domain=ChartDomain(bbox=(-8.0, 8.0, -8.0, 8.0)),
        energy=1.0,
        name=name,
    )

    def func(state):
        return state[2] + chart_columns(potential, state[0], state[1])

    def grad(state):
        return gradient_rows(state[2], (0.0, -chart_columns(field, state[0], state[1]), 1.0, 0.0))

    integral = FirstIntegral(name="F1", kind="linear", func=func, grad=grad)
    return CatalogEntry(
        name=name,
        description=description,
        system=system,
        integrals=(integral,),
        sample_phases=_phases(
            system, [(0.3, -0.4, 0.9), (-1.2, 0.8, 2.7), (2.0, 1.7, 5.1)]
        ),
        curvature_kind="curved",
        curvature_probes=((0.0, 0.0), (0.5, 0.4)),
    )


def _make_ex2() -> CatalogEntry:
    return _channel_entry(
        "ex2",
        "Conformal channel metric with a cosine profile; linear integral "
        "from translational symmetry.",
        lam=lambda x, y: 2.0 + math.cos(y),
        lam_partials=lambda x, y: (0.0, -math.sin(y)),
        potential=lambda x, y: math.sin(y),
        field=lambda x, y: -math.cos(y),
    )


def _make_ex2b() -> CatalogEntry:
    return _channel_entry(
        "ex2b",
        "Second translational-symmetry instance with a rational conformal "
        "factor and arctangent potential.",
        lam=lambda x, y: 1.0 / (1.0 + y * y),
        lam_partials=lambda x, y: (0.0, -2.0 * y / (1.0 + y * y) ** 2),
        potential=lambda x, y: math.atan(y),
        field=lambda x, y: -(1.0 / (1.0 + y * y)),
    )


# ---------------------------------------------------------------------------
# ex3: curved chart with a quadratic integral on its level
# ---------------------------------------------------------------------------


def _make_ex3() -> CatalogEntry:
    system, integral = example3_system()
    return CatalogEntry(
        name="ex3",
        description="Curved polynomial metric in a transformed chart "
        "carrying a quadratic integral on the level {H = 1/2}.",
        system=system,
        integrals=(integral,),
        sample_phases=_phases(
            system, [(4.0, 0.0, 0.4), (3.8, 0.2, 2.2), (4.25, -0.15, 4.6)]
        ),
        curvature_kind="curved",
        curvature_probes=((4.0, 0.0), (4.9, -0.65)),
    )


# ---------------------------------------------------------------------------
# ex4: inverse-radius conformal factor, flat and superintegrable
# ---------------------------------------------------------------------------


def _make_ex4() -> CatalogEntry:
    gamma = 1.0

    def local(x, y):
        # G = (1/r)(dx^2 + dy^2) and Omega = -gamma / (2 r) from one hypot
        r = math.hypot(x, y)
        lam, r3 = 1.0 / r, r ** 3
        lx, ly = -x / r3, -y / r3
        return (lam, 0.0, lam), ((lx, 0.0, lx), (ly, 0.0, ly)), -gamma / (2.0 * r)

    def predicate(x, y):
        return 0.05 < math.hypot(x, y) < 40.0

    system = _local_system(
        local,
        domain=ChartDomain(bbox=(0.5, 2.5, 0.5, 2.5), predicate=predicate),
        energy=1.0,
        name="inverse-radius conformal chart",
    )

    def f_parts(x, y):
        r = math.hypot(x, y)

        def partials():
            rx, ry = x / r, y / r
            return (((rx - 1.0, 0.0, 0.0), (ry, -1.0, gamma)),
                    ((0.0, rx - 1.0, gamma * (rx - 1.0)), (1.0, ry, gamma * ry)))

        return (r - x, -y, gamma * y), (y, r - x, gamma * (r - x)), partials

    f_rational = ratio_integral("F", "rational", f_parts)

    def f1_func(state):
        x, y, p1, p2 = state
        return -y * p1 + x * p2 - 0.5 * gamma * chart_columns(math.hypot, x, y)

    def f1_grad(state):
        x, y, p1, p2 = state
        r = chart_columns(math.hypot, x, y)
        return gradient_rows(p1, (p2 - 0.5 * gamma * x / r, -p1 - 0.5 * gamma * y / r, -y, x))

    f1_linear = FirstIntegral(name="F1", kind="linear", func=f1_func, grad=f1_grad)
    return CatalogEntry(
        name="ex4",
        description="Flat inverse-radius conformal chart, superintegrable: "
        "a rotational linear integral and a rational one, all levels.",
        system=system,
        integrals=(f_rational, f1_linear),
        sample_phases=_phases(
            system, [(1.0, 1.0, 0.5), (1.5, 0.8, 2.4), (0.8, 1.6, 4.0)]
        ),
        curvature_kind="flat",
        curvature_probes=((1.0, 1.0), (1.4, 0.7)),
        independent_count=3,
    )


# ---------------------------------------------------------------------------
# ex5: rational-integral flow with the degree-two polynomial profile
# ---------------------------------------------------------------------------


def _make_ex5() -> CatalogEntry:
    gamma, c = 1.0, 1.0
    g2 = gamma * gamma

    def local(rho, psi):
        p = 2.0 * g2 * (rho + 1.0) / c
        dp = 2.0 * g2 / c
        c4, s4 = math.cos(4.0 * psi), math.sin(4.0 * psi)
        a22 = 1.0 + 2.0 * rho + 2.0 * rho * rho + (1.0 + 2.0 * rho) * c4
        g = (2.0 * p, p * s4, p * a22)
        dg = ((2.0 * dp, dp * s4, dp * a22 + p * (2.0 + 4.0 * rho + 2.0 * c4)),
              (0.0, 4.0 * p * c4, -4.0 * p * (1.0 + 2.0 * rho) * s4))
        return g, dg, gamma * math.cos(2.0 * psi)

    def predicate(rho, psi):
        cc = math.cos(2.0 * psi)
        return (-cc * cc + 0.02) < rho < 50.0

    system = _local_system(
        local,
        domain=ChartDomain(bbox=(0.05, 5.0, 0.0, 2.0 * math.pi), predicate=predicate),
        energy=c,
        name="rational flow, quadratic radial profile",
        coords=("rho", "psi"),
    )

    def num_den_parts(rho, psi):
        ch, sh = math.cos(0.5 * psi), math.sin(0.5 * psi)
        cp = math.cos(psi)
        c2 = math.cos(2.0 * psi)
        c4 = math.cos(4.0 * psi)
        c15, s15 = math.cos(1.5 * psi), math.sin(1.5 * psi)
        a = rho - 2.0 * rho * cp - c2
        b = rho + 2.0 * rho * cp - c2
        disc = 1.0 + 2.0 * rho + c4

        def partials():
            sp, s2, s4 = math.sin(psi), math.sin(2.0 * psi), math.sin(4.0 * psi)
            num_r = (ch * (1.0 - 2.0 * cp), 0.0, 2.0 * gamma * sh)
            num_p = (-0.5 * sh * a + ch * (2.0 * rho * sp + 2.0 * s2), 1.5 * c15,
                     gamma * (-4.0 * s4 * sh + 0.5 * disc * ch))
            den_r = (-sh * (1.0 + 2.0 * cp), 0.0, 2.0 * gamma * ch)
            den_p = (-0.5 * ch * b - sh * (-2.0 * rho * sp + 2.0 * s2), 1.5 * s15,
                     gamma * (-4.0 * s4 * ch - 0.5 * disc * sh))
            return (num_r, num_p), (den_r, den_p)

        return (ch * a, s15, gamma * disc * sh), (-sh * b, -c15, gamma * disc * ch), partials

    integral = ratio_integral("F", "rational", num_den_parts, level=c)

    return CatalogEntry(
        name="ex5",
        description="Rational-integral flow generated by the degree-two "
        "polynomial profile, conserved on {H = 1/2}.",
        system=system,
        integrals=(integral,),
        sample_phases=_phases(
            system, [(1.0, 0.7, 0.8), (2.0, 2.0, 2.9), (0.8, 4.3, 5.3)]
        ),
        curvature_kind="curved",
        curvature_probes=((1.0, 0.7), (1.5, 2.4)),
        bundle_descriptor={
            "family": "poly-cos",
            "parameters": {"k": 2, "psi0": 0.0},
            "gamma": gamma,
            "c_energy": c,
        },
    )


# ---------------------------------------------------------------------------
# ex6: rational-integral flow with the logarithmic profile
# ---------------------------------------------------------------------------


def _make_ex6() -> CatalogEntry:
    gamma, c = 1.0, 1.0
    g2 = gamma * gamma

    def local(rho, psi):
        p = g2 / (2.0 * c * rho ** 4 * (rho + 1.0) ** 3)
        dp = -g2 * (7.0 * rho + 4.0) / (2.0 * c * rho ** 5 * (rho + 1.0) ** 4)
        c2, s2 = math.cos(2.0 * psi), math.sin(2.0 * psi)
        a11 = 1.0 + 2.0 * rho * (rho + 1.0) - (1.0 + 2.0 * rho) * c2
        a11_r = 2.0 * (2.0 * rho + 1.0) - 2.0 * c2
        a11_p = 2.0 * (1.0 + 2.0 * rho) * s2
        a12 = -rho * (rho + 1.0) * s2
        a12_r = -(2.0 * rho + 1.0) * s2
        a12_p = -2.0 * rho * (rho + 1.0) * c2
        a22 = 2.0 * rho * rho * (rho + 1.0) ** 2
        a22_r = 4.0 * rho * (rho + 1.0) * (2.0 * rho + 1.0)
        g = (p * a11, p * a12, p * a22)
        dg = ((dp * a11 + p * a11_r, dp * a12 + p * a12_r, dp * a22 + p * a22_r),
              (p * a11_p, p * a12_p, 0.0))
        return g, dg, -gamma * math.cos(psi) / (2.0 * rho * (rho + 1.0) ** 2)

    def predicate(rho, psi):
        return 0.02 < rho < 40.0

    system = _local_system(
        local,
        domain=ChartDomain(bbox=(0.1, 3.0, 0.0, 2.0 * math.pi), predicate=predicate),
        energy=c,
        name="rational flow, logarithmic profile",
        coords=("rho", "psi"),
    )

    def num_den_parts(rho, psi):
        ch, sh = math.cos(0.5 * psi), math.sin(0.5 * psi)
        cp = math.cos(psi)
        c2 = math.cos(2.0 * psi)
        c15, s15 = math.cos(1.5 * psi), math.sin(1.5 * psi)
        q = rho * (rho + 1.0)
        pfac = 1.0 + rho + (1.0 + 2.0 * rho) * cp
        mfac = 1.0 + rho - (1.0 + 2.0 * rho) * cp
        disc = 1.0 + 2.0 * rho - c2

        def partials():
            sp, s2 = math.sin(psi), math.sin(2.0 * psi)
            dq = 2.0 * rho + 1.0
            pfac_r, pfac_p = 1.0 + 2.0 * cp, -(1.0 + 2.0 * rho) * sp
            mfac_r, mfac_p = 1.0 - 2.0 * cp, (1.0 + 2.0 * rho) * sp
            num_r = (4.0 * q * dq * c15, 2.0 * (dq * pfac + q * pfac_r) * sh, 2.0 * gamma * sh)
            num_p = (-3.0 * q * q * s15, 2.0 * q * (pfac_p * sh + 0.5 * pfac * ch),
                     gamma * (2.0 * s2 * sh + 0.5 * disc * ch))
            den_r = (-4.0 * q * dq * s15, -2.0 * (dq * mfac + q * mfac_r) * ch, 2.0 * gamma * ch)
            den_p = (-3.0 * q * q * c15, -2.0 * q * (mfac_p * ch - 0.5 * mfac * sh),
                     gamma * (2.0 * s2 * ch - 0.5 * disc * sh))
            return (num_r, num_p), (den_r, den_p)

        num = (2.0 * q * q * c15, 2.0 * q * pfac * sh, gamma * disc * sh)
        den = (-2.0 * q * q * s15, -2.0 * q * mfac * ch, gamma * disc * ch)
        return num, den, partials

    integral = ratio_integral("F", "rational", num_den_parts, level=c)

    return CatalogEntry(
        name="ex6",
        description="Rational-integral flow generated by the logarithmic "
        "profile on rho > 0, conserved on {H = 1/2}.",
        system=system,
        integrals=(integral,),
        sample_phases=_phases(
            system, [(1.0, 0.6, 1.6), (1.4, 2.8, 4.7), (0.7, 4.4, 2.4)]
        ),
        curvature_kind="curved",
        curvature_probes=((1.0, 0.6), (1.3, 2.0)),
        bundle_descriptor={
            "family": "log-nu1",
            "parameters": {},
            "gamma": gamma,
            "c_energy": c,
        },
    )


_FACTORIES = {
    "ex1": _make_ex1,
    "ex2": _make_ex2,
    "ex2b": _make_ex2b,
    "ex3": _make_ex3,
    "ex4": _make_ex4,
    "ex5": _make_ex5,
    "ex6": _make_ex6,
}

EXAMPLE_NAMES = tuple(_FACTORIES)


def get_example(name: str) -> CatalogEntry:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; available: {', '.join(EXAMPLE_NAMES)}"
        ) from None
    return factory()


def list_examples() -> list:
    return [get_example(n) for n in EXAMPLE_NAMES]
