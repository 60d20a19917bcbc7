"""Flows with momentum-rational first integrals built from solutions of a
linear second-order equation in a half-angle chart.

Every solution Z(rho, psi) of

    rho (rho + 1) Z_rr + rho Z_r + Z_pp = 0

with nonvanishing discriminant D = rho (rho + 1) Z_rr^2 + (Z_rp - Z_p/rho)^2
generates a metric, a magnetic coefficient and a first integral that is a
ratio of two expressions linear in momenta, conserved on the energy level
{H = C/2}.  This module ships four closed-form solution families, the
profile screen and the bundle assembly.

Every family has the form Z = R(rho) cos(nu (psi + psi0)) (nu = k for
poly-cos, 1 for log-nu1, 1/2 for elliptic-half, 0 for log-radial) and
supplies only R, R', R'', nu and psi0; :meth:`ZSolution.jet` takes R'''
from the generating equation differentiated once and gives the nine
partials of Z through third order by the product rule, keeping R's jet at
the last rho, so that a grid row, with the two jets a scan reads per point,
runs R once.  A bundle's metric is G = k M^T M, with k = gamma^2 (rho +
1) / C and the frame M of columns (Z_rr, W) and (rho W, -(rho + 1) Z_rr),
W = (rho Z_rp - Z_p) / rho^2; det M = -D / rho.  M is linear in the jet.
A bundle gives (k, M), their partials and the field from one jet, and
``geometry._frame_system``, which builds ex3 too, makes its system.  Its
integral is :func:`magflows.integrals.ratio_integral` over the momentum
coefficient triples of N and D, each pair the half-angle rotation (u s +
v c, u c - v s), c, s = cos, sin(psi/2), of two forms U, V linear in
momenta, so F = tan(psi/2 + atan2(V, U)).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateD, DomainError
from .geometry import ChartDomain, MagneticSystem, _frame_system, _gram
from .integrals import FirstIntegral, ratio_integral
from .specfun import elliptic_jet, terminating_2f1_coeffs

__all__ = [
    "ZSolution",
    "PolynomialCos",
    "LogRadial",
    "LogNu1",
    "EllipticHalf",
    "FAMILIES",
    "profile_screen",
    "RationalFlowBundle",
    "build_bundle",
    "bundle_from_descriptor",
]

TWO_PI = 2.0 * math.pi
# bound of the profile screen on the scaled residual and on the smallest |D|
SCREEN_BOUND = 1e-10


class ZSolution:
    """A closed-form solution Z = R(rho) cos(nu (psi + psi0)) of the
    generating linear equation, given by ``_radial`` (R, R', R''), ``nu``
    and ``psi0``.

    ``valid_rho`` is the open interval on which the formulas make sense;
    ``psi_period`` is the period of the generated integral in the angular
    variable; ``default_rho_range`` is the working annulus used when none
    is given.
    """

    family: str = ""
    nu: float = 0.0
    psi0: float = 0.0
    psi_period: float = TWO_PI
    valid_rho: tuple = (-math.inf, math.inf)
    default_rho_range: tuple = (0.05, 5.0)
    _radial_jet: tuple = (None, 0.0, 0.0, 0.0, 0.0)

    def params(self) -> dict:
        return {}

    def _radial(self, rho: float) -> tuple[float, float, float]:
        """(R, R', R'') at rho; ``jet`` derives R''' from them."""
        raise NotImplementedError

    def jet(self, rho: float, psi: float) -> tuple:
        """(Z, Z_r, Z_p, Z_rr, Z_rp, Z_pp, Z_rrr, Z_rrp, Z_rpp) at one chart
        point, by the product rule from (R, R', R'') and
        R''' = ((nu^2 - 1) R' - (3 rho + 1) R'') / (rho (rho + 1)), the rho
        derivative of rho (rho + 1) R'' + rho R' - nu^2 R = 0.  DomainError
        where rho (rho + 1) is 0 or not finite.  ``_radial_jet`` keeps (rho,
        R, R', R'', R''') of the last rho, so calls at one rho check it and
        run ``_radial`` once; an equal rho has its bits, as rho = +-0 is
        refused before it is kept, and NaN equals nothing."""
        kept, r, r1, r2, r3 = self._radial_jet
        nu = self.nu
        if rho != kept:
            lo, hi = self.valid_rho
            if not (lo < rho < hi):
                raise DomainError(f"rho = {rho} outside the validity interval ({lo}, {hi}) "
                                  f"of family {self.family!r}")
            q = rho * (rho + 1.0)
            if not (q != 0.0 and math.isfinite(q)):
                raise DomainError(f"the generating equation degenerates at rho = {rho}")
            r, r1, r2 = self._radial(rho)
            r3 = ((nu * nu - 1.0) * r1 - (3.0 * rho + 1.0) * r2) / q
            self._radial_jet = rho, r, r1, r2, r3
        u = nu * (psi + self.psi0)
        c, s = math.cos(u), math.sin(u)
        return (r * c, r1 * c, -nu * r * s, r2 * c, -nu * r1 * s, -nu * nu * r * c,
                r3 * c, -nu * r2 * s, -nu * nu * r1 * c)

    def value(self, rho: float, psi: float) -> float:
        return self.jet(rho, psi)[0]

    def descriptor(self) -> dict:
        return {"family": self.family, "parameters": self.params()}


class PolynomialCos(ZSolution):
    """Z = P_k(rho) cos(k (psi + psi0)) with P_k a degree-k polynomial.

    The coefficients come from the terminating hypergeometric recurrence,
    rescaled so that the polynomial is monic; k = 2, psi0 = 0 gives
    P = (2/3) rho + rho^2.
    """

    family = "poly-cos"

    def __init__(self, k: int = 2, psi0: float = 0.0):
        if k < 1:
            raise DomainError("the polynomial family needs k >= 1")
        raw = terminating_2f1_coeffs(k)
        self.k = self.nu = int(k)
        self.psi0 = float(psi0)
        if not math.isfinite(self.k * self.psi0):
            raise DomainError(f"psi0 and k psi0 must be finite, got psi0 = {self.psi0} "
                              f"at k = {self.k}")
        self.coeffs = [c / raw[-1] for c in raw]  # monic in rho^k

    def params(self) -> dict:
        return {"k": self.k, "psi0": self.psi0}

    def _radial(self, rho):
        p = p1 = p2 = 0.0
        for j in range(self.k, 0, -1):
            c = self.coeffs[j - 1]
            p += c * rho ** j
            p1 += c * j * rho ** (j - 1)
            if j >= 2:
                p2 += c * j * (j - 1) * rho ** (j - 2)
        return p, p1, p2


class LogRadial(ZSolution):
    """Z = ln(1 + rho), the angle-independent solution (nu = 0).

    The generated flow is flat.
    """

    family = "log-radial"
    valid_rho = (-1.0, math.inf)

    def _radial(self, rho):
        s = 1.0 + rho
        return math.log(s), 1.0 / s, -1.0 / (s * s)


class LogNu1(ZSolution):
    """Z = (rho ln(1 + 1/rho) - 1) cos(psi) on rho > 0."""

    family = "log-nu1"
    nu = 1.0
    valid_rho = (0.0, math.inf)

    def _radial(self, rho):
        s = rho + 1.0
        ell = math.log1p(1.0 / rho)
        a = rho * ell - 1.0
        a1 = ell - 1.0 / s
        a2 = -1.0 / (rho * s * s)
        return a, a1, a2


class EllipticHalf(ZSolution):
    """Z = S(rho) cos(psi/2) with S built from complete elliptic integrals.

    S(rho) = (4/pi) (E(-rho) - K(-rho)); the half-angle makes the integral
    4 pi periodic in psi.  Valid on rho > -1.  R, R' and R'' take K, E
    and dE/dm from one AGM run.
    """

    family = "elliptic-half"
    nu = 0.5
    psi_period = 2.0 * TWO_PI
    valid_rho = (-1.0, math.inf)
    default_rho_range = (0.1, 3.0)

    def _radial(self, rho):
        m = -rho
        one_m = 1.0 - m
        kk, ee, de = elliptic_jet(m)
        w = ee - kk
        w1 = -ee / (2.0 * one_m)
        w2 = -de / (2.0 * one_m) - ee / (2.0 * one_m * one_m)
        c = 4.0 / math.pi
        return c * w, -c * w1, c * w2


FAMILIES = {
    "poly-cos": PolynomialCos,
    "log-radial": LogRadial,
    "log-nu1": LogNu1,
    "elliptic-half": EllipticHalf,
}


def solution_from_descriptor(entry: dict) -> ZSolution:
    """Rebuild a ZSolution from its descriptor dict; ValueError on bad
    input, a parameter the family does not take included."""
    if not isinstance(entry, dict):
        raise ValueError("solution descriptor must be an object")
    family = entry.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    params = entry.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("'parameters' must be an object")
    unknown = sorted(set(params) - set(inspect.signature(FAMILIES[family]).parameters))
    if unknown:
        raise ValueError(f"family {family!r} takes no parameter {unknown[0]!r}")
    try:
        return FAMILIES[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from None


def _residual(rho, jet):
    """Residual of the generating equation from a jet of Z, elementwise,
    zero for exact solutions, over max(1, |rho (rho + 1) Z_rr| + |rho Z_r|
    + |Z_pp|) (``np.fmax``: a NaN size reads 1), the size of the terms that
    cancel, so that round-off on large terms reads as round-off."""
    _, z_r, _, z_rr, _, z_pp = jet[:6]
    t0, t1, t2 = rho * (rho + 1.0) * z_rr, rho * z_r, z_pp
    return (t0 + t1 + t2) / np.fmax(1.0, abs(t0) + abs(t1) + abs(t2))


def _discriminant(rho, jet) -> tuple:
    """(D, t) from a jet of Z, elementwise, with t = Z_rp - Z_p / rho and
    D = rho (rho + 1) Z_rr^2 + t^2."""
    _, _, z_p, z_rr, z_rp = jet[:5]
    t = z_rp - z_p / rho
    return rho * (rho + 1.0) * z_rr * z_rr + t * t, t


def profile_screen(z: ZSolution, lo: float, hi: float) -> tuple[float, float]:
    """(largest scaled generating-equation residual, smallest |D|) over a
    30 x 30 grid of [lo, hi] x [0, psi_period]: a jet per point, R per row,
    and the residual and D on the 30 x 30 arrays of the jets' entries.

    The smallest |D| is 0 where D changes sign between grid neighbours,
    since a zero of D lies between them.  A NaN anywhere is kept in the
    result.  The range must exclude 0.
    """
    rhos, psis = np.linspace(lo, hi, 30), np.linspace(0.0, z.psi_period, 30).tolist()
    jets = np.array([[z.jet(rho, psi) for psi in psis] for rho in rhos.tolist()])
    jet, rho = np.moveaxis(jets, -1, 0), rhos[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as on floats, unwarned
        residuals, d = _residual(rho, jet), _discriminant(rho, jet)[0]
    sign = np.sign(d)
    crossed = np.any(sign[1:] * sign[:-1] < 0.0) or np.any(sign[:, 1:] * sign[:, :-1] < 0.0)
    return float(np.max(np.abs(residuals))), 0.0 if crossed else float(np.min(np.abs(d)))


def _rotate(u, v, c, s) -> tuple:
    """The triples (u_i s + v_i c) and (u_i c - v_i s) of three pairs (u_i, v_i)."""
    return ((u[0] * s + v[0] * c, u[1] * s + v[1] * c, u[2] * s + v[2] * c),
            (u[0] * c - v[0] * s, u[1] * c - v[1] * s, u[2] * c - v[2] * s))


@dataclass(frozen=True)
class RationalFlowBundle:
    """Metric G = k M^T M, magnetic coefficient and rational integral
    generated by Z, from its frame: the scale k = gamma^2 (rho + 1) / C and
    M with columns (Z_rr, W) and (rho W, -(rho + 1) Z_rr), W = (rho Z_rp -
    Z_p) / rho^2, so det G = (k D / rho)^2.  The integral's coefficient
    pairs are half-angle rotations; it is only conserved on {H = C/2}.
    """

    z: ZSolution
    gamma: float
    c_energy: float
    rho_range: tuple

    def _frame(self, rho, psi):
        """(k, M, dk, dM, Omega) at a chart point from one jet of Z, as
        :func:`magflows.geometry._frame_system` takes them: the scale k,
        M row by row as (Z_rr, rho W, W, -(rho + 1) Z_rr), the scale's
        partials (gamma^2 / C, 0), M's rho and psi partials and the field
        (gamma/2) Z_rr."""
        _, _, z_p, z_rr, z_rp, z_pp, z_rrr, z_rrp, z_rpp = self.z.jet(rho, psi)
        w = (rho * z_rp - z_p) / (rho * rho)
        w_p = (rho * z_rpp - z_pp) / (rho * rho)
        m_r = (z_rrr, z_rrp - w, (z_rrp - 2.0 * w) / rho, -z_rr - (rho + 1.0) * z_rrr)
        m_p = (z_rrp, rho * w_p, w_p, -(rho + 1.0) * z_rrp)
        g2 = self.gamma * self.gamma
        return (g2 * (rho + 1.0) / self.c_energy, (z_rr, rho * w, w, -(rho + 1.0) * z_rr),
                (g2 / self.c_energy, 0.0), (m_r, m_p), 0.5 * self.gamma * z_rr)

    def metric_components(self, rho, psi):
        """(g11, g12, g22) at a chart point, as the system's metric gives them."""
        return _gram(*self._frame(rho, psi)[:2])

    def omega(self, rho, psi):
        """Magnetic coefficient (gamma/2) Z_rr."""
        return 0.5 * self.gamma * self.z.jet(rho, psi)[3]

    def _parts(self, rho, psi):
        """Momentum coefficient triples (p_r, p_p, constant) of the
        integral's numerator and denominator and their deferred chart
        partials from one jet of Z, which reuses R's jet at its rho, as
        :func:`magflows.integrals.ratio_integral` takes them: the
        rotations (u s + v c) and (u c - v s), c, s = cos, sin(psi/2), of
        (u, v) = (rho Z_rp - Z_p, Z_pp + rho Z_r), (-rho Z_rr, -t) and
        (gamma D, 0), with D, t from the discriminant.  A rho partial
        rotates (u_r, v_r), a psi partial (u_p - v/2, v_p + u/2), with
        Z_ppp = -rho (rho + 1) Z_rrp - rho Z_rp from the defining equation.
        """
        jet = self.z.jet(rho, psi)
        _, z_r, z_p, z_rr, z_rp, z_pp = jet[:6]
        c, s = math.cos(0.5 * psi), math.sin(0.5 * psi)
        d, t = _discriminant(rho, jet)
        g = self.gamma
        u, v = (rho * z_rp - z_p, -rho * z_rr, g * d), (z_pp + rho * z_r, -t, 0.0)

        def partials():
            z_rrr, z_rrp, z_rpp = jet[6:]
            q = rho * (rho + 1.0)
            t_r, t_p = z_rrp - z_rp / rho + z_p / rho ** 2, z_rpp - z_pp / rho
            d_r = (2.0 * rho + 1.0) * z_rr * z_rr + 2.0 * q * z_rr * z_rrr + 2.0 * t * t_r
            d_p = 2.0 * q * z_rr * z_rrp + 2.0 * t * t_p
            a_r, b_r = _rotate((rho * z_rrp, -z_rr - rho * z_rrr, g * d_r),
                               (z_rpp + z_r + rho * z_rr, -t_r, 0.0), c, s)
            a_p, b_p = _rotate((rho * z_rpp - z_pp - 0.5 * v[0], -rho * z_rrp - 0.5 * v[1], g * d_p),
                               (0.5 * u[0] - q * z_rrp, 0.5 * u[1] - t_p, 0.5 * u[2]), c, s)
            return (a_r, a_p), (b_r, b_p)

        return (*_rotate(u, v, c, s), partials)

    def as_system(self) -> MagneticSystem:
        lo, hi = self.rho_range
        vlo, vhi = self.z.valid_rho

        def predicate(rho, psi):
            return lo < rho < hi and vlo < rho < vhi and rho != 0.0

        return _frame_system(
            self._frame,
            ChartDomain(bbox=(lo, hi, 0.0, self.z.psi_period), predicate=predicate),
            energy=self.c_energy,
            name=f"rational flow ({self.z.family})",
            coords=("rho", "psi"),
        )

    def as_integral(self) -> FirstIntegral:
        return ratio_integral("F", "rational", self._parts, self.c_energy)

    def descriptor(self) -> dict:
        return {**self.z.descriptor(), "gamma": self.gamma, "c_energy": self.c_energy,
                "rho_range": list(self.rho_range), "psi_period": self.z.psi_period}


def build_bundle(
    z: ZSolution,
    gamma: float = 1.0,
    c_energy: float = 1.0,
    rho_range: Optional[tuple] = None,
    check: bool = True,
) -> RationalFlowBundle:
    """Assemble a bundle, screening the working annulus for degeneracies.

    Without ``rho_range`` the family's ``default_rho_range`` is used.  The
    screen is :func:`profile_screen`: a scaled generating-equation residual
    above 1e-10 raises DomainError (sanity, the families are exact), and a
    smallest |D| below 1e-10, or a sign change of D, raises DegenerateD,
    since the metric and the integral both collapse where D vanishes.  A
    non-finite or zero gamma (the metric scales with gamma^2) or a
    non-finite or non-positive ``c_energy`` raises DomainError, as does a
    range at whose ends the radial profile's jet or the bundle's local
    geometry is not finite (rho = -1, a tiny or huge rho, a huge gamma or
    a tiny C), or det G is 0 or not finite where D is not 0 (gamma^2 / C so
    small or large that the metric underflows or overflows), with or
    without ``check``.
    """
    gamma, c_energy = float(gamma), float(c_energy)
    if not (math.isfinite(gamma) and gamma != 0.0):
        raise DomainError(f"gamma must be finite and non-zero, got {gamma}")
    if not (math.isfinite(c_energy) and c_energy > 0.0):
        raise DomainError(f"energy constant must be positive and finite, got {c_energy}")
    if rho_range is None:
        rho_range = z.default_rho_range
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (lo < hi):
        raise DomainError(f"empty rho range ({lo}, {hi})")
    vlo, vhi = z.valid_rho
    if lo <= vlo or hi >= vhi:
        raise DomainError(f"rho range ({lo}, {hi}) leaves the validity interval "
                          f"({vlo}, {vhi}) of family {z.family!r}")
    if lo <= 0.0 <= hi:
        raise DomainError("the working rho range must exclude 0")
    bundle = RationalFlowBundle(z=z, gamma=gamma, c_energy=c_energy, rho_range=(lo, hi))
    local = bundle.as_system().local
    # the closed forms and the scale gamma^2 / C fail at extreme rho or
    # constants, not in between
    for rho in (lo, hi):
        try:
            jet = z.jet(rho, 0.0)
            (g11, g12, g22), (d_r, d_p), omega = local(rho, 0.0)
            finite = all(map(math.isfinite, (*jet, g11, g12, g22, *d_r, *d_p, omega)))
        except (ArithmeticError, DomainError):  # under- or overflow, rho (rho + 1) = 0
            finite = False
        if not finite:
            raise DomainError(f"the bundle of family {z.family!r} does not evaluate "
                              f"to finite numbers at rho = {rho}")
        det, d = g11 * g22 - g12 * g12, _discriminant(rho, jet)[0]
        if d != 0.0 and not 0.0 < abs(det) < math.inf:
            raise DomainError(f"det G = {det} at rho = {rho}, where D = {d:.6g}: the metric "
                              f"scale gamma^2 / C = {gamma * gamma / c_energy:.3g} is out of range")
    if check:
        residual, d_min = profile_screen(z, lo, hi)
        if not residual <= SCREEN_BOUND:
            raise DomainError(
                f"relative generating-equation residual {residual:.3e} on rho in "
                f"[{lo}, {hi}]; the profile is not a solution"
            )
        if not d_min >= SCREEN_BOUND:
            raise DegenerateD(
                f"|D| = {d_min:.3e} on rho in [{lo}, {hi}] (0 where D changes sign)"
            )
    return bundle


def bundle_from_descriptor(entry: dict) -> RationalFlowBundle:
    """Rebuild a bundle from a JSON descriptor; raises ValueError on schema
    violations (unknown family, wrong types, missing keys)."""
    if not isinstance(entry, dict):
        raise ValueError("bundle descriptor must be an object")
    z = solution_from_descriptor(entry)
    try:
        gamma = float(entry.get("gamma", 1.0))
        c_energy = float(entry.get("c_energy", 1.0))
        rho_range = entry.get("rho_range", z.default_rho_range)
        lo, hi = float(rho_range[0]), float(rho_range[1])
    except (TypeError, ValueError, LookupError):
        raise ValueError("bundle descriptor has malformed numeric fields") from None
    try:
        return build_bundle(z, gamma=gamma, c_energy=c_energy, rho_range=(lo, hi))
    except (DomainError, DegenerateD) as exc:
        raise ValueError(str(exc)) from None
