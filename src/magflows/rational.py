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
supplies only its radial jet, nu and psi0; :meth:`ZSolution.jet` gives the
nine partials of Z through third order by the product rule.  A bundle
builds its metric, metric partials and field from one jet per point.  Its
integral is :func:`magflows.integrals.rational_integral` over the
momentum coefficients of N and D and their chart partials, from the same
jet; the momentum algebra, the guard and the quotient rule live there.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateD, DomainError
from .geometry import ChartDomain, MagneticSystem, Metric
from .integrals import FirstIntegral, rational_integral
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
    generating linear equation, given by ``_radial`` (R, R', R'', R'''),
    ``nu`` and ``psi0``.

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

    def params(self) -> dict:
        return {}

    def _radial(self, rho: float) -> tuple[float, float, float, float]:
        """(R, R', R'', R''') at rho."""
        raise NotImplementedError

    def jet(self, rho: float, psi: float) -> tuple:
        """(Z, Z_r, Z_p, Z_rr, Z_rp, Z_pp, Z_rrr, Z_rrp, Z_rpp) at one chart
        point, by the product rule from one radial jet."""
        lo, hi = self.valid_rho
        if not (lo < rho < hi):
            raise DomainError(f"rho = {rho} outside the validity interval ({lo}, {hi}) "
                              f"of family {self.family!r}")
        r, r1, r2, r3 = self._radial(rho)
        nu = self.nu
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
        if not math.isfinite(self.psi0):
            raise DomainError(f"psi0 must be finite, got {self.psi0}")
        self.coeffs = [c / raw[-1] for c in raw]  # monic in rho^k

    def params(self) -> dict:
        return {"k": self.k, "psi0": self.psi0}

    def _radial(self, rho):
        p = p1 = p2 = p3 = 0.0
        for j in range(self.k, 0, -1):
            c = self.coeffs[j - 1]
            rj = rho ** j
            p += c * rj
            p1 += c * j * rho ** (j - 1)
            if j >= 2:
                p2 += c * j * (j - 1) * rho ** (j - 2)
            if j >= 3:
                p3 += c * j * (j - 1) * (j - 2) * rho ** (j - 3)
        return p, p1, p2, p3


class LogRadial(ZSolution):
    """Z = ln(1 + rho), the angle-independent solution (nu = 0).

    The generated flow is flat.
    """

    family = "log-radial"
    valid_rho = (-1.0, math.inf)

    def _radial(self, rho):
        s = 1.0 + rho
        return math.log(s), 1.0 / s, -1.0 / (s * s), 2.0 / s ** 3


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
        a3 = (3.0 * rho + 1.0) / (rho * rho * s ** 3)
        return a, a1, a2, a3


class EllipticHalf(ZSolution):
    """Z = S(rho) cos(psi/2) with S built from complete elliptic integrals.

    S(rho) = (4/pi) (E(-rho) - K(-rho)); the half-angle makes the integral
    4 pi periodic in psi.  Valid on rho > -1.  The radial jet takes K, E,
    dE/dm and d2E/dm2 from one AGM run.
    """

    family = "elliptic-half"
    nu = 0.5
    psi_period = 2.0 * TWO_PI
    valid_rho = (-1.0, math.inf)
    default_rho_range = (0.1, 3.0)

    def _radial(self, rho):
        m = -rho
        one_m = 1.0 - m
        kk, ee, de, d2e = elliptic_jet(m)
        w = ee - kk
        w1 = -ee / (2.0 * one_m)
        w2 = -de / (2.0 * one_m) - ee / (2.0 * one_m * one_m)
        w3 = -d2e / (2.0 * one_m) - de / (one_m * one_m) - ee / (one_m ** 3)
        c = 4.0 / math.pi
        return c * w, -c * w1, c * w2, -c * w3


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


def _residual(rho: float, jet: tuple, scaled: bool) -> float:
    """Residual of the generating equation from a jet of Z; zero for exact
    solutions.

    ``scaled`` divides it by max(1, |rho (rho + 1) Z_rr| + |rho Z_r| + |Z_pp|),
    the size of the terms that cancel, so that round-off on large terms
    reads as round-off.
    """
    _, z_r, _, z_rr, _, z_pp = jet[:6]
    terms = (rho * (rho + 1.0) * z_rr, rho * z_r, z_pp)
    residual = terms[0] + terms[1] + terms[2]
    if scaled:
        residual /= max(1.0, abs(terms[0]) + abs(terms[1]) + abs(terms[2]))
    return residual


def _discriminant(rho: float, jet: tuple) -> tuple[float, float]:
    """(D, t) from a jet of Z, with t = Z_rp - Z_p / rho and
    D = rho (rho + 1) Z_rr^2 + t^2."""
    _, _, z_p, z_rr, z_rp = jet[:5]
    t = z_rp - z_p / rho
    return rho * (rho + 1.0) * z_rr * z_rr + t * t, t


def profile_screen(z: ZSolution, lo: float, hi: float) -> tuple[float, float]:
    """(largest scaled generating-equation residual, smallest |D|) over a
    30 x 30 grid of [lo, hi] x [0, psi_period], from one jet per point.

    The smallest |D| is 0 where D changes sign between grid neighbours,
    since a zero of D lies between them.  A NaN anywhere is kept in the
    result.  The range must exclude 0.
    """
    psis = np.linspace(0.0, z.psi_period, 30).tolist()
    residuals, discriminants = [], []
    for rho in np.linspace(lo, hi, 30).tolist():
        row = []
        for psi in psis:
            jet = z.jet(rho, psi)
            residuals.append(_residual(rho, jet, scaled=True))
            row.append(_discriminant(rho, jet)[0])
        discriminants.append(row)
    d = np.array(discriminants)
    sign = np.sign(d)
    crossed = np.any(sign[1:] * sign[:-1] < 0.0) or np.any(sign[:, 1:] * sign[:, :-1] < 0.0)
    return float(np.max(np.abs(residuals))), 0.0 if crossed else float(np.min(np.abs(d)))


@dataclass(frozen=True)
class RationalFlowBundle:
    """Metric, magnetic coefficient and rational integral generated by Z.

    All metric partials are analytic, assembled from the third-order
    partials of Z.  The integral is only conserved on {H = C/2}.
    """

    z: ZSolution
    gamma: float
    c_energy: float
    rho_range: tuple
    _last_jet: list = field(default_factory=lambda: [None, None], init=False,
                            repr=False, compare=False)

    def _jet(self, rho, psi):
        """``ZSolution.jet``, kept for the last chart point, so that the
        metric, its partials, the field and the integral at one point share
        one evaluation; DomainError also at rho = 0."""
        last = self._last_jet
        if (rho, psi) != last[0]:
            if rho == 0.0:
                raise DomainError("the chart degenerates at rho = 0")
            last[:] = (rho, psi), self.z.jet(rho, psi)
        return last[1]

    def local_geometry(self, rho, psi):
        """Metric components, their partials and the magnetic coefficient
        (gamma/2) Z_rr at a chart point, all from one jet of Z: the
        bundle's ``MagneticSystem.local_geometry``."""
        _, _, z_p, zeta, z_rp, z_pp, z_rrr, z_rrp, z_rpp = self._jet(rho, psi)
        w = rho * z_rp - z_p
        g2, c = self.gamma * self.gamma, self.c_energy
        r4 = rho ** 4
        q = rho * (rho + 1.0)
        pre = g2 * (rho + 1.0) / (c * r4)
        pre2 = g2 * (rho + 1.0) / (c * rho * rho)
        base_rr = r4 * zeta * zeta + w * w
        base_pp = q * q * zeta * zeta + w * w
        components = (pre * base_rr, -pre * rho * rho * zeta * w, pre2 * base_pp)
        zeta_r, zeta_p = z_rrr, z_rrp
        w_r = rho * z_rrp
        w_p = rho * z_rpp - z_pp
        pre_r = -g2 * (3.0 * rho + 4.0) / (c * rho ** 5)
        d_rr_r = pre_r * base_rr + pre * (
            4.0 * rho ** 3 * zeta * zeta + 2.0 * r4 * zeta * zeta_r + 2.0 * w * w_r
        )
        d_rr_p = pre * (2.0 * r4 * zeta * zeta_p + 2.0 * w * w_p)
        d_rp_r = -(
            pre_r * rho * rho * zeta * w
            + pre * (2.0 * rho * zeta * w + rho * rho * zeta_r * w + rho * rho * zeta * w_r)
        )
        d_rp_p = -pre * rho * rho * (zeta_p * w + zeta * w_p)
        pre2_r = -g2 * (rho + 2.0) / (c * rho ** 3)
        q_r = 2.0 * rho + 1.0
        d_pp_r = pre2_r * base_pp + pre2 * (
            2.0 * q * q_r * zeta * zeta + 2.0 * q * q * zeta * zeta_r + 2.0 * w * w_r
        )
        d_pp_p = pre2 * (2.0 * q * q * zeta * zeta_p + 2.0 * w * w_p)
        partials = (d_rr_r, d_rp_r, d_pp_r), (d_rr_p, d_rp_p, d_pp_p)
        return components, partials, 0.5 * self.gamma * zeta

    def metric_components(self, rho, psi):
        return self.local_geometry(rho, psi)[0]

    def metric_partials(self, rho, psi):
        return self.local_geometry(rho, psi)[1]

    def omega(self, rho, psi):
        """Magnetic coefficient (gamma/2) Z_rr."""
        return self.local_geometry(rho, psi)[2]

    def _parts(self, rho, psi):
        """Momentum coefficient triples (a0, a1, gamma D sin(psi/2)) of the
        rational integral's numerator and (b0, b1, gamma D cos(psi/2)) of
        its denominator (the coefficients of p_r and p_p and the constant
        term, with D the discriminant) and their deferred chart partials,
        all from one ``_jet`` call: the parts that
        :func:`magflows.integrals.rational_integral` takes.

        Coordinate derivatives of the coefficients need third partials of
        Z; the missing Z_ppp is expressed through the defining equation,
        Z_ppp = -rho (rho + 1) Z_rrp - rho Z_rp, exact on every shipped
        solution.
        """
        jet = self._jet(rho, psi)
        _, z_r, z_p, z_rr, z_rp, z_pp = jet[:6]
        c, s = math.cos(0.5 * psi), math.sin(0.5 * psi)
        a0 = rho * z_rp * s + z_pp * c + rho * z_r * c - z_p * s
        b0 = rho * z_rp * c - z_pp * s - rho * z_r * s - z_p * c
        a1 = -rho * z_rr * s - z_rp * c + (z_p / rho) * c
        b1 = -rho * z_rr * c + z_rp * s - (z_p / rho) * s
        d, t = _discriminant(rho, jet)
        g = self.gamma

        def partials():
            _, z_r, z_p, z_rr, z_rp, z_pp, z_rrr, z_rrp, z_rpp = jet
            z_ppp = -rho * (rho + 1.0) * z_rrp - rho * z_rp

            a0_r = rho * z_rrp * s + z_rpp * c + z_r * c + rho * z_rr * c
            b0_r = rho * z_rrp * c - z_rpp * s - z_r * s - rho * z_rr * s
            a1_r = -(z_rr + rho * z_rrr) * s - z_rrp * c + (z_rp / rho - z_p / rho ** 2) * c
            b1_r = -(z_rr + rho * z_rrr) * c + z_rrp * s - (z_rp / rho - z_p / rho ** 2) * s
            t_r = z_rrp - z_rp / rho + z_p / rho ** 2
            d_r = (2.0 * rho + 1.0) * z_rr * z_rr + 2.0 * rho * (rho + 1.0) * z_rr * z_rrr + 2.0 * t * t_r

            a0_p = (rho * z_rpp * s + z_ppp * c + 1.5 * rho * z_rp * c
                    - 1.5 * z_pp * s - 0.5 * rho * z_r * s - 0.5 * z_p * c)
            b0_p = (rho * z_rpp * c - z_ppp * s - 1.5 * rho * z_rp * s
                    - 1.5 * z_pp * c - 0.5 * rho * z_r * c + 0.5 * z_p * s)
            a1_p = (-rho * z_rrp * s - 0.5 * rho * z_rr * c - z_rpp * c
                    + 0.5 * z_rp * s + (z_pp / rho) * c - 0.5 * (z_p / rho) * s)
            b1_p = (-rho * z_rrp * c + 0.5 * rho * z_rr * s + z_rpp * s
                    + 0.5 * z_rp * c - (z_pp / rho) * s - 0.5 * (z_p / rho) * c)
            t_p = z_rpp - z_pp / rho
            d_p = 2.0 * rho * (rho + 1.0) * z_rr * z_rrp + 2.0 * t * t_p

            return (((a0_r, a1_r, g * d_r * s), (a0_p, a1_p, g * (d_p * s + 0.5 * d * c))),
                    ((b0_r, b1_r, g * d_r * c), (b0_p, b1_p, g * (d_p * c - 0.5 * d * s))))

        return (a0, a1, g * d * s), (b0, b1, g * d * c), partials

    def as_system(self) -> MagneticSystem:
        lo, hi = self.rho_range
        vlo, vhi = self.z.valid_rho

        def predicate(rho, psi):
            return lo < rho < hi and vlo < rho < vhi and rho != 0.0

        domain = ChartDomain(bbox=(lo, hi, 0.0, self.z.psi_period), predicate=predicate)
        metric = Metric(components=self.metric_components, partials=self.metric_partials)
        return MagneticSystem(
            metric=metric,
            field=self.omega,
            local=self.local_geometry,
            domain=domain,
            energy=self.c_energy,
            name=f"rational flow ({self.z.family})",
            coords=("rho", "psi"),
        )

    def as_integral(self) -> FirstIntegral:
        return rational_integral("F", self._parts, self.c_energy)

    def descriptor(self) -> dict:
        d = self.z.descriptor()
        d.update(
            {
                "gamma": self.gamma,
                "c_energy": self.c_energy,
                "rho_range": [self.rho_range[0], self.rho_range[1]],
                "psi_period": self.z.psi_period,
            }
        )
        return d


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
    geometry is not finite (a tiny or huge rho, a huge gamma or a tiny
    C), with or without ``check``.
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
        raise DomainError(
            f"rho range ({lo}, {hi}) leaves the validity interval "
            f"({vlo}, {vhi}) of family {z.family!r}"
        )
    if lo <= 0.0 <= hi:
        raise DomainError("the working rho range must exclude 0")
    bundle = RationalFlowBundle(
        z=z, gamma=gamma, c_energy=c_energy, rho_range=(lo, hi)
    )
    # the closed forms and the prefactors gamma^2 / (C rho^n) fail at
    # extreme rho, not in between
    for rho in (lo, hi):
        try:
            components, (d_r, d_p), omega = bundle.local_geometry(rho, 0.0)
            values = (*bundle._jet(rho, 0.0), *components, *d_r, *d_p, omega)
            finite = all(map(math.isfinite, values))
        except ArithmeticError:  # rho * rho or C rho^5 underflows to 0, rho ** 3 overflows
            finite = False
        if not finite:
            raise DomainError(f"the bundle of family {z.family!r} does not evaluate "
                              f"to finite numbers at rho = {rho}")
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
