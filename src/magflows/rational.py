"""Flows with momentum-rational first integrals built from solutions of a
linear second-order equation in a half-angle chart.

Every solution Z(rho, psi) of

    rho (rho + 1) Z_rr + rho Z_r + Z_pp = 0

with nonvanishing discriminant D = rho (rho + 1) Z_rr^2 + (Z_rp - Z_p/rho)^2
generates a metric, a magnetic coefficient and a first integral that is a
ratio of two expressions linear in momenta, conserved on the energy level
{H = C/2}.  This module ships four closed-form solution families with
analytic partials through third order (the metric partials need them), the
bundle assembly, the chart-to-plane map, and the Riemann-invariant
coordinates that diagonalize the underlying quasilinear system on the
hyperbolic strip -1 < rho < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateD, DomainError, NearPole
from .geometry import ChartDomain, MagneticSystem, Metric
from .integrals import FirstIntegral
from .specfun import (
    elliptic_E,
    elliptic_K,
    elliptic_d2E,
    elliptic_dE,
    terminating_2f1_coeffs,
)

__all__ = [
    "ZSolution",
    "PolynomialCos",
    "LogRadial",
    "LogNu1",
    "EllipticHalf",
    "FAMILIES",
    "pde511_residual",
    "condition_D",
    "RationalFlowBundle",
    "build_bundle",
    "bundle_from_descriptor",
    "chart_to_xy",
    "xy_to_chart_logradial",
    "riemann_invariants",
    "from_riemann",
    "characteristic_speeds",
]

TWO_PI = 2.0 * math.pi


class ZSolution:
    """A closed-form solution of the generating linear equation.

    Subclasses provide partial derivatives through second order via
    ``partials`` and the three third-order partials entering the metric
    partials via ``third_partials``.  ``valid_rho`` is the open interval
    on which the formulas make sense; ``psi_period`` is the period of the
    generated integral in the angular variable; ``default_rho_range`` is
    the working annulus used when none is given.
    """

    family: str = ""
    psi_period: float = TWO_PI
    valid_rho: tuple = (-math.inf, math.inf)
    default_rho_range: tuple = (0.05, 5.0)

    def params(self) -> dict:
        return {}

    def check_rho(self, rho: float) -> None:
        lo, hi = self.valid_rho
        if not (lo < rho < hi):
            raise DomainError(
                f"rho = {rho} outside the validity interval ({lo}, {hi}) "
                f"of family {self.family!r}"
            )

    def partials(self, rho: float, psi: float):
        """(Z, Z_r, Z_p, Z_rr, Z_rp, Z_pp) at one chart point."""
        raise NotImplementedError

    def third_partials(self, rho: float, psi: float):
        """(Z_rrr, Z_rrp, Z_rpp) at one chart point."""
        raise NotImplementedError

    def value(self, rho: float, psi: float) -> float:
        return self.partials(rho, psi)[0]

    def descriptor(self) -> dict:
        return {"family": self.family, "parameters": self.params()}


class PolynomialCos(ZSolution):
    """Z = P_k(rho) cos(k (psi + psi0)) with P_k a degree-k polynomial.

    The coefficients come from the terminating hypergeometric recurrence,
    rescaled so that the polynomial is monic; k = 2, psi0 = 0 gives
    P = (2/3) rho + rho^2.
    """

    family = "poly-cos"

    def __init__(self, k: int, psi0: float = 0.0):
        if k < 1:
            raise DomainError("the polynomial family needs k >= 1")
        raw = terminating_2f1_coeffs(k)
        self.k = int(k)
        self.psi0 = float(psi0)
        self.coeffs = [c / raw[-1] for c in raw]  # monic in rho^k
        self.psi_period = TWO_PI

    def params(self) -> dict:
        return {"k": self.k, "psi0": self.psi0}

    def _radial(self, rho: float):
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

    def partials(self, rho, psi):
        k = self.k
        u = k * (psi + self.psi0)
        cu, su = math.cos(u), math.sin(u)
        p, p1, p2, _ = self._radial(rho)
        return (p * cu, p1 * cu, -k * p * su, p2 * cu, -k * p1 * su, -k * k * p * cu)

    def third_partials(self, rho, psi):
        k = self.k
        u = k * (psi + self.psi0)
        cu, su = math.cos(u), math.sin(u)
        _, p1, p2, p3 = self._radial(rho)
        return (p3 * cu, -k * p2 * su, -k * k * p1 * cu)


class LogRadial(ZSolution):
    """Z = ln(1 + rho), the angle-independent solution.

    The generated flow is flat and admits a closed-form transition to the
    plane chart; see ``xy_to_chart_logradial``.
    """

    family = "log-radial"
    valid_rho = (-1.0, math.inf)

    def partials(self, rho, psi):
        self.check_rho(rho)
        s = 1.0 + rho
        return (math.log(s), 1.0 / s, 0.0, -1.0 / (s * s), 0.0, 0.0)

    def third_partials(self, rho, psi):
        self.check_rho(rho)
        s = 1.0 + rho
        return (2.0 / s ** 3, 0.0, 0.0)


class LogNu1(ZSolution):
    """Z = (rho ln(1 + 1/rho) - 1) cos(psi) on rho > 0."""

    family = "log-nu1"
    valid_rho = (0.0, math.inf)

    def _radial(self, rho):
        s = rho + 1.0
        ell = math.log1p(1.0 / rho)
        a = rho * ell - 1.0
        a1 = ell - 1.0 / s
        a2 = -1.0 / (rho * s * s)
        a3 = (3.0 * rho + 1.0) / (rho * rho * s ** 3)
        return a, a1, a2, a3

    def partials(self, rho, psi):
        self.check_rho(rho)
        cp, sp = math.cos(psi), math.sin(psi)
        a, a1, a2, _ = self._radial(rho)
        return (a * cp, a1 * cp, -a * sp, a2 * cp, -a1 * sp, -a * cp)

    def third_partials(self, rho, psi):
        self.check_rho(rho)
        cp, sp = math.cos(psi), math.sin(psi)
        _, a1, a2, a3 = self._radial(rho)
        return (a3 * cp, -a2 * sp, -a1 * cp)


class EllipticHalf(ZSolution):
    """Z = S(rho) cos(psi/2) with S built from complete elliptic integrals.

    S(rho) = (4/pi) (E(-rho) - K(-rho)); the half-angle makes the integral
    4 pi periodic in psi.  Valid on rho > -1.
    """

    family = "elliptic-half"
    psi_period = 2.0 * TWO_PI
    valid_rho = (-1.0, math.inf)
    default_rho_range = (0.1, 3.0)

    def _radial(self, rho):
        m = -rho
        one_m = 1.0 - m
        kk = elliptic_K(m)
        ee = elliptic_E(m)
        de = elliptic_dE(m)
        d2e = elliptic_d2E(m)
        w = ee - kk
        w1 = -ee / (2.0 * one_m)
        w2 = -de / (2.0 * one_m) - ee / (2.0 * one_m * one_m)
        w3 = -d2e / (2.0 * one_m) - de / (one_m * one_m) - ee / (one_m ** 3)
        c = 4.0 / math.pi
        return c * w, -c * w1, c * w2, -c * w3

    def partials(self, rho, psi):
        self.check_rho(rho)
        h = 0.5 * psi
        ch, sh = math.cos(h), math.sin(h)
        s, s1, s2, _ = self._radial(rho)
        return (s * ch, s1 * ch, -0.5 * s * sh, s2 * ch, -0.5 * s1 * sh, -0.25 * s * ch)

    def third_partials(self, rho, psi):
        self.check_rho(rho)
        h = 0.5 * psi
        ch, sh = math.cos(h), math.sin(h)
        _, s1, s2, s3 = self._radial(rho)
        return (s3 * ch, -0.5 * s2 * sh, -0.25 * s1 * ch)


FAMILIES = {
    "poly-cos": PolynomialCos,
    "log-radial": LogRadial,
    "log-nu1": LogNu1,
    "elliptic-half": EllipticHalf,
}


def solution_from_descriptor(entry: dict) -> ZSolution:
    """Rebuild a ZSolution from its descriptor dict; ValueError on bad input."""
    if not isinstance(entry, dict):
        raise ValueError("solution descriptor must be an object")
    family = entry.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    params = entry.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("'parameters' must be an object")
    try:
        return FAMILIES[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from None


def pde511_residual(z: ZSolution, rho: float, psi: float, scaled: bool = False) -> float:
    """Residual of the generating equation; zero for exact solutions.

    ``scaled`` divides it by max(1, |rho (rho + 1) Z_rr| + |rho Z_r| + |Z_pp|),
    the size of the terms that cancel, so that round-off on large terms
    reads as round-off.
    """
    _, z_r, _, z_rr, _, z_pp = z.partials(rho, psi)
    terms = (rho * (rho + 1.0) * z_rr, rho * z_r, z_pp)
    residual = terms[0] + terms[1] + terms[2]
    if scaled:
        residual /= max(1.0, abs(terms[0]) + abs(terms[1]) + abs(terms[2]))
    return residual


def condition_D(z: ZSolution, rho: float, psi: float) -> float:
    """Discriminant whose zeros must be excluded from a working domain."""
    if rho == 0.0:
        raise DomainError("the discriminant is undefined at rho = 0")
    _, _, z_p, z_rr, z_rp, _ = z.partials(rho, psi)
    t = z_rp - z_p / rho
    return rho * (rho + 1.0) * z_rr * z_rr + t * t


@dataclass(frozen=True)
class RationalFlowBundle:
    """Metric, magnetic coefficient and rational integral generated by Z.

    All metric partials are analytic, assembled from the third-order
    partials of Z.  The integral is only conserved on {H = C/2}.
    """

    z: ZSolution
    gamma: float = 1.0
    c_energy: float = 1.0
    rho_range: tuple = (0.05, 5.0)
    denominator_floor: float = 1e-8

    def _core(self, rho, psi):
        z = self.z
        z.check_rho(rho)
        if rho == 0.0:
            raise DomainError("the chart degenerates at rho = 0")
        _, z_r, z_p, z_rr, z_rp, z_pp = z.partials(rho, psi)
        w = rho * z_rp - z_p
        return z_r, z_p, z_rr, z_rp, z_pp, w

    def metric_components(self, rho, psi):
        _, _, z_rr, _, _, w = self._core(rho, psi)
        g2, c = self.gamma * self.gamma, self.c_energy
        pre = g2 * (rho + 1.0) / (c * rho ** 4)
        q = rho * (rho + 1.0)
        g_rr = pre * (rho ** 4 * z_rr * z_rr + w * w)
        g_rp = -pre * rho * rho * z_rr * w
        g_pp = (g2 * (rho + 1.0) / (c * rho * rho)) * (q * q * z_rr * z_rr + w * w)
        return g_rr, g_rp, g_pp

    def metric_partials(self, rho, psi):
        _, _, zeta, _, z_pp, w = self._core(rho, psi)
        z_rrr, z_rrp, z_rpp = self.z.third_partials(rho, psi)
        g2, c = self.gamma * self.gamma, self.c_energy
        zeta_r, zeta_p = z_rrr, z_rrp
        w_r = rho * z_rrp
        w_p = rho * z_rpp - z_pp
        pre = g2 * (rho + 1.0) / (c * rho ** 4)
        pre_r = -g2 * (3.0 * rho + 4.0) / (c * rho ** 5)
        r4 = rho ** 4
        base_rr = r4 * zeta * zeta + w * w
        d_rr_r = pre_r * base_rr + pre * (
            4.0 * rho ** 3 * zeta * zeta + 2.0 * r4 * zeta * zeta_r + 2.0 * w * w_r
        )
        d_rr_p = pre * (2.0 * r4 * zeta * zeta_p + 2.0 * w * w_p)
        d_rp_r = -(
            pre_r * rho * rho * zeta * w
            + pre * (2.0 * rho * zeta * w + rho * rho * zeta_r * w + rho * rho * zeta * w_r)
        )
        d_rp_p = -pre * rho * rho * (zeta_p * w + zeta * w_p)
        pre2 = g2 * (rho + 1.0) / (c * rho * rho)
        pre2_r = -g2 * (rho + 2.0) / (c * rho ** 3)
        q = rho * (rho + 1.0)
        q_r = 2.0 * rho + 1.0
        base_pp = q * q * zeta * zeta + w * w
        d_pp_r = pre2_r * base_pp + pre2 * (
            2.0 * q * q_r * zeta * zeta + 2.0 * q * q * zeta * zeta_r + 2.0 * w * w_r
        )
        d_pp_p = pre2 * (2.0 * q * q * zeta * zeta_p + 2.0 * w * w_p)
        return (d_rr_r, d_rp_r, d_pp_r), (d_rr_p, d_rp_p, d_pp_p)

    def omega(self, rho, psi):
        """Magnetic coefficient (gamma/2) Z_rr."""
        _, _, z_rr, _, _, _ = self._core(rho, psi)
        return 0.5 * self.gamma * z_rr

    def discriminant(self, rho, psi):
        return condition_D(self.z, rho, psi)

    def _coefficients(self, rho, psi):
        """Half-angle cosine and sine, the partials of Z from one ``_core``
        call, and the coefficient block (a0, a1, b0, b1, D, t) with
        t = Z_rp - Z_p / rho."""
        core = self._core(rho, psi)
        z_r, z_p, z_rr, z_rp, z_pp, _ = core
        c, s = math.cos(0.5 * psi), math.sin(0.5 * psi)
        a0 = rho * z_rp * s + z_pp * c + rho * z_r * c - z_p * s
        b0 = rho * z_rp * c - z_pp * s - rho * z_r * s - z_p * c
        a1 = -rho * z_rr * s - z_rp * c + (z_p / rho) * c
        b1 = -rho * z_rr * c + z_rp * s - (z_p / rho) * s
        t = z_rp - z_p / rho
        d = rho * (rho + 1.0) * z_rr * z_rr + t * t
        return c, s, core, (a0, a1, b0, b1, d, t)

    def integral_coefficients(self, rho, psi):
        """Momentum coefficients (a0, a1, b0, b1) and discriminant D of the
        rational integral (a0 p_r + a1 p_p + gamma D sin(psi/2)) /
        (b0 p_r + b1 p_p + gamma D cos(psi/2))."""
        return self._coefficients(rho, psi)[3][:5]

    def _quotient(self, state):
        """Numerator and denominator of the integral at a phase point, with
        everything ``_coefficients`` returns; NearPole where the denominator
        is below the floor."""
        rho, psi, p_r, p_p = state
        c, s, core, coeffs = self._coefficients(rho, psi)
        a0, a1, b0, b1, d, _ = coeffs
        den = b0 * p_r + b1 * p_p + self.gamma * d * c
        if not abs(den) >= self.denominator_floor:
            raise NearPole(
                f"integral denominator {den:.3e} below floor at "
                f"(rho, psi) = ({rho}, {psi})"
            )
        num = a0 * p_r + a1 * p_p + self.gamma * d * s
        return num, den, c, s, core, coeffs

    def integral_value(self, state) -> float:
        num, den = self._quotient(state)[:2]
        return num / den

    def integral_gradient(self, state) -> np.ndarray:
        """Phase gradient of the rational integral by the quotient rule.

        Coordinate derivatives of the coefficients need third partials of
        Z; the missing Z_ppp is expressed through the defining equation,
        Z_ppp = -rho (rho + 1) Z_rrp - rho Z_rp, exact on every shipped
        solution.
        """
        rho, psi, p_r, p_p = state
        num, den, c, s, core, (a0, a1, b0, b1, d, t) = self._quotient(state)
        z_r, z_p, z_rr, z_rp, z_pp, _ = core
        z_rrr, z_rrp, z_rpp = self.z.third_partials(rho, psi)
        z_ppp = -rho * (rho + 1.0) * z_rrp - rho * z_rp
        g = self.gamma

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

        num_grad = np.array([
            a0_r * p_r + a1_r * p_p + g * d_r * s,
            a0_p * p_r + a1_p * p_p + g * (d_p * s + 0.5 * d * c),
            a0,
            a1,
        ])
        den_grad = np.array([
            b0_r * p_r + b1_r * p_p + g * d_r * c,
            b0_p * p_r + b1_p * p_p + g * (d_p * c - 0.5 * d * s),
            b0,
            b1,
        ])
        return (num_grad * den - num * den_grad) / (den * den)

    def _denominator_ok(self, state) -> bool:
        try:
            self._quotient(state)
        except (DomainError, NearPole):
            return False
        return True

    def as_system(self, name: Optional[str] = None) -> MagneticSystem:
        lo, hi = self.rho_range
        vlo, vhi = self.z.valid_rho

        def predicate(rho, psi):
            return lo < rho < hi and vlo < rho < vhi and rho != 0.0

        domain = ChartDomain(bbox=(lo, hi, 0.0, self.z.psi_period), predicate=predicate)
        metric = Metric(components=self.metric_components, partials=self.metric_partials)
        return MagneticSystem(
            metric=metric,
            field=self.omega,
            domain=domain,
            energy=self.c_energy,
            name=name or f"rational flow ({self.z.family})",
            coords=("rho", "psi"),
        )

    def as_integral(self, name: str = "F") -> FirstIntegral:
        return FirstIntegral(
            name=name,
            kind="rational",
            func=self.integral_value,
            grad=self.integral_gradient,
            level=self.c_energy,
            guard=self._denominator_ok,
        )

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
    rho_range: tuple = (0.05, 5.0),
    check: bool = True,
    grid: tuple = (13, 24),
) -> RationalFlowBundle:
    """Assemble a bundle, screening the working annulus for degeneracies.

    The screen evaluates the generating-equation residual relative to its
    terms (sanity, the families are exact) and the discriminant on a
    coarse grid; any |D| < 1e-10 raises DegenerateD, since the metric and
    the integral both collapse where D vanishes.
    """
    if not c_energy > 0.0:
        raise DomainError(f"energy constant must be positive, got {c_energy}")
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
        z=z, gamma=float(gamma), c_energy=float(c_energy), rho_range=(lo, hi)
    )
    if check:
        n_r, n_p = grid
        for rho in np.linspace(lo, hi, n_r):
            for psi in np.linspace(0.0, z.psi_period, n_p, endpoint=False):
                res = pde511_residual(z, float(rho), float(psi), scaled=True)
                if abs(res) > 1e-8:
                    raise DomainError(
                        f"relative generating-equation residual {res:.3e} at "
                        f"({rho}, {psi}); the profile is not a solution"
                    )
                d = condition_D(z, float(rho), float(psi))
                if abs(d) < 1e-10:
                    raise DegenerateD(
                        f"|D| = {abs(d):.3e} at (rho, psi) = ({rho}, {psi})"
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
        rho_range = entry.get("rho_range", [0.05, 5.0])
        lo, hi = float(rho_range[0]), float(rho_range[1])
    except (TypeError, ValueError, IndexError):
        raise ValueError("bundle descriptor has malformed numeric fields") from None
    try:
        return build_bundle(z, gamma=gamma, c_energy=c_energy, rho_range=(lo, hi))
    except (DomainError, DegenerateD) as exc:
        raise ValueError(str(exc)) from None


def chart_to_xy(z: ZSolution, rho: float, psi: float) -> tuple[float, float]:
    """Plane coordinates of a chart point:

    x = -Z_r cos(psi) + (Z_p / rho) sin(psi),
    y =  Z_r sin(psi) + (Z_p / rho) cos(psi).
    """
    if rho == 0.0:
        raise DomainError("the chart map degenerates at rho = 0")
    _, z_r, z_p, _, _, _ = z.partials(rho, psi)
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


def riemann_invariants(rho: float, psi: float) -> tuple[float, float]:
    """Riemann invariants of the hyperbolic strip -1 < rho < 0.

    Principal branch: r1 >= r2 with r1 - r2 in (0, 2 pi], and
    psi = (r1 + r2)/2, rho = -sin^2((r1 - r2)/4).
    """
    if not (-1.0 < rho < 0.0):
        raise DomainError(f"rho = {rho} is outside the hyperbolic strip (-1, 0)")
    theta = math.asin(math.sqrt(-rho))
    return psi + 2.0 * theta, psi - 2.0 * theta


def from_riemann(r1: float, r2: float) -> tuple[float, float]:
    """Chart point from Riemann invariants (left inverse of
    ``riemann_invariants`` on the principal branch)."""
    psi = 0.5 * (r1 + r2)
    s = math.sin(0.25 * (r1 - r2))
    return -s * s, psi


def characteristic_speeds(r1: float, r2: float) -> tuple[float, float]:
    """Characteristic slopes tan((3 r1 + r2)/4) and tan((r1 + 3 r2)/4).

    Each invariant is transported with its own slope; NearPole is raised
    within 1e-6 of a tangent pole.
    """
    speeds = []
    for arg in (0.25 * (3.0 * r1 + r2), 0.25 * (r1 + 3.0 * r2)):
        d = (arg - 0.5 * math.pi) % math.pi
        d = min(d, math.pi - d)
        if d < 1e-6:
            raise NearPole(f"characteristic slope pole near argument {arg}")
        speeds.append(math.tan(arg))
    return speeds[0], speeds[1]
