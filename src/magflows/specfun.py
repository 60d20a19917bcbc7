"""Gauss hypergeometric series and complete elliptic integrals.

The solution families of the rational-integral pipeline need 2F1 only for
real parameters, and only where the Pochhammer series either terminates
(a or b a nonpositive integer) or converges (|z| < 1).  The complete
elliptic integrals K and E are computed together by one run of the
arithmetic-geometric mean, which converges quadratically and is accurate
to machine precision for every parameter m < 1, including m < 0.

The derivative of E follows the classical identity (DLMF 19.4)

    dE/dm = (E - K) / (2 m),

which is 0/0 at m = 0 and cancels to O(eps / m) near it, so for |m| below
0.05 it comes from the Maclaurin series of E summed to convergence
instead.  Higher derivatives are not needed: the elliptic-half profile
takes its third radial derivative from the generating equation.
"""

from __future__ import annotations

import math

from .errors import (
    CoefficientOverflow,
    DomainError,
    PoleInC,
    SeriesDivergence,
)

__all__ = [
    "hyp2f1",
    "terminating_2f1_coeffs",
    "elliptic_jet",
]

_MAX_TERMS = 4000
_SERIES_EPS = 1e-16
_AGM_GAP = 1e-15
_AGM_MAX_ITER = 40
# switch from the closed-form derivative identity to the Maclaurin series;
# shipped elliptic-half outputs use m <= -0.1, on the closed-form side
_SMALL_M = 0.05


def _nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real arguments.

    Sums the Pochhammer series sum_n (a)_n (b)_n / ((c)_n n!) z^n.  The
    series is summed to its exact degree when a or b is a nonpositive
    integer (polynomial case, any z); otherwise |z| < 1 is required and
    summation stops once |term| < 1e-16 * |partial sum|.

    Parameters
    ----------
    a, b, c : float
        Real parameters; c must not be a nonpositive integer.
    z : float
        Real argument.

    Returns
    -------
    float

    Raises
    ------
    PoleInC
        If c is in {0, -1, -2, ...}.
    SeriesDivergence
        If |z| >= 1 in the non-polynomial case, or 4000 terms did not
        reach the stopping criterion.
    """
    if _nonpositive_integer(c):
        raise PoleInC(f"lower parameter c = {c} is a nonpositive integer")

    degree = None
    for s in (a, b):
        if _nonpositive_integer(s):
            d = int(round(-s))
            degree = d if degree is None else min(degree, d)

    term = 1.0
    total = 1.0
    if degree is not None:
        # polynomial: exactly degree+1 terms, valid for every z
        for n in range(degree):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
        return total

    if abs(z) >= 1.0:
        raise SeriesDivergence(
            f"series argument |z| = {abs(z)} >= 1 outside the convergence disc"
        )
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < _SERIES_EPS * abs(total):
            return total
    raise SeriesDivergence(
        f"no convergence after {_MAX_TERMS} terms at z = {z}"
    )


def terminating_2f1_coeffs(k: int) -> list[float]:
    """Coefficients c_1..c_k of the degree-k polynomial proportional to
    rho * 2F1(1-k, 1+k; 2; -rho).

    Built by the overflow-safe ratio recurrence

        c_1 = 1,   c_{j+1} = c_j (k+j)(k-j) / (j (j+1)),

    equivalent to c_j = (k+j-1)! / (k (k-j)! (j-1)! j!).  The returned
    normalization fixes c_1 = 1; callers that want a different scaling
    (for example monic) rescale the list.  The limit k <= 60 is on the
    coefficients alone: on the default rho range (0.05, 5) the poly-cos
    bundle passes ``build-rational`` for k <= 17, k = 18 fails the
    bracket scan's absolute bound (3.0e-6) and k >= 19 fails d_min
    (9.4e-11 at k = 19), so higher degrees need a range away from 0.05.

    Raises
    ------
    DomainError
        If k < 1 or k is not integral.
    CoefficientOverflow
        If k > 60 (documented limit; the coefficients grow roughly
        like 4^k).
    """
    if not (math.isfinite(k) and k >= 1 and int(k) == k):
        raise DomainError(f"polynomial degree must be a positive integer, got {k}")
    k = int(k)
    if k > 60:
        raise CoefficientOverflow(f"degree {k} exceeds the supported limit 60")
    coeffs = [1.0]
    for j in range(1, k):
        coeffs.append(coeffs[-1] * (k + j) * (k - j) / (j * (j + 1.0)))
    return coeffs


def _agm(m: float) -> tuple[float, float]:
    """K(m) and E(m), m < 1, from one arithmetic-geometric mean run of 1
    and sqrt(1-m): K = pi / (2 a_N), and the companion sum gives
    E = K (1 - sum_n 2^{n-1} c_n^2), c_0^2 = m, c_n = (a_{n-1} - b_{n-1})/2.
    """
    a, b = 1.0, math.sqrt(1.0 - m)
    s = 0.5 * m
    f = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_GAP * max(abs(a), abs(b)):
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        f *= 2.0
        s += f * c * c
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - s)


def _series_derivative(m: float) -> float:
    """dE/dm at |m| < _SMALL_M from the Maclaurin series
    E = (pi/2) sum c_n m^n / (1 - 2n), where c_0 = 1 and
    c_n = c_{n-1} ((2n-1)/(2n))^2 are the coefficients of K, summed to
    convergence."""
    c, power = 1.0, 1.0  # c_n, m^(n-1)
    de = 0.0
    for n in range(1, _MAX_TERMS):
        c *= ((2 * n - 1) / (2 * n)) ** 2
        term = n * (c / (1 - 2 * n)) * power
        de += term
        if abs(term) <= _SERIES_EPS * abs(de):
            break
        power *= m
    return 0.5 * math.pi * de


def elliptic_jet(m: float) -> tuple[float, float, float]:
    """(K, E, dE/dm) at m < 1 from one AGM run, in the parameter
    convention K(m) = int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt and
    E(m) = int_0^{pi/2} (1 - m sin^2 t)^{1/2} dt; the derivative is the
    closed form of the module docstring, or the series near 0."""
    if m >= 1.0:
        raise DomainError(f"the elliptic jet requires m < 1, got {m}")
    k, e = _agm(m)
    de = _series_derivative(m) if abs(m) < _SMALL_M else (e - k) / (2.0 * m)
    return k, e, de
