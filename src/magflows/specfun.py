"""Gauss hypergeometric series and complete elliptic integrals.

The solution families of the rational-integral pipeline need 2F1 only for
real parameters, and only where the Pochhammer series either terminates
(a or b a nonpositive integer) or converges (|z| < 1).  The complete
elliptic integrals K and E are computed together by one run of the
arithmetic-geometric mean, which converges quadratically and is accurate
to machine precision for every parameter m < 1, including m < 0.

Derivatives of K and E follow the classical identities (DLMF 19.4)

    dK/dm   = (E - (1-m) K) / (2 m (1-m)),
    dE/dm   = (E - K) / (2 m),
    d2E/dm2 = -E / (4 m (1-m)) - (E - K) / (2 m^2),

the last from differentiating the second with E' - K' = -E / (2 (1-m)).
They are 0/0 at m = 0 and cancel to O(eps / m^2) near it, so for |m| below
0.05 the derivatives come from the Maclaurin series of K and E summed to
convergence instead.
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
    "elliptic_K",
    "elliptic_E",
    "elliptic_dK",
    "elliptic_dE",
    "elliptic_d2E",
    "elliptic_jet",
]

_MAX_TERMS = 4000
_SERIES_EPS = 1e-16
_AGM_GAP = 1e-15
_AGM_MAX_ITER = 40
# switch from the closed-form derivative identities to Maclaurin series;
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
        If |z| >= 1 in the non-polynomial case, or 500 terms did not
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
    (for example monic) rescale the list.

    Raises
    ------
    DomainError
        If k < 1 or k is not integral.
    CoefficientOverflow
        If k > 60 (documented limit; the coefficients grow roughly
        like 4^k).
    """
    if int(k) != k or k < 1:
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


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention
    K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt.

    Arithmetic-geometric mean of 1 and sqrt(1-m); valid for every m < 1
    (logarithmic pole at m = 1).
    """
    if m >= 1.0:
        raise DomainError(f"K(m) requires m < 1, got {m}")
    return _agm(m)[0]


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind,
    E(m) = integral_0^{pi/2} (1 - m sin^2 t)^{1/2} dt.

    The same AGM run as :func:`elliptic_K`, with its companion sum.  Valid
    for m <= 1; E(1) = 1 exactly.
    """
    if m > 1.0:
        raise DomainError(f"E(m) requires m <= 1, got {m}")
    if m == 1.0:
        return 1.0
    return _agm(m)[1]


def _series_derivatives(m: float) -> tuple[float, float, float]:
    """(dK/dm, dE/dm, d2E/dm2) at |m| < _SMALL_M from the Maclaurin series
    K = (pi/2) sum c_n m^n and E = (pi/2) sum c_n m^n / (1 - 2n), where
    c_0 = 1 and c_n = c_{n-1} ((2n-1)/(2n))^2, summed to convergence."""
    c, power, lower = 1.0, 1.0, 0.0  # c_n, m^(n-1), m^(n-2)
    dk = de = d2e = 0.0
    for n in range(1, _MAX_TERMS):
        c *= ((2 * n - 1) / (2 * n)) ** 2
        e_n = c / (1 - 2 * n)
        terms = (n * c * power, n * e_n * power, n * (n - 1) * e_n * lower)
        dk, de, d2e = dk + terms[0], de + terms[1], d2e + terms[2]
        if n > 1 and all(abs(t) <= _SERIES_EPS * abs(v) for t, v in zip(terms, (dk, de, d2e))):
            break
        power, lower = power * m, power
    return tuple(0.5 * math.pi * v for v in (dk, de, d2e))


def elliptic_jet(m: float) -> tuple[float, float, float, float]:
    """(K, E, dE/dm, d2E/dm2) at m < 1 from one AGM run; the derivatives
    are the closed forms of the module docstring, or the series near 0."""
    if m >= 1.0:
        raise DomainError(f"the elliptic jet requires m < 1, got {m}")
    k, e = _agm(m)
    if abs(m) < _SMALL_M:
        _, de, d2e = _series_derivatives(m)
    else:
        de = (e - k) / (2.0 * m)
        d2e = -e / (4.0 * m * (1.0 - m)) - (e - k) / (2.0 * m * m)
    return k, e, de, d2e


def elliptic_dK(m: float) -> float:
    """Derivative dK/dm; closed form away from 0, series through 0."""
    if m >= 1.0:
        raise DomainError(f"dK/dm requires m < 1, got {m}")
    if abs(m) < _SMALL_M:
        return _series_derivatives(m)[0]
    k, e = _agm(m)
    return (e - (1.0 - m) * k) / (2.0 * m * (1.0 - m))


def elliptic_dE(m: float) -> float:
    """Derivative dE/dm, m < 1; closed form away from 0, series through 0."""
    return elliptic_jet(m)[2]


def elliptic_d2E(m: float) -> float:
    """Second derivative d2E/dm2, m < 1; closed form away from 0, series
    through 0."""
    return elliptic_jet(m)[3]
