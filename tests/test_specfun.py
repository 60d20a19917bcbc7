"""Hypergeometric and elliptic helpers against independent references.

scipy supplies the AGM-independent elliptic values and mpmath the 2F1
oracle and the elliptic-jet oracle; everything else is checked against
identities (Legendre relation, contiguous-derivative identity, polynomial
termination).
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from magflows import specfun
from magflows.errors import CoefficientOverflow, DomainError, SeriesDivergence
from magflows.specfun import elliptic_jet, hyp2f1, terminating_2f1_coeffs

RNG = np.random.default_rng(0)


class TestHyp2F1:
    def test_at_zero(self):
        """2F1(a, b; c; 0) = 1 for any parameters."""
        np.testing.assert_allclose(hyp2f1(0.3, -1.2, 0.7, 0.0), 1.0, rtol=0, atol=0)

    def test_terminating_value(self):
        """2F1(-1, 3; 2; z) = 1 - (3/2) z is a polynomial."""
        np.testing.assert_allclose(hyp2f1(-1.0, 3.0, 2.0, -0.5), 1.75, rtol=1e-15)

    @pytest.mark.parametrize("z", [-0.8, -0.3, 0.2, 0.6, 0.95])
    def test_against_mpmath(self, z):
        """Series agrees with mpmath.hyp2f1 inside the unit disc."""
        value = hyp2f1(0.5, 0.5, 1.0, z)
        ref = float(mpmath.hyp2f1(0.5, 0.5, 1.0, z))
        np.testing.assert_allclose(value, ref, rtol=1e-13)

    def test_random_parameters_against_mpmath(self):
        """Forty random parameter draws match the oracle to 1e-12."""
        for _ in range(40):
            a, b = RNG.uniform(-2.0, 2.0, size=2)
            c = RNG.uniform(0.5, 3.0)
            z = RNG.uniform(-0.9, 0.9)
            np.testing.assert_allclose(
                hyp2f1(a, b, c, z), float(mpmath.hyp2f1(a, b, c, z)), rtol=1e-12, atol=1e-12
            )

    def test_derivative_identity(self):
        """d/dz 2F1 = (ab/c) 2F1(a+1, b+1; c+1; z), checked by differences."""
        a, b, c, z = 0.5, 0.5, 1.0, 0.3
        h = 1e-6
        fd = (hyp2f1(a, b, c, z + h) - hyp2f1(a, b, c, z - h)) / (2.0 * h)
        analytic = (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        np.testing.assert_allclose(fd, analytic, rtol=1e-7)

    def test_divergent_argument_raises(self):
        """|z| >= 1 without termination cannot be summed."""
        with pytest.raises(SeriesDivergence):
            hyp2f1(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(SeriesDivergence):
            hyp2f1(0.5, 0.5, 1.0, -1.2)

    def test_terminating_degree_above_the_term_budget_raises(self):
        """A terminating degree above the 4000-term budget is refused at
        once instead of summed one term per unit of degree; degree 4000
        itself is still summed, (1 - 1e-4)^4000 = 0.67030663887..."""
        with pytest.raises(SeriesDivergence, match="degree 1000000000000"):
            hyp2f1(-1e12, 1.0, 1.0, 0.5)
        np.testing.assert_allclose(hyp2f1(-4000, 1.0, 1.0, 1e-4), (1.0 - 1e-4) ** 4000, rtol=1e-12)

    def test_terminating_beats_divergence(self):
        """A negative-integer parameter truncates the series for any z."""
        value = hyp2f1(-2.0, 4.0, 2.0, -3.0)
        ref = float(mpmath.hyp2f1(-2, 4, 2, -3))
        np.testing.assert_allclose(value, ref, rtol=1e-14)


class TestTerminatingCoeffs:
    def test_first_two_orders(self):
        """k = 1 gives [1]; k = 2 gives [1, 3/2]."""
        assert terminating_2f1_coeffs(1) == [1.0]
        np.testing.assert_allclose(terminating_2f1_coeffs(2), [1.0, 1.5], rtol=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_length(self, k):
        """The polynomial has exactly k coefficients."""
        assert len(terminating_2f1_coeffs(k)) == k

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_proportional_to_hypergeometric(self, k):
        """sum_j c_j rho^j matches rho 2F1(1-k, 1+k; 2; -rho) up to a global sign."""
        coeffs = terminating_2f1_coeffs(k)
        rhos = RNG.uniform(0.05, 4.0, size=20)
        for rho in rhos:
            poly = sum(c * rho ** (j + 1) for j, c in enumerate(coeffs))
            ref = rho * hyp2f1(1.0 - k, 1.0 + k, 2.0, -rho)
            np.testing.assert_allclose(abs(poly), abs(ref), rtol=1e-12)

    def test_overflow_guard(self):
        """Degrees beyond 60 overflow float coefficients and are refused."""
        terminating_2f1_coeffs(60)
        with pytest.raises(CoefficientOverflow):
            terminating_2f1_coeffs(61)


def elliptic_K(m):
    return elliptic_jet(m)[0]


def elliptic_E(m):
    return elliptic_jet(m)[1]


class TestEllipticIntegrals:
    def test_special_values(self):
        """K(0) = E(0) = pi/2."""
        np.testing.assert_allclose(elliptic_K(0.0), math.pi / 2.0, rtol=1e-15)
        np.testing.assert_allclose(elliptic_E(0.0), math.pi / 2.0, rtol=1e-15)

    @pytest.mark.parametrize("m", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_against_scipy(self, m):
        """AGM values agree with scipy.special to 1e-13."""
        np.testing.assert_allclose(elliptic_K(m), sp.ellipk(m), rtol=1e-13)
        np.testing.assert_allclose(elliptic_E(m), sp.ellipe(m), rtol=1e-13)

    @pytest.mark.parametrize("m", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_against_hypergeometric_series(self, m):
        """AGM route equals the (pi/2) 2F1 series route to 1e-12."""
        np.testing.assert_allclose(
            elliptic_K(m), (math.pi / 2.0) * hyp2f1(0.5, 0.5, 1.0, m), rtol=1e-12
        )
        np.testing.assert_allclose(
            elliptic_E(m), (math.pi / 2.0) * hyp2f1(-0.5, 0.5, 1.0, m), rtol=1e-12
        )

    @pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_legendre_relation(self, m):
        """E K' + E' K - K K' = pi/2 for complementary moduli."""
        mc = 1.0 - m
        lhs = (
            elliptic_E(m) * elliptic_K(mc)
            + elliptic_E(mc) * elliptic_K(m)
            - elliptic_K(m) * elliptic_K(mc)
        )
        np.testing.assert_allclose(lhs, math.pi / 2.0, rtol=1e-12)

    def test_domain_guard(self):
        """K diverges at m = 1 and is refused there."""
        with pytest.raises(DomainError):
            elliptic_jet(1.0)


class TestEllipticDerivatives:
    @pytest.mark.parametrize("m", [0.15, 0.4, 0.65, 0.85])
    def test_dK_matches_differences(self, m):
        """dK/dm = (E - (1-m) K) / (2 m (1-m)) from the jet's K and E
        agrees with a central difference of the AGM value."""
        h = 1e-6
        fd = (elliptic_K(m + h) - elliptic_K(m - h)) / (2.0 * h)
        k, e = elliptic_jet(m)[:2]
        np.testing.assert_allclose((e - (1.0 - m) * k) / (2.0 * m * (1.0 - m)), fd, rtol=1e-8)

    @pytest.mark.parametrize("m", [0.15, 0.4, 0.65, 0.85])
    def test_dE_matches_differences(self, m):
        """dE/dm agrees with a central difference of the AGM value."""
        h = 1e-6
        fd = (elliptic_E(m + h) - elliptic_E(m - h)) / (2.0 * h)
        np.testing.assert_allclose(elliptic_jet(m)[2], fd, rtol=1e-8)

    def test_small_modulus_series_branch(self):
        """Near m = 0 the closed form switches to hyp2f1 and stays smooth."""
        np.testing.assert_allclose(elliptic_jet(1e-6)[2], -math.pi / 8.0, rtol=1e-5)


# both sides of the hyp2f1 switch at |m| = specfun._SMALL_M = 0.05, and a
# spread over [-5, 0.9]
JET_PARAMETERS = [-5.0, -2.5, -1.0, -0.3, -0.0501, -0.0499, -1e-3, -1.0001e-4, -1e-4, -9.999e-5,
                  -1e-6, 0.0, 1e-6, 9.999e-5, 1e-4, 1.0001e-4, 1e-3, 0.0499, 0.0501, 0.3, 0.6,
                  0.9]


class TestEllipticJet:
    @pytest.mark.parametrize("m", JET_PARAMETERS)
    def test_matches_mpmath(self, m):
        """K, E and dE/dm from one AGM run agree with mpmath.

        K and E hold to 2e-15 relative.  The closed-form derivative divides
        a difference of size K by m, so its error is bounded by
        8 eps K / |m|; below |m| = 0.05, -(pi/8) hyp2f1(1/2, 3/2; 2; m)
        holds to 1e-15 relative.
        """
        k, e, de = elliptic_jet(m)
        with mpmath.workdps(40):
            mm = mpmath.mpf(m)
            want = [float(v) for v in (mpmath.ellipk(mm), mpmath.ellipe(mm),
                                       mpmath.diff(mpmath.ellipe, mm))]
        np.testing.assert_allclose((k, e), want[:2], rtol=2e-15, atol=0.0)
        if abs(m) < specfun._SMALL_M:
            np.testing.assert_allclose(de, want[2], rtol=1e-15, atol=0.0)
        else:
            eps = np.finfo(float).eps
            assert abs(de - want[2]) <= 8 * eps * k / abs(m) + 2e-15 * abs(want[2])

    @pytest.mark.parametrize("m", [-0.0499, -0.01, -1e-3, -1.01e-4, -1e-4, 0.0, 1e-4, 1.01e-4,
                                   1e-3, 0.01, 0.0499])
    def test_series_near_zero_to_round_off(self, m):
        """Below |m| = 0.05 the derivative is -(pi/8) hyp2f1(1/2, 3/2; 2; m):
        dE/dm holds to 1e-15 relative, where the closed form cancels to
        O(eps / m)."""
        with mpmath.workdps(40):
            want = float(mpmath.diff(mpmath.ellipe, mpmath.mpf(m)))
        np.testing.assert_allclose(elliptic_jet(m)[2], want, rtol=1e-15, atol=0.0)

    def test_one_agm_run(self, monkeypatch):
        """The jet runs the arithmetic-geometric mean once."""
        calls = []
        agm = specfun._agm
        monkeypatch.setattr(specfun, "_agm", lambda m: calls.append(m) or agm(m))
        elliptic_jet(-0.7)
        assert calls == [-0.7]
