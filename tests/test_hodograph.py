"""Algebraic field solves, continuation and the quadratic-integral surface."""

import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magflows import cli, hodograph
from magflows.catalog import get_example
from magflows.errors import DomainError, NoConvergence, SingularJacobian, SingularPoint
from magflows.flow import TrajectoryConfig, conservation_drift, integrate, magnetic_rhs
from magflows.geometry import hamiltonian, momentum_on_level
from magflows.hodograph import (
    EXAMPLE3_BBOX,
    FieldPoint,
    HodographConstants,
    algebraic_jacobian,
    algebraic_residual,
    closed_form_abzero,
    continued_solve,
    example3_system,
    newton_solve,
    reconstruct_fields,
    solve_fields,
)
from magflows.integrals import (
    BracketScanConfig,
    hamiltonian_integral,
    level_set_bracket_scan,
)
from oracles import (
    complex_step_gradient,
    ex3_pullback_integral,
    ex3_pullback_terms,
    ex3_quartics,
    ex3_transcribed_integral,
    magnetic_bracket_pair,
    omega_fd,
    pde41_residual_fd,
)
from richardson import metric_partials, richardson_gradient

RNG = np.random.default_rng(0)

K0 = HodographConstants(alpha=0.0, beta=0.0, gamma=0.5, delta=-0.3,
                        epsilon=1.0, zeta=2.0)


def _field_point(k, f, g):
    lam, u0 = reconstruct_fields(k, f, g)
    return FieldPoint(f=f, g=g, lam=lam, u0=u0)


def _closed_form_sampler(k):
    def sampler(x, y):
        return closed_form_abzero(k, x, y)[0]

    return sampler


class TestConstants:
    def test_zero_zeta_rejected(self):
        """zeta = 0 only admits trivial solutions and is refused."""
        with pytest.raises(DomainError, match="trivial"):
            HodographConstants(zeta=0.0)

    @pytest.mark.parametrize("zeta", [1e-310, -1e-310, 5e-324])
    def test_zeta_with_an_infinite_reciprocal_rejected(self, zeta):
        """A zeta whose reciprocal overflows is refused before any solve,
        not left to overflow in the closed-form seed's residual."""
        with pytest.raises(DomainError, match="zeta must have a finite reciprocal"):
            HodographConstants(zeta=zeta)

    def test_zeta_with_a_finite_reciprocal_accepted(self):
        """1e-308 is subnormal too, but its reciprocal 1e308 is finite."""
        assert HodographConstants(zeta=1e-308).zeta == 1e-308

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_named(self, name, value):
        """A non-finite constant is refused by name before any solve."""
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            HodographConstants(**{name: value})

    def test_replace_moves_only_the_continuation_targets(self):
        """dataclasses.replace swaps in new continuation targets, all else
        equal, and refuses a non-finite one as the constructor does."""
        moved = dataclasses.replace(K0, alpha=0.1, beta=0.05)
        assert (moved.alpha, moved.beta) == (0.1, 0.05)
        assert (moved.gamma, moved.zeta) == (K0.gamma, K0.zeta)
        with pytest.raises(DomainError, match="alpha must be finite"):
            dataclasses.replace(K0, alpha=math.nan)


class TestClosedForm:
    def test_algebraic_residuals_vanish(self):
        """The printed closed form solves both cubic relations."""
        for _ in range(40):
            x, y = RNG.uniform(0.4, 3.0, size=2)
            point, _ = closed_form_abzero(K0, x, y)
            r1, r2 = algebraic_residual(K0, x, y, point.f, point.g)
            assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_magnetic_coefficient_value(self):
        """With defaults the field at (1, 0) equals -1/3."""
        k = HodographConstants()
        _, omega = closed_form_abzero(k, 1.0, 0.0)
        np.testing.assert_allclose(omega, -1.0 / 3.0, rtol=1e-14)

    def test_singular_center_rejected(self):
        """The cube-root branch point is reported, not evaluated."""
        k = HodographConstants()
        with pytest.raises(SingularPoint):
            closed_form_abzero(k, 0.0, 0.0)

    def test_only_at_zero_continuation_targets(self):
        """Nonzero alpha, beta have no closed form here."""
        with pytest.raises(DomainError):
            closed_form_abzero(dataclasses.replace(K0, alpha=0.1, beta=0.0), 1.0, 1.0)


class TestNewton:
    def test_recovers_closed_form(self):
        """From a perturbed seed Newton lands on the closed form."""
        for _ in range(20):
            x, y = RNG.uniform(0.5, 2.5, size=2)
            point, _ = closed_form_abzero(K0, x, y)
            result = newton_solve(K0, x, y, (point.f + 0.05, point.g - 0.04),
                                  tol=1e-13)
            np.testing.assert_allclose((result.f, result.g), (point.f, point.g),
                                       atol=1e-10)
            assert result.residual_inf <= 1e-13
            assert result.residual == algebraic_residual(K0, x, y, result.f, result.g)
            assert result.iterations <= 50
            assert np.isfinite(result.jacobian_cond)
            jac = algebraic_jacobian(K0, x, y, result.f, result.g)
            np.testing.assert_allclose(result.jacobian_cond, np.linalg.cond(jac), rtol=1e-8)

    def test_nan_residual_never_converges(self, monkeypatch):
        """R2 = NaN at the closed-form root, where R1 is round-off: max |R|
        is NaN, not R1, so neither the stopping test nor the line search
        accepts a point."""
        real = hodograph.algebraic_residual
        monkeypatch.setattr(hodograph, "algebraic_residual",
                            lambda *args: (real(*args)[0], math.nan))
        point, _ = closed_form_abzero(K0, 1.3, 0.9)
        with pytest.raises(NoConvergence, match="line search stalled"):
            newton_solve(K0, 1.3, 0.9, (point.f, point.g))

    def test_closed_form_singular_values_match_svd(self):
        """The closed-form singular values equal LAPACK's to 2e-15 of the
        larger one, on seeded random 2x2 matrices and on rank-one matrices
        perturbed by 1e-16 to 1e-6 of their size."""
        rng = np.random.default_rng(21)
        for i in range(4000):
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            if i % 2:
                jac = np.outer(rng.normal(size=2), rng.normal(size=2)) * scale
                jac += rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-16.0, -6.0) * np.abs(jac).max()
            else:
                jac = rng.normal(size=(2, 2)) * scale
            want = np.linalg.svd(jac, compute_uv=False)
            s0, s1 = hodograph._singular_values(jac.tolist())
            assert abs(s0 - want[0]) <= 2e-15 * want[0]
            assert abs(s1 - want[1]) <= 2e-15 * want[0]

    @pytest.mark.parametrize("jac", [((0.0, 0.0), (0.0, 0.0)), ((math.nan, 1.0), (0.0, 1.0)),
                                     ((math.inf, 1.0), (0.0, 1.0))], ids=["zero", "nan", "inf"])
    def test_degenerate_jacobian_is_singular(self, jac, monkeypatch):
        """A zero Jacobian, or one with a NaN or an infinite entry, fails
        the singular-value test: SingularJacobian, not a division by zero
        or a NaN step."""
        monkeypatch.setattr(hodograph, "algebraic_jacobian", lambda *args: jac)
        point, _ = closed_form_abzero(K0, 1.3, 0.9)
        with pytest.raises(SingularJacobian):
            newton_solve(K0, 1.3, 0.9, (point.f, point.g))

    def test_jacobian_matches_differences(self):
        """The analytic 2x2 Jacobian agrees with central differences."""
        f, g = 0.37, -0.85
        jac = np.asarray(algebraic_jacobian(K0, 1.0, 1.0, f, g))
        h = 1e-7
        fd = np.zeros((2, 2))
        for j, (df, dg) in enumerate(((h, 0.0), (0.0, h))):
            rp = algebraic_residual(K0, 1.0, 1.0, f + df, g + dg)
            rm = algebraic_residual(K0, 1.0, 1.0, f - df, g - dg)
            fd[0, j] = (rp[0] - rm[0]) / (2.0 * h)
            fd[1, j] = (rp[1] - rm[1]) / (2.0 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


class TestContinuation:
    def test_reaches_target_constants(self):
        """Continuation converges at alpha = 0.1, beta = 0.05."""
        k = dataclasses.replace(K0, alpha=0.1, beta=0.05)
        for _ in range(10):
            x, y = RNG.uniform(0.6, 2.4, size=2)
            result = continued_solve(k, x, y)
            r1, r2 = algebraic_residual(k, x, y, result.f, result.g)
            assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_collapses_to_newton_at_zero(self):
        """At alpha = beta = 0 continuation returns the closed form."""
        point, _ = closed_form_abzero(K0, 1.3, 0.9)
        result = continued_solve(K0, 1.3, 0.9)
        np.testing.assert_allclose((result.f, result.g), (point.f, point.g),
                                   atol=1e-12)


class TestFirstOrderSystem:
    def test_residual_second_order_in_step(self):
        """The system residual on the closed form decreases as h^2."""
        sampler = _closed_form_sampler(K0)
        points = [(0.7, 0.9), (1.2, 1.7), (2.1, 0.6)]
        maxima = []
        for h in (1e-3, 5e-4, 2.5e-4):
            maxima.append(max(
                float(np.max(np.abs(pde41_residual_fd(sampler, x, y, h=h))))
                for x, y in points))
        assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.3)
        assert maxima[1] / maxima[2] == pytest.approx(4.0, rel=0.3)
        assert maxima[0] > maxima[1] > maxima[2]

    def test_residual_small_at_standard_step(self):
        """At h = 1e-4 the closed-form residual is below 1e-7."""
        sampler = _closed_form_sampler(K0)
        residual = pde41_residual_fd(sampler, 1.2, 1.7, h=1e-4)
        assert float(np.max(np.abs(residual))) <= 1e-7

    def test_residual_small_on_continuation(self):
        """Continuation solutions meet the same 1e-7 bar at h = 1e-4."""
        k = dataclasses.replace(K0, alpha=0.1, beta=0.05)
        cache = {}

        def sampler(x, y):
            if (x, y) not in cache:
                result = continued_solve(k, x, y)
                cache[(x, y)] = _field_point(k, result.f, result.g)
            return cache[(x, y)]

        for x, y in ((0.8, 1.1), (1.9, 0.7)):
            residual = pde41_residual_fd(sampler, x, y, h=1e-4)
            assert float(np.max(np.abs(residual))) <= 1e-7

    def test_magnetic_coefficient_from_fields(self):
        """(g_x - f_y)/4 via differences matches the closed form to 1e-10."""
        sampler = _closed_form_sampler(K0)
        for x, y in ((0.8, 0.8), (1.5, 2.0), (2.2, 1.1)):
            _, omega = closed_form_abzero(K0, x, y)
            got = omega_fd(sampler, x, y, h=1e-3)
            np.testing.assert_allclose(got, omega, atol=1e-10)


def _walk(k, x, y, stages):
    """Reference continuation: Newton at `stages` equal steps in t."""
    point, _ = closed_form_abzero(dataclasses.replace(k, alpha=0.0, beta=0.0), x, y)
    f, g = point.f, point.g
    for i in range(1, stages + 1):
        stage = dataclasses.replace(k, alpha=i / stages * k.alpha, beta=i / stages * k.beta)
        result = newton_solve(stage, x, y, (f, g))
        f, g = result.f, result.g
    return f, g


class TestBranchFollowing:
    def test_matches_a_fine_fixed_walk(self):
        """On seeded draws the adaptive continuation lands where a 200-stage
        walk does, and reports a fold exactly where the walk stalls."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            k = HodographConstants(rng.uniform(-0.12, 0.12), rng.uniform(-0.08, 0.08),
                                   rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2),
                                   rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0))
            x, y = rng.uniform(0.5, 2.5, size=2)
            try:
                want = _walk(k, x, y, 200)
            except (NoConvergence, SingularJacobian):
                with pytest.raises(SingularPoint):
                    continued_solve(k, x, y)
                continue
            result = continued_solve(k, x, y)
            np.testing.assert_allclose((result.f, result.g), want, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("k, x, y", [
        # without the sign(det J) test the corrector lands on another root
        # whose tangents pass the trapezoid test
        (HodographConstants(0.28297609661457046, 0.2935953523574713, -0.2648716428449718,
                            0.7483691700084141, 0.21891671574672844, 2.0385255858909805),
         0.6832481478983656, 1.9936647497610407),
        (HodographConstants(-0.3587754294911119, 0.17088299396568973, 0.08349993454871774,
                            0.05173229731486595, 1.3571917725524036, -2.2109873835244134),
         1.783186686143244, 1.4775763787097056),
    ])
    def test_stays_on_the_branch(self, k, x, y):
        """Far from the closed form (|alpha| > 0.28) the continuation still
        ends on the branch that a 400-stage walk follows."""
        result = continued_solve(k, x, y)
        np.testing.assert_allclose((result.f, result.g), _walk(k, x, y, 400), rtol=1e-9)

    @pytest.mark.parametrize("k, x, y, t_fold", [
        (HodographConstants(0.1, -0.05, 0.5, -0.3, 1.0, 2.0), 0.5, 0.5, 0.897),
        # a full step from the seed lands on another root with the same
        # sign(det J); only the tangent check sees the jump
        (HodographConstants(0.07547655475809525, -0.02189461708260023, -0.09910003299532577,
                            -0.39460805718873604, 0.9123835671973766, 0.500945212205376),
         0.5838538178305677, 1.544206856389028, 0.64),
    ])
    def test_fold_is_reported(self, k, x, y, t_fold):
        """Where the branch folds before t = 1 the continuation raises
        SingularPoint near the fold instead of returning another root."""
        with pytest.raises(NoConvergence):
            _walk(k, x, y, 400)
        with pytest.raises(SingularPoint, match=r"folds at t = ([\d.]+)") as err:
            continued_solve(k, x, y)
        assert float(err.value.args[0].split("t = ")[1].split()[0]) == pytest.approx(t_fold, abs=0.01)


def _mp_root(k, x, y, f, g, iterations=3):
    """Newton on the algebraic system in 40-digit arithmetic from (f, g)."""
    with mpmath.workdps(40):
        a, b, z = (mpmath.mpf(v) for v in (k.alpha, k.beta, k.zeta))
        x, y, f, g = (mpmath.mpf(v) for v in (x, y, f, g))
        for _ in range(iterations):
            r1, r2 = algebraic_residual(k, x, y, f, g)
            j11 = -z * z * g * g - 12 * b * z * g - 3 * z * z * f * f + 52 * a * z * f - 192 * a * a
            j12 = -2 * z * z * f * g - 12 * b * z * f + 12 * a * z * g + 64 * a * b
            j21 = 2 * z * z * f * g - 12 * a * z * g + 12 * b * z * f - 64 * a * b
            j22 = z * z * f * f - 12 * a * z * f + 3 * z * z * g * g + 52 * b * z * g + 192 * b * b
            det = j11 * j22 - j12 * j21
            f, g = f - (j22 * r1 - j12 * r2) / det, g - (j11 * r2 - j21 * r1) / det
        return f, g


class TestPolishedRoot:
    @pytest.mark.parametrize("alpha, beta", [(0.0462, 0.0303), (0.0401, 0.0247)])
    def test_csv_fields_match_40_digit_roots(self, alpha, beta, tmp_path):
        """The f and g that magflows hodograph prints are the roots to
        1e-15 of |(f, g)|: the accepted root takes one more Newton step."""
        argv = ["--out-dir", str(tmp_path), "hodograph", "--alpha", str(alpha),
                "--beta", str(beta), "--out", "h.csv"]
        assert cli.main(argv) == 0
        k = HodographConstants(alpha=alpha, beta=beta, epsilon=1.0)
        rows = np.loadtxt(tmp_path / "h.csv", delimiter=",", skiprows=1)
        assert len(rows) == 400
        worst = 0.0
        for x, y, f, g in rows[:, :4]:
            mf, mg = _mp_root(k, x, y, f, g)
            err = mpmath.sqrt((mf - f) ** 2 + (mg - g) ** 2) / mpmath.sqrt(mf * mf + mg * mg)
            worst = max(worst, float(err))
        assert worst <= 1e-15


class TestSolveFields:
    def test_omega_matches_closed_form(self):
        """At alpha = beta = 0, Omega = -2/(3c) to 1e-14 relative, and the
        fields equal the closed form."""
        for _ in range(40):
            x, y = RNG.uniform(0.4, 3.0, size=2)
            point, omega, residual, _ = solve_fields(K0, x, y)
            exact, want = closed_form_abzero(K0, x, y)
            np.testing.assert_allclose(omega, want, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose((point.f, point.g, point.lam, point.u0),
                                       (exact.f, exact.g, exact.lam, exact.u0), rtol=1e-14)
            assert np.max(np.abs(residual)) <= 1e-13

    def test_derivatives_match_difference_oracles(self):
        """On continuation solutions the exact Omega agrees with the
        Richardson difference of omega_fd, and the exact residual
        is the limit that pde41_residual_fd approaches as h^2."""
        k = dataclasses.replace(K0, alpha=0.1, beta=0.05)

        def sampler(x, y):
            return solve_fields(k, x, y)[0]

        for x, y in ((0.8, 1.1), (1.9, 0.7), (1.4, 2.2)):
            _, omega, residual, _ = solve_fields(k, x, y)
            np.testing.assert_allclose(omega, omega_fd(sampler, x, y, h=1e-3),
                                       rtol=1e-10)
            assert np.max(np.abs(residual)) <= 1e-13
            coarse, fine = (np.max(np.abs(pde41_residual_fd(sampler, x, y, h=h) - residual))
                            for h in (1e-3, 5e-4))
            assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_one_continued_solve_per_grid_point(self, tmp_path, monkeypatch):
        """magflows hodograph solves each grid point once and re-solves at
        no difference-stencil neighbour."""
        calls = []
        solve = hodograph.continued_solve
        monkeypatch.setattr(hodograph, "continued_solve",
                            lambda k, x, y: calls.append((x, y)) or solve(k, x, y))
        argv = ["--out-dir", str(tmp_path), "hodograph", "--alpha", "0.1", "--beta", "0.05",
                "--grid", "3", "4", "--bbox", "0.8", "1.8", "0.8", "1.8"]
        assert cli.main(argv) == 0
        assert len(calls) == 12 == len(set(calls))

    def test_csv_residuals_come_from_the_solve(self, tmp_path, monkeypatch):
        """magflows hodograph evaluates R exactly as often as solve_fields
        at its grid points, no more, and writes as res1, res2 the bits of R
        at each row's (f, g), which the solve's last Newton step returns."""
        k = dataclasses.replace(K0, alpha=0.1, beta=0.05)
        calls = Counter()
        residual = hodograph.algebraic_residual

        def counted(*args):
            calls["residual"] += 1
            return residual(*args)

        monkeypatch.setattr(hodograph, "algebraic_residual", counted)
        xs, ys = np.linspace(0.8, 1.8, 3).tolist(), np.linspace(0.8, 1.8, 4).tolist()
        for x in xs:
            for y in ys:
                solve_fields(k, x, y)
        per_solve = calls["residual"]
        calls.clear()
        argv = ["--out-dir", str(tmp_path), "hodograph", "--grid", "3", "4",
                "--bbox", "0.8", "1.8", "0.8", "1.8",
                *(f"--{name}={value!r}" for name, value in vars(k).items())]
        assert cli.main(argv) == 0
        assert calls["residual"] == per_solve
        rows = (tmp_path / "hodograph.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        for row in rows:
            x, y, f, g, *_, r1, r2, _ = map(float, row.split(","))
            assert _bits((r1, r2)) == _bits(residual(k, x, y, f, g))

    @pytest.mark.parametrize("extra", [["--gamma", "0.5", "--delta", "-0.3", "--grid", "6", "6"],
                                       ["--alpha", "0.1", "--beta", "0.05", "--grid", "4", "4",
                                        "--bbox", "0.8", "1.8", "0.8", "1.8"],
                                       ["--alpha", "-0.04", "--beta", "0.03", "--grid", "5", "5"]])
    def test_grid_residuals(self, extra, tmp_path):
        """Every row of a hodograph grid has res1, res2 <= 1e-12 and an
        exact first-order system residual <= 1e-13."""
        assert cli.main(["--out-dir", str(tmp_path), "hodograph", *extra]) == 0
        data = np.loadtxt(tmp_path / "hodograph.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 7:9])) <= 1e-12
        assert np.max(data[:, 9]) <= 1e-13

    def test_fold_names_the_grid_point(self, tmp_path, capsys):
        """The grid whose first point lies past a fold exits 2 and names it."""
        argv = ["--out-dir", str(tmp_path), "hodograph", "--alpha", "0.1", "--beta", "-0.05",
                "--gamma", "0.5", "--delta", "-0.3", "--grid", "12", "12"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "(0.5, 0.5)" in err and "t = 0.897" in err
        assert not list(tmp_path.glob("*.csv"))


def _bits(values):
    """The values, nested tuples of floats and ints, with each float as its
    hex string, so that == compares bits (and -0.0 differs from 0.0)."""
    if isinstance(values, tuple):
        return tuple(map(_bits, values))
    return values.hex() if isinstance(values, float) else values


def _outcome(fn, *args, **kwargs):
    """The bits of ``fn``'s result, or the type and message of the solver
    error it raises."""
    try:
        return _bits(tuple(fn(*args, **kwargs)))
    except (NoConvergence, SingularJacobian) as exc:
        return type(exc), str(exc)


# the ranges of the constants that magflows hodograph grids are run at
_CONSTANTS = st.builds(
    HodographConstants,
    st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.floats(0.0, 2.0),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.5, 3.0)).map(math.prod))


class TestSixConstantSymmetries:
    """Two symmetries of the six-constant family, at the base constants
    and four chart points: a change of epsilon is a translation of the
    chart, and a weighted scaling of (alpha, beta, epsilon, zeta) scales
    the fields.  Each quantity agrees to 4e-15 relative."""

    BASE = HodographConstants(alpha=0.0462, beta=0.0303, gamma=0.2, delta=-0.1,
                              epsilon=0.7, zeta=1.3)
    POINTS = [(1.0, 1.2), (1.5, 0.8), (2.1, 1.9), (0.7, 2.3)]

    @staticmethod
    def _fields(k, x, y):
        point, omega, *_ = solve_fields(k, x, y)
        return point.f, point.g, point.lam, point.u0, omega

    @staticmethod
    def _assert_close(got, want):
        for g, w in zip(got, want):
            assert abs(g - w) <= 4e-15 * abs(w), (got, want)

    def test_epsilon_is_a_translation(self):
        """Raising epsilon by d moves the solution by (-16 beta d / zeta,
        16 alpha d / zeta): f, g, Lambda and Omega agree there, and u0,
        whose shift is a constant added to F, grows by 4 d / zeta."""
        k, d = self.BASE, 0.37
        moved = dataclasses.replace(k, epsilon=k.epsilon + d)
        dx, dy = -16.0 * k.beta * d / k.zeta, 16.0 * k.alpha * d / k.zeta
        for x, y in self.POINTS:
            f, g, lam, u0, omega = self._fields(k, x, y)
            self._assert_close(self._fields(moved, x + dx, y + dy),
                               (f, g, lam, u0 + 4.0 * d / k.zeta, omega))

    def test_weighted_scaling_scales_the_fields(self):
        """(alpha, beta, epsilon, zeta) -> (alpha / s^2, beta / s^2,
        epsilon / s, zeta / s^3) at fixed (x, y) scales (f, g, Lambda, u0,
        Omega) by (s, s, s^2, s^2, s), as every row of R is homogeneous
        under these weights."""
        k, s = self.BASE, 1.6
        scaled = dataclasses.replace(k, alpha=k.alpha / s ** 2, beta=k.beta / s ** 2,
                                     epsilon=k.epsilon / s, zeta=k.zeta / s ** 3)
        for x, y in self.POINTS:
            want = [v * w for v, w in zip(self._fields(k, x, y), (s, s, s * s, s * s, s))]
            self._assert_close(self._fields(scaled, x, y), want)


class TestContinuationParameter:
    """The residual, the Jacobian and the Newton solve at the continuation
    parameter t read (a, b) = (t alpha, t beta): the very products a
    constants object at those targets stores, so every bit is the same."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(k=_CONSTANTS, t=st.floats(-1.0, 2.0), point=st.tuples(*[st.floats(0.5, 2.5)] * 2),
           fg=st.tuples(*[st.floats(-3.0, 3.0)] * 2))
    def test_t_is_the_constants_at_t_alpha_t_beta(self, k, t, point, fg):
        moved = dataclasses.replace(k, alpha=t * k.alpha, beta=t * k.beta)
        x, y = point
        for fn in (algebraic_residual, algebraic_jacobian):
            assert _bits(fn(k, x, y, *fg, t)) == _bits(fn(moved, x, y, *fg))
        seed, _ = closed_form_abzero(dataclasses.replace(k, alpha=0.0, beta=0.0), x, y)
        assert (_outcome(newton_solve, k, x, y, (seed.f, seed.g), t=t)
                == _outcome(newton_solve, moved, x, y, (seed.f, seed.g)))

    @pytest.mark.parametrize("ab, point, counts", [
        # (residuals, Jacobians, Newton solves), as with one constants
        # object per evaluation: the seed and the tangents take one
        # Jacobian and two residuals each
        ((0.0, 0.0), (1.3, 0.9), (6, 4, 1)),
        ((0.1, 0.05), (0.5, 1.25), (27, 21, 3)),
    ])
    def test_solve_fields_builds_no_constants(self, monkeypatch, ab, point, counts):
        """solve_fields constructs no HodographConstants, and makes the
        residual, Jacobian and Newton calls the continuation always made."""
        k = dataclasses.replace(K0, alpha=ab[0], beta=ab[1])
        calls = Counter()
        post_init = HodographConstants.__post_init__

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(HodographConstants, "__post_init__", counted("constants", post_init))
        for name in ("algebraic_residual", "algebraic_jacobian", "newton_solve"):
            monkeypatch.setattr(hodograph, name, counted(name, getattr(hodograph, name)))
        solve_fields(k, *point)
        assert calls["constants"] == 0
        assert (calls["algebraic_residual"], calls["algebraic_jacobian"],
                calls["newton_solve"]) == counts

    @pytest.mark.parametrize("row", [
        (math.nan, 1.0, -2.0, 0.5), (1.0, -2.0, 0.5, math.nan), (1.0, -math.inf, 2.0, -3.0),
        (math.inf, -1.0, 0.0, 2.0), (-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, -1e-300, 5e-324),
        (-math.inf, math.nan, math.inf, 1.0)])
    def test_sup_norm_is_numpys(self, row):
        """The CSV's pde41_inf, _sup_norm of four floats, is numpy's
        max |v|: NaN wherever a NaN is, inf for an infinity, +0.0 for zeros."""
        got, want = hodograph._sup_norm(row), float(np.max(np.abs(row)))
        assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()


def _ex3_columns(system, n=6, n_angles=16):
    """Chart columns x, y of shape (P, 1) at the n x n scan grid of ex3's
    domain, with (P, n_angles) momenta on the level."""
    points = system.domain.grid(n, n, margin=BracketScanConfig().grid_margin)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    momenta = [momentum_on_level(system, x, y, angles) for x, y in points]
    p1, p2 = (np.array([m[i] for m in momenta]) for i in (0, 1))
    x, y = (np.array(points)[:, i:i + 1] for i in (0, 1))
    return x, y, p1, p2


class TestExample3Surface:
    def test_metric_positive_definite_in_window(self):
        """The declared window keeps the metric positive definite."""
        system, _ = example3_system()
        x0, x1, y0, y1 = EXAMPLE3_BBOX
        for x in np.linspace(x0 + 0.01, x1 - 0.01, 8):
            for y in np.linspace(y0 + 0.01, y1 - 0.01, 8):
                system.metric.inverse(float(x), float(y))

    def test_box_keeps_metric_and_s_away_from_zero(self):
        """On a dense grid of the box, edges included, the frame's scale
        k = -r/2 has r <= -10 and S = det M has |S| >= 10, so
        G = (-r/2) M^T M is positive definite with det G = (r S / 2)^2 and
        the integral's S^2 is far from 0: that is why the domain predicate
        is the box test alone."""
        x0, x1, y0, y1 = EXAMPLE3_BBOX
        x, y = np.meshgrid(np.linspace(x0, x1, 801), np.linspace(y0, y1, 801))
        k, (m11, m12, m21, m22), _, _, _ = hodograph._ex3_frame(x, y)
        assert np.max(-2.0 * k) <= -10.0
        assert np.min(np.abs(m11 * m22 - m12 * m21)) >= 10.0
        system, _ = example3_system()
        inside = [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (4.0, 0.0)]
        assert all(system.domain.contains(u, v) for u, v in inside)
        outside = [(math.nextafter(x0, 0.0), 0.0), (math.nextafter(x1, 9.0), 0.0),
                   (4.0, math.nextafter(y0, -1.0)), (4.0, math.nextafter(y1, 1.0))]
        assert not any(system.domain.contains(u, v) for u, v in outside)

    @staticmethod
    def _chart_points():
        x0, x1, y0, y1 = EXAMPLE3_BBOX
        samples = [(float(p[0]), float(p[1])) for p in get_example("ex3").sample_phases]
        grid = [(float(u), float(v)) for u in np.linspace(x0, x1, 41) for v in np.linspace(y0, y1, 41)]
        return samples + grid

    def test_frame_is_the_hodograph_jacobian(self):
        """ex3 is the hodograph chart at (1, 0, 0, 0, 0, 2), (f, g) = (x, y):
        its frame M is -(1/(2 zeta)) ((j21, j22), (j11, j12)) from
        ``algebraic_jacobian``, its scale k is Lambda from
        ``reconstruct_fields``, its field is (j11 - j22)/(8 zeta) and the
        integral's denominator is (det M)^2, each to 1e-14 relative."""
        system, integral = example3_system()
        consts = HodographConstants(1.0, 0.0, 0.0, 0.0, 0.0, 2.0)
        z = consts.zeta
        for x, y in self._chart_points():
            (j11, j12), (j21, j22) = algebraic_jacobian(consts, 0.0, 0.0, x, y)
            jac = -np.array([j21, j22, j11, j12]) / (2.0 * z)
            k, frame, _, _, _ = hodograph._ex3_frame(x, y)
            assert np.max(np.abs(np.array(frame) - jac)) <= 1e-14 * np.max(np.abs(jac))
            lam = reconstruct_fields(consts, x, y)[0]
            assert abs(k - lam) <= 1e-14 * abs(lam)
            omega = (j11 - j22) / (8.0 * z)
            assert abs(system.field(x, y) - omega) <= 1e-14 * abs(omega)
            det = jac[0] * jac[3] - jac[1] * jac[2]
            (den,) = integral.chart(x, y)[1]
            assert abs(den - det * det) <= 1e-14 * det * det

    def test_frame_matches_quartic_transcription(self):
        """The frame form's components and their partials, and the
        integral's denominator S^2 and its partials 2 S S_k, match the
        hand-expanded quartics of ``ex3_quartics`` to 5e-13 of each group's
        largest entry."""
        system, integral = example3_system()
        for x, y in self._chart_points():
            g, dg, s, (s_x, s_y) = ex3_quartics(x, y)
            _, den, partials = integral.chart(x, y)
            pairs = ((system.metric.components(x, y), g), (system.metric.partials(x, y), dg),
                     (den, (s * s,)), (partials()[1], ((2.0 * s * s_x,), (2.0 * s * s_y,))))
            for got, want in pairs:
                got, want = np.asarray(got), np.asarray(want)
                assert np.max(np.abs(got - want)) <= 5e-13 * np.max(np.abs(want))

    def test_one_frame_per_rhs(self, monkeypatch):
        """One ``magnetic_rhs`` evaluates ex3's frame once: G^{-1}, dG and
        Omega all come from the system's ``local``."""
        calls = Counter()
        frame = hodograph._ex3_frame

        def counted(x, y):
            calls["frame"] += 1
            return frame(x, y)

        monkeypatch.setattr(hodograph, "_ex3_frame", counted)
        system, _ = example3_system()
        phase = get_example("ex3").sample_phases[0]
        calls.clear()
        magnetic_rhs(system, phase)
        assert calls == {"frame": 1}

    def test_metric_values_at_reference_point(self):
        """At (4, 0) the metric matrix is diag(512, 512)."""
        system, _ = example3_system()
        g11, g12, g22 = system.metric.components(4.0, 0.0)
        np.testing.assert_allclose((g11, g12, g22), (512.0, 0.0, 512.0), atol=1e-10)

    def test_metric_partials_match_differences(self):
        """Hand partials of the cubic-surface metric track FD."""
        system, _ = example3_system()
        for x, y in ((4.0, 0.0), (3.6, 0.3), (4.5, -0.5)):
            want = metric_partials(system.metric, x, y, 1e-6)
            got = np.asarray(system.metric.partials(x, y))
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)

    def test_integral_commutes_on_level(self):
        """The quadratic integral passes the default level-set scan."""
        system, integral = example3_system()
        report = level_set_bracket_scan(system, integral)
        assert report.max_abs <= 1e-6

    def test_integral_gradient_matches_differences(self):
        """The analytic quotient-rule gradient of the integral agrees with
        Richardson differences of its value at the catalog sample phases,
        to the differences' own error."""
        _, integral = example3_system()
        for phase in get_example("ex3").sample_phases:
            got = integral.grad(phase)
            want = richardson_gradient(integral.func, phase, 1e-5)
            np.testing.assert_allclose(got, want, rtol=0, atol=2e-7 * np.max(np.abs(got)))

    def test_integral_gradient_matches_complex_step(self):
        """The analytic gradient matches the complex step of the pull-back
        oracle, solved by ``numpy.linalg.solve``, to 1e-12 relative, at the
        catalog sample phases and at every sample of 6 x 6 chart columns
        with 16 momenta each."""
        system, integral = example3_system()
        for phase in get_example("ex3").sample_phases:
            want = complex_step_gradient(ex3_pullback_integral, phase)
            got = np.asarray(integral.grad(phase))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        x, y, p1, p2 = _ex3_columns(system)
        grads = integral.grad((x, y, p1, p2))
        assert grads.shape == (4,) + p1.shape
        for i, j in np.ndindex(p1.shape):
            want = complex_step_gradient(ex3_pullback_integral,
                                         (x[i, 0], y[i, 0], p1[i, j], p2[i, j]))
            got = grads[:, i, j]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def _random_phases(system, count, seed):
        """``count`` phases at uniform points of the box, with momenta of
        uniform angle on the levels {H = e/2}, e log-uniform in [1/4, 4],
        every other one on the declared level e = 1."""
        rng = np.random.default_rng(seed)
        x0, x1, y0, y1 = EXAMPLE3_BBOX
        phases = []
        for i in range(count):
            x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
            energy = 1.0 if i % 2 == 0 else 4.0 ** rng.uniform(-1.0, 1.0)
            p1, p2 = momentum_on_level(system, x, y, rng.uniform(0.0, 2.0 * math.pi), energy=energy)
            phases.append([x, y, p1, p2])
        return phases

    def test_integral_value_is_the_formula(self):
        """F is the flat chart's p1^2 - p2^2 + f p1 - g p2 + u0/2 pulled
        back through the hodograph map's Jacobian: it matches the oracle
        that solves M^T p = P by ``numpy.linalg.solve`` to 1e-13 of the
        oracle's largest term, at the catalog sample phases, at 6 x 6 chart
        columns and at 1 000 random phases on and off the level; a call and
        ``func`` give the same bits."""
        system, integral = example3_system()
        phases = get_example("ex3").sample_phases.tolist() + self._random_phases(system, 1000, 5)
        for phase in phases:
            terms = ex3_pullback_terms(phase)
            assert abs(integral(phase) - sum(terms)) <= 1e-13 * max(abs(t) for t in terms)
            assert integral(phase) == integral.func(np.array(phase))
        x, y, p1, p2 = _ex3_columns(system)
        values = integral.func((x, y, p1, p2))
        assert values.shape == p1.shape
        for i, j in np.ndindex(p1.shape):
            terms = ex3_pullback_terms((x[i, 0], y[i, 0], p1[i, j], p2[i, j]))
            assert abs(values[i, j] - sum(terms)) <= 1e-13 * max(abs(t) for t in terms)

    def test_transcription_is_twice_the_integral_on_the_level(self):
        """The first transcription of ex3's integral equals
        2 F + 4 k (H - 1/2), k = -r/2 the frame's scale, to 1e-12 of the
        largest term, at 1 000 random phases on and off the level: on
        {H = 1/2} it is 2 F.  The terms are the transcription, the shift
        4 k (H - 1/2) and twice each flat-chart term of F, which may cancel
        to far less than their size."""
        system, integral = example3_system()
        for phase in self._random_phases(system, 1000, 6):
            old, twice = ex3_transcribed_integral(phase), 2.0 * integral(phase)
            shift = 4.0 * hodograph._ex3_frame(phase[0], phase[1])[0] * (hamiltonian(system, phase) - 0.5)
            terms = [old, shift] + [2.0 * t for t in ex3_pullback_terms(phase)]
            assert abs(old - twice - shift) <= 1e-12 * max(abs(t) for t in terms)

    def test_integral_conserved_along_flow(self):
        """Trajectory drift of the quadratic integral stays below 1e-6."""
        system, integral = example3_system()
        p1, p2 = momentum_on_level(system, 4.0, 0.0, 0.4)
        trajectory = integrate(system, (4.0, 0.0, p1, p2),
                               TrajectoryConfig(t_end=10.0))
        report = conservation_drift(system, trajectory, integral)
        assert report.max_abs_drift <= 1e-6

    def test_off_level_bracket_breaks(self):
        """At H = C the bracket magnitude exceeds 1e-3 somewhere."""
        system, integral = example3_system()
        ham = hamiltonian_integral(system)
        worst = 0.0
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            p1, p2 = momentum_on_level(system, 4.0, 0.2, phi,
                                       energy=2.0 * system.energy)
            worst = max(worst, abs(magnetic_bracket_pair(
                system, integral, ham, (4.0, 0.2, p1, p2))))
        assert worst > 1e-3
