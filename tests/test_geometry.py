"""Charts, metrics, level-set momenta and the difference-quotient curvature."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magflows.catalog import EXAMPLE_NAMES, get_example, list_examples
from magflows.errors import DomainError, SingularMetric
from magflows.geometry import (
    ChartDomain,
    MagneticSystem,
    Metric,
    chart_columns,
    conformal_metric,
    gaussian_curvature,
    hamiltonian,
    hamiltonian_flow,
    hamiltonian_gradient,
    level_factor,
    momentum_on_level,
    stack_columns,
)
from oracles import hamiltonian_gradient_formula, vector_field
from richardson import metric_partials


@functools.cache
def _entry(name):
    return get_example(name)


def _zero_partials(x, y):
    """Exact partials of a constant metric."""
    return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


def _euclidean():
    return Metric(components=lambda x, y: (1.0, 0.0, 1.0), partials=_zero_partials)


def _euclidean_system(energy=1.0):
    domain = ChartDomain(bbox=(-5.0, 5.0, -5.0, 5.0))
    return MagneticSystem(metric=_euclidean(), field=lambda x, y: 0.0,
                          domain=domain, energy=energy, name="free")


class TestChartDomain:
    def test_contains_follows_predicate(self):
        """Membership is the predicate, not the sampling box."""
        domain = ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0),
                             predicate=lambda x, y: x + y < 10.0)
        assert domain.contains(3.0, 4.0)
        assert not domain.contains(8.0, 8.0)

    def test_contains_rejects_non_finite(self):
        """NaN or infinite coordinates are never inside."""
        domain = ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0))
        assert not domain.contains(float("nan"), 0.5)
        assert not domain.contains(float("inf"), 0.5)

    def test_grid_respects_predicate_and_margin(self):
        """Grid points stay inside the box and pass the predicate."""
        domain = ChartDomain(bbox=(0.0, 2.0, 0.0, 2.0),
                             predicate=lambda x, y: x > 1.0)
        points = domain.grid(10, 10, margin=0.05)
        assert len(points) > 0
        for x, y in points:
            assert 0.0 < x < 2.0 and 0.0 < y < 2.0
            assert x > 1.0


def _factor(metric, x=0.0, y=0.0):
    """The level factor of ``metric`` at (x, y) at C = 1, where sqrt(C) L
    is L itself: the lower Cholesky factor of G."""
    system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                            domain=ChartDomain(bbox=(-5.0, 5.0, -5.0, 5.0)))
    return level_factor(system, x, y)


def _matrix(e11, e12, e22):
    """The symmetric 2x2 matrix with entries (e11, e12, e22), such as the
    components of G or the entries of G^{-1}."""
    return np.array([[e11, e12], [e12, e22]], dtype=float)


class TestMetric:
    def test_inverse_is_three_floats(self):
        """inverse gives the entries (i11, i12, i22) of G^{-1} as floats:
        (g22, -g12, g11) / det, with det = 2 * 3 - 0.5^2 = 5.75."""
        metric = Metric(components=lambda x, y: (2.0, 0.5, 3.0), partials=_zero_partials)
        inverse = metric.inverse(0.0, 0.0)
        assert [type(v) for v in inverse] == [float, float, float]
        assert inverse == (3.0 / 5.75, -0.5 / 5.75, 2.0 / 5.75)

    def test_inverse(self):
        """matrix @ inverse = identity."""
        metric = Metric(components=lambda x, y: (2.0, 0.5, 3.0), partials=_zero_partials)
        product = _matrix(*metric.components(1.0, 2.0)) @ _matrix(*metric.inverse(1.0, 2.0))
        np.testing.assert_allclose(product, np.eye(2), atol=1e-14)

    def test_cholesky_reconstructs(self):
        """L L^T of the level factor recovers the matrix for a positive
        definite metric."""
        metric = Metric(components=lambda x, y: (2.0 + x * x, 0.3, 1.5),
                        partials=lambda x, y: ((2.0 * x, 0.0, 0.0), (0.0, 0.0, 0.0)))
        l11, l21, l22 = _factor(metric, 0.7, -0.2)
        low = np.array([[l11, 0.0], [l21, l22]])
        np.testing.assert_allclose(low @ low.T, _matrix(*metric.components(0.7, -0.2)), atol=1e-14)

    def test_cholesky_matches_lapack_bit_for_bit(self):
        """The closed-form entries of the level factor at C = 1, with the
        zero above the diagonal, equal numpy's LAPACK factor bit for bit
        on seeded random SPD matrices, well and ill conditioned."""
        rng = np.random.default_rng(20)
        checked = 0
        for i in range(3000):
            a = rng.normal(size=(2, 2))
            g = a @ a.T + np.diag(10.0 ** rng.uniform(-12.0, 3.0, size=2))
            if i % 2:
                # near-singular: condition numbers up to about 1e15
                off = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0)
                g = np.array([[1.0, off], [off, 1.0]]) * 10.0 ** rng.uniform(-6.0, 6.0)
            try:
                want = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                continue
            metric = Metric(components=lambda x, y, g=g: (g[0, 0], g[0, 1], g[1, 1]),
                            partials=_zero_partials)
            l11, l21, l22 = _factor(metric)
            assert np.array([[l11, 0.0], [l21, l22]]).tobytes() == want.tobytes()
            checked += 1
        assert checked > 2900

    def test_cholesky_rejects_round_off_breakdown(self):
        """g11 > 0 and det > 0 pass the inverse's test, but g22 - l21^2
        rounds to 0: the level factor raises SingularMetric, as LAPACK
        refuses the factor too."""
        g = (3.521126228224603, 0.24876732149455005, 0.017575393846296767)
        assert g[0] * g[2] - g[1] * g[1] > 0.0
        metric = Metric(components=lambda x, y: g, partials=_zero_partials)
        metric.inverse(0.0, 0.0)
        with pytest.raises(SingularMetric):
            _factor(metric)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(_matrix(*metric.components(0.0, 0.0)))

    def test_singular_rejected(self):
        """A non-positive-definite point raises SingularMetric, from the
        inverse and from the level factor."""
        metric = Metric(components=lambda x, y: (1.0, 2.0, 1.0), partials=_zero_partials)
        with pytest.raises(SingularMetric):
            metric.inverse(0.0, 0.0)
        with pytest.raises(SingularMetric):
            _factor(metric)

    def test_nan_metric_rejected(self):
        """NaN components fail the positive-definiteness test of both the
        inverse and the level factor instead of giving a NaN matrix."""
        metric = Metric(components=lambda x, y: (math.nan, 0.0, 1.0), partials=_zero_partials)
        with pytest.raises(SingularMetric):
            metric.inverse(0.0, 0.0)
        with pytest.raises(SingularMetric):
            _factor(metric)

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_partials_match_differences(self, name):
        """Every catalog metric's exact partials track Richardson
        differences of its components at the entry's curvature probes."""
        entry = get_example(name)
        metric = entry.system.metric
        for x, y in entry.curvature_probes:
            got = np.asarray(metric.partials(x, y))
            want = metric_partials(metric, x, y, 1e-4)
            scale = max(1.0, float(np.max(np.abs(got))))
            np.testing.assert_allclose(got / scale, want / scale, atol=1e-9)

    def test_exact_partials_required(self):
        """A metric, or a conformal factor, without partials is refused."""
        with pytest.raises(TypeError):
            Metric(components=lambda x, y: (1.0, 0.0, 1.0))
        with pytest.raises(TypeError):
            conformal_metric(lambda x, y: 1.0)


class TestConformalMetric:
    def test_components(self):
        """conformal_metric(f) gives (f, 0, f)."""
        metric = conformal_metric(lambda x, y: 2.0 + math.cos(y),
                                  lambda x, y: (0.0, -math.sin(y)))
        g11, g12, g22 = metric.components(0.3, 0.9)
        np.testing.assert_allclose(g11, 2.0 + math.cos(0.9), rtol=1e-15)
        assert g12 == 0.0
        np.testing.assert_allclose(g22, g11, rtol=0)


class TestHamiltonian:
    def test_euclidean_value(self):
        """H = |p|^2 / 2 on the flat plane."""
        system = _euclidean_system()
        np.testing.assert_allclose(
            hamiltonian(system, (0.0, 0.0, 0.6, 0.8)), 0.5, rtol=1e-15
        )

    def test_domain_check_toggle(self):
        """check_domain=False evaluates outside the predicate."""
        domain = ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0), predicate=lambda x, y: x < 1.0)
        system = MagneticSystem(metric=_euclidean(), field=lambda x, y: 0.0,
                                domain=domain, energy=1.0, name="half")
        with pytest.raises(DomainError):
            hamiltonian(system, (2.0, 0.0, 1.0, 0.0))
        value = hamiltonian(system, (2.0, 0.0, 1.0, 0.0), check_domain=False)
        np.testing.assert_allclose(value, 0.5, rtol=1e-15)

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_gradient_is_the_written_out_formula(self, name):
        """hamiltonian_gradient, read back from the X_H kernel at Omega = 0,
        equals (==) the composed formula at each sample phase, and at the
        chart columns of all three with 16 momenta at each."""
        system = _entry(name).system
        phases = _entry(name).sample_phases
        for phase in phases.tolist():
            want = hamiltonian_gradient_formula(system.local_geometry(*phase[:2]), *phase[2:])
            assert hamiltonian_gradient(system, phase) == want
        x, y = phases[:, :1], phases[:, 1:2]
        p1, p2 = np.random.default_rng(5).normal(size=(2, 3, 16))
        got = hamiltonian_gradient(system, (x, y, p1, p2))
        want = hamiltonian_gradient_formula(chart_columns(system.local_geometry, x, y), p1, p2)
        for a, b in zip(got, want):
            assert np.shape(a) == (3, 16) and np.array_equal(a, b)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(name=st.sampled_from(EXAMPLE_NAMES), index=st.integers(0, 2),
           dx=st.floats(-0.05, 0.05), dy=st.floats(-0.05, 0.05),
           p1=st.floats(-1e3, 1e3), p2=st.floats(-1e3, 1e3))
    def test_gradient_is_the_formula_at_random_states(self, name, index, dx, dy, p1, p2):
        """The same equality near the sample points at arbitrary momenta,
        zeros of either sign included."""
        system = _entry(name).system
        x, y = (_entry(name).sample_phases[index, :2] + (dx, dy)).tolist()
        try:
            local = system.local_geometry(x, y)
        except SingularMetric:
            assume(False)
        assert hamiltonian_gradient(system, (x, y, p1, p2)) == \
            hamiltonian_gradient_formula(local, p1, p2)


class TestChartColumns:
    @staticmethod
    def _data(calls):
        """A chart function whose data ends in a deferred part, as an
        integral's ``(n, d, partials)`` does; ``calls`` records the points
        at which the deferred part is called."""
        def fn(x, y):
            def partials():
                calls.append((x, y))
                return (math.sin(x) * y, x - y), (math.exp(y),)
            return (x * y, x + y, 2.0), (math.cos(x),), partials
        return fn

    def test_deferred_part_stacks_when_used(self):
        """At chart columns, ``stack_columns`` and ``chart_columns`` leave a
        deferred part uncalled until it is used; then it gives the bits of
        each point's ``partials()`` stacked into columns, like the other
        parts, and a second use returns that stack without calling them
        again.  At one chart point ``chart_columns`` gives the data as it
        is."""
        calls = []
        fn = self._data(calls)
        points = [(0.3, -0.4), (1.1, 0.7), (-0.6, 0.2)]
        x, y = (np.array(points)[:, i:i + 1] for i in (0, 1))
        lazy = stack_columns([fn(u, v) for u, v in points])[2]
        n, d, partials = chart_columns(fn, x, y)
        assert calls == [] and callable(lazy) and callable(partials)
        assert n.shape == (3, 3, 1) and d.shape == (1, 3, 1)
        for deferred in (lazy, partials):
            stacked = deferred()
            assert calls == points
            calls.clear()
            assert deferred() is stacked and calls == []
            assert stacked[0].shape == (2, 3, 1) and stacked[1].shape == (1, 3, 1)
            for i, (u, v) in enumerate(points):
                assert n[:, i, 0].tolist() == list(fn(u, v)[0])
                assert d[:, i, 0].tolist() == list(fn(u, v)[1])
                assert stacked[0][:, i, 0].tolist() == [math.sin(u) * v, u - v]
                assert stacked[1][:, i, 0].tolist() == [math.exp(v)]
        single = chart_columns(fn, 0.3, -0.4)
        assert single[:2] == fn(0.3, -0.4)[:2] and calls == []


class TestVectorField:
    @pytest.mark.parametrize("name", [entry.name for entry in list_examples()])
    @pytest.mark.parametrize("shared_local", [True, False])
    def test_array_of_momenta_equals_single_calls(self, name, shared_local):
        """X_H over an array of 16 momenta at a chart point is a list of
        four arrays whose columns are the bits of 16 single calls, each a
        list of four floats; with Omega read from the local geometry or
        from the field.  The one-pass kernel hamiltonian_flow gives the
        same bits, at the 16 momenta and at each one."""
        entry = get_example(name)
        system = entry.system
        x, y = entry.sample_phases[0][:2].tolist()
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        p1, p2 = momentum_on_level(system, x, y, angles)
        local = system.local_geometry(x, y)

        def x_h(m1, m2):
            grad = hamiltonian_gradient(system, (x, y, m1, m2))
            return vector_field(system, x, y, grad, local if shared_local else None)

        batch = x_h(p1, p2)
        assert type(batch) is list and len(batch) == 4
        assert np.array(hamiltonian_flow(local, p1, p2)).tobytes() == np.array(batch).tobytes()
        for i, (m1, m2) in enumerate(zip(p1.tolist(), p2.tolist())):
            single = x_h(m1, m2)
            assert type(single) is list
            assert [type(v) for v in single] == [float] * 4
            assert np.array(single).tobytes() == np.array([c[i] for c in batch]).tobytes()
            kernel = hamiltonian_flow(local, m1, m2)
            assert type(kernel) is list and [type(v) for v in kernel] == [float] * 4
            assert np.array(kernel).tobytes() == np.array(single).tobytes()


class TestMomentumOnLevel:
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
           phi=st.floats(0.0, 2.0 * math.pi), energy=st.floats(1e-3, 1e3))
    def test_hits_half_energy_for_any_angle(self, x, y, phi, energy):
        """H equals C/2 at every point, angle and energy constant C."""
        metric = Metric(components=lambda x, y: (2.0 + x * x, 0.4, 1.0 + y * y),
                        partials=lambda x, y: ((2.0 * x, 0.0, 0.0), (0.0, 0.0, 2.0 * y)))
        domain = ChartDomain(bbox=(-2.0, 2.0, -2.0, 2.0))
        system = MagneticSystem(metric=metric, field=lambda x, y: 1.0,
                                domain=domain, energy=energy, name="bumpy")
        p1, p2 = momentum_on_level(system, x, y, phi)
        h = hamiltonian(system, (x, y, p1, p2))
        np.testing.assert_allclose(h, 0.5 * energy, rtol=1e-13)

    def test_energy_override(self):
        """The optional energy argument moves the level."""
        system = _euclidean_system()
        p1, p2 = momentum_on_level(system, 0.0, 0.0, 0.3, energy=2.0)
        np.testing.assert_allclose(p1 * p1 + p2 * p2, 2.0, rtol=1e-13)

    def test_rejects_bad_energy(self):
        """Zero or negative level constants are refused."""
        system = _euclidean_system()
        with pytest.raises(DomainError):
            momentum_on_level(system, 0.0, 0.0, 0.0, energy=0.0)

    def test_level_factor_domain_check(self):
        """The level factor refuses a point outside the domain predicate
        and is sqrt(C) L inside it."""
        system = MagneticSystem(metric=_euclidean(), field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(-5.0, 5.0, -5.0, 5.0),
                                                   predicate=lambda x, y: x < 1.0))
        with pytest.raises(DomainError):
            level_factor(system, 2.0, 0.0, energy=4.0)
        assert level_factor(system, 0.5, 0.0, energy=4.0) == (2.0, 0.0, 2.0)


class TestGaussianCurvature:
    def test_flat_plane(self):
        """The Euclidean metric has exactly zero curvature."""
        assert gaussian_curvature(_euclidean(), 0.3, -0.8, h=1e-4) == 0.0

    def test_nan_metric_rejected(self):
        """A NaN determinant fails the positive-definiteness test as the
        inverse's does: SingularMetric, not a NaN curvature."""
        metric = Metric(components=lambda x, y: (math.nan, 0.0, 1.0), partials=_zero_partials)
        with pytest.raises(SingularMetric):
            gaussian_curvature(metric, 0.0, 0.0)

    def test_reads_components_once_and_partials_five_times(self):
        """G is read at the point only; dG at the point and at the four
        stencil neighbours (x, y +- h) and (x +- h, y)."""
        base = _entry("ex2").system.metric
        reads = {"components": 0, "partials": 0}

        def counted(name):
            def read(x, y):
                reads[name] += 1
                return getattr(base, name)(x, y)
            return read

        metric = Metric(components=counted("components"), partials=counted("partials"))
        gaussian_curvature(metric, 0.5, 0.4)
        assert reads == {"components": 1, "partials": 5}

    def test_conformal_oracle(self):
        """K = (1 - y^2)/(1 + y^2) for the factor 1/(1 + y^2)."""
        metric = conformal_metric(lambda x, y: 1.0 / (1.0 + y * y),
                                  lambda x, y: (0.0, -2.0 * y / (1.0 + y * y) ** 2))
        for y in (0.0, 0.4, -0.9, 1.7):
            want = (1.0 - y * y) / (1.0 + y * y)
            got = gaussian_curvature(metric, 0.2, y, h=1e-4)
            np.testing.assert_allclose(got, want, atol=1e-7)

    def test_sphere_patch(self):
        """The stereographic round-sphere factor gives K = 1."""
        metric = conformal_metric(
            lambda x, y: 4.0 / (1.0 + x * x + y * y) ** 2,
            lambda x, y: (-16.0 * x / (1.0 + x * x + y * y) ** 3,
                          -16.0 * y / (1.0 + x * x + y * y) ** 3))
        got = gaussian_curvature(metric, 0.3, -0.5, h=1e-4)
        np.testing.assert_allclose(got, 1.0, atol=1e-7)

    def test_stable_under_halving(self):
        """Halving the stencil step moves the value only slightly."""
        metric = conformal_metric(lambda x, y: 2.0 + math.cos(y),
                                  lambda x, y: (0.0, -math.sin(y)))
        k1 = gaussian_curvature(metric, 0.0, 0.7, h=1e-4)
        k2 = gaussian_curvature(metric, 0.0, 0.7, h=5e-5)
        assert abs(k1 - k2) < 1e-6 * max(1.0, abs(k1))
