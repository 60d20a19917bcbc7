"""Magnetic brackets, level-set scans and functional independence."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from magflows import catalog, hodograph, integrals, rational, specfun
from magflows.catalog import get_example, list_examples
from magflows import cli
from magflows.cli import _corrupted, _verify_example, main as cli_main
from magflows.errors import DomainError, SingularMetric
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import (
    ChartDomain,
    MagneticSystem,
    Metric,
    chart_columns,
    hamiltonian,
    momentum_on_level,
)
from magflows.integrals import (
    BracketScanConfig,
    FirstIntegral,
    functional_independence_rank,
    hamiltonian_integral,
    level_set_bracket_scan,
    level_set_samples,
)
from oracles import magnetic_bracket_pair, vector_field
from richardson import richardson_gradient

RNG = np.random.default_rng(0)


def _zero_partials(x, y):
    """Exact partials of a constant metric."""
    return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


def _momentum_p1():
    """The linear integral p1 with its exact gradient."""
    return FirstIntegral(name="F", kind="linear", func=lambda s: s[2],
                         grad=lambda s: (0.0, 0.0, 1.0, 0.0))


def _random_phase(system, rng, on_level=True, energy=None):
    x0, x1, y0, y1 = system.domain.bbox
    while True:
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if not system.domain.contains(x, y):
            continue
        if on_level:
            p1, p2 = momentum_on_level(system, x, y, rng.uniform(0.0, 2.0 * math.pi),
                                       energy=energy)
        else:
            p1, p2 = rng.normal(scale=1.5, size=2)
        return np.array([x, y, p1, p2])


class TestFirstIntegral:
    def test_call_evaluates(self):
        """The wrapper is a plain callable on a 4-vector."""
        ex1 = get_example("ex1")
        value = ex1.integrals[0]((0.0, 0.0, 1.0, 0.0))
        np.testing.assert_allclose(value, math.cos(1.0), rtol=1e-15)

    def test_all_levels_flag(self):
        """level=None admits every energy; a set level is specific."""
        ex1 = get_example("ex1")
        ex5 = get_example("ex5")
        assert ex1.integrals[0].level is None
        assert ex5.integrals[0].level == ex5.system.energy

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_division_by_zero_reads_nan(self):
        """No phase is refused: a call at one phase where the value divides
        by zero is NaN, on Python floats and with no RuntimeWarning.  ex4's
        N and D both vanish at (1, 0) with the momenta (0.5, 0.5), where
        its ``func`` raises ZeroDivisionError."""
        integral = get_example("ex4").integrals[0]
        with pytest.raises(ZeroDivisionError):
            integral.func([1.0, 0.0, 0.5, 0.5])
        assert math.isnan(integral((1.0, 0.0, 0.5, 0.5)))
        assert math.isnan(integral(np.array([1.0, 0.0, 0.5, 0.5])))

    @pytest.mark.parametrize("name", ["ex5", "poly-cos"])
    def test_one_phase_is_read_once(self, name, monkeypatch):
        """An ndarray row and the same values as a list give the same bits,
        each from one evaluation of the parts, and neither asks for their
        partials."""
        calls = _count_rational_parts(monkeypatch)
        system, integral = _rational_case(name)
        row = np.array([1.0, 0.7, *momentum_on_level(system, 1.0, 0.7, 0.8)])
        value = integral(row)
        assert calls == {"parts": 1}
        assert integral(row.tolist()).hex() == value.hex()
        assert calls == {"parts": 2}

    def test_call_at_chart_columns_calls_func_once(self):
        """At chart columns a call gives the values of ``func`` there, from
        one call of ``func``, each with the bits of a call at its phase.
        Where the value divides by zero, it is what numpy divides to there
        (inf), and NaN in a call at that one phase."""
        calls = Counter()

        def func(s):
            calls["func"] += 1
            return 1.0 / s[2]

        integral = FirstIntegral(name="F", kind="rational", func=func,
                                 grad=lambda s: (0.0, 0.0, -1.0 / s[2] ** 2, 0.0))
        x, y = np.array([[0.5], [1.0], [1.5]]), np.array([[0.0], [0.1], [0.2]])
        p1, p2 = np.array([[2.0], [3.0], [7.0]]), np.array([[1.0], [1.0], [1.0]])
        values = integral((x, y, p1, p2))
        assert values.shape == (3, 1) and calls == {"func": 1}
        singles = [integral([x[i, 0], y[i, 0], p1[i, 0], p2[i, 0]]) for i in range(3)]
        assert values[:, 0].tolist() == singles
        p1[1, 0] = 0.0
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            values = integral((x, y, p1, p2))
        assert values[:, 0].tolist() == [0.5, math.inf, 1.0 / 7.0]
        assert math.isnan(integral([1.0, 0.1, 0.0, 1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bundle_pole_reads_nan(self):
        """A call at a phase on a bundle integral's pole line, where D is
        exactly 0, is NaN with no RuntimeWarning, and its value just off
        the line is finite."""
        from magflows.rational import PolynomialCos, build_bundle

        bundle = build_bundle(PolynomialCos(2))
        _, (b0, _, c0) = bundle._parts(1.0, 0.4)[:2]
        pole = np.array([1.0, 0.4, -c0 / b0, 0.0])
        integral = bundle.as_integral()
        assert math.isnan(integral(pole))
        assert math.isfinite(integral(pole + [0.0, 0.0, 1e-9, 0.0]))


class TestMagneticBracket:
    def test_linear_integral_any_energy(self):
        """Example 2's p1 + u(y) commutes with H at any momentum."""
        ex2 = get_example("ex2")
        rng = np.random.default_rng(1)
        for _ in range(50):
            phase = _random_phase(ex2.system, rng, on_level=False)
            value = magnetic_bracket_pair(ex2.system, ex2.integrals[0],
                                          hamiltonian_integral(ex2.system), phase)
            assert abs(value) <= 1e-8

    def test_hamiltonian_self_bracket(self):
        """{H, H} vanishes identically on every catalog chart."""
        rng = np.random.default_rng(2)
        for entry in list_examples():
            ham = hamiltonian_integral(entry.system)
            for _ in range(20):
                phase = _random_phase(entry.system, rng)
                value = magnetic_bracket_pair(entry.system, ham, ham, phase)
                assert abs(value) <= 1e-10

    def test_level_specific_integral_on_level(self):
        """Example 5's integral commutes on {H = C/2} to 1e-7."""
        ex5 = get_example("ex5")
        integral = ex5.integrals[0]
        rng = np.random.default_rng(3)
        count = 0
        while count < 50:
            phase = _random_phase(ex5.system, rng)
            value = magnetic_bracket_pair(ex5.system, integral,
                                          hamiltonian_integral(ex5.system), phase)
            assert abs(value) <= 1e-7
            count += 1

    def test_level_specific_integral_off_level(self):
        """Doubling the energy breaks the bracket well past 1e-3."""
        ex5 = get_example("ex5")
        integral = ex5.integrals[0]
        rng = np.random.default_rng(4)
        worst = 0.0
        count = 0
        while count < 50:
            phase = _random_phase(ex5.system, rng, energy=2.0 * ex5.system.energy)
            worst = max(worst, abs(magnetic_bracket_pair(
                ex5.system, integral, hamiltonian_integral(ex5.system), phase)))
            count += 1
        assert worst > 1e-3

    def test_antisymmetry_with_analytic_partials(self):
        """On every catalog chart u . X_v = -v . X_u for any gradients u, v,
        and {F, H} = -{H, F} to round-off when both carry gradients."""
        rng = np.random.default_rng(5)
        for entry in list_examples():
            system = entry.system
            ham = hamiltonian_integral(system)
            analytic = [f for f in entry.integrals if f.grad is not None]
            for _ in range(20):
                phase = _random_phase(system, rng)
                u, v = rng.normal(size=(2, 4))
                forward = u @ vector_field(system, phase[0], phase[1], v)
                backward = v @ vector_field(system, phase[0], phase[1], u)
                assert abs(forward + backward) <= 1e-12 * max(1.0, abs(forward))
                for integral in analytic:
                    forward = magnetic_bracket_pair(system, integral, ham, phase)
                    backward = magnetic_bracket_pair(system, ham, integral, phase)
                    assert abs(forward + backward) <= 1e-12 * max(1.0, abs(forward))

    def test_fd_and_pair_agree(self):
        """The bracket with Richardson differences of F in place of its
        exact gradient tracks the bracket with the gradient."""
        ex2 = get_example("ex2")
        exact = ex2.integrals[0]
        differenced = dataclasses.replace(
            exact, grad=lambda s: richardson_gradient(exact.func, s, 1e-5))
        phase = np.array([0.3, -0.4, 0.8, 0.1])
        ham = hamiltonian_integral(ex2.system)
        fd = magnetic_bracket_pair(ex2.system, differenced, ham, phase)
        pair = magnetic_bracket_pair(ex2.system, exact, ham, phase)
        np.testing.assert_allclose(fd, pair, atol=1e-9)

    def test_exact_gradient_required(self):
        """An integral without a gradient is refused."""
        with pytest.raises(TypeError):
            FirstIntegral(name="F", kind="linear", func=lambda s: s[2])


class TestLevelSetScan:
    def test_quadratic_example_meets_bar(self):
        """Example 3 scans clean at 1e-6 over 20 x 20 x 16 samples."""
        ex3 = get_example("ex3")
        report = level_set_bracket_scan(ex3.system, ex3.integrals[0])
        assert report.max_abs <= 1e-6
        assert report.count > 0

    def test_transcendental_example_tight(self):
        """Example 1 scans to 1e-8 at a doubled energy too."""
        ex1 = get_example("ex1")
        report = level_set_bracket_scan(ex1.system, ex1.integrals[0], energy=2.0)
        assert report.max_abs <= 1e-8

    def test_corrupted_integral_detected(self):
        """Adding 0.01 q1 to a true integral pushes the scan past 1e-3."""
        ex3 = get_example("ex3")
        report = level_set_bracket_scan(ex3.system, _corrupted(ex3.integrals[0]))
        assert report.max_abs > 1e-3

    def test_empty_grid_raises(self):
        """A predicate that rejects everything is a domain error."""
        metric = Metric(components=lambda x, y: (1.0, 0.0, 1.0), partials=_zero_partials)
        domain = ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0), predicate=lambda x, y: False)
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=domain, energy=1.0, name="empty")
        with pytest.raises(DomainError):
            level_set_bracket_scan(system, _momentum_p1())

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_non_positive_energy_raises_after_an_empty_grid(self, energy):
        """A level constant C <= 0, or NaN, is a DomainError naming C; on a
        grid with no point in the domain the empty grid's comes first."""
        ex1 = get_example("ex1")
        with pytest.raises(DomainError, match=f"^energy constant must be positive, got {energy}$"):
            level_set_samples(ex1.system, energy=energy)
        domain = ChartDomain(bbox=ex1.system.domain.bbox, predicate=lambda x, y: False)
        with pytest.raises(DomainError, match="^no grid point passed the domain predicate$"):
            level_set_samples(dataclasses.replace(ex1.system, domain=domain), energy=energy)

    def test_all_singular_raises(self):
        """A metric that is singular at every grid point leaves no sample:
        the scan raises DomainError naming the singular metric."""
        metric = Metric(components=lambda x, y: (1.0, 2.0, 1.0), partials=_zero_partials)
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0)))
        with pytest.raises(DomainError, match="metric is singular at every grid point"):
            level_set_bracket_scan(system, _momentum_p1())

    def test_worst_sample_reported(self):
        """The report carries the worst grid point and angle."""
        ex3 = get_example("ex3")
        report = level_set_bracket_scan(ex3.system, ex3.integrals[0])
        assert report.worst is not None and len(report.worst) == 3
        assert ex3.system.domain.contains(report.worst[0], report.worst[1])

    @pytest.mark.parametrize("everywhere", [True, False], ids=["all-nan", "one-nan"])
    def test_nan_sample_fails_the_scan(self, everywhere):
        """A NaN bracket sample makes max_abs infinite, with the worst
        sample at the first NaN, whether every sample is NaN or one."""
        ex1 = get_example("ex1")
        f = ex1.integrals[0]
        config = BracketScanConfig(nx=4, ny=4, n_angles=4)
        points = ex1.system.domain.grid(4, 4, margin=config.grid_margin)
        angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
        x_bad, y_bad = points[0] if everywhere else points[5]

        def grad(state):
            # the scan asks at chart columns: rows has shape (4, P, n)
            rows = np.array(f.grad(state), dtype=float)
            if everywhere:
                rows[:] = np.nan
            else:
                at_bad = ((state[0] == x_bad) & (state[1] == y_bad)).ravel()
                rows[:, at_bad, 2] = np.nan
            return rows

        broken = FirstIntegral("F", f.kind, f.func, grad=grad)
        report = level_set_bracket_scan(ex1.system, broken, config=config)
        assert report.max_abs == math.inf
        phi = angles[0] if everywhere else angles[2]
        assert report.worst == (float(x_bad), float(y_bad), float(phi))


def _reference_scan(system, integral, config):
    """The scan written per sample: momentum_on_level and the bracket with
    H for each angle on its own, divided by 1 + F^2 there for a rational
    integral."""
    ham = hamiltonian_integral(system)
    points = system.domain.grid(config.nx, config.ny, margin=config.grid_margin)
    angles = np.linspace(0.0, 2.0 * np.pi, config.n_angles, endpoint=False)
    max_abs, sumsq, count, worst = 0.0, 0.0, 0, None
    for x, y in points:
        try:
            momenta = [momentum_on_level(system, x, y, phi) for phi in angles]
        except SingularMetric:
            continue
        for phi, (p1, p2) in zip(angles, momenta):
            phase = np.array([x, y, p1, p2])
            val = abs(magnetic_bracket_pair(system, integral, ham, phase))
            if integral.kind == "rational":
                value = integral(phase)
                val /= 1.0 + value * value
            sumsq += val * val
            count += 1
            if val > max_abs:
                max_abs, worst = val, (float(x), float(y), float(phi))
    return max_abs, math.sqrt(sumsq / count), count, worst


SCAN_CASES = [(entry.name, i) for entry in list_examples() for i in range(len(entry.integrals))]
SCAN_FAMILIES = {
    "poly-cos": lambda: rational.PolynomialCos(3),
    "log-radial": rational.LogRadial,
    "log-nu1": rational.LogNu1,
    "elliptic-half": rational.EllipticHalf,
}


class TestScanEquivalence:
    COARSE = BracketScanConfig(nx=6, ny=6, n_angles=4)

    @pytest.mark.parametrize("name, index", SCAN_CASES + [(f, 0) for f in SCAN_FAMILIES])
    def test_matches_per_sample_reference(self, name, index):
        """Evaluating the chart point once for all angles changes no sample,
        on every catalog integral and one bundle per family: each sample is
        |magnetic_bracket_pair| at its phase, divided by 1 + F^2 there for
        a rational integral, so the report is equal bit for bit."""
        if name in SCAN_FAMILIES:
            bundle = rational.build_bundle(SCAN_FAMILIES[name]())
            system, integral = bundle.as_system(), bundle.as_integral()
        else:
            entry = get_example(name)
            system, integral = entry.system, entry.integrals[index]
        report = level_set_bracket_scan(system, integral, config=self.COARSE)
        want = _reference_scan(system, integral, self.COARSE)
        assert (report.max_abs, report.rms, report.count, report.worst) == want

    def test_chart_point_work_does_not_grow_with_angles(self):
        """Each grid point kept costs one ``local`` call, whose G gives the
        Cholesky factor and G^{-1}, however many angles are sampled; the
        metric components, partials and field are not called, and the
        domain predicate runs once per point of the bbox grid: the grid
        pass does not test it again."""
        entry = get_example("ex5")
        calls = Counter()

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        metric, domain = entry.system.metric, entry.system.domain
        system = dataclasses.replace(
            entry.system,
            metric=Metric(counted("components", metric.components),
                          counted("partials", metric.partials)),
            field=counted("field", entry.system.field),
            domain=ChartDomain(domain.bbox, counted("predicate", domain.predicate)),
            local=counted("local", entry.system.local),
        )
        for n_angles in (4, 12):
            config = BracketScanConfig(nx=6, ny=6, n_angles=n_angles)
            points = len(system.domain.grid(6, 6, margin=config.grid_margin))
            calls.clear()
            level_set_bracket_scan(system, entry.integrals[0], config=config)
            assert calls == {"local": points, "predicate": 6 * 6}

    def test_nan_metric_points_are_skipped(self):
        """Grid points where the metric is NaN are skipped like singular
        ones, so the report stays finite."""
        metric = Metric(components=lambda x, y: (math.nan if x > 0.5 else 1.0, 0.0, 1.0),
                        partials=_zero_partials)
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0)))
        config = BracketScanConfig(nx=4, ny=4, n_angles=4, grid_margin=0.0)
        report = level_set_bracket_scan(system, _momentum_p1(), config=config)
        assert report.count == 2 * 4 * 4
        assert report.max_abs == report.rms == 0.0


# the rational integrals as verify and build-rational check them: ex4-ex6,
# each family's default bundle, and log-nu1 on the range where N/D has
# poles inside the scan grid
LINE_SCAN_CASES = {
    "ex4": lambda: _entry_case("ex4"),
    "ex5": lambda: _entry_case("ex5"),
    "ex6": lambda: _entry_case("ex6"),
    **{family: (lambda f=family: _default_bundle(f)) for family in sorted(rational.FAMILIES)},
    "log-nu1-pole": lambda: _default_bundle("log-nu1", (0.261, 3.031)),
}


def _entry_case(name):
    entry = get_example(name)
    return entry.system, entry.integrals[0]


def _default_bundle(family, rho_range=None):
    """The bundle that ``build-rational <family>`` builds by default."""
    solution = rational.solution_from_descriptor({"family": family, "parameters": {}})
    bundle = rational.build_bundle(solution, rho_range=rho_range, check=False)
    return bundle.as_system(), bundle.as_integral()


class TestLineScan:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant", ["level", "corrupt", "off-level"])
    @pytest.mark.parametrize("name", list(LINE_SCAN_CASES))
    def test_angle_bracket_separates_integrals_from_controls(self, name, variant):
        """The default scan of |{F, H}| / (1 + F^2), the bracket of the angle
        of the line [N : D], reads round-off on the level, the pole range of
        log-nu1 included, and at least 6e-3 on the ``--corrupt`` control; at
        1.01 C it stays at round-off for the integrals declared conserved on
        every level (``level`` None: ex4's F and log-radial's bundle) and
        exceeds 9e-3 for the single-level ones, so a wrong declaration
        fails here."""
        system, integral = LINE_SCAN_CASES[name]()
        assert integral.kind == "rational"
        if variant == "corrupt":
            assert level_set_bracket_scan(system, _corrupted(integral)).max_abs >= 6e-3
        elif variant == "level":
            assert level_set_bracket_scan(system, integral).max_abs <= 1e-12
        else:
            report = level_set_bracket_scan(system, integral, energy=1.01 * system.energy)
            if integral.level is None:
                assert report.max_abs <= 1e-13
            else:
                assert report.max_abs >= 9e-3


class TestSharedSamples:
    """One pass over the grid points serves every scan of a system."""

    @pytest.mark.parametrize("name", [entry.name for entry in list_examples()])
    def test_shared_samples_give_each_scan_its_own_report(self, name):
        """Every integral of an entry and its --corrupt control, scanned on
        samples read once for all of them, give the report of a scan on
        its own, bit for bit."""
        entry = get_example(name)
        scanned = [*entry.integrals, _corrupted(entry.integrals[0])]
        samples = level_set_samples(entry.system, [f.chart for f in scanned])
        for integral in scanned:
            shared = level_set_bracket_scan(entry.system, integral, samples=samples)
            alone = level_set_bracket_scan(entry.system, integral)
            got = (shared.max_abs, shared.rms, shared.count, shared.worst)
            assert got == (alone.max_abs, alone.rms, alone.count, alone.worst)
            assert np.float64(shared.rms).tobytes() == np.float64(alone.rms).tobytes()

    def test_empty_grid_fails_every_scan_check(self):
        """An entry whose scan grid holds no point of its domain fails every
        bracket scan check, the control's too, with the DomainError, while
        its drifts still pass."""
        ex1 = get_example("ex1")
        # the grid lies in x > 10, the sample orbits near the origin
        domain = ChartDomain(bbox=(10.0, 11.0, 10.0, 11.0), predicate=lambda x, y: x < 5.0)
        entry = dataclasses.replace(ex1, system=dataclasses.replace(ex1.system, domain=domain))
        checks = _verify_example(entry, 1e-6, np.random.default_rng(0), corrupt=True)
        error = {"value": None, "threshold": 1e-6, "pass": False,
                 "error": "no grid point passed the domain predicate"}
        assert checks["bracket_scan_F"] == checks["bracket_scan_F_corrupt"] == error
        assert checks["drift_F"]["pass"] and checks["drift_H"]["pass"]

    def test_samples_fix_energy_and_grid(self):
        """A scan given samples refuses an energy or a config of its own."""
        ex1 = get_example("ex1")
        samples = level_set_samples(ex1.system)
        with pytest.raises(ValueError):
            level_set_bracket_scan(ex1.system, ex1.integrals[0], energy=2.0, samples=samples)
        with pytest.raises(ValueError):
            level_set_bracket_scan(ex1.system, ex1.integrals[0], config=BracketScanConfig(),
                                   samples=samples)

    @staticmethod
    def _calls_inside_verify(monkeypatch, count) -> tuple:
        """Runs ``verify --corrupt`` on the entry that ``count(counted)``
        returns, having routed the calls to count through ``counted(key,
        fn)``.  Returns the calls made inside the samples pass or a scan,
        not those of the orbits, with the number of kept grid points and
        the checks; each integral and the control get one scan."""
        calls, inside = Counter(), []

        def counted(key, fn):
            def wrapper(*args):
                if inside:
                    calls[key] += 1
                return fn(*args)
            return wrapper

        def scoped(fn):
            def wrapper(*args, **kwargs):
                inside.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        scans = Counter()
        scan = cli.level_set_bracket_scan
        monkeypatch.setattr(cli, "level_set_samples", scoped(cli.level_set_samples))
        monkeypatch.setattr(cli, "level_set_bracket_scan", scoped(
            lambda *args, **kwargs: scans.update(["scan"]) or scan(*args, **kwargs)))
        entry = count(counted)
        checks = _verify_example(entry, 1e-6, np.random.default_rng(0), corrupt=True)
        assert scans == {"scan": len(entry.integrals) + 1}
        points = len(level_set_samples(entry.system)[0][0])
        assert points == len(entry.system.domain.grid(20, 20, margin=BracketScanConfig().grid_margin))
        return calls, points, checks

    def test_verify_reads_each_grid_point_once_per_entry(self, monkeypatch):
        """verify's three scans of ex4 (F, F1 and the control) call the
        system's ``local`` once per kept grid point for the whole entry, not
        once per scan, and ``Metric.cholesky`` never: the level factor
        and G^{-1} both come from the G of that one ``local`` call."""
        def count(counted):
            monkeypatch.setattr(Metric, "cholesky", counted("cholesky", Metric.cholesky))
            entry = get_example("ex4")
            return dataclasses.replace(entry, system=dataclasses.replace(
                entry.system, local=counted("local", entry.system.local)))

        calls, points, checks = self._calls_inside_verify(monkeypatch, count)
        assert calls == {"local": points}
        assert [checks[f"bracket_scan_{name}"]["pass"] for name in ("F", "F1", "F_corrupt")] == [
            True, True, False]

    def test_frame_chart_reads_one_frame_per_grid_point(self, monkeypatch):
        """verify's two scans of ex3, a frame chart, build its frame (k, M,
        dk, dM, Omega) once per kept grid point for the level factor, G^{-1},
        dG and Omega together."""
        def count(counted):
            build = hodograph._frame_system
            monkeypatch.setattr(hodograph, "_frame_system", lambda frame, domain, **fields: build(
                counted("frame", frame), domain, **fields))
            return get_example("ex3")

        calls, points, checks = self._calls_inside_verify(monkeypatch, count)
        assert calls == {"frame": points}
        assert [checks[f"bracket_scan_{name}"]["pass"] for name in ("F", "F_corrupt")] == [
            True, False]

    def test_chart_without_local_reads_components_once_per_grid_point(self, monkeypatch):
        """verify's two scans of ex2, which has no ``local``, read the
        metric components once per kept grid point, for the level factor
        and G^{-1} both, and never call ``Metric.inverse`` or
        ``Metric.cholesky``."""
        def count(counted):
            for name in ("inverse", "cholesky"):
                monkeypatch.setattr(Metric, name, counted(name, getattr(Metric, name)))
            entry = get_example("ex2")
            metric = entry.system.metric
            metric = dataclasses.replace(metric, components=counted("components", metric.components))
            return dataclasses.replace(entry, system=dataclasses.replace(entry.system, metric=metric))

        calls, points, checks = self._calls_inside_verify(monkeypatch, count)
        assert calls == {"components": points}
        assert [checks[f"bracket_scan_{name}"]["pass"] for name in ("F1", "F1_corrupt")] == [
            True, False]

    def test_one_partials_call_per_grid_point(self, monkeypatch):
        """verify's scans of ex6's rational F and its control share one
        stacked read of F's chart data, and between them ask each kept
        grid point's deferred chart partials exactly once."""
        def count(counted):
            make = integrals.ratio_integral

            def counting(name, kind, parts, level=None):
                def counted_parts(x, y):
                    n, d, partials = parts(x, y)
                    return n, d, counted("partials", partials)
                return make(name, kind, counted_parts, level)

            monkeypatch.setattr(catalog, "ratio_integral", counting)
            return get_example("ex6")

        calls, points, checks = self._calls_inside_verify(monkeypatch, count)
        assert calls == {"partials": points}
        assert [checks[f"bracket_scan_{name}"]["pass"] for name in ("F", "F_corrupt")] == [
            True, False]


def _bundle(family):
    bundle = rational.build_bundle(SCAN_FAMILIES[family]())
    return bundle.as_system(), bundle.as_integral()


def _rational_case(name):
    """System and rational integral of a catalog entry or a bundle family;
    build it after :func:`_count_rational_parts` so that it is counted."""
    if name in SCAN_FAMILIES:
        return _bundle(name)
    entry = get_example(name)
    return entry.system, entry.integrals[0]


# chart points inside every bundle family's default chart
BUNDLE_POINTS = ((1.0, 0.4), (2.2, 1.9), (0.6, 4.0))


def _rational_parts(name, monkeypatch):
    """The ``parts`` of the rational integral of a catalog entry or a
    bundle family, or of ex3's quadratic integral, with the chart points
    to read it at: the entry's sample points or :data:`BUNDLE_POINTS`."""
    if name in SCAN_FAMILIES:
        return rational.build_bundle(SCAN_FAMILIES[name]())._parts, BUNDLE_POINTS
    # the entry then holds its integral's parts in its place
    for module in (catalog, hodograph):
        monkeypatch.setattr(module, "ratio_integral", lambda _, kind, parts, level=None: parts)
    entry = get_example(name)
    return entry.integrals[0], entry.sample_phases[:, :2]


def _count_rational_parts(monkeypatch):
    """Counts of the ``parts`` calls, and of the ``partials`` calls under
    "grads", of every rational integral that the catalog or a bundle
    builds after this call."""
    calls = Counter()
    make = integrals.ratio_integral

    def counting(name, kind, parts, level=None):
        def counted_parts(x, y):
            calls["parts"] += 1
            a, b, partials = parts(x, y)

            def counted_partials():
                calls["grads"] += 1
                return partials()

            return a, b, counted_partials

        return make(name, kind, counted_parts, level)

    for module in (catalog, rational):
        monkeypatch.setattr(module, "ratio_integral", counting)
    return calls


def _assert_broadcasts(integral, x, y, p1, p2):
    """func and grad at n momenta of one chart point give the bits of n
    calls at single phases.  Returns the values."""
    singles = [np.array([x, y, q1, q2]) for q1, q2 in zip(p1, p2)]
    values, grads = integral.func((x, y, p1, p2)), integral.grad((x, y, p1, p2))
    assert np.shape(grads) == (4, len(singles))
    for value, grad, single in zip(values, grads.T, singles):
        assert np.float64(value).tobytes() == np.float64(integral.func(single)).tobytes()
        assert grad.tobytes() == np.asarray(integral.grad(single), dtype=float).tobytes()
    return values


BROADCAST_CASES = SCAN_CASES + [(entry.name, "corrupt") for entry in list_examples()]
COLUMN_CASES = (BROADCAST_CASES + [(entry.name, "H") for entry in list_examples()]
                + [(family, 0) for family in sorted(SCAN_FAMILIES)])


def _counted(calls, key, fn):
    """``fn`` counting its calls in ``calls[key]``."""
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


class TestBroadcastContract:
    """The value and gradient of every integral take the momenta of all
    angles of a chart point at once, and chart columns of all grid points
    at once, so a bracket scan calls each once per scan."""

    ANGLES = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)

    @pytest.mark.parametrize("name, index", BROADCAST_CASES)
    def test_catalog_arrays_equal_single_phases(self, name, index):
        """16 momenta on the level at each sample point, bit for bit; the
        ``--corrupt`` control of each entry too."""
        entry = get_example(name)
        integral = _corrupted(entry.integrals[0]) if index == "corrupt" else entry.integrals[index]
        for x, y in entry.sample_phases[:, :2]:
            p1, p2 = momentum_on_level(entry.system, x, y, self.ANGLES)
            assert np.isfinite(_assert_broadcasts(integral, x, y, p1, p2)).all()

    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_bundle_arrays_equal_single_phases(self, family):
        system, integral = _bundle(family)
        for x, y in BUNDLE_POINTS:
            p1, p2 = momentum_on_level(system, x, y, self.ANGLES)
            assert np.isfinite(_assert_broadcasts(integral, x, y, p1, p2)).all()

    @pytest.mark.parametrize("name", sorted(SCAN_FAMILIES) + ["ex5", "ex6"])
    def test_pole_momentum_among_the_angles(self, name):
        """A momentum on the pole line of the integral among 15 on the
        level: no sample is refused, the value there alone is beyond 1e10
        or not finite, and every sample keeps the bits of its single call.  ex5 and ex6
        share the pole line of their bundles."""
        if name in SCAN_FAMILIES:
            bundle = rational.build_bundle(SCAN_FAMILIES[name]())
            system, integral = bundle.as_system(), bundle.as_integral()
        else:
            entry = get_example(name)
            bundle = rational.bundle_from_descriptor(entry.bundle_descriptor)
            system, integral = entry.system, entry.integrals[0]
        rho, psi = 1.0, 0.4
        _, (b0, _, c0) = bundle._parts(rho, psi)[:2]
        p1, p2 = momentum_on_level(system, rho, psi, self.ANGLES[:15])
        p1 = np.insert(p1, 5, -c0 / b0)
        p2 = np.insert(p2, 5, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = _assert_broadcasts(integral, rho, psi, p1, p2)
        assert np.flatnonzero(~(np.abs(values) < 1e10)).tolist() == [5]

    @pytest.mark.parametrize("name, index", COLUMN_CASES)
    def test_chart_columns_equal_stacked_points(self, name, index):
        """func and grad at chart columns, three chart points with 16
        momenta each, give the bits of the same calls at each point,
        stacked: every catalog integral, its --corrupt control, H of every
        entry and a bundle per family.  A rational integral sees one
        momentum on its pole line at the second point, where its value
        alone is beyond 1e10 or not finite.  An integral with ``chart`` data, rational or
        ex3's quadratic one, gives the same bits when handed
        ``chart_columns(integral.chart, x, y)`` as with the data read by the
        integral itself."""
        if name in SCAN_FAMILIES:
            system, integral = _bundle(name)
            points = list(BUNDLE_POINTS)
        else:
            entry = get_example(name)
            system, points = entry.system, entry.sample_phases[:, :2].tolist()
            if index == "corrupt":
                integral = _corrupted(entry.integrals[0])
            elif index == "H":
                integral = hamiltonian_integral(system)
            else:
                integral = entry.integrals[index]
        momenta = [momentum_on_level(system, x, y, self.ANGLES) for x, y in points]
        p1, p2 = (np.array([m[i] for m in momenta]) for i in (0, 1))
        pole = integral.kind == "rational"
        if pole:
            b = integral.chart(*points[1])[1]
            p1[1, 5], p2[1, 5] = -b[2] / b[0], 0.0
        x, y = (np.array(points)[:, i:i + 1] for i in (0, 1))
        # with ``chart`` data, also the calls that are handed its one read
        chart_args = [()]
        if integral.chart is not None:
            chart_args.append((chart_columns(integral.chart, x, y),))
        singles = [(u, v, q1, q2) for (u, v), q1, q2 in zip(points, p1, p2)]
        with np.errstate(divide="ignore", invalid="ignore"):
            want_values = np.array([integral.func(s) for s in singles])
            want_grads = np.stack([np.asarray(integral.grad(s), dtype=float) for s in singles],
                                  axis=1)
            for args in chart_args:
                values = np.asarray(integral.func((x, y, p1, p2), *args))
                grads = np.asarray(integral.grad((x, y, p1, p2), *args), dtype=float)
                assert values.shape == p1.shape and grads.shape == (4,) + p1.shape
                assert values.tobytes() == want_values.tobytes()
                assert grads.tobytes() == want_grads.tobytes()
        at_pole = [16 + 5] if pole else []
        assert np.flatnonzero(~(np.abs(values) < 1e10)).tolist() == at_pole

    @pytest.mark.parametrize("name", ["ex5", "poly-cos"])
    def test_one_value_and_one_gradient_per_scan(self, name):
        """A scan asks a rational integral's value once and its gradient
        once for the whole grid."""
        system, integral = _rational_case(name)
        calls = Counter()
        counted = dataclasses.replace(
            integral, func=_counted(calls, "func", integral.func),
            grad=_counted(calls, "grad", integral.grad))
        config = BracketScanConfig(nx=6, ny=6, n_angles=4)
        points = len(system.domain.grid(6, 6, margin=config.grid_margin))
        report = level_set_bracket_scan(system, counted, config=config)
        assert report.count == points * 4
        assert calls == {"func": 1, "grad": 1}

    @pytest.mark.parametrize("name", ["ex3", "ex5", "poly-cos"])
    def test_value_and_gradient_share_one_stacked_read(self, name):
        """A ratio integral's value in a call at chart columns, and its
        gradient and, for a rational one, its value in a scan, are handed
        one and the same read of its chart data, stacked into chart columns
        from one ``parts`` call per point."""
        system, integral = _rational_case(name)
        calls, handed = Counter(), {}

        def recorded(key, fn):
            def wrapper(state, data):
                handed[key] = data
                return fn(state, data)
            return wrapper

        traced = dataclasses.replace(integral, func=recorded("func", integral.func),
                                     grad=recorded("grad", integral.grad),
                                     chart=_counted(calls, "parts", integral.chart))
        points = BUNDLE_POINTS if name in SCAN_FAMILIES else get_example(name).sample_phases[:, :2]
        momenta = [momentum_on_level(system, u, v, 0.3) for u, v in points]
        x, y = (np.array(points, dtype=float)[:, i:i + 1] for i in (0, 1))
        p1, p2 = (np.array([[m[i]] for m in momenta]) for i in (0, 1))
        values = traced((x, y, p1, p2))
        assert values.shape == (len(points), 1)
        assert list(handed) == ["func"]
        n, d, _ = handed["func"]
        assert np.shape(n)[1:] == np.shape(d)[1:] == (len(points), 1)
        assert calls == {"parts": len(points)}
        calls.clear()
        handed.clear()
        config = BracketScanConfig(nx=6, ny=6, n_angles=4)
        level_set_bracket_scan(system, traced, config=config)
        want = ["grad", "func"] if integral.kind == "rational" else ["grad"]
        assert list(handed) == want and all(handed[key] is handed["grad"] for key in want)
        assert calls == {"parts": len(system.domain.grid(6, 6, margin=config.grid_margin))}

    @pytest.mark.parametrize("n_angles", [4, 12])
    @pytest.mark.parametrize("name", ["ex5", "poly-cos"])
    def test_one_rational_block_per_grid_point(self, name, n_angles, monkeypatch):
        """A rational integral's (N, D) parts are evaluated once per grid
        point, where the value and the gradient share them, and its
        gradient rows are built once per grid point: ex5's transcription
        and a bundle alike."""
        calls = _count_rational_parts(monkeypatch)
        system, integral = _rational_case(name)
        config = BracketScanConfig(nx=6, ny=6, n_angles=n_angles)
        points = len(system.domain.grid(6, 6, margin=config.grid_margin))
        report = level_set_bracket_scan(system, integral, config=config)
        assert report.count == points * n_angles
        assert calls == {"parts": points, "grads": points}

    @pytest.mark.parametrize("name", ["ex4", "ex5", "ex6", "poly-cos"])
    def test_values_never_build_gradient_rows(self, name, monkeypatch, tmp_path):
        """The value reads N and D only: drift along an orbit
        and the rows of simulate evaluate the parts once per recorded
        state and never ask for (grad N, grad D)."""
        calls = _count_rational_parts(monkeypatch)
        system, integral = _rational_case(name)
        p1, p2 = momentum_on_level(system, 1.0, 0.7, 0.8)
        trajectory = integrate(system, (1.0, 0.7, p1, p2), TrajectoryConfig(t_end=1.0))
        conservation_drift(system, trajectory, integral)
        assert calls == {"parts": len(trajectory)}
        if name in SCAN_FAMILIES:
            return
        calls.clear()
        argv = ["--out-dir", str(tmp_path), "simulate", name, "--position", "1.0", "0.7",
                "--angle", "0.8", "--t-end", "1", "--out", "trace.csv"]
        assert cli_main(argv) == 0
        rows = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
        assert calls == {"parts": rows}

    @pytest.mark.parametrize("n_angles", [4, 12])
    @pytest.mark.parametrize("family", ["poly-cos", "elliptic-half"])
    def test_one_radial_profile_per_grid_row(self, family, n_angles, monkeypatch):
        """A bundle scan reads Z's jet twice per grid point, once for its
        frame (the level factor, G^{-1}, dG and Omega) and once for the
        integral's parts (value and gradient), and Z's radial profile once
        per rho of the grid: on elliptic-half one AGM run per grid row."""
        bundle = rational.build_bundle(SCAN_FAMILIES[family]())
        system, integral = bundle.as_system(), bundle.as_integral()
        calls = Counter()
        z_class = type(bundle.z)
        monkeypatch.setattr(z_class, "jet", _counted(calls, "jet", z_class.jet))
        monkeypatch.setattr(z_class, "_radial", _counted(calls, "radial", z_class._radial))
        monkeypatch.setattr(specfun, "_agm", _counted(calls, "agm", specfun._agm))
        config = BracketScanConfig(nx=6, ny=6, n_angles=n_angles)
        points = system.domain.grid(6, 6, margin=config.grid_margin)
        report = level_set_bracket_scan(system, integral, config=config)
        assert report.count == len(points) * n_angles
        rows = len({rho for rho, _ in points})
        assert rows == 6
        assert (calls["jet"], calls["radial"], calls["agm"]) == (
            2 * len(points), rows, rows if family == "elliptic-half" else 0)

    @pytest.mark.parametrize("n_angles", [4, 12])
    def test_one_quadratic_block_per_grid_point(self, n_angles, monkeypatch):
        """ex3's scan evaluates its quadratic integral's ``parts`` exactly
        once per grid point, where the gradient reads them, for all
        angles.  The ``parts`` that ``example3_system`` hands to
        ``ratio_integral`` are counted directly."""
        calls = Counter()
        build = hodograph.ratio_integral
        monkeypatch.setattr(hodograph, "ratio_integral", lambda name, kind, parts, level: build(
            name, kind, _counted(calls, "parts", parts), level))
        ex3 = get_example("ex3")
        config = BracketScanConfig(nx=6, ny=6, n_angles=n_angles)
        points = len(ex3.system.domain.grid(6, 6, margin=config.grid_margin))
        report = level_set_bracket_scan(ex3.system, ex3.integrals[0], config=config)
        assert report.count == points * n_angles
        assert calls == {"parts": points}


def _ratio_of_degrees(n_degree, d_degree):
    """A ``ratio_integral`` of momentum degrees (n_degree, d_degree) whose
    coefficients are c = a + b x + e x y in the chart point, with exact
    partials (b + e y, e x); D's constant term is 5 + b x + e x y and its
    other terms are a tenth of N's, so |D| stays near 5 at small momenta."""
    length = {0: 1, 1: 3, 2: 6}

    def coefficients(count, scale, constant):
        a, b, e = (scale * np.linspace(lo, hi, count) for lo, hi in ((0.3, 1.7), (-0.8, 0.9), (0.4, -0.6)))
        a[-1] = constant
        return a.tolist(), b.tolist(), e.tolist()

    n_abe = coefficients(length[n_degree], 1.0, 0.25)
    d_abe = coefficients(length[d_degree], 0.1, 5.0)

    def parts(x, y):
        def values(abe):
            return tuple(a + b * x + e * x * y for a, b, e in zip(*abe))

        def partials():
            return tuple((tuple(b + e * y for _, b, e in zip(*abe)), tuple(e * x for _, _, e in zip(*abe)))
                         for abe in (n_abe, d_abe))

        return values(n_abe), values(d_abe), partials

    return integrals.ratio_integral("F", "rational", parts)


class TestRatioIntegral:
    POINTS = ((0.3, -0.4), (1.1, 0.7), (-0.6, 0.2))

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 0), (2, 1), (0, 1)])
    def test_chart_columns_equal_single_phases(self, degrees):
        """At chart columns of three points with 16 momenta each, value and
        gradient give the bits of the calls at single phases,
        for every pair of momentum degrees of N and D; the gradient also
        tracks Richardson differences of the value."""
        integral = _ratio_of_degrees(*degrees)
        rng = np.random.default_rng(sum(degrees))
        p1, p2 = rng.uniform(-1.0, 1.0, (2, len(self.POINTS), 16))
        x, y = (np.array(self.POINTS)[:, i:i + 1] for i in (0, 1))
        singles = [(u, v, q1, q2) for (u, v), r1, r2 in zip(self.POINTS, p1.tolist(), p2.tolist())
                   for q1, q2 in zip(r1, r2)]
        values, grads = integral.func((x, y, p1, p2)), integral.grad((x, y, p1, p2))
        assert values.shape == p1.shape and grads.shape == (4,) + p1.shape
        want_values = np.array([integral.func(s) for s in singles])
        want_grads = np.stack([integral.grad(s) for s in singles], axis=1)
        assert values.ravel().tobytes() == want_values.tobytes()
        assert grads.reshape(4, -1).tobytes() == want_grads.tobytes()
        for single, grad in zip(singles[::7], want_grads.T[::7]):
            want = richardson_gradient(integral.func, single, 1e-3)
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(want))))


class TestCoefficientPartials:
    @pytest.mark.parametrize("name", ["ex3", "ex4", "ex5", "ex6"] + sorted(SCAN_FAMILIES))
    def test_partials_match_differences(self, name, monkeypatch):
        """The chart partials of an integral's momentum coefficients track
        Richardson differences of the coefficients at each entry's sample
        points, with the scaled tolerance of the metric partials: the
        triples of a rational integral's N and D, and the six coefficients
        and the denominator S^2 of ex3's quadratic integral."""
        parts, points = _rational_parts(name, monkeypatch)
        for x, y in points:
            (num_x, num_y), (den_x, den_y) = parts(x, y)[2]()
            got = np.array([np.hstack([num_x, den_x]), np.hstack([num_y, den_y])])
            want = richardson_gradient(lambda q: np.hstack(parts(q[0], q[1])[:2]), (x, y), 1e-4)
            scale = max(1.0, float(np.max(np.abs(got))))
            np.testing.assert_allclose(got / scale, want / scale, atol=1e-9)


class TestIndependenceRank:
    def test_superintegrable_example_has_rank_three(self):
        """H, F, F1 of Example 4 are independent at 20 random phases."""
        ex4 = get_example("ex4")
        ham = hamiltonian_integral(ex4.system)
        fns = [ham, ex4.integrals[0], ex4.integrals[1]]
        rng = np.random.default_rng(6)
        count = 0
        while count < 20:
            phase = _random_phase(ex4.system, rng)
            assert functional_independence_rank(fns, phase) == 3
            count += 1

    def test_duplicate_function_has_rank_one(self):
        """(H, H) can never exceed rank 1."""
        ex1 = get_example("ex1")
        ham = hamiltonian_integral(ex1.system)
        phase = np.array([0.3, 0.1, 0.7, 0.4])
        assert functional_independence_rank([ham, ham], phase) == 1

    def test_integrable_pair_has_rank_two(self):
        """(H, F) on Example 5 gives rank 2."""
        ex5 = get_example("ex5")
        ham = hamiltonian_integral(ex5.system)
        rng = np.random.default_rng(7)
        count = 0
        while count < 10:
            phase = _random_phase(ex5.system, rng)
            rank = functional_independence_rank([ham, ex5.integrals[0]], phase)
            assert rank == 2
            count += 1


class TestScanConfig:
    def test_defaults(self):
        """The default scan is 20 x 20 points and 16 angles."""
        config = BracketScanConfig()
        assert (config.nx, config.ny, config.n_angles) == (20, 20, 16)
