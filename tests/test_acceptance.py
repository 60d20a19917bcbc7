"""Release gate: twelve end-to-end checks, each at its stated tolerance.

Every test prints one summary line with the measured value beside the
required bound, then asserts.  Run with ``pytest -v`` to get one verdict
line per check.
"""

import dataclasses
import json
import math

import numpy as np

from magflows.catalog import get_example, list_examples
from magflows.cli import main as cli_main
from magflows.flow import (
    TrajectoryConfig,
    conservation_drift,
    integrate,
)
from magflows.geometry import gaussian_curvature, hamiltonian, momentum_on_level
from magflows.hodograph import (
    FieldPoint,
    HodographConstants,
    algebraic_residual,
    closed_form_abzero,
    continued_solve,
    newton_solve,
    reconstruct_fields,
)
from magflows.integrals import (
    functional_independence_rank,
    hamiltonian_integral,
    level_set_bracket_scan,
)
from magflows.rational import (
    EllipticHalf,
    LogNu1,
    LogRadial,
    PolynomialCos,
    bundle_from_descriptor,
)
from magflows.specfun import elliptic_jet, hyp2f1, terminating_2f1_coeffs
from oracles import (
    LEVEL_MOMENTA,
    condition_D,
    convergence_order,
    larmor_orbit,
    magnetic_bracket_pair,
    omega_fd,
    pde41_residual_fd,
    pde511_residual,
)

K_REF = HodographConstants(alpha=0.0, beta=0.0, gamma=0.5, delta=-0.3,
                           epsilon=1.0, zeta=2.0)

SOLUTION_FAMILIES = [
    PolynomialCos(1),
    PolynomialCos(2),
    PolynomialCos(3),
    LogRadial(),
    LogNu1(),
    EllipticHalf(),
]

CHARTED_FAMILIES = [z for z in SOLUTION_FAMILIES
                    if not (isinstance(z, PolynomialCos) and z.k == 1)]


def _report(label, value, bound, ok, comparison="<="):
    print(f"{label}: measured {value:.3e} (require {comparison} {bound:g}) "
          f"{'PASS' if ok else 'FAIL'}")


def _grid(n=20, lo=0.5, hi=2.5):
    for x in np.linspace(lo, hi, n):
        for y in np.linspace(lo, hi, n):
            yield float(x), float(y)


def _random_on_level(system, rng, energy=None):
    x0, x1, y0, y1 = system.domain.bbox
    for _ in range(1000):
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if not system.domain.contains(x, y):
            continue
        try:
            p1, p2 = momentum_on_level(system, x, y,
                                       rng.uniform(0.0, 2.0 * math.pi),
                                       energy=energy)
        except Exception:
            continue
        return np.array([x, y, p1, p2])
    raise AssertionError("no admissible phase found")


def test_a01_newton_grid_reproduces_closed_form():
    """Newton solves on a 20 x 20 grid match the exact solution."""
    cache = {}

    def sampler(x, y):
        key = (x, y)
        if key not in cache:
            exact, _ = closed_form_abzero(K_REF, x, y)
            result = newton_solve(K_REF, x, y,
                                  (exact.f + 0.05, exact.g - 0.04), tol=1e-13)
            lam, u0 = reconstruct_fields(K_REF, result.f, result.g)
            cache[key] = FieldPoint(f=result.f, g=result.g, lam=lam, u0=u0)
        return cache[key]

    worst_field = 0.0
    worst_residual = 0.0
    worst_omega = 0.0
    for x, y in _grid():
        exact, omega_exact = closed_form_abzero(K_REF, x, y)
        point = sampler(x, y)
        worst_field = max(worst_field,
                          abs(point.f - exact.f), abs(point.g - exact.g),
                          abs(point.lam - exact.lam), abs(point.u0 - exact.u0))
        r1, r2 = algebraic_residual(K_REF, x, y, point.f, point.g)
        worst_residual = max(worst_residual, abs(r1), abs(r2))
        omega = omega_fd(sampler, x, y, h=1e-3)
        worst_omega = max(worst_omega, abs(omega - omega_exact))
    ok = worst_field <= 1e-10 and worst_omega <= 1e-10 and worst_residual <= 1e-12
    _report("A01 closed-form oracle, fields and Omega",
            max(worst_field, worst_omega), 1e-10, ok)
    _report("A01 closed-form oracle, algebraic residuals",
            worst_residual, 1e-12, ok)
    assert ok


def test_a02_field_system_residual_second_order():
    """The first-order system residual shrinks as h^2 and meets 1e-7."""
    points = [(0.7, 0.9), (1.2, 1.7), (2.1, 0.6), (1.8, 2.2)]
    k_cont = dataclasses.replace(K_REF, alpha=0.1, beta=0.05)
    cont_cache = {}

    def closed_sampler(x, y):
        return closed_form_abzero(K_REF, x, y)[0]

    def cont_sampler(x, y):
        key = (x, y)
        if key not in cont_cache:
            result = continued_solve(k_cont, x, y)
            lam, u0 = reconstruct_fields(k_cont, result.f, result.g)
            cont_cache[key] = FieldPoint(f=result.f, g=result.g, lam=lam, u0=u0)
        return cont_cache[key]

    ok = True
    worst_fine = 0.0
    worst_ratio_lo, worst_ratio_hi = np.inf, 0.0
    for sampler in (closed_sampler, cont_sampler):
        for x, y in points:
            errs = [float(np.max(np.abs(pde41_residual_fd(sampler, x, y, h=h))))
                    for h in (1e-3, 5e-4, 2.5e-4)]
            for a, b in zip(errs, errs[1:]):
                ratio = a / b
                worst_ratio_lo = min(worst_ratio_lo, ratio)
                worst_ratio_hi = max(worst_ratio_hi, ratio)
                ok = ok and 3.2 <= ratio <= 4.8
            fine = float(np.max(np.abs(pde41_residual_fd(sampler, x, y, h=1e-4))))
            worst_fine = max(worst_fine, fine)
            ok = ok and fine <= 1e-7
    print(f"A02 system residual: h-halving ratios in "
          f"[{worst_ratio_lo:.2f}, {worst_ratio_hi:.2f}] (require [3.2, 4.8]) "
          f"{'PASS' if ok else 'FAIL'}")
    _report("A02 system residual at h = 1e-4", worst_fine, 1e-7, ok)
    assert ok


def test_a03_catalog_conservation_and_scans():
    """Every shipped integral is conserved and passes its bracket scan."""
    worst_drift = 0.0
    worst_scan = 0.0
    config = TrajectoryConfig(t_end=10.0, rel_tol=1e-11)
    for entry in list_examples():
        for phase in entry.sample_phases:
            trajectory = integrate(entry.system, phase, config)
            assert not trajectory.domain_exit
            for integral in entry.integrals:
                report = conservation_drift(entry.system, trajectory, integral)
                worst_drift = max(worst_drift, report.max_abs_drift)
        for integral in entry.integrals:
            scan = level_set_bracket_scan(entry.system, integral)
            worst_scan = max(worst_scan, scan.max_abs)
    ok = worst_drift <= 1e-6 and worst_scan <= 1e-6
    _report("A03 catalog conservation, trajectory drift", worst_drift, 1e-6, ok)
    _report("A03 catalog conservation, bracket scan", worst_scan, 1e-6, ok)
    assert ok


def test_a04_integrals_are_level_specific():
    """Doubling the energy level breaks the level-bound integrals."""
    ok = True
    values = {}
    probes = {"ex3": (4.0, 0.2), "ex5": (1.0, 0.7), "ex6": (1.0, 0.6)}
    for name, (x, y) in probes.items():
        entry = get_example(name)
        worst = 0.0
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            try:
                p1, p2 = momentum_on_level(entry.system, x, y, float(phi),
                                           energy=2.0 * entry.system.energy)
                phase = (x, y, p1, p2)
                worst = max(worst, abs(magnetic_bracket_pair(
                    entry.system, entry.integrals[0], hamiltonian_integral(entry.system),
                    phase)))
            except Exception:
                continue
        values[name] = worst
        ok = ok and worst > 1e-3
    line = ", ".join(f"{k} {v:.3e}" for k, v in values.items())
    print(f"A04 level specificity: off-level brackets {line} "
          f"(require > 0.001) {'PASS' if ok else 'FAIL'}")
    assert ok


def test_a05_radial_solutions_satisfy_key_equation():
    """All shipped profiles solve the key equation; partials match FD."""
    rng = np.random.default_rng(11)
    worst_residual = 0.0
    worst_partial = 0.0
    for z in SOLUTION_FAMILIES:
        vlo, vhi = z.valid_rho
        lo = max(0.05, vlo + 0.05)
        hi = min(4.5, vhi - 0.05 if np.isfinite(vhi) else 4.5)
        for _ in range(200):
            rho = rng.uniform(lo, hi)
            psi = rng.uniform(0.0, z.psi_period)
            worst_residual = max(worst_residual,
                                 abs(pde511_residual(z, rho, psi)))
        for _ in range(10):
            rho = rng.uniform(max(lo, 0.2), min(hi, 3.0))
            psi = rng.uniform(0.0, z.psi_period)
            _, z_r, z_p, z_rr, z_rp, z_pp = z.jet(rho, psi)[:6]
            h = 1e-5
            fd_r = (z.value(rho + h, psi) - z.value(rho - h, psi)) / (2 * h)
            fd_p = (z.value(rho, psi + h) - z.value(rho, psi - h)) / (2 * h)
            h = 1e-4
            fd_rr = (z.value(rho + h, psi) - 2 * z.value(rho, psi)
                     + z.value(rho - h, psi)) / h**2
            fd_pp = (z.value(rho, psi + h) - 2 * z.value(rho, psi)
                     + z.value(rho, psi - h)) / h**2
            fd_rp = (z.value(rho + h, psi + h) - z.value(rho + h, psi - h)
                     - z.value(rho - h, psi + h) + z.value(rho - h, psi - h)) / (4 * h**2)
            for got, want in ((z_r, fd_r), (z_p, fd_p), (z_rr, fd_rr),
                              (z_rp, fd_rp), (z_pp, fd_pp)):
                worst_partial = max(worst_partial,
                                    abs(got - want) / max(1.0, abs(got)))
    ok = worst_residual <= 1e-10 and worst_partial <= 1e-6
    _report("A05 key-equation residual over 200 points each",
            worst_residual, 1e-10, ok)
    _report("A05 analytic partials vs differences", worst_partial, 1e-6, ok)
    assert ok


def test_a06_generic_builder_matches_catalog():
    """Bundles rebuilt from descriptors match the printed systems."""
    rng = np.random.default_rng(12)
    worst_diff = 0.0
    worst_level = 0.0
    for name in ("ex5", "ex6"):
        entry = get_example(name)
        bundle = bundle_from_descriptor(entry.bundle_descriptor)
        system, bundle_integral = entry.system, bundle.as_integral()
        checked = 0
        while checked < 100:
            rho = rng.uniform(0.15, 3.0)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            if not system.domain.contains(rho, psi):
                continue
            want_metric = np.asarray(system.metric.components(rho, psi))
            diffs = np.abs(np.asarray(bundle.metric_components(rho, psi))
                           - want_metric) / np.maximum(1.0, np.abs(want_metric))
            worst_diff = max(worst_diff, float(np.max(diffs)),
                             abs(bundle.omega(rho, psi) - system.field(rho, psi)))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p1, p2 = LEVEL_MOMENTA[name](rho, psi, phi)
            phase = np.array([rho, psi, p1, p2])
            worst_level = max(worst_level,
                              abs(hamiltonian(system, phase)
                                  - system.energy / 2.0))
            want = entry.integrals[0](phase)
            worst_diff = max(worst_diff,
                             abs(bundle_integral(phase) - want) / max(1.0, abs(want)))
            checked += 1
    ok = worst_diff <= 1e-10 and worst_level <= 1e-12
    _report("A06 builder vs catalog outputs", worst_diff, 1e-10, ok)
    _report("A06 momentum parametrization level error", worst_level, 1e-12, ok)
    assert ok


def test_a07_superintegrable_entry():
    """Three conserved quantities of full rank on a flat chart."""
    entry = get_example("ex4")
    scalars = [hamiltonian_integral(entry.system)] + list(entry.integrals)
    worst_drift = 0.0
    config = TrajectoryConfig(t_end=10.0, rel_tol=1e-11)
    for phase in entry.sample_phases:
        trajectory = integrate(entry.system, phase, config)
        for scalar in scalars:
            report = conservation_drift(entry.system, trajectory, scalar)
            worst_drift = max(worst_drift, report.max_abs_drift)
    rng = np.random.default_rng(13)
    ranks = {int(functional_independence_rank(
        scalars, _random_on_level(entry.system, rng))) for _ in range(20)}
    kmax = max(abs(gaussian_curvature(entry.system.metric, x, y, h=1e-4))
               for x, y in entry.curvature_probes)
    ok = worst_drift <= 1e-7 and ranks == {3} and kmax <= 1e-6
    _report("A07 superintegrable drift across H, F, F1", worst_drift, 1e-7, ok)
    print(f"A07 superintegrable rank set {sorted(ranks)} (require [3]), "
          f"curvature {kmax:.3e} (require <= 1e-06) {'PASS' if ok else 'FAIL'}")
    assert ok


def test_a08_curved_entries_have_curvature():
    """The transformed-chart and polynomial entries are genuinely curved."""
    ok = True
    values = {}
    for name in ("ex3", "ex5"):
        entry = get_example(name)
        best = 0.0
        for x, y in entry.curvature_probes:
            coarse = gaussian_curvature(entry.system.metric, x, y, h=1e-4)
            fine = gaussian_curvature(entry.system.metric, x, y, h=5e-5)
            if abs(coarse) > 1e-3 and abs(fine - coarse) <= 0.05 * abs(coarse):
                best = max(best, abs(coarse))
        values[name] = best
        ok = ok and best > 1e-3
    line = ", ".join(f"{k} {v:.3e}" for k, v in values.items())
    print(f"A08 curvature nontriviality: stable probes {line} "
          f"(require > 0.001) {'PASS' if ok else 'FAIL'}")
    assert ok


def test_a09_special_function_identities():
    """Elliptic integrals, the Legendre relation and the cutoff series."""
    worst = 0.0
    for m in np.arange(0.1, 0.95, 0.1):
        m = float(m)
        (k, e), (kc, ec) = elliptic_jet(m)[:2], elliptic_jet(1.0 - m)[:2]
        worst = max(worst,
                    abs(k - 0.5 * math.pi * hyp2f1(0.5, 0.5, 1.0, m)),
                    abs(e - 0.5 * math.pi * hyp2f1(-0.5, 0.5, 1.0, m)))
        legendre = e * kc + ec * k - k * kc
        worst = max(worst, abs(legendre - 0.5 * math.pi))
    rng = np.random.default_rng(14)
    worst_series = 0.0
    for k in range(1, 7):
        coeffs = terminating_2f1_coeffs(k)
        for _ in range(20):
            rho = rng.uniform(0.05, 3.0)
            direct = abs(rho * hyp2f1(1.0 - k, 1.0 + k, 2.0, -rho))
            series = abs(sum(c * rho ** (j + 1) for j, c in enumerate(coeffs)))
            worst_series = max(worst_series,
                               abs(direct - series) / max(1.0, series))
    ok = worst <= 1e-12 and worst_series <= 1e-12
    _report("A09 elliptic and Legendre identities", worst, 1e-12, ok)
    _report("A09 cutoff-series proportionality, k <= 6", worst_series, 1e-12, ok)
    assert ok


def test_a10_invariant_layer():
    """Chart positivity: D > 0 over every charted family's working range."""
    min_d = np.inf
    for z in CHARTED_FAMILIES:
        vlo, vhi = z.valid_rho
        lo = max(0.05, vlo + 0.05)
        hi = min(3.0, vhi - 0.05 if np.isfinite(vhi) else 3.0)
        for rho in np.linspace(lo, hi, 20):
            for psi in np.linspace(0.0, z.psi_period, 20):
                min_d = min(min_d, condition_D(z, float(rho), float(psi)))

    ok = min_d > 0.0
    _report("A10 chart-condition minimum over families", min_d, 0.0, ok,
            comparison=">")
    assert ok


def test_a11_integrator_order_and_closure():
    """Fixed-step order near four; the circular orbit closes."""
    ex1 = get_example("ex1")
    phase0 = (0.0, 0.0, 1.0, 0.4)
    steps = [0.01, 0.005, 0.0025]
    errors = []
    for h in steps:
        config = TrajectoryConfig(t_end=10.0, method="fixed_rk4", step=h)
        trajectory = integrate(ex1.system, phase0, config)
        worst = max(float(np.max(np.abs(np.asarray(s) - larmor_orbit(phase0, t))))
                    for t, s in zip(trajectory.times, trajectory.states))
        errors.append(worst)
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    orders = {"ex1": slope}
    for name in ("ex5", "ex6"):
        entry = get_example(name)
        orders[name] = float(convergence_order(
            entry.system, entry.sample_phases[0], entry.integrals[0],
            steps=(0.01, 0.005, 0.0025)))
    closure_config = TrajectoryConfig(t_end=2.0 * math.pi, rel_tol=1e-11)
    trajectory = integrate(ex1.system, (0.0, 0.0, 1.0, 0.0), closure_config)
    closure = float(np.max(np.abs(np.asarray(trajectory.states[-1])
                                  - np.asarray(trajectory.states[0]))))
    ok = all(3.5 <= v <= 4.5 for v in orders.values()) and closure <= 1e-8
    line = ", ".join(f"{k} {v:.3f}" for k, v in orders.items())
    print(f"A11 integrator order: {line} (require 4 +/- 0.5), "
          f"closure {closure:.3e} (require <= 1e-08) {'PASS' if ok else 'FAIL'}")
    assert ok


def test_a12_cli_determinism_and_exit_codes(tmp_path):
    """Byte-identical reruns and the five documented exit codes."""
    blobs = []
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        assert cli_main(["--out-dir", str(d), "simulate", "ex5", "--phase",
                         "1.0", "0.7", "1.970584", "0.5", "--t-end", "2"]) == 0
        assert cli_main(["--out-dir", str(d), "--seed", "7",
                         "verify", "ex4"]) == 0
        blobs.append((d / "ex5_trace.csv").read_bytes()
                     + (d / "verify.json").read_bytes())
    identical = blobs[0] == blobs[1]

    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"example": "ex1", "stepsize": 0.1}))
    codes = {
        0: cli_main(["--out-dir", str(tmp_path), "simulate", "ex1",
                     "--phase", "0", "0", "1", "0", "--t-end", "1"]),
        2: cli_main(["--config", str(bad_config), "simulate"]),
        3: cli_main(["--out-dir", str(tmp_path), "simulate", "ex6", "--phase",
                     "1.0", "0.6", "1.0", "0.5", "--t-end", "20"]),
        4: cli_main(["--out-dir", str(tmp_path), "simulate", "ex4",
                     "--phase", "0.01", "0.01", "1", "0"]),
        5: cli_main(["--out-dir", str(tmp_path), "verify", "ex1", "--corrupt"]),
    }
    ok = identical and all(got == want for want, got in codes.items())
    print(f"A12 CLI: determinism {'byte-identical' if identical else 'DIFFERS'}, "
          f"exit codes {codes} (require key == value) {'PASS' if ok else 'FAIL'}")
    assert ok
