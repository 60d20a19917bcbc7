"""Output checks of the benchmark, with the closed forms they compare against.

Every reference value here is computed by the benchmark itself, apart from
the program: the Larmor solution, the curvature of the conformal channel
metrics, the cube-root solution of the hodograph system, a transcription of
its two algebraic relations, the factorial form of the polynomial profile
coefficients, and scipy's complete elliptic integrals.  Each ``check_*``
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# A conserved quantity may drift by at most DRIFT_FACTOR * T * tol * scale,
# where tol is the relative tolerance of the adaptive stepper or h^4 for
# the fixed-step fourth-order stepper.  In a sweep over 30 seeds of orbits
# like the workload's, the largest drift was 15 * T * tol * scale.
DRIFT_FACTOR = 1000.0

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def larmor_state(phase0, t: float, b: float = 1.0):
    """Uniform field b on the flat plane: with z = p1 + i p2 the flow is
    dz/dt = -i b z, dq/dt = z, so z(t) = z0 exp(-i b t) and
    q(t) = q0 + z0 (1 - exp(-i b t)) / (i b)."""
    x0, y0, p10, p20 = (float(v) for v in phase0)
    z0 = complex(p10, p20)
    rot = cmath.exp(-1j * b * t)
    q = complex(x0, y0) + z0 * (1.0 - rot) / (1j * b)
    z = z0 * rot
    return (q.real, q.imag, z.real, z.imag)


def channel_curvature(name: str, y: float) -> float:
    """K = -Laplacian(ln lam) / (2 lam) for lam depending on y alone.

    ex2:  lam = 2 + cos y, (ln lam)'' = -(1 + 2 cos y) / (2 + cos y)^2.
    ex2b: lam = 1 / (1 + y^2), (ln lam)'' = -2 (1 - y^2) / (1 + y^2)^2.
    """
    if name == "ex2":
        lam = 2.0 + math.cos(y)
        second = -(1.0 + 2.0 * math.cos(y)) / lam ** 2
    elif name == "ex2b":
        lam = 1.0 / (1.0 + y * y)
        second = -2.0 * (1.0 - y * y) / (1.0 + y * y) ** 2
    else:
        raise ValueError(f"no closed-form curvature for {name!r}")
    return -second / (2.0 * lam)


def cube_root_solution(k: dict, x: float, y: float):
    """Hodograph solution at alpha = beta = 0 as (f, g, Lambda, u0, Omega).

    With u = 2x + delta, v = 2y + gamma and c the real cube root of
    zeta (u^2 + v^2): f = v/c, g = -u/c, Lambda = -(f^2 + g^2)/2 = -c/(2 zeta),
    u0 = 4 epsilon / zeta and Omega = (g_x - f_y)/4 = -2/(3c).
    """
    u = 2.0 * x + k["delta"]
    v = 2.0 * y + k["gamma"]
    s = k["zeta"] * (u * u + v * v)
    c = math.copysign(abs(s) ** (1.0 / 3.0), s)
    return v / c, -u / c, -c / (2.0 * k["zeta"]), 4.0 * k["epsilon"] / k["zeta"], -2.0 / (3.0 * c)


def hodograph_relations(k: dict, x: float, y: float, f: float, g: float):
    """The two algebraic relations of the hodograph system, grouped by
    powers of (f, g); both vanish at a solution."""
    a, b, e, z = k["alpha"], k["beta"], k["epsilon"], k["zeta"]
    rr = f * f + g * g
    r1 = (
        -z * z * f * rr
        + a * z * (26.0 * f * f + 6.0 * g * g)
        - 12.0 * b * z * f * g
        - 192.0 * a * a * f
        + 64.0 * a * b * g
        - 32.0 * a * e
        + z * (k["gamma"] + 2.0 * y)
    )
    r2 = (
        z * z * g * rr
        + b * z * (26.0 * g * g + 6.0 * f * f)
        - 12.0 * a * z * f * g
        + 192.0 * b * b * g
        - 64.0 * a * b * f
        + 32.0 * b * e
        + z * (k["delta"] + 2.0 * x)
    )
    return r1, r2


def hodograph_fields(k: dict, f: float, g: float):
    """(Lambda, u0) from a solution (f, g)."""
    a, b, z = k["alpha"], k["beta"], k["zeta"]
    lam = (16.0 * (a * f - b * g) - z * (f * f + g * g)) / (2.0 * z)
    return lam, 8.0 * (a * f + b * g) / z + 4.0 * k["epsilon"] / z


def poly_cos_coefficients(k: int):
    """Monic coefficients of rho^1 .. rho^k of the polynomial profile:
    c_j = (k+j-1)! / (k (k-j)! (j-1)! j!), divided by c_k."""
    fact = math.factorial
    exact = [
        Fraction(fact(k + j - 1), k * fact(k - j) * fact(j - 1) * fact(j))
        for j in range(1, k + 1)
    ]
    return [float(c / exact[-1]) for c in exact]


def elliptic_half_profile(rho: float, psi: float) -> float:
    """Z = (4/pi) (E(-rho) - K(-rho)) cos(psi/2), with scipy's parameter
    convention for K and E."""
    from scipy.special import ellipe, ellipk

    return 4.0 / math.pi * (float(ellipe(-rho)) - float(ellipk(-rho))) * math.cos(0.5 * psi)


def drift_bound(t_end: float, method: str, rel_tol: float, step, scale: float) -> float:
    tol = step ** 4 if method == "fixed_rk4" else rel_tol
    return DRIFT_FACTOR * t_end * tol * max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------

# the CLI's verify integrates T = 10 with the default adaptive tolerance
VERIFY_T_END = 10.0
VERIFY_REL_TOL = 1e-11


def check_verify_report(name: str, report: dict, integral_names, probes) -> list:
    problems = []
    if report.get("all_pass") is not False:
        problems.append("all_pass must be false: the corrupted integral has to fail")
    checks = report.get(name)
    if not isinstance(checks, dict):
        return problems + [f"no section for {name}"]
    corrupt = f"bracket_scan_{integral_names[0]}_corrupt"
    wanted = {corrupt, "drift_H"}
    wanted.update(f"bracket_scan_{n}" for n in integral_names)
    wanted.update(f"drift_{n}" for n in integral_names)
    missing = wanted - set(checks)
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    for key, check in sorted(checks.items()):
        if key == corrupt:
            if check["pass"] or not check["value"] > check["threshold"]:
                problems.append(f"negative control {key} not detected: {check}")
        elif not check["pass"]:
            problems.append(f"{key} failed: {check}")
        if key.startswith("drift_"):
            bound = drift_bound(VERIFY_T_END, "embedded_rk45", VERIFY_REL_TOL, None, 1.0)
            if not abs(check["value"]) <= bound:
                problems.append(f"{key} = {check['value']:.3e} above {bound:.1e}")
    if name in ("ex2", "ex2b"):
        want = max(abs(channel_curvature(name, py)) for _, py in probes)
        got = checks.get("curvature_nontrivial", {}).get("value")
        # the CLI's Brioschi finite differences (h = 1e-4) agree to about 1e-8
        if got is None or not abs(got - want) <= 1e-6 * abs(want):
            problems.append(f"curvature {got} differs from closed form {want}")
    return problems


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def check_orbit(spec: dict, times, states, exited: bool, h_values, integrals, contains) -> list:
    """Check one orbit record.

    ``times`` and ``states`` are the recorded samples, ``h_values`` the
    Hamiltonian along them, ``integrals`` maps names to (kind, values along
    the orbit, NaN where a guard refused evaluation) and ``contains`` is
    the chart's membership test.
    """
    problems = []
    t_end = spec["t_end"]
    if list(states[0][:2]) != [spec["x"], spec["y"]] or times[0] != 0.0:
        problems.append("first row is not the requested start")
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("times are not increasing")
    last_t = float(times[-1])
    if exited:
        if not last_t < t_end:
            problems.append(f"exit reported at t = {last_t}, not before {t_end}")
        if not contains(float(states[-1][0]), float(states[-1][1])):
            problems.append("last state of an exiting orbit lies outside the domain")
    elif not abs(last_t - t_end) <= 1e-9 * t_end:
        problems.append(f"orbit ended at t = {last_t}, not at {t_end}")
    reached = max(last_t, 1e-3)
    bound = drift_bound(reached, spec["method"], spec["rel_tol"], spec.get("step"), spec["energy"] / 2.0)
    if not abs(h_values[0] - spec["energy"] / 2.0) <= 1e-12 * max(1.0, spec["energy"]):
        problems.append(f"start is off the level: H = {h_values[0]!r}")
    h_drift = max(abs(h - h_values[0]) for h in h_values)
    if not h_drift <= bound:
        problems.append(f"H drift {h_drift:.3e} above {bound:.1e}")
    for name, (kind, values) in integrals.items():
        finite = [v for v in values if math.isfinite(v)]
        if not finite:
            continue
        f0 = finite[0]
        if kind == "rational":
            # chordal distance on the projective line: a ratio N/D whose
            # numerator and denominator each drift by a small relative error
            # drifts little in this distance, also near a pole of N/D
            drift = max(abs(v - f0) / math.sqrt((1.0 + v * v) * (1.0 + f0 * f0)) for v in finite)
            scale = 1.0
        else:
            drift = max(abs(v - f0) for v in finite)
            scale = f0
        bound = drift_bound(reached, spec["method"], spec["rel_tol"], spec.get("step"), scale)
        if not drift <= bound:
            problems.append(f"{name} drift {drift:.3e} above {bound:.1e}")
    if spec.get("larmor_b") is not None:
        want = larmor_state(states[0], last_t, spec["larmor_b"])
        scale = max(1.0, max(abs(v) for v in want))
        bound = drift_bound(reached, spec["method"], spec["rel_tol"], spec.get("step"), scale)
        err = max(abs(a - b) for a, b in zip(states[-1], want))
        if not err <= bound:
            problems.append(f"end state off the Larmor solution by {err:.3e} (bound {bound:.1e})")
    return problems


def parse_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def check_orbit_csv(spec: dict, text: str, exit_code: int, entry) -> list:
    """Check a ``simulate`` CSV of catalog ``entry``.  The H and integral
    columns must also match the entry's functions at each row's state."""
    names = [f.name for f in entry.integrals]
    header, rows = parse_csv(text)
    want = ["t", "q1", "q2", "p1", "p2", "H"] + names
    if header != want:
        return [f"CSV header {header} != {want}"]
    if not rows:
        return ["CSV has no rows"]
    problems = []
    metric = entry.system.metric
    for row in rows:
        q1, q2, p1, p2 = row[1:5]
        g11, g12, g22 = metric.components(q1, q2)
        h = 0.5 * (g22 * p1 * p1 - 2.0 * g12 * p1 * p2 + g11 * p2 * p2) / (g11 * g22 - g12 * g12)
        values = [h] + [f.func(row[1:5]) if math.isfinite(v) else v for f, v in zip(entry.integrals, row[6:])]
        if not all(_close(v, c, 1e-12) or not math.isfinite(c) for v, c in zip(values, row[5:])):
            problems.append(f"row at t = {row[0]} does not match H or the integrals of its state")
            break
    cols = list(zip(*rows))
    integrals = {f.name: (f.kind, cols[6 + i]) for i, f in enumerate(entry.integrals)}
    states = [row[1:5] for row in rows]
    contains = entry.system.domain.contains
    return problems + check_orbit(spec, cols[0], states, exit_code == 3, cols[5], integrals, contains)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

HODOGRAPH_HEADER = ["x", "y", "f", "g", "Lambda", "u0", "Omega", "res1", "res2", "pde41_inf"]


def check_hodograph_csv(spec: dict, text: str) -> list:
    header, rows = parse_csv(text)
    if header != HODOGRAPH_HEADER:
        return [f"CSV header {header}"]
    nx, ny = spec["grid"]
    if len(rows) != nx * ny:
        return [f"{len(rows)} rows for a {nx} x {ny} grid"]
    k = spec["constants"]
    abzero = k["alpha"] == 0.0 and k["beta"] == 0.0
    problems = []
    signs = set()
    for x, y, f, g, lam, u0, omega, res1, res2, pde in rows:
        where = f"at ({x:.4g}, {y:.4g})"
        r1, r2 = hodograph_relations(k, x, y, f, g)
        if not max(abs(r1), abs(r2)) <= 1e-9:
            problems.append(f"relations do not vanish {where}: {r1:.2e}, {r2:.2e}")
        want_lam, want_u0 = hodograph_fields(k, f, g)
        if not (_close(lam, want_lam, 1e-12) and _close(u0, want_u0, 1e-12)):
            problems.append(f"Lambda or u0 inconsistent with (f, g) {where}")
        if abzero:
            cf, cg, clam, cu0, comega = cube_root_solution(k, x, y)
            if not (_close(f, cf, 1e-10) and _close(g, cg, 1e-10) and _close(lam, clam, 1e-10)):
                problems.append(f"(f, g, Lambda) off the cube-root solution {where}")
            if not _close(omega, comega, 1e-7):
                problems.append(f"Omega {omega} != -2/(3c) = {comega} {where}")
        if not max(abs(res1), abs(res2)) <= 1e-10 or not pde <= 1e-5:
            problems.append(f"reported residuals too large {where}")
        if lam == 0.0 or not math.isfinite(lam):
            problems.append(f"Lambda vanishes {where}")
        signs.add(lam > 0.0)
    if len(signs) > 1:
        problems.append("Lambda changes sign over the grid")
    return problems[:5]


def check_bundle_payload(spec: dict, payload: dict, solution, list_output: str) -> list:
    """``solution`` is the profile rebuilt from the written descriptor and
    ``list_output`` what ``magflows list --bundle`` printed for it."""
    problems = []
    if payload.get("all_pass") is not True:
        problems.append(f"checks failed: {payload.get('checks')}")
    desc = payload.get("descriptor", {})
    for key in ("family", "gamma", "c_energy"):
        if desc.get(key) != spec[key]:
            problems.append(f"descriptor {key} = {desc.get(key)!r}, asked {spec[key]!r}")
    if desc.get("rho_range") != list(spec["rho_range"]):
        problems.append(f"descriptor rho_range {desc.get('rho_range')} != {spec['rho_range']}")
    if spec["family"] == "poly-cos":
        k = spec["k"]
        if desc.get("parameters", {}).get("k") != k:
            problems.append("descriptor lost the degree k")
        want = poly_cos_coefficients(k)
        if len(solution.coeffs) != k or not all(
            _close(a, b, 1e-12) for a, b in zip(solution.coeffs, want)
        ):
            problems.append(f"poly-cos coefficients {solution.coeffs} != factorial form {want}")
    if spec["family"] == "elliptic-half":
        lo, hi = spec["rho_range"]
        for i in range(5):
            rho = lo + (hi - lo) * (i + 0.5) / 5.0
            psi = 0.7 + 2.1 * i
            got = solution.value(rho, psi)
            want = elliptic_half_profile(rho, psi)
            if not _close(got, want, 1e-12):
                problems.append(f"elliptic profile {got} != scipy {want} at rho = {rho}")
    row = [line.split() for line in list_output.splitlines() if line.startswith("bundle:")]
    want_row = [f"bundle:{spec['family']}", "rho,psi", format(spec["c_energy"] / 2.0, "g"), "rational"]
    if row != [want_row]:
        problems.append(f"list --bundle printed {row}, expected {want_row}")
    return problems
