"""Each output check accepts the program's output and rejects a perturbed copy."""

import json
import math

import pytest

import checks
from magflows import catalog, rational
from workloads import run_cli


def _csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(repr(v) for v in row) for row in rows]) + "\n"


@pytest.fixture(scope="module")
def ex1_orbit(tmp_path_factory):
    out = tmp_path_factory.mktemp("orbit")
    argv = ["--out-dir", out, "simulate", "ex1", "--position", "0.5", "-1.0",
            "--angle", "0.7", "--t-end", "3.0", "--out", "o.csv"]
    assert run_cli(argv)[0] == 0
    spec = {"x": 0.5, "y": -1.0, "t_end": 3.0, "energy": 1.0, "method": "embedded_rk45",
            "rel_tol": 1e-11, "step": None, "larmor_b": 1.0}
    return spec, (out / "o.csv").read_text()


def _check_ex1(spec, text, exit_code=0):
    return checks.check_orbit_csv(spec, text, exit_code, catalog.get_example("ex1"))


def test_orbit_check_rejects_a_shifted_row(ex1_orbit):
    spec, text = ex1_orbit
    assert _check_ex1(spec, text) == []
    header, rows = checks.parse_csv(text)
    for col in (3, 4):  # p1, p2: H and F both move
        shifted = [list(r) for r in rows]
        shifted[len(rows) // 2][col] += 1e-6
        assert _check_ex1(spec, _csv(header, shifted))


def test_orbit_check_rejects_an_end_state_off_the_larmor_solution(ex1_orbit):
    spec, text = ex1_orbit
    header, rows = checks.parse_csv(text)
    rows[-1][1] += 1e-6  # q1 enters neither H nor F
    problems = _check_ex1(spec, _csv(header, rows))
    assert any("Larmor" in p for p in problems)


def test_orbit_check_rejects_a_false_exit(ex1_orbit):
    spec, text = ex1_orbit
    assert _check_ex1(spec, text, exit_code=3)  # ran to t_end, so not an exit
    header, rows = checks.parse_csv(text)
    assert _check_ex1(spec, _csv(header, rows[:-3]))  # stops early without exit


def test_larmor_solution_is_a_circle_of_radius_one_over_b():
    # half a turn of a circle of radius 1/2 (period pi for b = 2)
    x, y, p1, p2 = checks.larmor_state((0.0, 0.0, 1.0, 0.0), 0.5 * math.pi, b=2.0)
    assert (x, y, p1, p2) == pytest.approx((0.0, -1.0, -1.0, 0.0), abs=1e-12)


@pytest.fixture(scope="module")
def hodograph_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("hodograph")
    specs = [
        {"alpha": 0.0, "beta": 0.0, "gamma": 0.3, "delta": -0.2, "epsilon": 1.2, "zeta": 1.8},
        {"alpha": 0.04, "beta": -0.03, "gamma": 0.1, "delta": 0.2, "epsilon": 1.0, "zeta": 2.0},
    ]
    texts = []
    for i, k in enumerate(specs):
        argv = ["--out-dir", out, "hodograph", "--grid", "3", "3", "--out", f"h{i}.csv"]
        for key, value in k.items():
            argv += [f"--{key}", repr(value)]
        assert run_cli(argv)[0] == 0
        texts.append(({"constants": k, "grid": (3, 3)}, (out / f"h{i}.csv").read_text()))
    return texts


@pytest.mark.parametrize("case, column", [(0, 2), (0, 6), (1, 3), (1, 4)])
def test_hodograph_check_rejects_a_perturbed_value(hodograph_outputs, case, column):
    spec, text = hodograph_outputs[case]
    assert checks.check_hodograph_csv(spec, text) == []
    header, rows = checks.parse_csv(text)
    rows[4][column] *= 1.0 + 1e-6
    assert checks.check_hodograph_csv(spec, _csv(header, rows))


def test_cube_root_solution_satisfies_the_relations():
    k = {"alpha": 0.0, "beta": 0.0, "gamma": 0.4, "delta": -0.7, "epsilon": 1.0, "zeta": -1.5}
    f, g, lam, u0, omega = checks.cube_root_solution(k, 1.3, 0.2)
    assert max(map(abs, checks.hodograph_relations(k, 1.3, 0.2, f, g))) < 1e-12
    assert checks.hodograph_fields(k, f, g) == pytest.approx((lam, u0), rel=1e-12)


@pytest.fixture(scope="module")
def verify_ex2(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    assert run_cli(["--out-dir", out, "verify", "ex2", "--corrupt", "--out", "v.json"])[0] == 5
    return json.loads((out / "v.json").read_text())


@pytest.mark.parametrize("key, field, value", [
    ("bracket_scan_F1_corrupt", "pass", True),
    ("curvature_nontrivial", "value", None),
    ("drift_F1", "value", 5e-7),  # passes the CLI's own 1e-6 threshold
    ("drift_H", "pass", False),
])
def test_verify_check_rejects_a_perturbed_report(verify_ex2, key, field, value):
    probes = catalog.get_example("ex2").curvature_probes
    assert checks.check_verify_report("ex2", verify_ex2, ["F1"], probes) == []
    report = json.loads(json.dumps(verify_ex2))
    check = report["ex2"][key]
    check[field] = check["value"] * (1.0 + 1e-5) if value is None else value
    assert checks.check_verify_report("ex2", report, ["F1"], probes)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    made = {}
    for family, extra in (("poly-cos", ["--k", "3"]), ("elliptic-half", [])):
        argv = ["--out-dir", out, "build-rational", family, "--rho-range", "0.1", "3.0",
                "--out", f"{family}.json", *extra]
        assert run_cli(argv)[0] == 0
        payload = json.loads((out / f"{family}.json").read_text())
        desc = out / f"{family}.desc.json"
        desc.write_text(json.dumps(payload["descriptor"]))
        spec = {"family": family, "gamma": 1.0, "c_energy": 1.0, "rho_range": (0.1, 3.0), "k": 3}
        listed = run_cli(["list", "--bundle", desc])[1]
        made[family] = spec, payload, rational.solution_from_descriptor(payload["descriptor"]), listed
    return made


def test_bundle_check_accepts_program_output(bundles):
    for spec, payload, solution, listed in bundles.values():
        assert checks.check_bundle_payload(spec, payload, solution, listed) == []


def test_bundle_check_rejects_perturbed_coefficients_and_profiles(bundles):
    spec, payload, solution, listed = bundles["poly-cos"]
    solution.coeffs[1] *= 1.0 + 1e-9
    assert checks.check_bundle_payload(spec, payload, solution, listed)
    solution.coeffs[1] /= 1.0 + 1e-9

    spec, payload, solution, listed = bundles["elliptic-half"]

    class Shifted:
        def value(self, rho, psi):
            return solution.value(rho, psi) * (1.0 + 1e-9)

    assert checks.check_bundle_payload(spec, payload, Shifted(), listed)


def test_bundle_check_rejects_a_wrong_descriptor_or_listing(bundles):
    spec, payload, solution, listed = bundles["poly-cos"]
    assert checks.check_bundle_payload({**spec, "c_energy": 1.5}, payload, solution, listed)
    assert checks.check_bundle_payload(spec, payload, solution, listed.replace("rational", "linear"))


def test_poly_cos_factorial_form_matches_the_monic_recurrence():
    for k in (1, 2, 5, 9):
        assert checks.poly_cos_coefficients(k) == pytest.approx(rational.PolynomialCos(k).coeffs, rel=1e-13)
    assert checks.poly_cos_coefficients(2) == pytest.approx([2.0 / 3.0, 1.0])
