"""Command line driver: outputs, exit codes, config merging, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magflows import rational
from magflows.catalog import get_example, list_examples
from magflows.errors import DomainError, SingularPoint
from magflows import cli, hodograph
from magflows.cli import _check, _corrupted, _write_json, build_parser, config_actions, main
from magflows.hodograph import HodographConstants, closed_form_abzero
from magflows.rational import PolynomialCos, build_bundle


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _read_strict_json(path):
    """A report parsed by a reader that refuses NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def _read_csv(path):
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, np.atleast_2d(data)


class TestList:
    def test_seven_rows(self, capsys):
        """The default table prints one row per catalog entry."""
        code, out, _ = _run(["list"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 8
        names = [l.split()[0] for l in lines[1:]]
        assert names == ["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"]

    def test_bundle_row_appended(self, tmp_path, capsys):
        """A descriptor file adds an eighth row."""
        bundle = build_bundle(PolynomialCos(2))
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle.descriptor()))
        code, out, _ = _run(["list", "--bundle", str(path)], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert lines[-1].startswith("bundle:poly-cos")

    @pytest.mark.parametrize("text", [
        pytest.param('{"family": "nope"}', id="unknown-family"),
        pytest.param('{"family": ["poly-cos"]}', id="family-list"),
        pytest.param('{"family": "poly-cos", "parameters": {"k": Infinity}}', id="infinite-k"),
        pytest.param('{"family": "poly-cos", "parameters": {"k": 2}, "rho_range": {}}',
                     id="rho-range-object"),
        pytest.param('{"family": "poly-cos", "parameters": {"k": 2}, "rho_range": [1]}',
                     id="rho-range-short"),
        pytest.param('{"family": "log-nu1", "rho_range": [1e-300, 1]}', id="tiny-rho"),
    ])
    def test_malformed_bundle_rejected(self, text, tmp_path, capsys):
        """A broken descriptor file exits with the config code and a
        message, not an exception."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = _run(["list", "--bundle", str(path)], capsys)
        assert code == 2
        assert "rejected" in err


class TestSimulate:
    def test_closed_orbit_trace(self, tmp_path, capsys):
        """The uniform-field example returns to its start after one period."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex1",
             "--phase", "0", "0", "1", "0", "--t-end", str(2.0 * math.pi)],
            capsys)
        assert code == 0
        path = tmp_path / "ex1_trace.csv"
        assert str(path) in out
        header, data = _read_csv(path)
        assert header == ["t", "q1", "q2", "p1", "p2", "H", "F"]
        np.testing.assert_allclose(data[-1, 1:5], data[0, 1:5], atol=1e-8)
        np.testing.assert_allclose(data[:, 5], 0.5, atol=1e-10)
        np.testing.assert_allclose(data[:, 6], data[0, 6], atol=1e-9)

    def test_position_angle_start(self, tmp_path, capsys):
        """--position with --angle places the start on the declared level."""
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex5",
             "--position", "1.0", "0.7", "--angle", "0.4", "--t-end", "1.0"],
            capsys)
        assert code == 0
        _, data = _read_csv(tmp_path / "ex5_trace.csv")
        np.testing.assert_allclose(data[0, 5], 0.5, atol=1e-12)

    @pytest.mark.parametrize("x, y", [(-5.388484097113011e-05, -1e-3), (-2.5e-300, -7e22)])
    def test_negative_exponent_values_are_exact(self, x, y, tmp_path, capsys):
        """Negative values in exponent form, as repr prints them, are read
        as values and parse to the same floats."""
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex1", "--phase", repr(x), repr(y),
             "1", "-1E-1", "--t-end", "0.01"],
            capsys)
        assert code == 0, err
        first = (tmp_path / "ex1_trace.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[1:5]] == [x, y, 1.0, -0.1]

    def test_conflicting_start_rejected(self, tmp_path, capsys):
        """--phase combined with --position is a config error."""
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex1",
             "--phase", "0", "0", "1", "0", "--position", "0", "0"],
            capsys)
        assert code == 2
        assert "either" in err

    def test_unknown_example(self, tmp_path, capsys):
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex9",
             "--phase", "0", "0", "1", "0"], capsys)
        assert code == 2
        assert "unknown example" in err

    def test_unknown_and_missing_example_messages(self, tmp_path, capsys):
        """The stderr line is the plain message, not a quoted KeyError repr,
        and a simulate without an example name says that the name is
        missing; both exit 2."""
        names = "ex1, ex2, ex2b, ex3, ex4, ex5, ex6"
        code, _, err = _run(["--out-dir", str(tmp_path), "verify", "ex9"], capsys)
        assert (code, err) == (2, f"unknown example 'ex9'; available: {names}\n")
        code, _, err = _run(["--out-dir", str(tmp_path), "simulate"], capsys)
        assert (code, err) == (2, f"simulate needs an example name; available: {names}\n")

    def test_off_domain_start_rejected(self, tmp_path, capsys):
        """A start outside the chart exits 4 and writes nothing."""
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex4",
             "--phase", "0.01", "0.01", "1", "0"], capsys)
        assert code == 4
        assert "outside" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_domain_exit_keeps_partial_trace(self, tmp_path, capsys):
        """A trajectory that leaves the chart exits 3 but keeps its CSV."""
        code, out, err = _run(
            ["--out-dir", str(tmp_path), "simulate", "ex6",
             "--phase", "1.0", "0.6", "1.0", "0.5", "--t-end", "20"],
            capsys)
        assert code == 3
        assert "left the domain" in err
        path = tmp_path / "ex6_trace.csv"
        assert path.exists()
        _, data = _read_csv(path)
        assert data[-1, 0] < 20.0

    def test_config_merge_and_flag_override(self, tmp_path, capsys):
        """Config supplies values; explicit flags win over the file."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "example": "ex1", "phase": [0.0, 0.0, 1.0, 0.0],
            "t_end": 1.0, "out_dir": str(tmp_path)}))
        code, _, _ = _run(["--config", str(config), "simulate"], capsys)
        assert code == 0
        _, data = _read_csv(tmp_path / "ex1_trace.csv")
        np.testing.assert_allclose(data[-1, 0], 1.0, atol=1e-12)
        code, _, _ = _run(
            ["--config", str(config), "simulate", "--t-end", "0.5"], capsys)
        assert code == 0
        _, data = _read_csv(tmp_path / "ex1_trace.csv")
        np.testing.assert_allclose(data[-1, 0], 0.5, atol=1e-12)

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"example": "ex1", "stepsize": 0.1}))
        code, _, err = _run(["--config", str(config), "simulate"], capsys)
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pole_row_gets_a_nan_cell(self, tmp_path, capsys):
        """ex4 from (1, 0) with momenta (0.5, 0.5), where F's N and D both
        vanish: the first row gets NaN in F's column, with no traceback or
        RuntimeWarning, and every other row gets F of its state."""
        code, _, err = _run(["--out-dir", str(tmp_path), "simulate", "ex4",
                             "--phase", "1", "0", "0.5", "0.5", "--t-end", "1"], capsys)
        assert code == 0 and err == ""
        header, data = _read_csv(tmp_path / "ex4_trace.csv")
        f = get_example("ex4").integrals[0]
        column = header.index("F")
        assert np.isnan(data[0, column]) and np.isfinite(data[1:, column]).all()
        assert data[1:, column].tolist() == [f(row[1:5]) for row in data[1:]]

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        """Identical invocations write identical bytes."""
        argv = ["simulate", "ex5", "--phase", "1.0", "0.7", "1.970584", "0.5",
                "--t-end", "2.0"]
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code, _, _ = _run(["--out-dir", str(d)] + argv, capsys)
            assert code == 0
            blobs.append((d / "ex5_trace.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerify:
    def test_single_example_passes(self, tmp_path, capsys):
        """All checks on the uniform-field entry pass and report values."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "verify", "ex1"], capsys)
        assert code == 0
        assert "PASS" in out
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["all_pass"] is True
        for check in payload["ex1"].values():
            assert set(check) >= {"value", "threshold", "pass"}
            assert check["pass"] is True

    def test_corrupt_control_fails(self, tmp_path, capsys):
        """The deliberately broken integral is caught and fails the run."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "verify", "ex1", "--corrupt"], capsys)
        assert code == 5
        assert "FAIL" in out
        payload = json.loads((tmp_path / "verify.json").read_text())
        check = payload["ex1"]["bracket_scan_F_corrupt"]
        assert check["pass"] is False
        assert check["value"] > 1e-3

    def test_independence_rank_reported(self, tmp_path, capsys):
        """The superintegrable entry reports rank 3."""
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "verify", "ex4"], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["ex4"]["independence_rank"]["value"] == 3
        assert payload["ex4"]["independence_rank"]["pass"] is True

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        """Repeated verification with one seed is byte-identical."""
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code, _, _ = _run(
                ["--out-dir", str(d), "--seed", "7", "verify", "ex4"], capsys)
            assert code == 0
            blobs.append((d / "verify.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_example(self, tmp_path, capsys):
        code, _, _ = _run(["--out-dir", str(tmp_path), "verify", "ex9"], capsys)
        assert code == 2

    def test_unevaluable_drift_and_rank_fail_their_checks(self, tmp_path, capsys, monkeypatch):
        """ex4 with a third integral G, a copy of F1 whose value raises
        everywhere: G's drift fails with the EvaluationError at t = 0.0 as a failed
        check with an ``"error"`` entry, nothing is raised, and every other
        check keeps its value.  G's scan and the rank check read only its
        gradient, F1's, so they pass.  ``verify`` writes the report and
        exits 5."""
        ex4 = get_example("ex4")

        def undefined(state, data=None):
            raise ValueError("no value")

        blocked = dataclasses.replace(ex4.integrals[1], name="G", func=undefined)
        entry = dataclasses.replace(ex4, integrals=(*ex4.integrals, blocked))
        checks = cli._verify_example(entry, 1e-6, np.random.default_rng(0), corrupt=False)
        own = cli._verify_example(ex4, 1e-6, np.random.default_rng(0), corrupt=False)
        drift = checks["drift_G"]
        assert drift == {"value": None, "threshold": 1e-6, "pass": False,
                         "error": "scalar undefined at t = 0.0: no value"}
        assert checks["bracket_scan_G"] == own["bracket_scan_F1"]
        assert own["independence_rank"] == {"value": 3, "threshold": 3, "pass": True}
        assert {name: checks[name] for name in own} == own
        monkeypatch.setattr(cli, "get_example", lambda name: entry)
        code, out, _ = _run(["--out-dir", str(tmp_path), "verify", "ex4"], capsys)
        assert code == 5 and "FAIL" in out
        report = _read_strict_json(tmp_path / "verify.json")["ex4"]
        assert report["drift_G"] == drift and report["independence_rank"] == own["independence_rank"]


    @pytest.mark.parametrize("name", [entry.name for entry in list_examples()])
    def test_corrupt_control_carries_its_gradient(self, name):
        """The --corrupt control F + 0.01 x has the exact gradient
        dF + 0.01 e_x, so its scan differences nothing."""
        entry = get_example(name)
        integral = entry.integrals[0]
        control = _corrupted(integral)
        for phase in entry.sample_phases:
            want = np.asarray(integral.grad(phase)) + [0.01, 0.0, 0.0, 0.0]
            np.testing.assert_array_equal(control.grad(phase), want)


class TestHodograph:
    def test_grid_matches_closed_form(self, tmp_path, capsys):
        """With the first two constants zero the CSV matches closed form."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "hodograph", "--gamma", "0.5",
             "--delta", "-0.3", "--grid", "4", "4"], capsys)
        assert code == 0
        path = tmp_path / "hodograph.csv"
        header, data = _read_csv(path)
        assert header == ["x", "y", "f", "g", "Lambda", "u0", "Omega",
                          "res1", "res2", "pde41_inf"]
        constants = HodographConstants(gamma=0.5, delta=-0.3, epsilon=1.0, zeta=2.0)
        for row in data:
            point, omega = closed_form_abzero(constants, row[0], row[1])
            np.testing.assert_allclose(row[2:7],
                                       (point.f, point.g, point.lam, point.u0, omega),
                                       atol=1e-10)
            assert max(abs(row[7]), abs(row[8])) <= 1e-10
            assert row[9] <= 1e-6

    def test_continuation_grid(self, tmp_path, capsys):
        """Nonzero leading constants still satisfy both equation sets."""
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "hodograph", "--alpha", "0.1",
             "--beta", "0.05", "--grid", "3", "3",
             "--bbox", "0.8", "1.8", "0.8", "1.8"], capsys)
        assert code == 0
        _, data = _read_csv(tmp_path / "hodograph.csv")
        assert np.max(np.abs(data[:, 7:9])) <= 1e-10
        assert np.max(data[:, 9]) <= 1e-6

    def test_nan_residual_reaches_pde41_inf(self, tmp_path, capsys, monkeypatch):
        """A NaN in the last row of the first-order residual shows as a NaN
        pde41_inf, not as the largest of the other three rows."""
        real = hodograph._system_residual
        monkeypatch.setattr(hodograph, "_system_residual",
                            lambda *args: (*real(*args)[:3], math.nan))
        code, _, err = _run(["--out-dir", str(tmp_path), "hodograph", "--grid", "2", "2"],
                            capsys)
        assert code == 0, err
        _, data = _read_csv(tmp_path / "hodograph.csv")
        assert np.isnan(data[:, 9]).all() and np.isfinite(data[:, :9]).all()

    def test_trivial_constants_rejected(self, tmp_path, capsys):
        """zeta = 0 collapses the family and is refused."""
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "hodograph", "--zeta", "0"], capsys)
        assert code == 2
        assert "trivial" in err

    @pytest.mark.parametrize("argv, named", [
        (["--alpha", "inf", "--grid", "2", "2"], "alpha must be finite"),
        (["--zeta", "nan"], "zeta must be finite"),
        (["--epsilon", "nan"], "epsilon must be finite"),
        (["--bbox", "0", "1", "0", "nan"], "finite bbox"),
    ])
    def test_non_finite_input_named_before_any_solve(self, argv, named, tmp_path, capsys):
        """A non-finite constant or bbox entry exits 2 with its name and
        raises no floating-point warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(["--out-dir", str(tmp_path), "hodograph", *argv], capsys)
        assert code == 2
        assert named in err

    def test_bad_grid_shape(self, tmp_path, capsys):
        config = tmp_path / "hod.json"
        config.write_text(json.dumps({"grid": [4]}))
        code, _, err = _run(
            ["--config", str(config), "--out-dir", str(tmp_path), "hodograph"],
            capsys)
        assert code == 2

    @pytest.mark.parametrize("grid", [["1000001", "1"], ["100000000000", "2"]])
    def test_grid_of_more_than_a_million_points_refused(self, grid, tmp_path, capsys):
        """A grid of more than 10^6 points exits 2 naming --grid, before
        any solve or array, and writes no CSV."""
        code, out, err = _run(["--out-dir", str(tmp_path), "hodograph", "--grid", *grid], capsys)
        assert code == 2
        assert "--grid" in err
        assert "wrote" not in out
        assert not list(tmp_path.glob("*.csv"))


class TestBuildRational:
    def test_polynomial_family_passes(self, tmp_path, capsys):
        """The default degree-2 build passes all three checks."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "build-rational", "poly-cos"], capsys)
        assert code == 0
        assert "PASS" in out
        payload = json.loads((tmp_path / "bundle_poly-cos.json").read_text())
        assert payload["all_pass"] is True
        assert payload["descriptor"]["family"] == "poly-cos"
        for name in ("pde_residual_max", "d_min", "bracket_scan_max"):
            assert payload["checks"][name]["pass"] is True

    def test_degenerate_degree_fails(self, tmp_path, capsys):
        """k = 1 is constructible but fails its own checks."""
        code, out, _ = _run(
            ["--out-dir", str(tmp_path), "build-rational", "poly-cos",
             "--k", "1"], capsys)
        assert code == 5
        assert "FAIL" in out
        payload = json.loads((tmp_path / "bundle_poly-cos.json").read_text())
        assert payload["checks"]["d_min"]["pass"] is False

    def test_elliptic_declares_long_period(self, tmp_path, capsys):
        """The half-index family records a 4 pi angular period."""
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "build-rational", "elliptic-half"],
            capsys)
        assert code == 0
        payload = json.loads((tmp_path / "bundle_elliptic-half.json").read_text())
        np.testing.assert_allclose(payload["descriptor"]["psi_period"],
                                   4.0 * math.pi, rtol=1e-15)

    @pytest.mark.parametrize("key, value", [
        ("gamma", 0.0), ("gamma", math.nan), ("gamma", math.inf), ("gamma", -math.inf),
        ("c_energy", math.inf), ("c_energy", math.nan),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_impossible_constants_exit_2(self, key, value, via, tmp_path, capsys):
        """A zero or non-finite gamma, or a non-finite energy constant,
        exits 2 naming the constant, before any scan: no floating-point
        warning and no report."""
        argv = ["--out-dir", str(tmp_path), "build-rational", "poly-cos"]
        if via == "flag":
            argv.append(f"--{key.replace('_', '-')}={value!r}")
        else:
            config = tmp_path / "constants.json"
            config.write_text(json.dumps({key: value}))
            argv = ["--config", str(config)] + argv
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(argv, capsys)
        assert code == 2
        assert ("gamma" if key == "gamma" else "energy constant") in err
        assert not list(tmp_path.glob("bundle_*.json"))
        assert "wrote" not in out

    def test_scan_that_rejects_every_phase_fails_its_check(self, tmp_path, capsys):
        """At gamma = 1e-80 the integral's denominator gamma D is tiny
        everywhere: no phase is refused, the bracket check fails with a
        finite value above its threshold and no ``"error"`` entry, and the
        build exits 5."""
        code, out, _ = _run(["--out-dir", str(tmp_path), "build-rational", "poly-cos",
                             "--gamma", "1e-80"], capsys)
        assert code == 5
        assert "FAIL" in out
        check = _read_strict_json(tmp_path / "bundle_poly-cos.json")["checks"]["bracket_scan_max"]
        assert set(check) == {"value", "threshold", "pass"}
        assert check["pass"] is False and 1e-6 < check["value"] < math.inf

    def test_nan_residual_fails_its_check(self, tmp_path, capsys, monkeypatch):
        """A NaN PDE residual is kept by the maximum, not dropped."""
        monkeypatch.setattr(rational, "_residual", lambda *args, **kwargs: math.nan)
        code, out, _ = _run(["--out-dir", str(tmp_path), "build-rational", "poly-cos"], capsys)
        assert code == 5
        assert "FAIL" in out
        check = _read_strict_json(tmp_path / "bundle_poly-cos.json")["checks"]["pde_residual_max"]
        assert check == {"value": "nan", "threshold": 1e-10, "pass": False}

    @pytest.mark.parametrize("argv, build_code, list_code", [
        (["log-radial", "--rho-range", "-0.9", "-0.1"], 0, 0),
        (["elliptic-half", "--rho-range", "-0.9", "-0.1"], 5, 2),
        (["poly-cos", "--rho-range", "-0.9", "-0.1"], 5, 2),
        (["poly-cos", "--k", "1"], 5, 2),
    ])
    def test_list_agrees_with_the_report(self, argv, build_code, list_code, tmp_path, capsys):
        """build-rational and list --bundle read one screen: a report whose
        d_min fails is refused by list with exit 2 and no traceback, and a
        report whose screen passes is listed."""
        code, _, _ = _run(["--out-dir", str(tmp_path), "build-rational", *argv, "--out", "b.json"],
                          capsys)
        assert code == build_code
        d_min = _read_strict_json(tmp_path / "b.json")["checks"]["d_min"]
        assert d_min["pass"] is (list_code == 0)
        code, _, err = _run(["list", "--bundle", str(tmp_path / "b.json")], capsys)
        assert code == list_code
        assert "Traceback" not in err

    def test_report_does_not_depend_on_the_seed(self, tmp_path, capsys):
        """The screen samples nothing at random: two seeds give the same bytes."""
        for seed in ("0", "7"):
            _run(["--seed", seed, "--out-dir", str(tmp_path), "build-rational", "log-nu1",
                  "--out", f"seed_{seed}.json"], capsys)
        assert (tmp_path / "seed_0.json").read_bytes() == (tmp_path / "seed_7.json").read_bytes()

    @pytest.mark.parametrize("argv", [["poly-cos", "--k", "6"], ["log-nu1"],
                                      ["elliptic-half", "--rho-range", "0.1", "3.0"]])
    def test_report_does_not_depend_on_earlier_points(self, argv, tmp_path, capsys, monkeypatch):
        """A report built from a solution that has already evaluated other
        points, and refused one, so that it keeps the radial jet of another
        rho or of the range's first, has the bytes of one built from a
        fresh solution."""
        head = ["--out-dir", str(tmp_path), "build-rational", *argv]
        assert _run(head + ["--out", "fresh.json"], capsys)[0] == 0
        build = cli.solution_from_descriptor

        def used(entry):
            z = build(entry)
            for rho in (1.7, 0.0, 0.05, 0.1):
                with contextlib.suppress(DomainError):
                    z.jet(rho, 0.9)
            return z

        monkeypatch.setattr(cli, "solution_from_descriptor", used)
        assert _run(head + ["--out", "used.json"], capsys)[0] == 0
        assert (tmp_path / "used.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.parametrize("family, lo, hi", [
        ("log-nu1", "1e-300", "1"), ("log-nu1", "1", "1e300"), ("poly-cos", "1", "1e300"),
        ("log-radial", "1", "1e300"), ("elliptic-half", "1", "1e200"),
    ])
    def test_range_beyond_the_closed_form_exit_2(self, family, lo, hi, tmp_path, capsys):
        """A rho range at whose end the profile underflows or overflows
        exits 2 with a one-line message and writes no report."""
        code, out, err = _run(["--out-dir", str(tmp_path), "build-rational", family,
                               "--rho-range", lo, hi], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "does not evaluate to finite numbers" in err
        assert "wrote" not in out and not list(tmp_path.iterdir())

    def test_unknown_family(self, tmp_path, capsys):
        code, _, err = _run(
            ["--out-dir", str(tmp_path), "build-rational", "spline"], capsys)
        assert code == 2
        assert "unknown family" in err

    def test_missing_family(self, tmp_path, capsys):
        code, _, err = _run(["--out-dir", str(tmp_path), "build-rational"], capsys)
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize("family", ["log-radial", "log-nu1", "elliptic-half"])
    @pytest.mark.parametrize("flag, value", [("k", 5), ("psi0", 1.0)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_poly_cos_parameter_refused_elsewhere(self, family, flag, value, source, tmp_path,
                                                  capsys):
        """--k and --psi0 shape only poly-cos; any other family exits 2 with
        a message naming the flag, whether it came as a flag or from a
        config file, and writes no report."""
        head, tail = [], [f"--{flag}", str(value)]
        if source == "config":
            config = tmp_path / "params.json"
            config.write_text(json.dumps({flag: value}))
            head, tail = ["--config", str(config)], []
        out_dir = tmp_path / "out"
        code, out, err = _run(head + ["--out-dir", str(out_dir), "build-rational", family, *tail],
                              capsys)
        assert code == 2
        assert f"--{flag} {value}" in err and f"takes no parameter {flag!r}" in err
        assert "wrote" not in out and not out_dir.exists()

    def test_poly_cos_defaults(self, tmp_path, capsys):
        """Without --k and --psi0, poly-cos is built at k = 2, psi0 = 0."""
        code, _, err = _run(["--out-dir", str(tmp_path), "build-rational", "poly-cos"], capsys)
        assert code == 0, err
        report = _read_strict_json(tmp_path / "bundle_poly-cos.json")
        assert report["descriptor"]["parameters"] == {"k": 2, "psi0": 0.0}


class TestSharedParser:
    ARGV = ["simulate", "ex1", "--phase", "0", "0", "1", "0", "--out", "trace.csv"]

    def _trace(self, out_dir, capsys, config=None):
        head = [] if config is None else ["--config", str(config)]
        code, _, err = _run(head + ["--out-dir", str(out_dir)] + self.ARGV, capsys)
        return code, err, (out_dir / "trace.csv").read_bytes() if code == 0 else None

    @staticmethod
    def _defaults(parser):
        return {dest: action.default for dest, action in config_actions(parser, "simulate").items()}

    def test_config_runs_leave_the_next_call_on_the_defaults(self, tmp_path, capsys):
        """A config that sets t_end, then one that exits 2 on a bad tol,
        leave the shared parser as built: the next plain run writes the
        bytes of a run with the defaults."""
        cli._shared_parser.cache_clear()
        _, _, want = self._trace(tmp_path / "fresh", capsys)
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"t_end": 1.0}))
        code, _, short = self._trace(tmp_path / "config", capsys, config)
        assert code == 0 and short != want
        assert self._trace(tmp_path / "after", capsys)[2] == want
        config.write_text(json.dumps({"t_end": 1.0, "tol": -1.0}))
        code, err, _ = self._trace(tmp_path / "bad", capsys, config)
        assert code == 2 and "--tol must be positive and finite" in err
        assert self._trace(tmp_path / "after_bad", capsys)[2] == want
        assert self._defaults(cli._shared_parser()) == self._defaults(build_parser())


class TestWriteCsv:
    def test_cells_are_format_17g(self, tmp_path):
        """Each cell is format(float(v), ".17g"), non-finite values,
        signed zero, subnormals, numpy scalars and ints included."""
        row = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1,
               np.float64(1.0 / 3.0), 7]
        header = [f"c{i}" for i in range(len(row))]
        cli._write_csv(tmp_path / "row.csv", header, [row, row[::-1]])
        lines = (tmp_path / "row.csv").read_bytes().decode("ascii").split("\n")
        assert lines[0] == ",".join(header) and lines[3] == ""
        assert lines[1].split(",") == [format(float(v), ".17g") for v in row]
        assert lines[2].split(",") == [format(float(v), ".17g") for v in row[::-1]]

    @staticmethod
    def _joined_text(header, rows) -> bytes:
        """The bytes of the writer that joined every line into one text
        before writing it."""
        line = ",".join(["%.17g"] * len(header))
        return ("\n".join([",".join(header), *(line % tuple(row) for row in rows)]) + "\n").encode()

    def test_a_generator_of_rows_writes_the_joined_bytes(self, tmp_path):
        """Rows from a generator, written line by line, give the bytes of
        the same rows joined into one text; a header alone gives one
        line."""
        rng = np.random.default_rng(3)
        rows = (rng.standard_normal((50, 5)) * 10.0 ** rng.integers(-300, 300, (50, 5))).tolist()
        rows[7][2], rows[9][0] = math.nan, -0.0
        header = ["t", "q1", "q2", "p1", "p2"]
        cli._write_csv(tmp_path / "gen.csv", header, (row for row in rows))
        assert (tmp_path / "gen.csv").read_bytes() == self._joined_text(header, rows)
        cli._write_csv(tmp_path / "empty.csv", header, iter(()))
        assert (tmp_path / "empty.csv").read_bytes() == self._joined_text(header, [])

    def test_a_row_that_raises_leaves_no_file(self, tmp_path):
        """A generator that fails after some rows leaves no partial CSV."""
        def rows():
            yield [1.0, 2.0]
            raise SingularPoint("fold")

        with pytest.raises(SingularPoint):
            cli._write_csv(tmp_path / "partial.csv", ["a", "b"], rows())
        assert list(tmp_path.iterdir()) == []


class TestJsonReports:
    def test_non_finite_values_are_strict_json(self, tmp_path):
        """inf, -inf and NaN are written as strings that a strict reader
        accepts."""
        payload = {"scan": _check(math.inf, 1e-6, False),
                   "values": (-math.inf, np.float64("nan"), 0.5)}
        _write_json(tmp_path / "report.json", payload)
        got = _read_strict_json(tmp_path / "report.json")
        assert got == {"scan": {"value": "inf", "threshold": 1e-6, "pass": False},
                       "values": ["-inf", "nan", 0.5]}

    def test_finite_reports_are_unchanged(self, tmp_path):
        payload = {"b": [_check(1.25e-13, 1e-6, True), (1, 2.5)], "a": {"x": -0.0, "y": None}}
        _write_json(tmp_path / "report.json", payload)
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "report.json").read_text() == want


class TestErrorContract:
    # argv that once ended in a traceback, a wrong exit code or a false
    # failure, with the documented exit code each must give
    CASES = [
        (["simulate", "ex1", "--phase", "0", "0", "1", "0", "--method", "fixed_rk4"], 2),
        (["simulate", "ex1", "--phase", "0", "0", "1", "0", "--t-end", "-1"], 2),
        (["simulate", "ex1", "--phase", "0", "0", "1e200", "0"], 4),
        (["hodograph", "--grid", "0", "3"], 2),
        (["hodograph", "--alpha", "0.1", "--beta", "-0.05", "--gamma", "0.5",
          "--delta", "-0.3", "--grid", "12", "12"], 2),
        (["build-rational", "poly-cos", "--k", "100"], 2),
        (["build-rational", "poly-cos", "--k", "6"], 0),
        (["build-rational", "poly-cos", "--k", "7"], 0),
        (["build-rational", "poly-cos", "--k", "12"], 0),
        (["build-rational", "log-nu1", "--rho-range", "0.261", "3.031"], 0),
        (["--config", "{config}", "simulate", "ex1", "--phase", "0", "0", "1", "0"], 2),
        (["hodograph", "--alpha", "inf", "--grid", "2", "2"], 2),
        (["hodograph", "--zeta", "nan"], 2),
        (["build-rational", "poly-cos", "--c-energy", "0"], 2),
        (["simulate", "ex3", "--position", "4.056293433098854", "-5.388484097113011e-05",
          "--angle", "5.33"], 0),
        (["hodograph", "--epsilon", "nan"], 2),
        (["hodograph", "--bbox", "0", "1", "0", "nan"], 2),
        (["simulate", "ex1", "--position", "0", "0", "--angle", "0", "--t-end", "inf"], 2),
        (["simulate", "ex1", "--position", "0", "0", "--angle", "0", "--rel-tol", "inf"], 2),
        (["build-rational", "poly-cos", "--psi0", "nan"], 2),
        (["build-rational", "poly-cos", "--psi0", "inf"], 2),
        (["--tol", "inf", "verify", "ex1", "--corrupt"], 2),
        (["--tol", "nan", "verify", "ex1", "--corrupt"], 2),
        (["--tol", "-1", "verify", "ex1", "--corrupt"], 2),
        (["--tol", "0", "build-rational", "poly-cos"], 2),
        (["simulate", "ex1", "--phase", "0", "0", "1", "0", "--t-end", "1", "--step", "0.1"], 2),
        (["build-rational", "log-radial", "--k", "5", "--psi0", "1.0"], 2),
        (["simulate", "ex1", "--phase", "0", "0", "1", "0", "--t-end", "1", "--method", "fixed_rk4",
          "--step", "0.1", "--rel-tol", "5"], 2),
        (["build-rational", "poly-cos", "--c-energy", "1e-320"], 2),
        (["simulate", "ex1", "--phase", "0", "0", "1", "0", "--method", "fixed_rk4", "--step", "1e-17"], 2),
        (["build-rational", "poly-cos", "--gamma", "1e-200"], 2),
        (["build-rational", "poly-cos", "--gamma", "1e150"], 2),
        (["build-rational", "poly-cos", "--c-energy", "1e300"], 2),
        (["build-rational", "poly-cos", "--k", "1"], 5),
        (["build-rational", "poly-cos", "--rho-range", "-1", "-0.5"], 2),
    ]

    @pytest.mark.parametrize("argv, want, message", [
        (["simulate", "ex1", "--position", "0", "0", "--angle", "inf"], 4,
         "--angle must be finite"),
        (["simulate", "ex1", "--position", "0", "0", "--angle", "nan"], 4,
         "--angle must be finite"),
        (["build-rational", "poly-cos", "--psi0", "1e308"], 2, "psi0 and k psi0 must be finite"),
        (["build-rational", "poly-cos", "--k", "6", "--psi0", "-5e307"], 2,
         "psi0 and k psi0 must be finite"),
    ])
    def test_non_finite_angle_or_psi0_is_named(self, argv, want, message, tmp_path, capsys):
        """A non-finite momentum angle, or a psi0 whose k psi0 overflows,
        is refused before any evaluation: with every warning an error the
        command keeps its exit code, names the option and writes nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(["--out-dir", str(tmp_path)] + argv, capsys)
        assert code == want and message in err
        assert list(tmp_path.iterdir()) == []

    def test_no_runtime_warning_escapes_a_scan(self, tmp_path, capsys):
        """With every warning an error, verify all --corrupt, the default
        build of each family and the pole range of log-nu1 keep their
        exit codes: no bracket scan evaluates where numpy would warn, not
        even where N/D has its poles."""
        runs = [(["verify", "all", "--corrupt"], 5)]
        runs += [(["build-rational", family], 0) for family in sorted(rational.FAMILIES)]
        runs += [(["build-rational", "log-nu1", "--rho-range", "0.261", "3.031"], 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv, want in runs:
                code, _, err = _run(["--out-dir", str(tmp_path)] + argv, capsys)
                assert code == want, (argv, err)

    @pytest.mark.parametrize("argv, want", CASES)
    def test_documented_exit_code(self, argv, want, tmp_path, capsys):
        config = tmp_path / "bad_method.json"
        config.write_text(json.dumps({"method": "rk2"}))
        argv = [a.format(config=config) for a in argv]
        code, _, err = _run(["--out-dir", str(tmp_path)] + argv, capsys)
        assert code == want, err
        if code in (2, 4):
            assert [p.name for p in tmp_path.iterdir()] == [config.name]

    @pytest.mark.parametrize("value", ["Infinity", "NaN", "-1", "0"])
    def test_bad_tol_from_config_file(self, value, tmp_path, capsys):
        """A non-finite or non-positive tol from a config file exits 2 and
        writes no report, as the flag does."""
        config = tmp_path / "tol.json"
        config.write_text('{"tol": %s}' % value)
        code, _, err = _run(["--config", str(config), "--out-dir", str(tmp_path),
                             "verify", "ex1", "--corrupt"], capsys)
        assert code == 2, err
        assert "--tol must be positive and finite" in err
        assert [p.name for p in tmp_path.iterdir()] == [config.name]

    def test_perturbed_profile_fails_its_residual_check(self, tmp_path, capsys, monkeypatch):
        """Negative control for the scaled residual: a degree-6 profile with
        one coefficient off by 1e-6 relative is no longer a solution."""

        class Perturbed(PolynomialCos):
            def __init__(self, k, psi0=0.0):
                super().__init__(k, psi0)
                self.coeffs[2] *= 1.0 + 1e-6

        monkeypatch.setitem(rational.FAMILIES, "poly-cos", Perturbed)
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "build-rational", "poly-cos", "--k", "6"], capsys)
        assert code == 5
        payload = json.loads((tmp_path / "bundle_poly-cos.json").read_text())
        assert payload["checks"]["pde_residual_max"]["pass"] is False
        assert payload["checks"]["pde_residual_max"]["value"] > 1e-8

    @pytest.mark.parametrize("k", ["2", "12"])
    def test_list_reads_the_build_rational_report(self, k, tmp_path, capsys):
        """list --bundle accepts the file build-rational writes."""
        code, _, _ = _run(
            ["--out-dir", str(tmp_path), "build-rational", "poly-cos", "--k", k,
             "--c-energy", "1.5"], capsys)
        assert code == 0
        code, out, _ = _run(
            ["list", "--bundle", str(tmp_path / "bundle_poly-cos.json")], capsys)
        assert code == 0
        assert out.splitlines()[-1].split() == ["bundle:poly-cos", "rho,psi", "0.75", "rational"]

    def test_config_keys_are_pinned(self):
        """The accepted config keys of each command; any change to the config
        contract shows up here."""
        shared = {"seed", "out_dir", "tol"}
        want = {
            "list": {"bundle"},
            "simulate": {"example", "phase", "position", "angle", "t_end", "method", "step",
                         "rel_tol", "abs_tol", "record_every", "out"},
            "verify": {"example", "corrupt", "out"},
            "hodograph": {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "grid", "bbox",
                          "out"},
            "build-rational": {"family", "k", "psi0", "gamma", "c_energy", "rho_range", "out"},
        }
        parser = build_parser()
        for command, keys in want.items():
            assert set(config_actions(parser, command)) == keys | shared, command

    @pytest.mark.parametrize("command, config", [
        ("hodograph", {"grid": [4, 4.5]}),
        ("hodograph", {"grid": [4, 4, 4]}),
        ("hodograph", {"alpha": "0.1"}),
        ("hodograph", {"alpha": True}),
        ("verify", {"corrupt": 1}),
        ("verify", {"seed": 1.5}),
        ("simulate", {"method": "rk2"}),
    ])
    def test_config_values_checked_against_the_parser(self, command, config, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code, _, err = _run(["--config", str(path), "--out-dir", str(tmp_path), command], capsys)
        assert code == 2
        assert f"config key {next(iter(config))!r} must be" in err


_BAD_NUMBERS = st.sampled_from(["0", "-1", "-1e300", "nan", "-inf", "abc", "1e", ""])
# a finite float in about half of the draws, else a huge, infinite or bad value
_NUMBERS = st.one_of(st.floats(-3.0, 3.0).map(repr), st.floats(-5.0, 5.0).map(repr),
                     st.sampled_from(["1e300", "inf"]), _BAD_NUMBERS)


@st.composite
def _cheap_argv(draw):
    """list, simulate runs of at most 0.5 time units or of an infinite
    end time (rejected), and bad numeric options; a single value is passed
    as --option=value so that negative numbers reach the option instead of
    being read as flags."""
    kind = draw(st.sampled_from(["list", "simulate", "simulate", "bad"]))
    if kind == "list":
        return ["list"]
    example = draw(st.sampled_from(["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6", "ex9"]))
    if kind == "simulate":
        argv = ["simulate", example, f"--t-end={draw(st.sampled_from(['0.05', '0.2', '0.5', 'inf']))}"]
        if draw(st.booleans()):
            argv += ["--phase"] + [draw(_NUMBERS) for _ in range(4)]
        else:
            argv += ["--position", draw(_NUMBERS), draw(_NUMBERS), f"--angle={draw(_NUMBERS)}"]
        option = draw(st.sampled_from(["--rel-tol", "--abs-tol", "--record-every", "--step"]))
        return argv + [f"{option}={draw(_NUMBERS)}"]
    option = draw(st.sampled_from([
        ["simulate", example, "--phase", "0.1", "0.1", "1", "0", "--t-end"],
        ["simulate", example, "--phase", "0.1", "0.1", "1", "0", "--method=fixed_rk4",
         "--t-end=0.1", "--step"],
        ["hodograph", "--grid", "3", "3", "--alpha"],
        ["hodograph", "--grid", "3", "3", "--zeta"],
        ["build-rational", "poly-cos", "--k"],
        ["build-rational", "log-radial", "--c-energy"],
        ["--seed"],
    ]))
    return option[:-1] + [f"{option[-1]}={draw(_BAD_NUMBERS)}"]


# raw JSON values for a config file: non-finite numbers (NaN and Infinity
# are the JSON extensions Python reads; 1e999 overflows to inf), zero and
# negative numbers, and values of the wrong type
_BAD_JSON_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "0", "-1"]
_WRONG_TYPES = ['"1.0"', "true", "null", "[]", "{}", "[1.0]"]


def _bad_lists(n):
    """Raw JSON lists for an option of ``n`` numbers: empty, inverted or
    non-finite entries, and lists of the wrong length."""
    lists = ["[]", "[1.0]", "[" + ", ".join(["1.0"] * (n + 1)) + "]"]
    for bad in ("NaN", "Infinity", "-1e999"):
        lists.append("[" + ", ".join(["1.0"] * (n - 1) + [bad]) + "]")
    if n == 2:
        lists += ["[2.0, 1.0]", "[1.0, 1.0]", "[-1.0, -2.0]"]
    else:
        lists += ["[2.5, 0.5, 0.5, 2.5]", "[0.5, 0.5, 0.5, 2.5]", "[0.5, 2.5, 2.5, 0.5]"]
    return lists


# per command: the argv after the config file, a cheap base config, the
# scalar keys and the list keys with their lengths
_CONFIG_COMMANDS = [
    (["simulate", "ex1"], {"position": [0.1, 0.2], "angle": 0.3, "t_end": 0.2},
     ["t_end", "angle", "step", "rel_tol", "abs_tol", "record_every", "example", "seed"],
     {"position": 2, "phase": 4}),
    (["hodograph"], {"grid": [2, 2]},
     ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "out"],
     {"bbox": 4, "grid": 2}),
    (["build-rational", "poly-cos"], {},
     ["gamma", "c_energy", "k", "family"],
     {"rho_range": 2}),
]


@st.composite
def _cheap_config(draw):
    """A cheap command whose config file sets one option to a non-finite
    number, a value of the wrong type, or an empty, inverted or non-finite
    range; returns (argv, config text)."""
    argv, base, scalars, lists = draw(st.sampled_from(_CONFIG_COMMANDS))
    key = draw(st.sampled_from(scalars + sorted(lists)))
    pool = _bad_lists(lists[key]) if key in lists else _BAD_JSON_NUMBERS
    value = draw(st.sampled_from(pool + _WRONG_TYPES))
    fields = {k: json.dumps(v) for k, v in base.items()}
    fields[key] = value
    text = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"
    return argv, text


class TestFuzzedArgv:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(argv=_cheap_argv())
    def test_documented_exit_code_and_no_traceback(self, argv):
        """Any argv of cheap commands ends in a documented exit code with
        no traceback on stderr."""
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out_dir:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["--out-dir", out_dir] + argv)
                except SystemExit as exc:  # argparse rejects malformed options
                    code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(case=_cheap_config())
    def test_config_file_documented_exit_code_and_no_traceback(self, case):
        """A config file with non-finite numbers, wrong types or empty or
        inverted ranges ends in a documented exit code with no traceback."""
        argv, text = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out_dir:
            config = f"{out_dir}/config.json"
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["--config", config, "--out-dir", out_dir] + argv)
                except SystemExit as exc:  # argparse rejects a missing positional
                    code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
