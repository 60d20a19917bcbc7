"""Command line front end.

Five subcommands cover the library surface: ``list`` (catalog table),
``simulate`` (trajectory CSV), ``verify`` (conservation and bracket checks
as JSON), ``hodograph`` (chart-grid solve of the field system as CSV) and
``build-rational`` (construct and check a flow bundle).

A JSON config file may supply any long-option value; explicit flags win
over the file.  The parser is the only schema: a config key is an option's
``dest`` and its value is checked against the option's type, ``nargs`` and
``choices``.  Outputs are byte-reproducible for a fixed config and seed:
CSV numbers use 17 significant digits, JSON is sorted and indented.

Commands raise on bad input; ``main`` maps the exception to an exit code
through ``EXIT_CODES``.  Exit codes: 0 success, 2 config, schema or input
error, 3 partial run (domain exit), 4 start point rejected, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .catalog import EXAMPLE_NAMES, get_example, list_examples
from .errors import (
    DomainError,
    EvaluationError,
    MagflowsError,
    SingularMetric,
    SingularPoint,
)
from .flow import METHODS, TrajectoryConfig, conservation_drift, integrate
from .geometry import gaussian_curvature, hamiltonian, momentum_on_level
from .hodograph import HodographConstants, _sup_norm, solve_fields
from .integrals import (
    FirstIntegral,
    functional_independence_rank,
    hamiltonian_integral,
    level_set_bracket_scan,
    level_set_samples,
)
from .rational import (
    SCREEN_BOUND,
    build_bundle,
    bundle_from_descriptor,
    profile_screen,
    solution_from_descriptor,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
EXIT_BAD_START = 4
EXIT_VERIFY = 5

CURVED_FLOOR = 1e-3
FLAT_CEILING = 1e-6
# the method of verify's orbits and simulate's default; TrajectoryConfig
# keeps embedded_rk45 until perfbench's RHS-count pin is restated per method
CLI_METHOD = "dop853"
# the most points of a hodograph grid: at ~0.1 ms a point, 1e6 take minutes
_MAX_GRID_POINTS = 10 ** 6


class ConfigError(Exception):
    """A config file or flag combination violates the documented schema."""


class BadStart(Exception):
    """The start point of a simulation is outside the chart, singular, or
    has a non-finite energy."""


# Ordered: the first entry whose types match the raised exception decides
# the exit code and the stderr prefix.  Anything else is a bug and raises.
EXIT_CODES = (
    (BadStart, EXIT_BAD_START, "start point rejected: "),
    (SingularPoint, EXIT_CONFIG, "grid crosses a singular point: "),
    (OSError, EXIT_CONFIG, "file error: "),
    ((ConfigError, ValueError, MagflowsError), EXIT_CONFIG, ""),
)


def _write_csv(path: Path, header, rows) -> None:
    """One line per row, each cell ``%.17g``: the bytes of
    ``format(float(v), ".17g")``.  ``rows`` may be a generator: each line
    is written as soon as it is formatted, and when making or writing a row
    raises, the partial file is removed."""
    line = (",".join(["%.17g"] * len(header)) + "\n").encode("ascii")
    with path.open("wb") as out:
        try:
            out.write((",".join(header) + "\n").encode("ascii"))
            out.writelines(line % tuple(row) for row in rows)
        except BaseException:
            path.unlink()
            raise


def _json_value(value):
    """The payload with each non-finite float as the string "inf", "-inf"
    or "nan", which strict JSON can carry."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(_json_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="ascii",
        newline="\n",
    )


def _out_path(out_dir: str, name: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def _check(value, threshold, passed) -> dict:
    """One entry of a JSON check report."""
    return {"value": value, "threshold": threshold, "pass": bool(passed)}


def _failed(threshold, exc: Exception) -> dict:
    """A failed check whose value ``exc`` kept from being computed."""
    return {**_check(None, threshold, False), "error": str(exc)}


# ---------------------------------------------------------------------------
# config files: the schema is the parser
# ---------------------------------------------------------------------------


def config_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The parser actions a config file for ``command`` may set, by dest."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = parser._actions + sub.choices[command]._actions
    return {a.dest: a for a in actions if a.dest not in ("config", "help", "command")}


def _fits(action: argparse.Action, value) -> bool:
    """Whether a config value is what ``action`` parses from its flag."""
    if action.nargs == 0:  # store_true
        return isinstance(value, bool)
    if isinstance(action.nargs, int):  # nargs=N: a list of N values
        return (
            isinstance(value, list)
            and len(value) == action.nargs
            and all(_fits_one(action, v) for v in value)
        )
    return _fits_one(action, value)


def _fits_one(action: argparse.Action, value) -> bool:
    if isinstance(value, bool):
        return False
    if action.choices is not None:
        return value in action.choices
    return isinstance(value, {int: int, float: (int, float)}.get(action.type, str))


def _describe(action: argparse.Action) -> str:
    if action.nargs == 0:
        return "true or false"
    if action.choices is not None:
        one = f"one of {list(action.choices)}"
    else:
        one = {int: "an integer", float: "a number"}.get(action.type, "a string")
    return f"a list of {action.nargs}, each {one}" if isinstance(action.nargs, int) else one


def _load_config(path, actions: dict) -> dict:
    """Read a config file and check it against ``actions``; numbers are
    converted with the option's type, as the parser converts flags."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in data.items():
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r} for this command")
        if not _fits(action, value):
            raise ConfigError(f"config key {key!r} must be {_describe(action)}")
        if action.type is not None:
            data[key] = [action.type(v) for v in value] if isinstance(value, list) else action.type(value)
    return data


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for entry in list_examples():
        kinds = "+".join(f.kind for f in entry.integrals)
        chart = ",".join(entry.system.coords)
        rows.append((entry.name, chart, entry.system.energy / 2.0, kinds))
    if args.bundle is not None:
        try:
            data = json.loads(Path(args.bundle).read_text(encoding="utf-8"))
            if isinstance(data, dict):  # a build-rational report wraps its descriptor
                data = data.get("descriptor", data)
            bundle = bundle_from_descriptor(data)
        except (OSError, ValueError, MagflowsError) as exc:
            raise ConfigError(f"bundle descriptor rejected: {exc}") from exc
        rows.append((f"bundle:{bundle.z.family}", "rho,psi", bundle.c_energy / 2.0, "rational"))
    print(f"{'name':<18} {'chart':<10} {'level':<8} integrals")
    for name, chart, level, kinds in rows:
        print(f"{name:<18} {chart:<10} {level:<8g} {kinds}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _initial_phase(entry, args) -> np.ndarray:
    if args.phase is not None and (args.position is not None or args.angle is not None):
        raise ConfigError("give either a full phase or a position with an angle")
    if args.phase is None and (args.position is None or args.angle is None):
        raise ConfigError("simulate needs --phase, or --position with --angle")
    if args.angle is not None and not math.isfinite(args.angle):
        raise BadStart(f"--angle must be finite, got {args.angle}")
    try:
        if args.phase is not None:
            phase = np.asarray(args.phase, dtype=float)
        else:
            x, y = args.position
            phase = np.asarray([x, y, *momentum_on_level(entry.system, x, y, args.angle)])
        with np.errstate(over="ignore", invalid="ignore"):
            energy = hamiltonian(entry.system, phase)
    except (SingularMetric, DomainError) as exc:
        raise BadStart(exc) from exc
    if not np.isfinite(energy):
        raise BadStart(f"H = {energy} at {phase.tolist()} is not finite")
    return phase


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.example is None:
        raise ConfigError(f"simulate needs an example name; available: {', '.join(EXAMPLE_NAMES)}")
    entry = get_example(args.example)
    phase0 = _initial_phase(entry, args)
    traj_config = TrajectoryConfig(
        t_end=args.t_end,
        method=args.method,
        step=args.step,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        record_every=args.record_every,
    )
    trajectory = integrate(entry.system, phase0, traj_config)

    def rows():
        for t, values in zip(trajectory.times.tolist(), trajectory.states.tolist()):
            yield [t, *values, hamiltonian(entry.system, values, check_domain=False),
                   *(integral(values) for integral in entry.integrals)]

    header = ["t", "q1", "q2", "p1", "p2", "H"] + [f.name for f in entry.integrals]
    path = _out_path(args.out_dir, args.out or f"{entry.name}_trace.csv")
    _write_csv(path, header, rows())
    print(f"wrote {path}")
    if trajectory.domain_exit:
        print(
            f"trajectory left the domain at t = {trajectory.exit_time}",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _random_phases(system, rng, count):
    x0, x1, y0, y1 = system.domain.bbox
    phases = []
    guard = 0
    while len(phases) < count and guard < 50 * count:
        guard += 1
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if not system.domain.contains(x, y):
            continue
        try:
            p1, p2 = momentum_on_level(system, x, y, rng.uniform(0.0, 2.0 * np.pi))
        except (SingularMetric, DomainError):
            continue
        phases.append(np.array([x, y, p1, p2]))
    if len(phases) < count:
        raise DomainError("could not sample enough admissible phases")
    return phases


def _corrupted(integral: FirstIntegral) -> FirstIntegral:
    """The control F + 0.01 x with gradient dF + 0.01 dx; both broadcast
    over arrays of momenta and chart columns as F does, and take F's
    ``chart`` data."""
    def broken(state, *charts):
        return integral.func(state, *charts) + 0.01 * state[0]

    def broken_grad(state, *charts):
        grad = np.array(integral.grad(state, *charts), dtype=float)
        grad[0] += 0.01
        return grad

    return dataclasses.replace(integral, name=f"{integral.name}_corrupt", func=broken,
                               grad=broken_grad)


def _scan_check(system, integral: FirstIntegral, tol: float, samples=None) -> dict:
    """The check of a default bracket scan, on the given level-set samples
    or on its own; a failed check with an ``"error"`` entry where the scan
    raises DomainError."""
    try:
        report = level_set_bracket_scan(system, integral, samples=samples)
    except DomainError as exc:
        return _failed(tol, exc)
    return _check(report.max_abs, tol, report.max_abs <= tol)


def _report(args: argparse.Namespace, name: str, payload: dict) -> int:
    """Write a check report as JSON, print its path and verdict, and
    return the exit code of its ``all_pass``."""
    path = _out_path(args.out_dir, name)
    _write_json(path, payload)
    print(f"wrote {path}")
    print("PASS" if payload["all_pass"] else "FAIL")
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


def _verify_example(entry, tol: float, rng, corrupt: bool) -> dict:
    checks = {}
    scanned = list(entry.integrals)
    if corrupt:
        scanned.append(_corrupted(entry.integrals[0]))
    try:
        samples = level_set_samples(entry.system, [integral.chart for integral in scanned])
    except DomainError:
        samples = None  # then each scan reads its own and fails on the same error
    for integral in scanned:
        checks[f"bracket_scan_{integral.name}"] = _scan_check(entry.system, integral, tol, samples)

    ham = hamiltonian_integral(entry.system)
    conserved = (*entry.integrals, ham)
    traj_config = TrajectoryConfig(t_end=10.0, method=CLI_METHOD)
    drifts, errors = {f.name: 0.0 for f in conserved}, {}
    for phase in entry.sample_phases:
        trajectory = integrate(entry.system, phase, traj_config)
        for integral in conserved:
            try:
                report = conservation_drift(entry.system, trajectory, integral)
            except EvaluationError as exc:  # the drift check fails with the first one
                errors.setdefault(integral.name, exc)
            else:
                drifts[integral.name] = max(drifts[integral.name], report.max_abs_drift)
    for name, value in drifts.items():
        checks[f"drift_{name}"] = (_failed(tol, errors[name]) if name in errors
                                   else _check(value, tol, value <= tol))

    kmax = max(abs(gaussian_curvature(entry.system.metric, px, py))
               for px, py in entry.curvature_probes)
    if entry.curvature_kind == "flat":
        checks["curvature_flat"] = _check(kmax, FLAT_CEILING, kmax <= FLAT_CEILING)
    else:
        checks["curvature_nontrivial"] = _check(kmax, CURVED_FLOOR, kmax > CURVED_FLOOR)

    if entry.independent_count is not None:
        want, phases = entry.independent_count, _random_phases(entry.system, rng, 20)
        ranks = [functional_independence_rank([ham, *entry.integrals], p) for p in phases]
        checks["independence_rank"] = _check(min(ranks), want, min(ranks) == want == max(ranks))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    entries = list_examples() if args.example == "all" else [get_example(args.example)]
    rng = np.random.default_rng(args.seed)
    payload = {entry.name: _verify_example(entry, args.tol, rng, args.corrupt) for entry in entries}
    payload["all_pass"] = all(c["pass"] for checks in payload.values() for c in checks.values())
    return _report(args, args.out, payload)


# ---------------------------------------------------------------------------
# hodograph
# ---------------------------------------------------------------------------


def cmd_hodograph(args: argparse.Namespace) -> int:
    """Solve the field system on the grid and write one CSV row per point.

    ``Lambda`` is the conformal factor as written by ``reconstruct_fields``;
    its sign is not changed.  {H = 1/2} of Lambda (dx^2 + dy^2) has real
    points only where Lambda > 0, which holds exactly on the disc
    (f - 8 alpha/zeta)^2 + (g + 8 beta/zeta)^2 < 64 (alpha^2 + beta^2)/zeta^2
    for zeta > 0 (and for any zeta != 0).  The disc is empty at
    alpha = beta = 0, so the default grid describes no real flow.
    """
    constants = HodographConstants(
        args.alpha, args.beta, args.gamma, args.delta, args.epsilon, args.zeta
    )
    nx, ny = args.grid
    x0, x1, y0, y1 = args.bbox
    # finite widths imply finite corners, and np.linspace overflows without them
    if min(nx, ny) < 1 or not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ConfigError(f"need grid entries >= 1 and a finite bbox of finite width, "
                          f"got {nx} x {ny}, {args.bbox}")
    if nx * ny > _MAX_GRID_POINTS:
        raise ConfigError(f"--grid {nx} {ny} asks for {nx * ny} points; "
                          f"a grid may have at most {_MAX_GRID_POINTS}")

    def rows():
        ys = np.linspace(y0, y1, ny).tolist()
        for x in np.linspace(x0, x1, nx).tolist():
            for y in ys:
                point, omega, residual, (r1, r2) = solve_fields(constants, x, y)
                yield [x, y, point.f, point.g, point.lam, point.u0, omega, r1, r2,
                       _sup_norm(residual)]

    header = ["x", "y", "f", "g", "Lambda", "u0", "Omega", "res1", "res2", "pde41_inf"]
    path = _out_path(args.out_dir, args.out)
    _write_csv(path, header, rows())
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-rational
# ---------------------------------------------------------------------------


def cmd_build_rational(args: argparse.Namespace) -> int:
    params = {name: value for name, value in (("k", args.k), ("psi0", args.psi0))
              if value is not None}
    try:
        solution = solution_from_descriptor({"family": args.family, "parameters": params})
    except ValueError as exc:
        flags = "".join(f" --{name} {value}" for name, value in params.items())
        raise ConfigError(f"build-rational {args.family}{flags}: {exc}") from exc
    bundle = build_bundle(
        solution,
        gamma=args.gamma,
        c_energy=args.c_energy,
        rho_range=args.rho_range,
        check=False,
    )
    pde_max, d_min = profile_screen(solution, *bundle.rho_range)
    checks = {
        "pde_residual_max": _check(pde_max, SCREEN_BOUND, pde_max <= SCREEN_BOUND),
        "d_min": _check(d_min, SCREEN_BOUND, d_min >= SCREEN_BOUND),
        "bracket_scan_max": _scan_check(bundle.as_system(), bundle.as_integral(), args.tol),
    }
    payload = {
        "descriptor": bundle.descriptor(),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    return _report(args, args.out or f"bundle_{args.family}.json", payload)


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magflows",
        description="integrable magnetic flow catalog, verification and construction",
    )
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks (default 0)")
    parser.add_argument("--out-dir", default=".", help="directory for output files (default .)")
    parser.add_argument("--tol", type=float, default=1e-6, help="pass threshold for scans (default 1e-6)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print the example table")
    p.set_defaults(run=cmd_list)
    p.add_argument("--bundle", help="bundle descriptor, or build-rational report, to append as a row")

    p = sub.add_parser("simulate", help="integrate one example and write a CSV trace")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("example", nargs="?", help="catalog example name")
    p.add_argument("--phase", nargs=4, type=float, metavar=("Q1", "Q2", "P1", "P2"))
    p.add_argument("--position", nargs=2, type=float, metavar=("Q1", "Q2"))
    p.add_argument("--angle", type=float, help="momentum angle on the declared level")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--method", choices=METHODS, default=CLI_METHOD)
    p.add_argument("--step", type=float, help="step size of fixed_rk4")
    p.add_argument("--rel-tol", type=float, help="adaptive methods only (default 1e-11)")
    p.add_argument("--abs-tol", type=float, help="adaptive methods only (default 1e-12)")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", help="output CSV name")

    p = sub.add_parser("verify", help="run conservation, bracket and curvature checks")
    p.set_defaults(run=cmd_verify)
    p.add_argument("example", nargs="?", default="all", help="example name or 'all'")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="also scan a deliberately broken integral (negative control)",
    )
    p.add_argument("--out", default="verify.json", help="output JSON name")

    p = sub.add_parser("hodograph", help="solve the field system on a chart grid")
    p.set_defaults(run=cmd_hodograph)
    for name, default in zip(("alpha", "beta", "gamma", "delta", "epsilon", "zeta"),
                             (0.0, 0.0, 0.0, 0.0, 1.0, 2.0)):
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--grid", nargs=2, type=int, default=[20, 20], metavar=("NX", "NY"))
    p.add_argument("--bbox", nargs=4, type=float, default=[0.5, 2.5, 0.5, 2.5],
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--out", default="hodograph.csv", help="output CSV name")

    p = sub.add_parser("build-rational", help="construct a flow bundle and check it")
    p.set_defaults(run=cmd_build_rational)
    p.add_argument("family", nargs="?", help="radial family name")
    p.add_argument("--k", type=int, help="polynomial degree (poly-cos only, default 2)")
    p.add_argument("--psi0", type=float, help="angular offset (poly-cos only, default 0)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c-energy", type=float, default=1.0)
    p.add_argument("--rho-range", nargs=2, type=float, metavar=("LO", "HI"),
                   help="working rho interval (default: the family's)")
    p.add_argument("--out", help="output JSON name")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call to :func:`main` in this process, built on
    first use; nothing writes to it after that."""
    return build_parser()


# argparse takes "-5e-05" for an option string: it reads negative numbers
# only in plain decimals, so such values are rewritten in the shortest plain
# decimal that reads back as the same float
_EXPONENT_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def main(argv=None) -> int:
    argv = [np.format_float_positional(float(a), trim="-") if _EXPONENT_NEGATIVE.fullmatch(a)
            else a for a in (sys.argv[1:] if argv is None else argv)]
    args = _shared_parser().parse_args(argv)
    try:
        if args.config is not None:
            # config values become the defaults of a private parser, so
            # explicit flags still win and the shared parser never changes
            parser = build_parser()
            actions = config_actions(parser, args.command)
            for key, value in _load_config(args.config, actions).items():
                actions[key].default = value
            args = parser.parse_args(argv)
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
        return args.run(args)
    except Exception as exc:
        for types, code, prefix in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
