"""The three workloads: inputs made from a seed, the timed operations, and
the checks of their outputs.

Each workload builds all of its inputs in ``__init__`` (this is the set-up
the benchmark times as ``setup_s``), then exposes ``items``, ``run(item)``
for one timed operation and ``check(item, result, first)`` for the
untimed output checks.  Every round runs the same items in the same order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import checks
from magflows import catalog, cli, flow, geometry, rational
from magflows.errors import DomainError, SingularMetric


def run_cli(argv):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _num(value: float) -> str:
    return repr(float(value))


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class Workload:
    # exit codes that are a documented outcome of the operation
    allowed_exit = (0,)

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.items: list = []
        self.digests: dict = {}

    def out_path(self, name: str) -> Path:
        return Path(self.work_dir) / name

    def run(self, item):
        rc, stdout = run_cli(item["argv"])
        path = self.out_path(item["out"])
        return {"rc": rc, "bytes_out": len(stdout) + (path.stat().st_size if path.exists() else 0)}

    def failed(self, result) -> bool:
        return result["rc"] not in self.allowed_exit

    def end_round(self) -> list:
        return []

    def same_as_first_round(self, key, digest) -> list:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output differs from the first round"]


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------


class VerifyCatalog(Workload):
    """``magflows verify <entry> --corrupt`` for every catalog entry.

    The seed sets each command's ``--seed`` (the sampled phases of the
    independence-rank check).  Exit 5 is the documented outcome: the
    corrupted integral must fail its scan.
    """

    allowed_exit = (0, 5)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        for name in catalog.EXAMPLE_NAMES:
            entry = catalog.get_example(name)
            out = f"verify_{name}.json"
            self.items.append({
                "name": name,
                "out": out,
                "integrals": [f.name for f in entry.integrals],
                "probes": entry.curvature_probes,
                "argv": ["--seed", self.rng.randrange(2 ** 31), "--out-dir", work_dir,
                         "verify", name, "--corrupt", "--out", out],
            })

    def check(self, item, result, first):
        text = self.out_path(item["out"]).read_bytes()
        problems = self.same_as_first_round(item["name"], _digest(text))
        if first:
            report = json.loads(text)
            problems += checks.check_verify_report(item["name"], report, item["integrals"], item["probes"])
        return problems


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

# name, grid of n * n starts, end time, fixed step of every other orbit
# (the others are adaptive)
CATALOG_ORBITS = (
    ("ex1", 4, 3.0, 0.02),
    ("ex2", 4, 4.0, 0.02),
    ("ex2b", 4, 3.0, None),
    ("ex3", 4, 8.0, None),
    ("ex4", 4, 3.0, None),
    ("ex5", 4, 12.0, None),
    ("ex6", 4, 1.5, None),
)
# family, grid of n * n starts, end time, rho range of the bundle, rho range
# of the starts; all adaptive
BUNDLE_ORBITS = (
    ("poly-cos", 4, 30.0, (0.05, 5.0), (0.3, 4.0)),
    ("log-nu1", 4, 1.5, (0.05, 5.0), (0.3, 3.0)),
    ("elliptic-half", 4, 1.5, (0.1, 3.0), (0.6, 2.2)),
)
# catalog entries transcribed from a bundle family: the oracle of build_bundle
TRANSCRIBED = {"ex5": "poly-cos", "ex6": "log-nu1"}
REL_TOL = 1e-11  # the CLI's and TrajectoryConfig's default
ABS_TOL = 1e-12


def stratified_starts(rng, system, n: int, box):
    """n * n seeded phases on the energy level: one start in each cell of an
    n-by-n grid over the box, with the momentum angle stratified over n
    strata as a Latin square (stratum (i + j) mod n in cell (i, j)).  A
    point outside the domain, or with a singular metric, is redrawn in its
    cell; a cell that holds no admissible point is replaced by a draw over
    the box."""
    x0, x1, y0, y1 = box
    starts = []
    for i in range(n):
        for j in range(n):
            for attempt in range(2000):
                whole = attempt >= 1000
                x = x0 + (x1 - x0) * (rng.random() if whole else (i + rng.random()) / n)
                y = y0 + (y1 - y0) * (rng.random() if whole else (j + rng.random()) / n)
                phi = 2.0 * math.pi * ((i + j) % n + rng.random()) / n
                if not system.domain.contains(x, y):
                    continue
                try:
                    p1, p2 = geometry.momentum_on_level(system, x, y, phi)
                except (SingularMetric, DomainError):
                    continue
                starts.append((x, y, phi, p1, p2))
                break
            else:
                raise RuntimeError(f"no admissible start in {system.name}")
    return starts


def _inner(bbox, margin=0.1):
    x0, x1, y0, y1 = bbox
    dx, dy = margin * (x1 - x0), margin * (y1 - y0)
    return (x0 + dx, x1 - dx, y0 + dy, y1 - dy)


class Orbits(Workload):
    """Long orbits from seeded starts on each chart's energy level.

    Catalog orbits run ``magflows simulate`` (a CSV row per step); bundle
    orbits run ``integrate`` and ``conservation_drift`` on systems from
    ``build_bundle``, since ``simulate`` cannot take a bundle.  Exit 3 (the
    orbit left its chart) is a documented outcome.
    """

    allowed_exit = (0, 3)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.entries = {}
        for name, n, t_end, step in CATALOG_ORBITS:
            entry = self.entries[name] = catalog.get_example(name)
            system = entry.system
            for i, (x, y, phi, _, _) in enumerate(stratified_starts(self.rng, system, n, _inner(system.domain.bbox))):
                fixed = step is not None and i % 2 == 1
                out = f"{name}_{i}.csv"
                argv = ["--out-dir", work_dir, "simulate", name, "--position", _num(x), _num(y),
                        "--angle", _num(phi), "--t-end", _num(t_end)]
                if fixed:
                    argv += ["--method", "fixed_rk4", "--step", _num(step)]
                argv += ["--out", out]
                self.items.append({
                    "key": out, "kind": "cli", "entry": name, "argv": argv, "out": out,
                    "spec": {"x": x, "y": y, "t_end": t_end, "energy": system.energy,
                             "method": "fixed_rk4" if fixed else "embedded_rk45",
                             "rel_tol": REL_TOL, "step": step if fixed else None,
                             "larmor_b": 1.0 if name == "ex1" else None},
                })
        self.bundles = {}
        families = {"poly-cos": lambda: rational.PolynomialCos(2),
                    "log-nu1": rational.LogNu1, "elliptic-half": rational.EllipticHalf}
        for family, n, t_end, rho_range, start_rho in BUNDLE_ORBITS:
            bundle = rational.build_bundle(families[family](), rho_range=rho_range)
            system = bundle.as_system()
            integral = bundle.as_integral()
            self.bundles[family] = bundle
            box = (*start_rho, 0.0, bundle.z.psi_period)
            for i, (x, y, _, p1, p2) in enumerate(stratified_starts(self.rng, system, n, box)):
                self.items.append({
                    "key": f"{family}_{i}", "kind": "bundle", "family": family,
                    "system": system, "integral": integral,
                    "config": flow.TrajectoryConfig(t_end=t_end, rel_tol=REL_TOL, abs_tol=ABS_TOL),
                    "phase": np.array([x, y, p1, p2]),
                    "spec": {"x": x, "y": y, "t_end": t_end, "energy": system.energy,
                             "method": "embedded_rk45", "rel_tol": REL_TOL, "step": None,
                             "larmor_b": None},
                })
        cli_items = [it for it in self.items if it["kind"] == "cli"]
        self.rerun = cli_items[seed % len(cli_items)]

    def run(self, item):
        if item["kind"] == "cli":
            return super().run(item)
        system = item["system"]
        trajectory = flow.integrate(system, item["phase"], item["config"])
        energy = flow.conservation_drift(
            system, trajectory, lambda s: geometry.hamiltonian(system, s, check_domain=False))
        integral = flow.conservation_drift(system, trajectory, item["integral"])
        return {"trajectory": trajectory, "H": energy, "F": integral}

    def failed(self, result):
        return "rc" in result and super().failed(result)

    def check(self, item, result, first):
        if item["kind"] == "cli":
            text = self.out_path(item["out"]).read_bytes()
            problems = self.same_as_first_round(item["key"], _digest(text))
            if first:
                entry = self.entries[item["entry"]]
                problems += checks.check_orbit_csv(item["spec"], text.decode("ascii"), result["rc"], entry)
                problems += self._same_metric(item["entry"], item["spec"])
            return problems
        trajectory = result["trajectory"]
        problems = self.same_as_first_round(item["key"], _digest(
            trajectory.times.tobytes(), trajectory.states.tobytes(),
            result["H"].drift_series.tobytes(), result["F"].drift_series.tobytes()))
        if first:
            h, f = result["H"], result["F"]
            problems += checks.check_orbit(
                item["spec"], trajectory.times, trajectory.states, trajectory.domain_exit,
                h.initial_value + h.drift_series, {"F": ("rational", f.initial_value + f.drift_series)},
                item["system"].domain.contains)
            if trajectory.domain_exit and trajectory.exit_time != trajectory.times[-1]:
                problems.append(f"{item['key']}: exit time is not the last recorded time")
            for name, family in TRANSCRIBED.items():
                if family == item["family"]:
                    problems += self._same_metric(name, item["spec"])
        return problems

    def _same_metric(self, name, spec) -> list:
        """The ex5 and ex6 transcriptions are the oracle of build_bundle:
        metric and field must agree at every start point."""
        if name not in TRANSCRIBED:
            return []
        entry = self.entries[name]
        bundle = self.bundles[TRANSCRIBED[name]]
        x, y = spec["x"], spec["y"]
        if not entry.system.domain.contains(x, y):
            return []
        want = entry.system.metric.components(x, y)
        got = bundle.metric_components(x, y)
        if not all(abs(a - b) <= 1e-10 * max(1.0, abs(b)) for a, b in zip(got, want)) or not (
            abs(bundle.omega(x, y) - entry.system.field(x, y)) <= 1e-10
        ):
            return [f"{TRANSCRIBED[name]} bundle and catalog {name} differ at ({x}, {y})"]
        return []

    def end_round(self):
        """Rerun one catalog orbit: its CSV must be byte-identical."""
        item = dict(self.rerun)
        out = "rerun_" + item["out"]
        item["argv"] = item["argv"][:-1] + [out]
        rc, _ = run_cli(item["argv"])
        a = self.out_path(item["out"]).read_bytes()
        b = self.out_path(out).read_bytes()
        return [] if a == b else [f"rerun of {item['key']} wrote different bytes (exit {rc})"]


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


class Construct(Workload):
    """``magflows hodograph`` grids and ``magflows build-rational`` bundles.

    ``build-rational poly-cos --k 6`` runs on fixed inputs and fails every
    time: its exact polynomial profile misses the CLI's absolute 1e-10
    residual threshold through round-off.  It is counted as failed.
    """

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        u = self.rng.uniform

        def sign():
            return self.rng.choice((-1.0, 1.0))

        grids = [
            ({"alpha": 0.0, "beta": 0.0, "gamma": u(-0.8, 0.8), "delta": u(-0.8, 0.8),
              "epsilon": u(0.5, 1.5), "zeta": u(1.5, 2.5)}, (16, 16)),
        ]
        for _ in range(2):
            grids.append(({"alpha": sign() * u(0.03, 0.05), "beta": sign() * u(0.02, 0.04),
                           "gamma": u(-0.5, 0.5), "delta": u(-0.5, 0.5),
                           "epsilon": 1.0, "zeta": 2.0}, (10, 10)))
        for i, (constants, grid) in enumerate(grids):
            out = f"hodograph_{i}.csv"
            argv = ["--out-dir", work_dir, "hodograph", "--grid", *grid, "--out", out]
            for key, value in constants.items():
                argv += [f"--{key}", _num(value)]
            self.items.append({"kind": "hodograph", "key": out, "out": out, "argv": argv,
                               "spec": {"constants": constants, "grid": grid}})
        # Bracket scans of rational integrals are only robust on vetted
        # rho ranges (see CHANGES.md), so the seed varies gamma and C.
        bundles = [
            {"family": "poly-cos", "k": 2},
            {"family": "log-radial"},
            {"family": "log-nu1"},
            {"family": "elliptic-half", "rho_range": (0.1, 3.0)},
            {"family": "poly-cos", "k": 6, "seed": 0},
            {"family": "poly-cos", "k": 3, "rho_range": (0.2, 3.0),
             "gamma": u(0.5, 1.5), "c_energy": u(0.5, 2.0)},
            {"family": "log-nu1", "gamma": u(0.8, 1.2)},
        ]
        for i, spec in enumerate(bundles):
            spec = {"gamma": 1.0, "c_energy": 1.0, "rho_range": (0.05, 5.0),
                    "seed": self.rng.randrange(2 ** 31), **spec}
            out = f"bundle_{i}.json"
            argv = ["--seed", spec["seed"], "--out-dir", work_dir, "build-rational", spec["family"],
                    "--gamma", _num(spec["gamma"]), "--c-energy", _num(spec["c_energy"]),
                    "--rho-range", *map(_num, spec["rho_range"]), "--out", out]
            if "k" in spec:
                argv += ["--k", spec["k"]]
            self.items.append({"kind": "bundle", "key": out, "out": out, "argv": argv, "spec": spec})

    def check(self, item, result, first):
        text = self.out_path(item["out"]).read_bytes()
        problems = self.same_as_first_round(item["key"], _digest(text))
        if not first:
            return problems
        if item["kind"] == "hodograph":
            return problems + checks.check_hodograph_csv(item["spec"], text.decode("ascii"))
        payload = json.loads(text)
        solution = rational.solution_from_descriptor(payload["descriptor"])
        # list --bundle reads a bare descriptor, not the build-rational report
        descriptor = self.out_path("descriptor_" + item["out"])
        descriptor.write_text(json.dumps(payload["descriptor"]))
        rc, listed = run_cli(["list", "--bundle", descriptor])
        if rc != 0:
            problems.append(f"list --bundle {item['out']} exited {rc}")
        return problems + checks.check_bundle_payload(item["spec"], payload, solution, listed)


WORKLOADS = {"verify-catalog": VerifyCatalog, "orbits": Orbits, "construct": Construct}
