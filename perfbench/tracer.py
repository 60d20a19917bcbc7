"""Span tracing of the magflows modules, installed from outside the package.

``Tracer.install`` replaces each public function and public method of the
layer modules with a wrapper that records a span (name, start, end, parent)
in flat in-memory arrays.  A function is replaced everywhere callers look it
up: in its own module, in every magflows module that imported it by name,
and in module-level dispatch tables.  Methods are replaced on their class,
so instances built afterwards (and bound methods taken from them) are
traced; install before building any input.

Work counts are taken at the same boundaries, from arguments and returned
values.  Point counts use the number of rows of the coordinate argument,
so they keep their meaning if evaluation is later batched.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "catalog", "geometry", "flow", "integrals", "hodograph", "rational", "specfun")


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def _rows(arg, point_ndim: int) -> int:
    """Points in a coordinate argument: 1 for a single point, else its length."""
    return 1 if getattr(arg, "ndim", 0) <= point_ndim else len(arg)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()
        self._open.clear()

    def wrap(self, fn, name: str, layer: str, count=None):
        """Return ``fn`` wrapped in a span; ``count(result, args)`` runs
        after the span closes."""
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        open_, clock = self._open, self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if count is not None:
                count(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer results ---------------------------------------------------

    def layer_self_s(self) -> dict:
        if not len(self.span_start):
            return {layer: 0.0 for layer in LAYERS}
        own = self_times(self.span_start, self.span_end, self.span_parent)
        layer_of = np.asarray(self.name_layer)[np.asarray(self.span_name)]
        totals = np.bincount(layer_of, weights=own, minlength=len(LAYERS))
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}

    def covered_s(self) -> float:
        """Time inside at least one span: the sum of root span durations."""
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        roots = np.asarray(self.span_parent) < 0
        return float(np.sum(end[roots] - start[roots]))

    def save(self, path) -> None:
        """Write the spans as compressed arrays: name index, parent span
        index (-1 for a root), start and duration in nanoseconds."""
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start_ns=np.rint((start - t0) * 1e9).astype(np.int64),
            dur_ns=np.rint((end - start) * 1e9).astype(np.int64),
            names=np.asarray(self.names),
            layer=np.asarray([LAYERS[i] for i in self.name_layer]),
        )

    # -- installation ----------------------------------------------------------

    def _counters(self):
        c = self.counts

        def add(key, amount=1):
            c[key] += amount

        def points(key, index, point_ndim=0):
            return lambda r, a, k: add(key, _rows(a[index], point_ndim))

        def calls(key):
            return lambda r, a, k: add(key)

        def trajectory(r, a, k):
            add("flow.trajectories")
            add("flow.steps_accepted", r.accepted)
            add("flow.steps_rejected", r.rejected)
            add("flow.domain_exits", int(r.domain_exit))

        def scan(r, a, k):
            from magflows.integrals import BracketScanConfig

            config = inspect.signature(scan_fn).bind(*a, **k).arguments.get("config")
            config = config or BracketScanConfig()
            add("integrals.scans")
            add("integrals.scan_samples", r.count)
            add("integrals.scan_skipped", config.nx * config.ny * config.n_angles - r.count)

        def newton(r, a, k):
            add("hodograph.newton_solves")
            add("hodograph.newton_iters", r.iterations)

        from magflows.integrals import level_set_bracket_scan as scan_fn

        z_points = points("rational.z_partials_points", 1)
        integral_points = points("rational.integral_points", 1, 1)
        return {
            "cli.main": calls("cli.commands"),
            "catalog.get_example": calls("catalog.entries_built"),
            "geometry.Metric.inverse": points("geometry.metric_inverse_points", 1),
            "geometry.Metric.component_partials": points("geometry.metric_partials_points", 1),
            "geometry.Metric.cholesky": points("geometry.cholesky_points", 1),
            "geometry.gaussian_curvature": calls("geometry.curvature_calls"),
            "flow.integrate": trajectory,
            "flow.magnetic_rhs": points("flow.rhs_points", 1, 1),
            "flow.conservation_drift": lambda r, a, k: add("flow.drift_states", len(r.drift_series)),
            "integrals.level_set_bracket_scan": scan,
            "integrals.magnetic_bracket_pair": points("integrals.bracket_points", 3, 1),
            "integrals.functional_independence_rank": calls("integrals.rank_tests"),
            "hodograph.continued_solve": calls("hodograph.continued_solves"),
            "hodograph.newton_solve": newton,
            "hodograph.algebraic_residual": points("hodograph.residual_evals", 1),
            "rational.build_bundle": calls("rational.bundles_built"),
            "rational.PolynomialCos.partials": z_points,
            "rational.PolynomialCos.third_partials": z_points,
            "rational.LogRadial.partials": z_points,
            "rational.LogRadial.third_partials": z_points,
            "rational.LogNu1.partials": z_points,
            "rational.LogNu1.third_partials": z_points,
            "rational.EllipticHalf.partials": z_points,
            "rational.EllipticHalf.third_partials": z_points,
            "rational.RationalFlowBundle.integral_value": integral_points,
            "rational.RationalFlowBundle.integral_gradient": integral_points,
            "specfun": calls("specfun.calls"),
        }

    def install(self) -> int:
        """Wrap every public function and method of the layer modules.
        Returns the number of wrapped callables."""
        modules = {layer: importlib.import_module(f"magflows.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("magflows"), *modules.values()]
        counters = self._counters()
        specfun_call = counters.pop("specfun")
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    count = specfun_call if layer == "specfun" else counters.get(name)
                    replaced[id(obj)] = (obj, self.wrap(obj, name, layer, count))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    for meth, fn in sorted(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth, self.wrap(fn, name, layer, counters.get(name)))
                        replaced[id(fn)] = None
        for ns in namespaces:
            table = vars(ns)
            for attr, obj in list(table.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replaced.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
        return len(replaced)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        metrics = {f"{layer}.self_s": (value, "s") for layer, value in self.layer_self_s().items()}
        c = self.counts
        for key in (
            "cli.commands", "catalog.entries_built",
            "geometry.metric_inverse_points", "geometry.metric_partials_points",
            "geometry.cholesky_points", "geometry.curvature_calls",
            "flow.trajectories", "flow.rhs_points", "flow.steps_accepted",
            "flow.steps_rejected", "flow.domain_exits", "flow.drift_states",
            "integrals.scans", "integrals.scan_samples", "integrals.scan_skipped",
            "integrals.bracket_points", "integrals.rank_tests",
            "hodograph.continued_solves", "hodograph.newton_solves",
            "hodograph.newton_iters", "hodograph.residual_evals",
            "rational.bundles_built", "rational.z_partials_points",
            "rational.integral_points", "specfun.calls",
        ):
            metrics[key] = (c[key], "count")
        steps = c["flow.steps_accepted"] + c["flow.steps_rejected"]
        metrics["flow.accept_ratio"] = (c["flow.steps_accepted"] / steps if steps else 1.0, "ratio")
        samples = c["integrals.scan_samples"] + c["integrals.scan_skipped"]
        metrics["integrals.sample_yield"] = (
            c["integrals.scan_samples"] / samples if samples else 1.0, "ratio")
        return metrics
