"""Percentiles, self times and the machine-speed scaling."""

import random

import pytest

from stats import hd_quantile, median
from tracer import LAYERS, Tracer, self_times
from worker import scale_to_reference


def test_harrell_davis_quantile():
    # weights sum to one, so a constant sample is returned unchanged
    assert hd_quantile([2.5] * 9, 0.9) == pytest.approx(2.5)
    # a symmetric sample has its centre as median
    assert hd_quantile([1.0, 2.0, 3.0, 10.0, 17.0, 18.0, 19.0], 0.5) == pytest.approx(10.0)
    # on many values it agrees with the sample quantile
    values = [i / 1000.0 for i in range(1001)]
    random.Random(1).shuffle(values)
    assert hd_quantile(values, 0.9) == pytest.approx(0.9, abs=1e-3)
    # it lies inside the sample's range and grows with q
    rng = random.Random(2)
    sample = [rng.expovariate(1.0) for _ in range(7)]
    assert min(sample) < hd_quantile(sample, 0.5) < hd_quantile(sample, 0.9) < max(sample)


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        hd_quantile([], 0.5)
    with pytest.raises(ValueError):
        hd_quantile([1.0], 1.0)
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]
    assert own.sum() == 10.0


def test_layer_self_times_add_up_to_covered_time():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf_t = tracer.wrap(lambda: 1, "specfun.leaf", "specfun")
    middle_t = tracer.wrap(lambda: leaf_t() + leaf_t(), "flow.middle", "flow")
    middle_t()
    leaf_t()
    per_layer = tracer.layer_self_s()
    assert set(per_layer) == set(LAYERS)
    # middle: [0, 5] around leaves [1, 2] and [3, 4]; a root leaf [6, 7]
    assert per_layer["flow"] == 3.0
    assert per_layer["specfun"] == 3.0
    assert sum(per_layer.values()) == tracer.covered_s() == 6.0
    tracer.reset()
    assert tracer.covered_s() == 0.0 and not tracer.counts


def test_scaling_uses_the_median_probe_near_each_item():
    import calibrate

    ref = calibrate.REFERENCE_S
    # probes every 0.1 s; the machine runs at half speed after t = 5 s
    probes = [(0.1 * i, ref if i < 50 else 2.0 * ref) for i in range(100)]
    spans = [(1.0, 2.0), (7.0, 8.5), (4.98, 5.02)]
    scaled = scale_to_reference(spans, probes)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[1] == pytest.approx(0.75)
    # the window around 5 s holds 10 probes at full speed and 11 at half speed
    assert scaled[2] == pytest.approx(0.04 / 2.0)
    # too few probes in the window: the nearest ones are used
    assert scale_to_reference([(50.0, 51.0)], probes[:10]) == pytest.approx([1.0])


def test_traced_run_reports_every_per_layer_metric_of_the_benchmark():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    reported = set(Tracer().layer_metrics()) | {"cli.bytes_out", "trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}
