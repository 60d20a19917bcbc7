"""The tracer wraps magflows where callers look functions up and counts
work from returned values."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from magflows import catalog, cli, flow
entry = catalog.get_example("ex2")
tracer.reset()
traj = flow.integrate(entry.system, entry.sample_phases[0], flow.TrajectoryConfig(t_end=1.0))
report = flow.conservation_drift(entry.system, traj, entry.integrals[0])
metrics = tracer.layer_metrics()
print(json.dumps({
    "metrics": {k: v[0] for k, v in metrics.items()},
    "accepted": traj.accepted, "rejected": traj.rejected, "states": len(traj),
    "cli_integrate_wrapped": hasattr(cli.integrate, "__wrapped__"),
    "covered": tracer.covered_s(),
}))
"""


def test_install_counts_work_at_layer_boundaries():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), str(BENCH.parent / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    m = got["metrics"]
    assert got["cli_integrate_wrapped"]
    assert m["flow.trajectories"] == 1
    assert m["flow.steps_accepted"] == got["accepted"]
    assert m["flow.steps_rejected"] == got["rejected"]
    # a Dormand-Prince trial step evaluates the right-hand side seven times
    assert m["flow.rhs_points"] == 7 * (got["accepted"] + got["rejected"])
    assert m["geometry.metric_inverse_points"] == m["flow.rhs_points"]
    assert m["flow.drift_states"] == got["states"]
    layer_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(layer_sum - got["covered"]) <= 1e-9 * max(1.0, got["covered"])
