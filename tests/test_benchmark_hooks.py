"""The benchmark under perfbench/ rebinds nads functions and methods by name
and imports a few CLI helpers. A refactor that removes one of those names,
or changes a call shape its wrappers read, breaks the benchmark. So this
test installs the tracer, runs a short toy search and retrain under it,
uninstalls it, makes the imports, and reads back the phi.json that the
desk-ensemble workload writes for itself. It runs in a subprocess, so that
an install that fails half way cannot leave patched modules behind in the
test process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import tempfile
from pathlib import Path
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer
import numpy as np
from nads.cli import PROFILES, flow_config_from, load_distribution, save_distribution
import nads.search_space as ss
import nads.trainer as tr
t = tracer.Tracer()
installed = tracer.Installed(t)
try:  # the wrappers in place, as in a --trace 1 run
    flow = flow_config_from(PROFILES["toy2d"])
    x = np.random.default_rng(0).normal(size=(32, 2, 1, 1))
    res = tr.search(x, tr.SearchConfig(flow=flow, iterations=2, batch_size=8))
    tr.retrain(ss.sample_discrete(res.dist, 0), x,
               tr.RetrainConfig(flow=flow, iterations=2, batch_size=8))
finally:
    installed.uninstall()
assert t.counters["train.steps"] == 2 and t.counters["params.total"] > 0, t.counters
import worker
with tempfile.TemporaryDirectory() as d:  # the phi.json desk-ensemble starts from
    worker.WORKLOADS["desk-ensemble"].write_inputs(Path(d), 1)
    dist, flow = load_distribution(Path(d) / "phi.json")
    assert flow == flow_config_from(PROFILES["desk"]) and not dist.logits.any()
print("ok")
"""


def test_benchmark_hooks_resolve():
    code = PROBE.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
