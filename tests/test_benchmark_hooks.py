"""The benchmark under perfbench/ rebinds nads functions and methods by name
and imports a few CLI helpers. A refactor that removes one of those names
breaks the benchmark, so this test installs and uninstalls the tracer,
makes the imports, and reads back the phi.json that the desk-ensemble
workload writes for itself. It runs in a subprocess, so that an install
that fails half way cannot leave patched modules behind in the test
process."""

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
installed = tracer.Installed(tracer.Tracer())
installed.uninstall()
from nads.cli import PROFILES, flow_config_from, load_distribution, save_distribution
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
