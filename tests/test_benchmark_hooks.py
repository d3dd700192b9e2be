"""The benchmark under perfbench/ rebinds nads functions and methods by name
and imports a few CLI helpers. A refactor that removes one of those names,
or changes a call shape its wrappers read, breaks the benchmark. So this
test installs the tracer, runs a short toy search and retrain under it,
runs one convolution and one pool forward and backward (the convolution
must count its forward work once and twice that in its VJP), saves and
reloads the retrained member's checkpoint, saves a point CSV and loads it
through a data manifest, writes eval report files, uninstalls it, makes
the imports, and reads back the phi.json that the desk-ensemble workload
writes for itself. It runs in a subprocess, so that an install that fails
half way cannot leave patched modules behind in the test process."""

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
import nads.autodiff as ad
from nads.cli import PROFILES, flow_config_from, load_distribution, save_distribution
import nads.data as data
import nads.flow_core as fc
import nads.ood_eval as ood
import nads.search_space as ss
import nads.trainer as tr
t = tracer.Tracer()
installed = tracer.Installed(t)
try:  # the wrappers in place, as in a --trace 1 run
    flow = flow_config_from(PROFILES["toy2d"])
    x = np.random.default_rng(0).normal(size=(32, 2, 1, 1))
    res = tr.search(x, tr.SearchConfig(flow=flow, iterations=2, batch_size=8))
    arch = ss.sample_discrete(res.dist, 0)
    member = tr.retrain(arch, x, tr.RetrainConfig(flow=flow, iterations=2, batch_size=8))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "member.nadsflw"
        fc.save_checkpoint(member, path)
        loaded = fc.load_checkpoint(path, path.read_bytes())
        size = path.stat().st_size
        points = Path(d) / "train.csv"
        data.save_points_csv(points, data.Dataset(x.reshape(32, 1, 1, 2)))
        (Path(d) / "data.json").write_text('{{"format": "csv", "splits": {{"train": "train.csv"}}}}')
        train = data.load_data_manifest(Path(d) / "data.json")["train"]
        csv_size = points.stat().st_size
        scored = ood.ScoredSets(x[:16, 0, 0, 0], x[16:, 0, 0, 0])
        ood.write_report_files(ood.evaluate(scored), Path(d) / "eval")
    # One desk-shaped dilated depthwise conv2d and one pool, forward and backward.
    conv_flop = t.counters.get("conv2d.flop", 0.0)
    xc = ad.Tensor(np.random.default_rng(1).normal(size=(16, 2, 4, 4)), requires_grad=True)
    wc = ad.Tensor(np.random.default_rng(2).normal(size=(2, 1, 5, 5)), requires_grad=True)
    (ad.conv2d(xc, wc, dilation=2, groups=2).sum() + ad.max_pool3x3(xc).sum()).backward()
    conv_flop = t.counters["conv2d.flop"] - conv_flop
finally:
    installed.uninstall()
assert t.counters["train.steps"] == 2 and t.counters["params.total"] > 0, t.counters
assert t.counters["checkpoint.bytes"] == size, t.counters
assert t.counters["data.bytes_read"] == csv_size, t.counters
spans = [t.names[i] for i in t.name]
assert conv_flop == 3 * tracer._conv_work(xc.shape, wc.shape)[0], conv_flop
for name in ("autodiff.conv2d", "autodiff.pool"):
    assert spans.count(name) == spans.count(name + ".bwd") == 1, spans
assert spans.count("flow_core.checkpoint.save") == spans.count("flow_core.checkpoint.load") == 1
assert spans.count("ood_eval.write_report") == 1
assert np.array_equal(train.x, x.reshape(32, 1, 1, 2))
assert np.array_equal(loaded.arch.weights, arch.weights)
assert np.array_equal(loaded.log_prob(x, arch).data, member.log_prob(x, arch).data)
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


CELL_PROBE = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer
import numpy as np
import nads.autodiff as ad
from nads.cli import PROFILES, flow_config_from
import nads.search_space as ss
flow = flow_config_from(PROFILES["desk"])
c, h, w = flow.block_shapes()[0]
cell = ss.Cell((c + 1) // 2, c // 2, flow.topology, flow.ops, np.random.default_rng(0))
weights = ss.sample_relaxed(ss.ArchDistribution.uniform(flow.ops, flow.topology), 0).weights
held = ("sep_conv_3x3", "sep_conv_5x5", "dil_conv_3x3", "dil_conv_5x5", "max_pool_3x3",
        "identity")
member = ss.Cell((c + 1) // 2, c // 2, flow.topology, flow.ops, np.random.default_rng(0), held)
x = ad.Tensor(np.random.default_rng(1).normal(size=(4, (c + 1) // 2, h, w)))
t = tracer.Tracer()
installed = tracer.Installed(t)
try:
    cell.forward(x, weights)
    relaxed_spans = len(t.name)
    member.forward(x, held)
finally:
    installed.uninstall()
spans = [t.names[i] for i in t.name]
parents = [None if p < 0 else spans[p] for p in t.parent]

def kids(lo, hi):
    return {{name: [q for s, q in zip(spans[lo:hi], parents[lo:hi]) if s == name]
            for name in ("autodiff.conv2d", "autodiff.pool")}}

relaxed, held_ops = kids(0, relaxed_spans), kids(relaxed_spans, len(spans))
# A relaxed edge folds its four convolutions into one node, which is no
# conv2d call; its two pools still run alone.
assert relaxed["autodiff.conv2d"] == [], relaxed
assert relaxed["autodiff.pool"] == ["search_space.cell"] * 12, relaxed  # 2 per edge
# A member's edge runs its op alone: 2 conv2d per separable op, 1 per dilated.
assert held_ops["autodiff.conv2d"] == ["search_space.cell"] * 6, held_ops
assert held_ops["autodiff.pool"] == ["search_space.cell"], held_ops
print("ok")
"""


def test_traced_cell_shows_its_convolutions_and_pools():
    """The op table's forwards look conv2d and the pools up when they run,
    so the tracer's rebound wrappers see every spatial op that a cell runs
    alone, as children of the cell's span: a relaxed desk cell's pools, and
    a member cell's convolutions and pool."""
    code = CELL_PROBE.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
