"""Tests of the benchmark harness itself (not of nads).

    python3 -m pytest perfbench -q
"""

import json
import re
from array import array
from pathlib import Path

import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tree() -> tracer.Tracer:
    """root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]; c nests another c [6, 7]."""
    t = tracer.Tracer()
    t.run_id = 0
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
             ("c", 5.0, 9.0, 0), ("c", 6.0, 7.0, 3)]
    for name, start, end, parent in spans:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.run.append(0)
        t.outer.append(name != "c" or parent != 3)
    return t


def test_self_times_subtract_direct_children():
    t = _tree()
    assert tracer.self_times(t.parent, t.start, t.end) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_self_times_account_for_the_root_duration():
    t = _tree()
    assert sum(tracer.self_times(t.parent, t.start, t.end)) == t.end[0] - t.start[0]


def test_summarize_counts_nested_same_name_once_inclusive():
    s = tracer.summarize(_tree(), {0})
    assert s["c"] == {"calls": 2, "incl": 4.0, "self": 4.0}
    assert s["a"]["incl"] == 3.0 and s["a"]["self"] == 2.0
    assert tracer.summarize(_tree(), {1})["root"]["calls"] == 0


def test_live_spans_nest_and_flag_outermost():
    t = tracer.Tracer()
    outer, inner = t.name_id("x"), t.name_id("y")
    i = t.open(outer)
    j = t.open(inner)
    k = t.open(outer)
    assert t.current() == "x"
    for idx in (k, j, i):
        t.close(idx)
    assert list(t.parent) == [-1, 0, 1]
    assert list(t.outer) == [1, 1, 0]
    assert t.current() is None


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracer.tail_percentile(list(range(90)), 90) is None  # 81..89 lie beyond 80.1
    assert tracer.tail_percentile(list(range(100)), 90) == 89.1  # 90..99 lie beyond
    assert tracer.tail_percentile([], 90) is None
    assert tracer.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_metric_names_and_units_are_well_formed():
    for name, unit in run.END_TO_END + tracer.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    names = [n for n, _ in run.END_TO_END + tracer.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_report_prints_every_metric_with_its_unit():
    metrics = {name: {"value": 1.5, "unit": unit} for name, unit in run.END_TO_END}
    lines = run.report_lines({"workload": "w", "passes": 2, "metrics": metrics, "attempted": 4,
                              "failed": 1, "checks": [{"name": "x", "ok": False, "detail": "d"}],
                              "setup_probes": [0.5, 0.25], "env": {}})
    for name, unit in run.END_TO_END:
        assert any(re.search(rf"\b{re.escape(name)}\s+1\.5 {re.escape(unit)}$", ln)
                   for ln in lines), name
    assert any("fail_share 0.2500" in ln for ln in lines)
    assert any(ln.endswith("probes (s): 0.5000 0.2500") for ln in lines)
