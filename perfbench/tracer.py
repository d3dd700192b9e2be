"""Span tracing for the benchmark's traced run.

`install` rebinds public functions and methods of the `nads` layers to
timing wrappers, from the benchmark's own code; nothing under `src/nads`
changes. Each span records its name, start, end, parent span and run id.
Spans stay in memory (compact arrays) until the run ends. `uninstall`
puts every original back, so untraced passes run the program as shipped.

`per_layer_metrics` turns the spans and counters of the traced passes into
the per-layer metrics listed in `PER_LAYER`, each normalised per traced
pass.
"""

from __future__ import annotations

import functools
import gc
import json
import logging
import sys
import time
from array import array
from pathlib import Path

ROOT_SPAN = "bench.pass"

# Spans whose VJP is charged to the op itself instead of to `autodiff.vjp`.
_OP_BWD = {
    "autodiff.conv2d": "autodiff.conv2d.bwd",
    "autodiff.pool": "autodiff.pool.bwd",
    "autodiff.channel_mix": "autodiff.channel_mix.bwd",
}
_SPATIAL = ("autodiff.conv2d", "autodiff.pool")


class Tracer:
    """In-memory span store plus named counters and sample lists."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_depth: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.stack = [-1]
        self.run_id = -1
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.phases: list[str] = []
        self.tensors = 0
        self.last_step: float | None = None
        self.last_tensors = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.outer.append(self._open_depth[nid] == 0)
        self._open_depth[nid] += 1
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open_depth[self.name[idx]] -= 1
        self.stack.pop()

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def write(self, path: Path) -> None:
        """Write the spans as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
        }
        path.write_text(json.dumps(doc))


# -- span arithmetic -------------------------------------------------------------


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are single-threaded and properly nested, so children never
    overlap and their durations add up. `parent[i]` is -1 for a root.
    """
    selfs = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[i] - start[i]
    return selfs


def summarize(tracer: Tracer, runs: set[int]) -> dict[str, dict[str, float]]:
    """Per span name, over the given runs: calls, inclusive seconds of the
    outermost spans of that name, and self seconds."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {n: {"calls": 0, "incl": 0.0, "self": 0.0} for n in tracer.names}
    spatial_in_cell = 0
    names = tracer.names
    for i, nid in enumerate(tracer.name):
        if tracer.run[i] not in runs:
            continue
        rec = out[names[nid]]
        rec["calls"] += 1
        rec["self"] += selfs[i]
        if tracer.outer[i]:
            rec["incl"] += tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        if names[nid] in _SPATIAL and p >= 0 and names[tracer.name[p]] == "search_space.cell":
            spatial_in_cell += 1
    empty = {"calls": 0, "incl": 0.0, "self": 0.0}
    out.setdefault("search_space.cell", empty)["spatial_children"] = spatial_in_cell
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values: list[float], q: float) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if not values:
        return None
    cut = percentile(values, q)
    if sum(1 for v in values if v > cut) < 10:
        return None
    return cut


# -- installing the wrappers --------------------------------------------------------


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapped) -> None:
        """Replace `original` under every name any nads module holds it by."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nads" and not mod_name.startswith("nads."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapped)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


def _conv_work(x_shape, w_shape) -> tuple[float, float, float]:
    """Computed forward work of one float64 conv2d call: operations (two per
    multiply-add), bytes of x, w and the output moved once each, and the
    output's bytes alone. Padding copies and cache misses are not counted."""
    n, c_in, h, w = x_shape
    c_out, c_in_g, kh, kw = w_shape
    flop = 2.0 * n * c_out * h * w * c_in_g * kh * kw
    out_bytes = 8.0 * n * c_out * h * w
    return flop, 8.0 * (n * c_in * h * w + c_out * c_in_g * kh * kw) + out_bytes, out_bytes


class _CountWarnings(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record) -> None:
        self.tracer.count("trainer.warnings")


class Installed:
    """Wrappers, gc callback and logging handler of one traced run."""

    def __init__(self, tracer: Tracer):
        import nads.autodiff as ad
        import nads.cli as cli
        import nads.data as data
        import nads.ensemble as ens
        import nads.flow_core as fc
        import nads.ood_eval as ood
        import nads.search_space as ss
        import nads.trainer as tr
        import nads.waic as waic

        self.tracer = tracer
        self.patches = p = _Patches()
        t = tracer

        def fn_span(module, attr, name):
            original = getattr(module, attr)
            p.rebind(original, _span(t, name, original))

        def method_span(cls, attr, name):
            p.set(cls, attr, _span(t, name, getattr(cls, attr)))

        # autodiff: ops, their VJPs, the tape walk, tensor constructions.
        for attr, name in [("avg_pool3x3", "autodiff.pool"), ("max_pool3x3", "autodiff.pool"),
                           ("channel_mix", "autodiff.channel_mix")]:
            fn_span(ad, attr, name)
        conv_span = _span(t, "autodiff.conv2d", ad.conv2d)

        @functools.wraps(conv_span)
        def conv2d(x, weight, *args, **kwargs):
            flop, nbytes, _ = _conv_work(x.shape, weight.shape)
            t.count("conv2d.flop", flop)
            t.count("conv2d.bytes", nbytes)
            return conv_span(x, weight, *args, **kwargs)

        p.rebind(ad.conv2d, conv2d)
        make = ad._make
        vjp_ids = {op: t.name_id(bwd) for op, bwd in _OP_BWD.items()}
        generic_vjp = t.name_id("autodiff.vjp")

        def traced_make(out_data, parents, vjp):
            out = make(out_data, parents, vjp)
            if out._vjp is None:
                return out
            current = t.current()
            nid = vjp_ids.get(current, generic_vjp)
            bwd_flop = bwd_bytes = 0.0
            if current == "autodiff.conv2d":
                flop, nbytes, out_bytes = _conv_work(parents[0].shape, parents[1].shape)
                # The VJP reads g, x and w and writes gx and gw: twice the
                # forward's traffic less one output-sized array.
                bwd_flop, bwd_bytes = 2.0 * flop, 2.0 * nbytes - out_bytes

            def timed_vjp(g, _vjp=vjp):
                i = t.open(nid)
                try:
                    return _vjp(g)
                finally:
                    t.close(i)
                    if bwd_flop:
                        t.count("conv2d.flop", bwd_flop)
                        t.count("conv2d.bytes", bwd_bytes)

            out._vjp = timed_vjp
            return out

        p.set(ad, "_make", traced_make)
        method_span(ad.Tensor, "backward", "autodiff.backward")
        tensor_init = ad.Tensor.__init__

        def counting_init(self, data, requires_grad=False):
            t.tensors += 1
            tensor_init(self, data, requires_grad)

        p.set(ad.Tensor, "__init__", counting_init)

        # flow_core
        method_span(fc.ActNorm, "forward", "flow_core.actnorm")
        method_span(fc.Invertible1x1, "forward", "flow_core.inv1x1")
        method_span(fc.AffineCoupling, "forward", "flow_core.coupling")
        method_span(fc.FlowModel, "forward", "flow_core.forward")
        method_span(fc.FlowModel, "log_prob", "flow_core.log_prob")
        inverse = _span(t, "flow_core.inverse", fc.FlowModel.inverse)

        @functools.wraps(inverse)
        def counted_inverse(model, zs, *args, **kwargs):
            t.count("inverse.rows", len(zs[0]))
            return inverse(model, zs, *args, **kwargs)

        p.set(fc.FlowModel, "inverse", counted_inverse)
        save_ckpt = _span(t, "flow_core.checkpoint.save", fc.save_checkpoint)

        @functools.wraps(save_ckpt)
        def counted_save(model, path):
            save_ckpt(model, path)
            t.count("checkpoint.bytes", Path(path).stat().st_size)

        p.rebind(fc.save_checkpoint, counted_save)
        fn_span(fc, "load_checkpoint", "flow_core.checkpoint.load")

        # search_space, waic
        method_span(ss.Cell, "forward", "search_space.cell")
        fn_span(ss, "relaxed_weights", "search_space.relaxed_weights")
        fn_span(waic, "waic_mc_objective", "waic.mc_objective")
        fn_span(waic, "waic_per_sample", "waic.per_sample")

        # trainer: phases, step latencies, Adam bookkeeping.
        for attr in ("search", "retrain"):
            inner = _span(t, f"trainer.{attr}", getattr(tr, attr))

            def phase(*args, _inner=inner, _phase=attr, **kwargs):
                t.phases.append(_phase)
                t.last_step = None
                try:
                    return _inner(*args, **kwargs)
                finally:
                    t.phases.pop()

            p.rebind(getattr(tr, attr), functools.wraps(inner)(phase))
        adam = _span(t, "trainer.adam", tr.adam_step)

        @functools.wraps(adam)
        def counted_adam(params, grads, state, *args, **kwargs):
            skipped = state.skipped
            adam(params, grads, state, *args, **kwargs)
            now = time.perf_counter()
            ph = t.phases[-1] if t.phases else "other"
            if t.last_step is not None:
                t.sample(f"trainer.{ph}.step_ms", (now - t.last_step) * 1000.0)
                t.count("train.steps")
                t.count("train.tensors", t.tensors - t.last_tensors)
            t.last_step, t.last_tensors = now, t.tensors
            t.count("adam.skipped", state.skipped - skipped)
            t.count("adam.updates", len(params))
            if ph == "retrain":
                for q, g in zip(params, grads):
                    size = q.data.size
                    t.count("params.total", size)
                    if g is not None:
                        t.count("params.reachable", size)

        p.rebind(tr.adam_step, counted_adam)
        fn_span(tr, "clip_gradients", "trainer.clip")

        # ensemble, ood_eval, data, cli
        method_span(ens.EnsembleMember, "log_prob", "ensemble.member_log_prob")
        fn_span(ens, "build_ensemble", "ensemble.build")
        fn_span(ens, "generate_samples", "ensemble.generate")
        fn_span(ens, "save_ensemble", "ensemble.save")
        fn_span(ens, "load_ensemble", "ensemble.load")
        fn_span(ood, "evaluate", "ood_eval.evaluate")
        fn_span(ood, "write_report_files", "ood_eval.write_report")
        for attr in ("read_idx", "load_points_csv"):
            reader = getattr(data, attr)

            def counted_read(path, *args, _reader=reader, **kwargs):
                t.count("data.bytes_read", Path(path).stat().st_size)
                return _reader(path, *args, **kwargs)

            p.rebind(reader, functools.wraps(reader)(counted_read))
        for attr in ("load_data_manifest", "load_idx", "load_points_csv"):
            fn_span(data, attr, "data.load")
        fn_span(data, "dequantize", "data.dequantize")
        for cmd in ("search", "ensemble", "score", "eval", "generate"):
            fn_span(cli, f"cmd_{cmd}", f"cli.{cmd}")
        fn_span(cli, "write_run_manifest", "cli.manifest")

        self.handler = _CountWarnings(tracer)
        self.logger = logging.getLogger("nads.trainer")
        self.logger.addHandler(self.handler)
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.tracer.count("gc.seconds", time.perf_counter() - self._gc_start)
            self.tracer.count("gc.collections")

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self.logger.removeHandler(self.handler)
        self.patches.undo()


# -- per-layer metrics ------------------------------------------------------------------

# (name, unit): the per-layer metrics of a traced run, per traced pass.
PER_LAYER: list[tuple[str, str]] = [
    ("autodiff.conv2d.calls", "count"),
    ("autodiff.conv2d.fwd_ms", "ms"),
    ("autodiff.conv2d.bwd_ms", "ms"),
    ("autodiff.conv2d.gflop", "GFLOP"),
    ("autodiff.conv2d.gbytes", "GB"),
    ("autodiff.conv2d.gflops", "GFLOP/s"),
    ("autodiff.pool.calls", "count"),
    ("autodiff.pool.fwd_ms", "ms"),
    ("autodiff.pool.bwd_ms", "ms"),
    ("autodiff.channel_mix.calls", "count"),
    ("autodiff.channel_mix.fwd_ms", "ms"),
    ("autodiff.channel_mix.bwd_ms", "ms"),
    ("autodiff.vjp.self_ms", "ms"),
    ("autodiff.backward.self_ms", "ms"),
    ("autodiff.tensors_per_step", "count"),
    ("autodiff.gc_ms", "ms"),
    ("autodiff.gc_collections", "count"),
    ("flow_core.actnorm.fwd_ms", "ms"),
    ("flow_core.inv1x1.fwd_ms", "ms"),
    ("flow_core.coupling.self_ms", "ms"),
    ("flow_core.forward.self_ms", "ms"),
    ("flow_core.inverse_ms", "ms"),
    ("flow_core.inverse.rows_per_call", "count"),
    ("flow_core.checkpoint.save_ms", "ms"),
    ("flow_core.checkpoint.load_ms", "ms"),
    ("flow_core.checkpoint.bytes", "B"),
    ("flow_core.params.reachable_share", "fraction"),
    ("search_space.cell.calls", "count"),
    ("search_space.cell.self_ms", "ms"),
    ("search_space.spatial_ops_per_cell", "count"),
    ("search_space.relaxed_weights_ms", "ms"),
    ("waic.mc_objective_ms", "ms"),
    ("waic.per_sample_ms", "ms"),
    ("trainer.search.steps", "count"),
    ("trainer.search.step_ms_p50", "ms"),
    ("trainer.search.step_ms_p90", "ms"),
    ("trainer.retrain.steps", "count"),
    ("trainer.retrain.step_ms_p50", "ms"),
    ("trainer.retrain.step_ms_p90", "ms"),
    ("trainer.adam_ms", "ms"),
    ("trainer.clip_ms", "ms"),
    ("trainer.step.self_ms", "ms"),
    ("trainer.adam.skipped_share", "fraction"),
    ("trainer.warnings", "count"),
    ("ensemble.member_log_prob_ms", "ms"),
    ("ensemble.generate_ms", "ms"),
    ("ensemble.save_ms", "ms"),
    ("ensemble.load_ms", "ms"),
    ("ood_eval.evaluate_ms", "ms"),
    ("ood_eval.write_report_ms", "ms"),
    ("data.load_ms", "ms"),
    ("data.dequantize_ms", "ms"),
    ("data.bytes_read", "B"),
    ("cli.search_s", "s"),
    ("cli.ensemble_s", "s"),
    ("cli.score_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.generate_s", "s"),
    ("cli.manifest_ms", "ms"),
    ("cli.search.steps_per_s", "steps/s"),
    ("cli.retrain.steps_per_s", "steps/s"),
    ("cli.score.samples_per_s", "samples/s"),
    ("cli.generate.samples_per_s", "samples/s"),
    ("trace.pass_ms", "ms"),
    ("trace.uncovered_ms", "ms"),
    ("trace.covered_share", "fraction"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "fraction"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_runs: set[int], untraced: dict) -> dict[str, float]:
    """Per-layer values, each per traced pass.

    `untraced` holds the untraced passes' per-command seconds and work
    (keys `cli.<cmd>_s` and `cli.<rate>`), plus `overhead_s` and
    `overhead_share` from pairing traced and untraced passes of one seed.
    A percentile is 0 when fewer than ten samples lie beyond it.
    """
    n = len(traced_runs)
    s = summarize(tracer, traced_runs)
    c = tracer.counters

    def ms(name, kind="incl"):
        return s.get(name, {}).get(kind, 0.0) * 1000.0 / n

    def calls(name):
        return s.get(name, {}).get("calls", 0) / n

    m: dict[str, float] = {}
    conv_ms = ms("autodiff.conv2d") + ms("autodiff.conv2d.bwd")
    m["autodiff.conv2d.calls"] = calls("autodiff.conv2d")
    m["autodiff.conv2d.fwd_ms"] = ms("autodiff.conv2d")
    m["autodiff.conv2d.bwd_ms"] = ms("autodiff.conv2d.bwd")
    m["autodiff.conv2d.gflop"] = c.get("conv2d.flop", 0.0) / 1e9 / n
    m["autodiff.conv2d.gbytes"] = c.get("conv2d.bytes", 0.0) / 1e9 / n
    m["autodiff.conv2d.gflops"] = _ratio(m["autodiff.conv2d.gflop"], conv_ms / 1000.0)
    m["autodiff.pool.calls"] = calls("autodiff.pool")
    m["autodiff.pool.fwd_ms"] = ms("autodiff.pool")
    m["autodiff.pool.bwd_ms"] = ms("autodiff.pool.bwd")
    m["autodiff.channel_mix.calls"] = calls("autodiff.channel_mix")
    m["autodiff.channel_mix.fwd_ms"] = ms("autodiff.channel_mix")
    m["autodiff.channel_mix.bwd_ms"] = ms("autodiff.channel_mix.bwd")
    m["autodiff.vjp.self_ms"] = ms("autodiff.vjp", "self")
    m["autodiff.backward.self_ms"] = ms("autodiff.backward", "self")
    m["autodiff.tensors_per_step"] = _ratio(c.get("train.tensors", 0.0), c.get("train.steps", 0.0))
    m["autodiff.gc_ms"] = c.get("gc.seconds", 0.0) * 1000.0 / n
    m["autodiff.gc_collections"] = c.get("gc.collections", 0.0) / n
    m["flow_core.actnorm.fwd_ms"] = ms("flow_core.actnorm")
    m["flow_core.inv1x1.fwd_ms"] = ms("flow_core.inv1x1")
    m["flow_core.coupling.self_ms"] = ms("flow_core.coupling", "self")
    m["flow_core.forward.self_ms"] = ms("flow_core.forward", "self")
    m["flow_core.inverse_ms"] = ms("flow_core.inverse")
    m["flow_core.inverse.rows_per_call"] = _ratio(c.get("inverse.rows", 0.0) / n,
                                                  calls("flow_core.inverse"))
    m["flow_core.checkpoint.save_ms"] = ms("flow_core.checkpoint.save")
    m["flow_core.checkpoint.load_ms"] = ms("flow_core.checkpoint.load")
    m["flow_core.checkpoint.bytes"] = c.get("checkpoint.bytes", 0.0) / n
    m["flow_core.params.reachable_share"] = _ratio(c.get("params.reachable", 0.0),
                                                   c.get("params.total", 0.0))
    cell = s.get("search_space.cell", {})
    m["search_space.cell.calls"] = calls("search_space.cell")
    m["search_space.cell.self_ms"] = ms("search_space.cell", "self")
    m["search_space.spatial_ops_per_cell"] = _ratio(cell.get("spatial_children", 0),
                                                    cell.get("calls", 0))
    m["search_space.relaxed_weights_ms"] = ms("search_space.relaxed_weights")
    m["waic.mc_objective_ms"] = ms("waic.mc_objective")
    m["waic.per_sample_ms"] = ms("waic.per_sample")
    for phase in ("search", "retrain"):
        steps = tracer.samples.get(f"trainer.{phase}.step_ms", [])
        m[f"trainer.{phase}.steps"] = len(steps) / n
        m[f"trainer.{phase}.step_ms_p50"] = percentile(steps, 50) if steps else 0.0
        m[f"trainer.{phase}.step_ms_p90"] = tail_percentile(steps, 90) or 0.0
    m["trainer.adam_ms"] = ms("trainer.adam")
    m["trainer.clip_ms"] = ms("trainer.clip")
    m["trainer.step.self_ms"] = ms("trainer.search", "self") + ms("trainer.retrain", "self")
    m["trainer.adam.skipped_share"] = _ratio(c.get("adam.skipped", 0.0), c.get("adam.updates", 0.0))
    m["trainer.warnings"] = c.get("trainer.warnings", 0.0) / n
    m["ensemble.member_log_prob_ms"] = ms("ensemble.member_log_prob")
    m["ensemble.generate_ms"] = ms("ensemble.generate")
    m["ensemble.save_ms"] = ms("ensemble.save")
    m["ensemble.load_ms"] = ms("ensemble.load")
    m["ood_eval.evaluate_ms"] = ms("ood_eval.evaluate")
    m["ood_eval.write_report_ms"] = ms("ood_eval.write_report")
    m["data.load_ms"] = ms("data.load")
    m["data.dequantize_ms"] = ms("data.dequantize")
    m["data.bytes_read"] = c.get("data.bytes_read", 0.0) / n
    m["cli.manifest_ms"] = ms("cli.manifest")
    for key in ("cli.search_s", "cli.ensemble_s", "cli.score_s", "cli.eval_s", "cli.generate_s",
                "cli.search.steps_per_s", "cli.retrain.steps_per_s",
                "cli.score.samples_per_s", "cli.generate.samples_per_s"):
        m[key] = untraced.get(key, 0.0)
    root = s.get(ROOT_SPAN, {"incl": 0.0, "self": 0.0})
    m["trace.pass_ms"] = root["incl"] * 1000.0 / n
    m["trace.uncovered_ms"] = root["self"] * 1000.0 / n
    m["trace.covered_share"] = _ratio(root["incl"] - root["self"], root["incl"])
    m["trace.spans"] = sum(rec["calls"] for rec in s.values()) / n
    m["trace.overhead_s"] = untraced.get("overhead_s", 0.0)
    m["trace.overhead_share"] = untraced.get("overhead_share", 0.0)
    return m
