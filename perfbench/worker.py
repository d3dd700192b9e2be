"""Benchmark worker: runs inside a fresh process started by `run.py`.

    worker.py prepare <workload> <seed> <dir>   write the seeded inputs
    worker.py setup   <workload> <dir>          import nads.cli, one dry run
    worker.py measure <workload> <seed> <seconds> <trace> <dir>

`measure` is a closed loop with one client: it issues one `nads.cli.main`
command after another, each after the previous one returned, and repeats
the workload's command sequence (a pass) until `seconds` have elapsed.
Untraced, every pass is followed by a set-up probe: a fresh `setup` worker
that imports `nads.cli` and runs one dry run, so the probes are spread
over the whole run rather than taken in one burst.
Pass 0 warms the process up: it is checked but not timed. Passes 0 and 1
share a program seed, so their outputs must match byte for byte; later
passes draw fresh seeds. With tracing on, the passes after pass 0 come in
pairs of one untraced and one traced pass of the same seed, which must
also match and which give the tracing overhead. Results go to
`<dir>/result.json`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TOY_SEARCH_ITERATIONS = 100
TOY_RETRAIN_ITERATIONS = 100
DESK_SEARCH_ITERATIONS = 3
DESK_RETRAIN_ITERATIONS = 10
DESK_TRAIN, DESK_EVAL = 256, 256
DESK_GENERATE = 32
MEMBERS = 3
# Floors on detection quality: criterion 9's bounds for two-moons, and a
# loose floor for blobs against uniform noise, which every seed clears.
TOY_MIN_AUROC, TOY_MAX_FPR = 0.95, 0.25
DESK_MIN_AUROC = 0.9
PROBE_TIMEOUT_S = 60.0
# numpy's BLAS threads keep spinning for about 0.1 s after a call; a probe
# waits until they sleep so that it does not share the CPUs with them.
PROBE_SETTLE_S = 0.25


@dataclass
class Command:
    kind: str  # search | ensemble | score | eval | generate
    argv: list[str]
    steps: int = 0  # optimizer steps the command runs
    samples: int = 0  # samples it scores or generates


def _manifest(path: Path, fmt: str, splits: dict[str, str]) -> None:
    path.write_text(json.dumps({"name": path.parent.name, "format": fmt, "splits": splits}))


def _blobs(rng, n: int):
    """8x8 byte images holding one to three Gaussian blobs plus pixel noise."""
    import numpy as np

    k = 3
    yy, xx = np.mgrid[0:8, 0:8]
    cy, cx = rng.uniform(1.0, 7.0, (2, n, k, 1, 1))
    sigma = rng.uniform(0.8, 2.0, (n, k, 1, 1))
    amp = rng.uniform(100.0, 255.0, (n, k, 1, 1))
    present = np.arange(k)[None, :] < rng.integers(1, k + 1, n)[:, None]
    bumps = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    img = (bumps * present[:, :, None, None]).sum(axis=1) + rng.normal(0.0, 4.0, (n, 8, 8))
    return np.clip(np.rint(img), 0, 255)


def _dry_run(profile: str, d: Path, out: Path) -> list[str]:
    return ["search", "--profile", profile, "--data", str(d / "data.json"),
            "--out-dir", str(out), "--dry-run"]


def _all_finite_csv(path: Path) -> tuple[bool, int]:
    """True when every field below the header is a finite number; row count."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ok = all(math.isfinite(float(v)) for row in rows for v in row)
    return ok, len(rows)


class ToyMoons:
    """The toy2d CLI pipeline on two-moons data with a 4-sigma OoD split."""

    name = "toy-moons"
    train_n, eval_n = 5000, 2000
    repro = ("eval/report.json", "eval/roc.csv", "eval/pr.csv")

    def write_inputs(self, d: Path, seed: int) -> None:
        from nads.data import SyntheticSpec, make_synthetic, save_points_csv
        from nads.seeding import child_seed

        def moons(tag, n):
            return make_synthetic(SyntheticSpec("two_moons", n, child_seed(seed, self.name, tag)))

        train, test = moons("train", self.train_n), moons("test", self.eval_n)
        pts = train.x.reshape(-1, 2)
        mean, std = pts.mean(axis=0), pts.std(axis=0)
        ood = make_synthetic(SyntheticSpec(
            "shifted_gaussian", self.eval_n, child_seed(seed, self.name, "ood"),
            params={"shift": (mean + 4.0 * std).tolist(), "sigma": float(std.mean())}))
        for split, ds in (("train", train), ("test", test), ("ood", ood)):
            save_points_csv(d / f"{split}.csv", ds)
        _manifest(d / "data.json", "csv",
                  {"train": "train.csv", "test": "test.csv", "ood": "ood.csv"})

    def dry_run(self, d: Path, out: Path) -> list[str]:
        return _dry_run("toy2d", d, out)

    def commands(self, d: Path, out: Path, seed: int) -> list[Command]:
        data, ens, s = str(d / "data.json"), str(out / "ensemble" / "ensemble.json"), str(seed)
        common = ["--profile", "toy2d", "--seed", s]
        return [
            Command("search", ["search", *common, "--data", data, "--out-dir", str(out / "search"),
                               "--iterations", str(TOY_SEARCH_ITERATIONS)],
                    steps=TOY_SEARCH_ITERATIONS),
            Command("ensemble", ["ensemble", *common, "--phi", str(out / "search" / "phi.json"),
                                 "--data", data, "--members", str(MEMBERS),
                                 "--iterations", str(TOY_RETRAIN_ITERATIONS),
                                 "--out-dir", str(out / "ensemble")],
                    steps=MEMBERS * TOY_RETRAIN_ITERATIONS),
            Command("score", ["score", *common, "--ensemble", ens, "--data", data,
                              "--split", "test", "--out-dir", str(out / "score_in")],
                    samples=self.eval_n),
            Command("score", ["score", *common, "--ensemble", ens, "--data", data,
                              "--split", "ood", "--out-dir", str(out / "score_out")],
                    samples=self.eval_n),
            Command("eval", ["eval", *common, "--in-report", str(out / "score_in" / "waic_report.csv"),
                             "--out-report", str(out / "score_out" / "waic_report.csv"),
                             "--out-dir", str(out / "eval")]),
            Command("generate", ["generate", *common, "--ensemble", ens, "--count", "8",
                                 "--temperature", "0.7", "--out-dir", str(out / "generate")],
                    samples=8),
        ]

    def check(self, out: Path, checks: "Checks") -> None:
        _check_scores(out, self.eval_n, checks)
        ok, rows = _all_finite_csv(out / "generate" / "samples.csv")
        checks.add("generated samples finite", ok and rows == 8, f"{rows} rows")
        report = json.loads((out / "eval" / "report.json").read_text())
        checks.add("criterion 9 AUROC", report["auroc"] >= TOY_MIN_AUROC, report["auroc"])
        checks.add("criterion 9 FPR@95", report["fpr_at_95_tpr"] <= TOY_MAX_FPR,
                   report["fpr_at_95_tpr"])


def _write_blobs(d: Path, seed: int, name: str, with_ood: bool) -> None:
    from nads.data import save_idx
    from nads.seeding import rng_for

    rng = rng_for(seed, name, "blobs")
    save_idx(d / "train.idx", _blobs(rng, DESK_TRAIN))
    save_idx(d / "test.idx", _blobs(rng, DESK_EVAL))
    _manifest(d / "data.json", "idx", {"train": "train.idx", "test": "test.idx"})
    if with_ood:
        save_idx(d / "ood.idx", rng.integers(0, 256, (DESK_EVAL, 8, 8)))


class DeskSearch:
    """`nads search --profile desk` on blob images: relaxed cells, every op."""

    name = "desk-search"
    repro = ("search/phi.json", "search/trace.csv", "search/architecture.txt",
             "search/theta.nadsflw")

    def write_inputs(self, d: Path, seed: int) -> None:
        _write_blobs(d, seed, self.name, with_ood=False)

    def dry_run(self, d: Path, out: Path) -> list[str]:
        return _dry_run("desk", d, out)

    def commands(self, d: Path, out: Path, seed: int) -> list[Command]:
        return [Command("search", ["search", "--profile", "desk", "--seed", str(seed),
                                   "--data", str(d / "data.json"),
                                   "--iterations", str(DESK_SEARCH_ITERATIONS),
                                   "--out-dir", str(out / "search")],
                        steps=DESK_SEARCH_ITERATIONS)]

    def check(self, out: Path, checks: "Checks") -> None:
        ok, rows = _all_finite_csv(out / "search" / "trace.csv")
        checks.add("search trace finite", ok and rows == DESK_SEARCH_ITERATIONS, f"{rows} rows")
        logits = json.loads((out / "search" / "phi.json").read_text())["logits"]
        checks.add("phi logits finite", all(math.isfinite(v) for row in logits for v in row))


class DeskEnsemble:
    """Retrain, score, evaluate and sample a desk ensemble from a uniform phi."""

    name = "desk-ensemble"
    repro = ("eval/report.json", "eval/roc.csv", "eval/pr.csv")

    def write_inputs(self, d: Path, seed: int) -> None:
        from nads.cli import PROFILES, flow_config_from, save_distribution
        from nads.search_space import ArchDistribution

        _write_blobs(d, seed, self.name, with_ood=True)
        flow = flow_config_from(PROFILES["desk"])
        tau = PROFILES["desk"]["search"]["tau"]["tau0"]
        dist = ArchDistribution.uniform(flow.ops, flow.topology, flow.num_cell_groups(), tau=tau)
        save_distribution(dist, flow, d / "phi.json")

    def dry_run(self, d: Path, out: Path) -> list[str]:
        return _dry_run("desk", d, out)

    def commands(self, d: Path, out: Path, seed: int) -> list[Command]:
        data, ens = str(d / "data.json"), str(out / "ensemble" / "ensemble.json")
        common = ["--profile", "desk", "--seed", str(seed)]
        return [
            Command("ensemble", ["ensemble", *common, "--phi", str(d / "phi.json"), "--data", data,
                                 "--members", str(MEMBERS),
                                 "--iterations", str(DESK_RETRAIN_ITERATIONS),
                                 "--out-dir", str(out / "ensemble")],
                    steps=MEMBERS * DESK_RETRAIN_ITERATIONS),
            Command("score", ["score", *common, "--ensemble", ens, "--data", data,
                              "--split", "test", "--out-dir", str(out / "score_in")],
                    samples=DESK_EVAL),
            Command("score", ["score", *common, "--ensemble", ens, "--data", str(d / "ood.idx"),
                              "--out-dir", str(out / "score_out")],
                    samples=DESK_EVAL),
            Command("eval", ["eval", *common, "--in-report", str(out / "score_in" / "waic_report.csv"),
                             "--out-report", str(out / "score_out" / "waic_report.csv"),
                             "--out-dir", str(out / "eval")]),
            Command("generate", ["generate", *common, "--ensemble", ens,
                                 "--count", str(DESK_GENERATE), "--out-dir", str(out / "generate")],
                    samples=DESK_GENERATE),
        ]

    def check(self, out: Path, checks: "Checks") -> None:
        from nads.data import read_idx

        _check_scores(out, DESK_EVAL, checks)
        shape = read_idx(out / "generate" / "samples.idx").shape
        checks.add("generated samples", shape == (DESK_GENERATE, 8, 8), shape)
        auroc = json.loads((out / "eval" / "report.json").read_text())["auroc"]
        checks.add("blob vs noise AUROC", auroc >= DESK_MIN_AUROC, auroc)


def _check_scores(out: Path, n: int, checks: "Checks") -> None:
    for split in ("score_in", "score_out"):
        ok, rows = _all_finite_csv(out / split / "waic_report.csv")
        checks.add(f"{split} scores finite", ok and rows == n, f"{rows} rows")


WORKLOADS = {w.name: w for w in (ToyMoons(), DeskSearch(), DeskEnsemble())}


class Checks:
    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail=None) -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def run(self, name: str, fn, *args) -> None:
        """Run a check function; a missing or malformed output fails it."""
        before = len(self.items)
        try:
            fn(*args, self)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            del self.items[before:]
            self.add(name, False, repr(exc))


def _import_nads():
    import nads.cli

    src = (ROOT / "src").resolve()
    if src not in Path(nads.cli.__file__).resolve().parents:
        raise SystemExit(f"nads was imported from {nads.cli.__file__}, not from {src}")
    return nads.cli


def setup_probe(name: str, work: Path) -> float:
    """Seconds from starting a fresh `setup` worker until its dry run has
    returned (CLOCK_MONOTONIC is shared by all processes of the machine)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, __file__, "setup", name, str(work)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed: exit {proc.returncode}, output {out!r}")
    return float(words[1]) - t0


def run_command(cli, cmd: Command) -> tuple[int | str, float]:
    """One closed-loop request: returns (exit code or exception name, seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(cmd.argv)
    except Exception as exc:  # a traceback breaks the exit-code contract: count it
        rc = type(exc).__name__
    return rc, time.perf_counter() - t0


def run_pass(cli, wl, inputs: Path, out: Path, seed: int, checks: Checks) -> dict:
    cmds = wl.commands(inputs, out, seed)
    records = []
    t0 = time.perf_counter()
    for cmd in cmds:
        rc, secs = run_command(cli, cmd)
        records.append({"kind": cmd.kind, "seconds": secs, "rc": rc,
                        "steps": cmd.steps, "samples": cmd.samples})
        checks.add(f"{cmd.kind} exits 0", rc == 0, rc)
        if rc != 0:
            break
    seconds = time.perf_counter() - t0
    if all(r["rc"] == 0 for r in records):
        checks.run(f"{wl.name} outputs", wl.check, out)
    return {"seed": seed, "seconds": seconds, "commands": records}


def _same_outputs(wl, a: Path, b: Path, checks: Checks) -> None:
    for rel in wl.repro:
        try:
            same, detail = (a / rel).read_bytes() == (b / rel).read_bytes(), None
        except OSError as exc:
            same, detail = False, exc.strerror
        checks.add(f"same seed reproduces {rel}", same, detail)


def _untraced_summary(passes: list[dict]) -> dict[str, float]:
    """Per-command seconds (median per pass) and phase rates of the passes."""
    out: dict[str, float] = {}
    for kind in ("search", "ensemble", "score", "eval", "generate"):
        per_pass = [sum(c["seconds"] for c in p["commands"] if c["kind"] == kind) for p in passes]
        out[f"cli.{kind}_s"] = statistics.median(per_pass) if per_pass else 0.0
    for key, kind, field in (("cli.search.steps_per_s", "search", "steps"),
                             ("cli.retrain.steps_per_s", "ensemble", "steps"),
                             ("cli.score.samples_per_s", "score", "samples"),
                             ("cli.generate.samples_per_s", "generate", "samples")):
        cmds = [c for p in passes for c in p["commands"] if c["kind"] == kind]
        secs = sum(c["seconds"] for c in cmds)
        out[key] = sum(c[field] for c in cmds) / secs if secs else 0.0
    return out


def measure(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = _import_nads()
    checks = Checks()
    passes: list[dict] = []
    setup_s: list[float] = []
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        root_id = tracer.name_id(tracing.ROOT_SPAN)
    deadline = time.perf_counter() + seconds
    prev: Path | None = None
    k = 0
    # Untraced seeds run 0, 0, 1, 2, ...; traced ones 0, (1, 1), (2, 2), ...
    # where the second pass of each pair is traced.
    while (k < (3 if trace else 2) or time.perf_counter() < deadline
           or (trace and k % 2 == 0)):
        traced = trace and k >= 2 and k % 2 == 0
        pass_seed = seed * 1000 + ((k + 1) // 2 if trace else max(k - 1, 0))
        out = work / f"pass-{k}"
        if traced:
            tracer.run_id = k
            installed = tracing.Installed(tracer)
            root = tracer.open(root_id)
        try:
            rec = run_pass(cli, wl, work / "inputs", out, pass_seed, checks)
        finally:
            if traced:
                tracer.close(root)
                installed.uninstall()
        rec["traced"] = traced
        if passes and passes[-1]["seed"] == pass_seed:
            _same_outputs(wl, prev, out, checks)
        passes.append(rec)
        if prev is not None:
            shutil.rmtree(prev, ignore_errors=True)
        prev = out
        k += 1
        if not trace:
            time.sleep(PROBE_SETTLE_S)
            setup_s.append(setup_probe(wl.name, work))
    shutil.rmtree(prev, ignore_errors=True)

    result = {
        "passes": passes,
        "setup_s": setup_s,
        "checks": checks.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        summary = _untraced_summary([p for p in passes[1:] if not p["traced"]])
        pairs = [(passes[i - 1]["seconds"], passes[i]["seconds"])
                 for i in range(2, len(passes), 2)]
        summary["overhead_s"] = statistics.median(b - a for a, b in pairs)
        summary["overhead_share"] = statistics.median((b - a) / a for a, b in pairs)
        traced_runs = {i for i, p in enumerate(passes) if p["traced"]}
        result["per_layer"] = tracing.per_layer_metrics(tracer, traced_runs, summary)
        tracer.write(work / "spans.json")
    return result


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    wl = WORKLOADS[name]
    if mode == "prepare":
        seed, work = int(argv[2]), Path(argv[3])
        _import_nads()
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        wl.write_inputs(work / "inputs", seed)
        return 0
    if mode == "setup":
        work = Path(argv[2])
        cli = _import_nads()
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(wl.dry_run(work / "inputs", work / "dry-run"))
        print(f"ready {time.monotonic()!r}" if rc == 0 else f"failed {rc}", flush=True)
        return 0 if rc == 0 else 1
    if mode == "measure":
        seed, seconds, trace, work = int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
        result = measure(wl, seed, seconds, trace, work)
        (work / "result.json").write_text(json.dumps(result))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
