"""Benchmark runner for nads (standard library only).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the program is imported from
`src/`. Each workload runs in fresh worker processes, one at a time:

1. a `prepare` worker writes the workload's inputs from `--seed`;
2. a `measure` worker runs the closed command loop for `--seconds`.
   Untraced, it starts a `setup` probe after every pass: a fresh process
   that imports `nads.cli` and runs one `nads search --dry-run` on the
   inputs. `setup_s` is the median wall time of the probes, measured from
   process start until the dry run returns.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` count the correctness checks, and `metrics` holds
the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
traced run (`--trace 1`). The lines before it print every metric by name
with its unit, the checks, and an environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("toy-moons", "desk-search", "desk-ensemble")
TIME_LIMIT_S = 170.0  # every run must end within 180 s
MAX_SECONDS = 120  # leaves TIME_LIMIT_S - MAX_SECONDS for prepare and the last pass
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit): the end-to-end metrics of an untraced run.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout at ROOT; None without git or outside a git
    checkout (an enclosing repository of another directory does not count)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
    }


def _loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def _worker(args: list[str], log: Path, deadline: float) -> None:
    """Run one worker to completion, output to `log`; raise on failure.
    The worker leads its own process group, so a kill also ends its probes."""
    with open(log, "a") as fh:
        proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran past the time limit") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if rc != 0:
        raise BenchError(f"worker {args[0]} exited {rc}")


def end_to_end(result: dict) -> dict[str, float]:
    """Medians over the timed passes and the set-up probes; pass 0 warms
    the process up and only counts toward the checks."""
    passes = result["passes"][1:]

    def train_rate(p):
        train = [c for c in p["commands"] if c["kind"] in ("search", "ensemble")]
        return sum(c["steps"] for c in train) / sum(c["seconds"] for c in train)

    return {
        "setup_s": statistics.median(result["setup_s"]),
        "pipeline_s": statistics.median(p["seconds"] for p in passes),
        "train_steps_per_s": statistics.median(train_rate(p) for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "worker.log"
    load_before = _loadavg()
    try:
        _worker(["prepare", name, str(seed), str(work)], log, deadline)
        _worker(["measure", name, str(seed), str(seconds), "1" if trace else "0", str(work)],
                log, deadline)
        result = json.loads((work / "result.json").read_text())
        if trace:
            shutil.copyfile(work / "spans.json", work.parent / f"spans-{name}.json")
    except (BenchError, OSError, ValueError) as exc:
        tail = (_read(str(log)) or "")[-4000:]
        raise BenchError(f"{name}: {exc}\n--- worker log tail ---\n{tail}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    env["loadavg_before"], env["loadavg_after"] = load_before, _loadavg()
    env["wall_s"] = time.monotonic() - started
    checks = result["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    if trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in tracer.PER_LAYER}
    else:
        values = end_to_end(result)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "passes": len(result["passes"]),
        "setup_probes": result["setup_s"],
        "env": env,
    }


def report_lines(run: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, then the checks."""
    lines = [f"== {run['workload']}: {run['passes']} passes"]
    if run["setup_probes"]:
        lines.append("  set-up probes (s): " + " ".join(f"{x:.4f}" for x in run["setup_probes"]))
    for name, m in run["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    share = run["failed"] / run["attempted"]
    lines.append(f"  checks: {run['attempted']} attempted, {run['failed']} failed "
                 f"(fail_share {share:.4f})")
    for c in run["checks"]:
        if not c["ok"]:
            lines.append(f"  FAILED {c['name']}: {c['detail']}")
    lines.append("  env " + json.dumps(run["env"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]: a run, with its set-up "
                     f"probes and last pass, must end within {TIME_LIMIT_S:g} s")
    if not (ROOT / "src" / "nads" / "cli.py").is_file():
        print(f"error: no nads sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(run)), flush=True)
            runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in runs for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
