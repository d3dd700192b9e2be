"""Record a point of the bench trajectory: run.py over several seeds.

    python3 perfbench/baseline.py --label seed --seeds 1-10 --trace-seeds 1-3 \
        --seconds 30 --out perfbench/baselines/BENCH_seed.json

For each workload and metric it stores every value, the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median. Untraced
runs give the end-to-end metrics, traced runs the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS, environment  # noqa: E402


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc = {"label": args.label, "seconds": args.seconds, "env": environment(),
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for wl in args.workloads.split(","):
        entry = doc["workloads"][wl] = {}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            if not seeds:
                continue
            runs = [run_once(wl, s, args.seconds, trace) for s in seeds]
            values: dict[str, list[float]] = {}
            for r in runs:
                for name, m in r["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
            entry["traced" if trace else "untraced"] = {
                "seeds": seeds,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {n: {"unit": units[n], **summarize(v)} for n, v in values.items()},
            }
            for n, v in values.items():
                s = summarize(v)
                print(f"{wl:<14} t{trace} {n:<36} median {s['median']:<12.6g} "
                      f"spread {s.get('spread', 0.0):.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
