"""Run a workload on several seeds and report each metric's spread.

    python3 bench/prove.py --workload NAME [--seeds 1-10] [--seconds 20] [--trace 0|1]
                           [--save FILE]

Runs bench/run.py once per seed, one run at a time, and prints each run's
wall time and, for every metric, its median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median.  With ``--save`` the per-seed results and the summary are
written as JSON; for traced runs they include the call counts of each
input's op.
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


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values),
            "max": max(values),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        if args.trace:
            record = HERE / "out" / f"{args.workload}-seed{seed}-trace1.json"
            result["calls_per_op_by_input"] = json.loads(record.read_text())["calls_per_op_by_input"]
        runs.append(result)
        shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({wall:.1f} s): correct {result['correct']}, failed {result['failed']}"
              f"/{result['attempted']}; {shown}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g} {s['unit']:9s} spread {s['spread']:.4f} "
              f"[{s['min']:.6g} .. {s['max']:.6g}]")
    if args.save:
        Path(args.save).write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "runs": runs, "summary": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
