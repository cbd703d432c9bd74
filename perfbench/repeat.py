"""Run one workload over several seeds and summarise the spread.

Usage, from the repository root::

    python3 perfbench/repeat.py --workload churn-mix --seeds 1-10 [--seconds 30] [--trace 0] [--out FILE]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--out`` also writes
every run's metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
        summary[name] = {
            "median": middle,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        started = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(common.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=str(common.ROOT),
            timeout=600,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout + completed.stderr)
            return 1
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["env"] = dict(
            line[len("env."):].split(None, 1) for line in lines if line.startswith("env.")
        )
        result["wall_s"] = time.monotonic() - started
        runs.append(result)
        print(
            f"seed {seed}: {result['wall_s']:.1f} s correct={result['correct']} "
            + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                       if not k.startswith(("share.", "kernels.")))[:400],
            flush=True,
        )
    summary = summarise(runs)
    for name, row in summary.items():
        print(
            f"{name:<28} median {row['median']:>12.6g} {row['unit']:<6} "
            f"q1 {row['q1']:>12.6g} q3 {row['q3']:>12.6g} spread {row['spread']:.3f}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary},
                      handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
