"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``):

* ``solve-cold`` — in-process ``QueryService.submit`` on distinct
  Table-I queries: index and solver work;
* ``churn-mix`` — ``KTGServer`` with ``mutations=True`` under reads
  interleaved with writes: server, cache, index maintenance, epochs and
  invalidation.

Every metric is printed on its own line with its unit, followed by the
environment stamp; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run installs
span wrappers and the metrics are the per-layer ones (plus the
end-to-end values measured under tracing, as ``traced.*``, so the
tracing overhead can be read off against an untraced run).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import common

WORKLOADS = ("solve-cold", "churn-mix")

#: End-to-end metrics, in report order, with units.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "exact_share": "ratio",
    "p50_ms": "ms",
    "tail_ms": "ms",
}


def main() -> int:
    parser = argparse.ArgumentParser(description="KTG benchmark: one workload run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    common.require_source()

    workload = importlib.import_module(args.workload.replace("-", "_"))
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        import layers

        metrics = layers.complete(outcome["per_layer"])
        for name, unit in E2E_UNITS.items():
            metrics[f"traced.{name}"] = {"value": outcome["e2e"][name], "unit": unit}
    else:
        metrics = {
            name: {"value": outcome["e2e"][name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    failed = outcome["failed"]
    correct = failed == 0
    stamp = common.environment_stamp(args.workload, args.seed)

    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in outcome["info"].items():
        print(f"info.{name:<23} {value}")
    for name, value in stamp.items():
        print(f"env.{name:<24} {value}")
    for problem in outcome["problems"][:20]:
        print(f"problem: {problem}")
    common.OUT_DIR.mkdir(exist_ok=True)
    result_path = common.OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"env": stamp, "info": outcome["info"], "problems": outcome["problems"],
             "metrics": metrics},
            handle,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
