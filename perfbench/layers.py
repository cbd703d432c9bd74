"""Per-layer metrics and wall-time attribution from a traced run's spans.

Every per-layer metric is reported on every workload (0 where the layer
does no work there), so the traced output always has the same keys.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

#: Layer of each span / hot-call name (see ``tracing.install``).
LAYER_OF = {
    "datasets.load": "datasets",
    "index.build": "index",
    "index.filter": "index",
    "index.tenuous": "index",
    "index.insert_edge": "index",
    "index.delete_edge": "index",
    "solver.solve": "solver",
    "solver.reorder": "solver",
    "service.submit": "service",
    "service.mutate": "service",
    "service.cache_get": "service",
    "epoch.write": "epoch",
    "epoch.rotate": "epoch",
    "csr.build": "csr",
    "server.route": "server",
}

#: Rows of the wall-time attribution, in report order.
SHARES = (
    "generator", "client_queue", "wire", "server", "service", "solver",
    "index", "epoch", "csr", "other",
)

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "datasets.load_s": "s",
    "index.build_s": "s",
    "index.filter_calls": "count",
    "index.filter_ms": "ms",
    "index.tenuous_calls": "count",
    "index.tenuous_ms": "ms",
    "index.insert_edge_ms": "ms",
    "index.delete_edge_ms": "ms",
    "index.entries": "count",
    "solver.solves": "count",
    "solver.solve_self_ms": "ms",
    "solver.reorder_ms": "ms",
    "solver.nodes_expanded": "count",
    "solver.keyword_prunes": "count",
    "solver.kline_removed": "count",
    "solver.feasible_share": "ratio",
    "solver.us_per_node": "us",
    "service.submit_ms": "ms",
    "service.cache_lookup_ms": "ms",
    "service.cache_hit_rate": "ratio",
    "service.queue_wait_ms": "ms",
    "server.self_ms": "ms",
    "server.coalesced_followers": "count",
    "server.solver_runs": "count",
    "server.rejected": "count",
    "epoch.write_ms": "ms",
    "epoch.rotations": "count",
    "epoch.rotation_ms": "ms",
    "epoch.lease_waits": "count",
    "epoch.delta_depth": "count",
    "csr.builds": "count",
    "csr.bytes": "bytes",
    "kernels.ball_builds": "count",
    "kernels.ball_hits": "count",
    "kernels.node_batches": "count",
    **{f"share.{row}": "ratio" for row in SHARES},
    "trace.accounted_s": "s",
}


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _descendants(spans: list[dict], roots: set[int]) -> list[dict]:
    """Spans whose ancestor chain reaches one of *roots* (roots included)."""
    parent_of = {span["id"]: span["parent"] for span in spans}
    memo: dict[int, bool] = {}

    def reaches(span_id: Optional[int]) -> bool:
        chain = []
        found = False
        while span_id is not None:
            if span_id in memo:
                found = memo[span_id]
                break
            if span_id in roots:
                found = True
                break
            chain.append(span_id)
            span_id = parent_of.get(span_id)
        for visited in chain:
            memo[visited] = found
        return found

    return [span for span in spans if span["id"] in roots or reaches(span["id"])]


def attribute(
    spans: list[dict],
    roots: set[int],
    accounted_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Share of *accounted_s* spent in each layer.

    Self times of the spans under *roots* (hot calls included) are summed
    per layer; *extra* adds layers measured outside the process under
    test (generator lag, client-side queueing, wire).  Whatever is left
    is ``other``.
    """
    totals: dict[str, float] = defaultdict(float)
    for span in _descendants(spans, roots):
        self_s = span["self_s"]
        if self_s is None:  # a request span: self time is computed by the caller
            continue
        totals[LAYER_OF[span["name"]]] += self_s
        for name, (_, duration) in span["hot"].items():
            totals[LAYER_OF[name]] += duration
    for layer, seconds in extra.items():
        totals[layer] += seconds
    shares = {f"share.{row}": 0.0 for row in SHARES}
    if accounted_s <= 0:
        return shares
    for layer, seconds in totals.items():
        key = f"share.{layer}" if f"share.{layer}" in shares else "share.other"
        shares[key] += seconds / accounted_s
    other = shares["share.other"] + 1.0 - sum(shares.values())
    # Float rounding of a sum that covers everything is not a finding.
    shares["share.other"] = 0.0 if abs(other) < 1e-9 else other
    return shares


def span_metrics(spans: list[dict], window: tuple[float, float]) -> dict[str, float]:
    """Per-call means and per-solve counts over spans starting in *window*.

    Set-up spans (``datasets.load``, ``index.build``) are averaged over
    the whole trace instead: they happen before the window.
    """
    every: dict[str, list[dict]] = defaultdict(list)
    inside: dict[str, list[dict]] = defaultdict(list)
    hot: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        every[span["name"]].append(span)
        if window[0] <= span["start"] < window[1]:
            inside[span["name"]].append(span)
            for name, (calls, duration) in span["hot"].items():
                hot[name][0] += calls
                hot[name][1] += duration

    def mean_ms(name: str, source=inside) -> float:
        """Mean duration of the *name* spans, in ms."""
        found = source[name]
        return _mean(sum(span["end"] - span["start"] for span in found) * 1000.0, len(found))

    def total(found: list[dict], key: str) -> float:
        return sum(span["attrs"].get(key, 0) for span in found)

    solves = inside["solver.solve"]
    n_solves = len(solves)
    nodes = total(solves, "nodes")
    solve_ms = {span["parent"]: 0.0 for span in solves}
    for span in solves:
        solve_ms[span["parent"]] += (span["end"] - span["start"]) * 1000.0
    submits = inside["service.submit"]
    queue_wait = [
        (span["end"] - span["start"]) * 1000.0 - solve_ms.get(span["id"], 0.0)
        for span in submits
    ]
    writes = inside["epoch.write"]
    return {
        "datasets.load_s": mean_ms("datasets.load", every) / 1000.0,
        "index.build_s": mean_ms("index.build", every) / 1000.0,
        "index.filter_calls": _mean(hot["index.filter"][0], n_solves),
        "index.filter_ms": _mean(hot["index.filter"][1] * 1000.0, n_solves),
        "index.tenuous_calls": _mean(hot["index.tenuous"][0], n_solves),
        "index.tenuous_ms": _mean(hot["index.tenuous"][1] * 1000.0, n_solves),
        "index.insert_edge_ms": mean_ms("index.insert_edge"),
        "index.delete_edge_ms": mean_ms("index.delete_edge"),
        "solver.solves": float(n_solves),
        "solver.solve_self_ms": _mean(sum(span["self_s"] for span in solves) * 1000.0, n_solves),
        "solver.reorder_ms": _mean(hot["solver.reorder"][1] * 1000.0, n_solves),
        "solver.nodes_expanded": _mean(nodes, n_solves),
        "solver.keyword_prunes": _mean(total(solves, "keyword_prunes"), n_solves),
        "solver.kline_removed": _mean(total(solves, "kline_removed"), n_solves),
        "solver.feasible_share": _mean(total(solves, "feasible"), nodes),
        "solver.us_per_node": _mean(sum(solve_ms.values()) * 1000.0, nodes),
        "service.submit_ms": mean_ms("service.submit"),
        "service.cache_lookup_ms": _mean(
            hot["service.cache_get"][1] * 1000.0, hot["service.cache_get"][0]
        ),
        "service.queue_wait_ms": _mean(sum(queue_wait), len(queue_wait)),
        "epoch.write_ms": _mean(sum(span["self_s"] for span in writes) * 1000.0, len(writes)),
        "epoch.rotation_ms": mean_ms("epoch.rotate"),
        "csr.builds": float(len(inside["csr.build"])),
        "csr.bytes": total(inside["csr.build"], "bytes"),
    }


def kernel_counters(report: dict) -> dict[str, float]:
    """``kernels.*`` from an ``instrument_report()`` (0 without a kernel)."""
    kernel = report.get("kernel", {})
    return {
        "kernels.ball_builds": float(kernel.get("ball_builds", 0)),
        "kernels.ball_hits": float(kernel.get("ball_hits", 0)),
        "kernels.node_batches": float(kernel.get("node_batches", 0)),
    }


def complete(metrics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, in order, with its unit (0 when absent)."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in UNITS.items()
    }
