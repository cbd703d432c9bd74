"""solve-cold: the paper's own measurement, in process, one closed-loop caller.

``QueryService(graph).submit`` answers distinct Table-I queries
(6 keywords, p=3, k=2, N=3), so every request misses the result cache
and the index and solver do nearly all the work.

Inputs.  The 300 pinned pool queries are ranked by the cost (oracle
probes) the seed commit recorded for them and cut into equal strata
(100 strata of 3 at ``--seconds 30``).  A run answers one query from
every stratum; the seed picks which, and the order.  Every seed thus
sees the same spread of easy and heavy-tail queries, and the numbers do
not hang on one query draw.

The measured work is this one stratified pass, not a time window: a
window would cut the pass wherever the heavy tail happened to fall.
The pass holds :data:`QUERIES_PER_SECOND` queries per second of
``--seconds``: 100 at the default 30, enough for p90 to have 10 samples
beyond it.  It takes 25-45 s at the commit that introduced the benchmark.
"""

from __future__ import annotations

import gc
import random
import time

import common
import hostspeed
import layers

#: Size of the measured pass per second of ``--seconds``.
QUERIES_PER_SECOND = 10 / 3


def stratified_sample(pool: list[dict], seed: int, count: int) -> list[int]:
    """One pool index from each of *count* cost strata, in seeded order."""
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i]["cost"], i))
    bounds = [round(i * len(ranked) / count) for i in range(count + 1)]
    strata = [ranked[bounds[i] : bounds[i + 1]] for i in range(count)]
    rng = random.Random(seed)
    sample = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(sample)
    return sample


def _set_up(reference: dict):
    """Dataset, service, first answer: what a user pays before query one."""
    from repro.datasets import registry
    from repro.service.service import QueryService

    before = hostspeed.time_kernel()
    started = time.monotonic()
    graph, _ = registry.load_dataset(common.PROFILE, scale=common.SCALE)
    service = QueryService(graph)
    probe = reference["solve_cold"]["probe"]
    served = service.submit(common.make_query(probe))
    setup_s = time.monotonic() - started
    setup_s *= hostspeed.scale([before, hostspeed.time_kernel()])
    return graph, service, setup_s, served, probe


def run(seed: int, seconds: int, trace: bool) -> dict:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    reference = common.load_reference()
    pool = reference["solve_cold"]["pool"]
    problems: list[str] = []
    setups: list[float] = []
    attempted = failed = degraded = 0
    service = graph = None
    for repeat in range(common.SETUP_REPEATS):
        if service is not None:
            service.close()
            service = graph = None
            gc.collect()
        graph, service, setup_s, served, probe = _set_up(reference)
        setups.append(setup_s)
        attempted += 1
        problem = common.check_answer(
            graph, served.query, served.result, probe["coverage"]
        )
        if problem is not None:
            failed += 1
            problems.append(f"set-up probe {repeat}: {problem}")
    assert graph is not None and service is not None
    common.check_dataset(graph, reference)

    count = max(10, min(len(pool) // 2, round(seconds * QUERIES_PER_SECOND)))
    sample = stratified_sample(pool, seed, count)
    queries = [common.make_query(pool[index]) for index in sample]
    raw: list[float] = []
    kernel_ms: list[float] = []
    answers = []
    started = time.monotonic()
    for position, query in enumerate(queries):
        if tracer is not None:
            tracer.set_request(position)
        kernel_ms.append(hostspeed.time_kernel())
        began = time.monotonic()
        try:
            answers.append(service.submit(query))
        except Exception as exc:  # a failed solve is counted, not fatal
            answers.append(exc)
        raw.append((time.monotonic() - began) * 1000.0)
    kernel_ms.append(hostspeed.time_kernel())
    ended = time.monotonic()
    # Each query in reference ms: scaled by the kernel runs just before and after it.
    latencies = [
        ms * hostspeed.scale(kernel_ms[position : position + 2])
        for position, ms in enumerate(raw)
    ]

    attempted += len(queries)
    nodes = 0
    for index, served in zip(sample, answers):
        if isinstance(served, Exception):
            failed += 1
            problems.append(f"pool query {index}: {type(served).__name__}: {served}")
            continue
        nodes += served.result.stats.nodes_expanded
        if served.degraded:
            degraded += 1
            expected = None
        else:
            expected = pool[index]["coverage"]
        problem = common.check_answer(graph, served.query, served.result, expected)
        if problem is not None:
            failed += 1
            problems.append(f"pool query {index}: {problem}")
    answered = len(queries) - sum(isinstance(a, Exception) for a in answers)
    # Time inside submit: the host-speed kernel runs between queries are not part of it.
    busy = sum(raw) / 1000.0
    tail = common.tail_fraction(len(latencies))
    e2e = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "ok_share": 1.0 - failed / attempted,
        "exact_share": 1.0 - degraded / max(1, answered),
        "p50_ms": common.percentile(latencies, 0.50),
        "tail_ms": common.percentile(latencies, tail),
    }
    info = {
        "queries": len(queries),
        "tail_percentile": 100.0 * tail,
        "solve_max_ms": max(latencies),
        "raw_p50_ms": common.percentile(raw, 0.50),
        "raw_tail_ms": common.percentile(raw, tail),
        "kernel_median_ms": common.median(kernel_ms),
        "solve_qps": len(queries) / busy,
        "measured_s": busy,
        "nodes_expanded": nodes,
        "setup_samples_s": setups,
    }
    per_layer = None
    if tracer is not None:
        spans = tracer.export()
        window = (started, ended)
        roots = {
            span["id"]
            for span in spans
            if span["name"] == "service.submit" and started <= span["start"] < ended
        }
        per_layer = layers.span_metrics(spans, window)
        per_layer.update(layers.attribute(spans, roots, busy, {}))
        per_layer["trace.accounted_s"] = busy
        report = service.instrument_report()
        per_layer["index.entries"] = report["oracle"]["entries"]
        per_layer["service.cache_hit_rate"] = report["cache"]["hit_rate"]
        per_layer.update(layers.kernel_counters(report))
    service.close()
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "info": info,
    }
