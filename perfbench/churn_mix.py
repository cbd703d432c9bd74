"""churn-mix: reads beside writes on ``KTGServer(QueryService(graph, mutations=True))``.

One seeded stream interleaves ``/solve`` reads (a Zipf mix over the 24
pinned k=3 read queries) with ``/mutate`` writes at fixed rates, as an
open loop: the write rate is fixed, so faster writes cannot change how
many cache invalidations the reads suffer.  Every write bumps the graph
version, so each pool query misses once again after it; inserts and
deletes run NLRNL incremental maintenance and every write feeds the
epoch delta (at least one snapshot rotation per 64 writes).

Writes come in blocks of :data:`BLOCK`: one delete of a present edge at
a fixed slot followed by :data:`EDITS_AFTER_DELETE` keyword edits,
:data:`INSERTS_PER_BLOCK` inserts of absent edges and keyword edits for
the rest, in seeded order.  No two writes of a run
touch the same edge or the same vertex's keywords, so every write is
valid in whatever order concurrent connections deliver them and the
final graph does not depend on that order.

Checks: reads during the stream must be well-formed exact answers (the
graph moves under them, so their content is checked at the end); after
the stream the server's answers for the whole read pool must equal
those of a fresh in-process ``QueryService`` on a copy of the graph
with the same writes applied, and pass ``validate_ktg_result`` there.
Most k=3 reads on this graph have no feasible group, so the final check
also asks :data:`CHECK_QUERIES` cheap k=2 queries (the cheapest of the
solve-cold pool), whose answers are full top-3 lists.
"""

from __future__ import annotations

import random

import common
import hostspeed
import loadgen
import servers

READ_RATE = 20.0
WRITE_RATE = 5.0
ZIPF_EXPONENT = 0.8
CONNECTIONS = 16
BLOCK = 50
DELETE_SLOT = 25
INSERTS_PER_BLOCK = 10
#: Writes right after a delete are keyword edits (see :func:`write_stream`).
EDITS_AFTER_DELETE = 8
CHECK_QUERIES = 8


def write_stream(graph, delete_band: list[list[int]], count: int, rng: random.Random) -> list[dict]:
    """*count* valid, mutually independent writes; applies them to *graph*."""
    deletes = [tuple(edge) for edge in delete_band]
    rng.shuffle(deletes)
    touched_edges: set[tuple[int, int]] = set()
    edited: set[int] = set()
    writes: list[dict] = []
    kinds: list[str] = []
    while len(kinds) < count:
        edits = BLOCK - 1 - INSERTS_PER_BLOCK - EDITS_AFTER_DELETE
        block = ["insert"] * INSERTS_PER_BLOCK + ["keywords"] * edits
        rng.shuffle(block)
        # Writes queue behind a delete, and so do the reads behind them.
        # Only cheap keyword edits follow it while it runs, so the stall a
        # delete causes is its own cost, not whether an insert (50-100 ms
        # of index repair) happened to be drawn into its shadow.
        block[DELETE_SLOT:DELETE_SLOT] = ["delete"] + ["keywords"] * EDITS_AFTER_DELETE
        kinds.extend(block)
    n = graph.num_vertices
    for kind in kinds[:count]:
        if kind == "delete":
            u, v = deletes.pop()
            touched_edges.add((min(u, v), max(u, v)))
            graph.remove_edge(u, v)
            writes.append({"op": "remove_edge", "u": u, "v": v})
        elif kind == "insert":
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in touched_edges and not graph.has_edge(u, v):
                    break
            touched_edges.add(edge)
            graph.add_edge(u, v)
            writes.append({"op": "add_edge", "u": u, "v": v})
        else:
            while True:
                vertex, donor = rng.randrange(n), rng.randrange(n)
                labels = sorted(graph.keyword_labels(donor))
                if vertex not in edited and labels != sorted(graph.keyword_labels(vertex)):
                    break
            edited.add(vertex)
            graph.set_keywords(vertex, labels)
            writes.append({"op": "set_keywords", "vertex": vertex, "keywords": labels})
    return writes


def _well_formed(entry: dict, body: dict) -> str | None:
    groups = body.get("groups")
    if not isinstance(groups, list) or len(groups) > entry["top_n"]:
        return f"malformed groups {groups!r}"
    coverages = [group["coverage"] for group in groups]
    if coverages != sorted(coverages, reverse=True):
        return f"groups not sorted by coverage: {coverages}"
    if any(len(set(group["members"])) != entry["group_size"] for group in groups):
        return "a group has the wrong number of members"
    return None


def run(seed: int, seconds: int, trace: bool) -> dict:
    from repro.datasets import registry
    from repro.service.service import QueryService

    reference = common.load_reference()
    pool = reference["churn_mix"]["pool"]
    graph, _ = registry.load_dataset(common.PROFILE, scale=common.SCALE)
    common.check_dataset(graph, reference)
    mirror, _ = registry.load_dataset(common.PROFILE, scale=common.SCALE)
    rng = random.Random(seed)
    writes = write_stream(
        mirror, reference["churn_mix"]["delete_band"], round(WRITE_RATE * seconds), rng
    )
    picks = common.zipf_sequence(pool, round(READ_RATE * seconds), ZIPF_EXPONENT, rng)
    schedule = [
        loadgen.Request("POST", "/solve", common.query_payload(pool[pick]), due, pick)
        for pick, due in zip(picks, loadgen.fixed_rate(len(picks), READ_RATE))
    ]
    # Writes are offset by half a read interval so the two streams interleave.
    offset = 0.5 / READ_RATE
    schedule += [
        loadgen.Request("POST", "/mutate", write, due + offset, None)
        for write, due in zip(writes, loadgen.fixed_rate(len(writes), WRITE_RATE))
    ]
    schedule.sort(key=lambda request: request.due)

    tally = servers.Tally()
    common.OUT_DIR.mkdir(exist_ok=True)
    sampler = hostspeed.Sampler(common.OUT_DIR / "hostspeed-churn-mix.json")
    try:
        server, windows = servers.set_up(trace, pool[0], graph, tally)
    except BaseException:
        sampler.kill()
        raise
    solve_pool = reference["solve_cold"]["pool"]
    check_pool = pool + sorted(solve_pool, key=lambda entry: entry["cost"])[:CHECK_QUERIES]
    final_answers = []
    try:
        before = servers.stats(server) if trace else {}
        phase = loadgen.run_schedule(
            "127.0.0.1", server.port, schedule, connections=CONNECTIONS
        )
        after = servers.stats(server) if trace else {}
        for entry in check_pool:
            final_answers.append(
                servers.request(server.port, "POST", "/solve", common.query_payload(entry))
            )
        rss = server.peak_rss_mb()
    finally:
        try:
            problems, report = server.stop()
        finally:
            speed = sampler.stop()
    for problem in problems:
        tally.fail(f"server lifecycle: {problem}")

    # Latencies in reference ms: each scaled by the host speed sampled around it.
    reads, writes_ms, raw_reads = [], [], []
    for position, outcome in enumerate(phase.outcomes):
        label = f"request {position}"
        latency_ms = outcome.latency_ms * speed.scale(outcome.due, outcome.received)
        is_read = outcome.request.path == "/solve"
        if is_read:
            raw_reads.append(outcome.latency_ms)
        if not tally.answer(label, outcome.status, outcome.body, outcome.error):
            (reads if is_read else writes_ms).append(latency_ms)
            continue
        if not is_read:
            writes_ms.append(latency_ms)
            if outcome.body.get("applied") is not True:
                tally.fail(f"{label}: write not applied: {outcome.body}")
            continue
        reads.append(latency_ms)
        problem = _well_formed(pool[outcome.request.tag], outcome.body)
        if problem is not None:
            tally.fail(f"{label}: {problem}")

    with QueryService(mirror) as fresh:
        for index, (entry, (status, body)) in enumerate(zip(check_pool, final_answers)):
            label = f"final check {index}"
            expected = fresh.submit(common.make_query(entry))
            coverage = [group.coverage for group in expected.result.groups]
            if tally.answer(label, status, body):
                tally.check(label, mirror, entry, body, coverage)

    lateness = [outcome.lateness_ms for outcome in phase.outcomes]
    setups = [(end - start) * speed.scale(start, end) for start, end in windows]
    tail = common.tail_fraction(len(reads))
    e2e = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "exact_share": 1.0 - tally.degraded / max(1, tally.answered),
        "p50_ms": common.percentile(reads, 0.50),
        "tail_ms": common.percentile(reads, tail),
    }
    info = {
        "reads": len(reads),
        "writes": len(writes_ms),
        "read_rate_rps": READ_RATE,
        "write_rate_rps": WRITE_RATE,
        "tail_percentile": 100.0 * tail,
        "read_p99_ms": common.percentile(reads, 0.99),
        "raw_p50_ms": common.percentile(raw_reads, 0.50),
        "raw_tail_ms": common.percentile(raw_reads, tail),
        "kernel_median_ms": common.median(speed.kernel_ms),
        "write_p50_ms": common.percentile(writes_ms, 0.50),
        "write_p90_ms": common.percentile(writes_ms, 0.90),
        "write_max_ms": max(writes_ms),
        "generator_late_p50_ms": common.percentile(lateness, 0.50),
        "generator_late_max_ms": max(lateness),
        "setup_samples_s": setups,
    }
    per_layer = None
    if trace:
        per_layer = servers.server_layers(report.get("spans", []), phase, before, after)
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "info": info,
    }
