"""Property-based tests: NLRNL's cached tenuity rows under graph updates.

``NLRNLIndex.filter_candidates`` answers from per-``(member, k)`` rows
that survive edge updates unless the member's distances changed.
Every filter along a random interleaving of edge inserts, edge
deletes, vertex inserts and filters must equal a filter computed from
fresh BFS distances on the current graph.
"""

import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.core.graph import AttributedGraph
from repro.index._traversal import UNREACHABLE, bfs_distance_array
from repro.index.nlrnl import NLRNLIndex, _insert_affects
from tests.conftest import make_random_attributed_graph


def fresh_filter(graph, candidates, member, k):
    distances = bfs_distance_array(graph.adjacency_view(), member)
    return [
        v
        for v in candidates
        if v != member and (distances[v] == UNREACHABLE or distances[v] > k)
    ]


@st.composite
def graph_and_ops(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=2 * n)
    )
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(min_value=1, max_value=30))
    return AttributedGraph(n, edges), seed, steps


@settings(max_examples=80, deadline=None)
@given(data=graph_and_ops())
def test_filters_match_fresh_bfs_across_updates(data):
    graph, seed, steps = data
    index = NLRNLIndex(graph)
    rng = random.Random(seed)
    for _ in range(steps):
        op = rng.random()
        n = graph.num_vertices
        if op < 0.55:
            member = rng.randrange(n)
            k = rng.randint(0, 4)
            candidates = sorted(rng.sample(range(n), rng.randint(0, n)))
            assert index.filter_candidates(candidates, member, k) == fresh_filter(
                graph, candidates, member, k
            )
        elif op < 0.9:
            u, v = rng.sample(range(n), 2)
            if graph.has_edge(u, v):
                index.delete_edge(u, v)
            else:
                index.insert_edge(u, v)
        else:
            index.insert_vertex()
        assert index.stats.row_bytes == sum(len(row) for row in index._rows.values())
    for member in graph.vertices():
        for k in (1, 2, 3):
            candidates = list(graph.vertices())
            assert index.filter_candidates(candidates, member, k) == fresh_filter(
                graph, candidates, member, k
            )


@settings(max_examples=80, deadline=None)
@given(data=graph_and_ops())
def test_edge_updates_drop_exactly_the_changed_rows(data):
    graph, seed, _ = data
    rng = random.Random(seed)
    everyone = list(graph.vertices())
    u, v = rng.sample(everyone, 2)
    index = NLRNLIndex(graph)
    for member in everyone:
        index.filter_candidates(everyone, member, 2)
    adjacency = graph.adjacency_view()
    before = [bfs_distance_array(adjacency, m) for m in everyone]
    components = graph.connected_components()
    inserting = not graph.has_edge(u, v)
    affected = {a for a in everyone if _insert_affects(before[u][a], before[v][a])}
    if inserting:
        index.insert_edge(u, v)
    else:
        index.delete_edge(u, v)
    after = [bfs_distance_array(adjacency, m) for m in everyone]
    dropped = [m for m in everyone if (m, 2) not in index._rows]
    if graph.connected_components() != components:
        assert dropped == everyone
    else:
        assert dropped == [m for m in everyone if before[m] != after[m]]
        if inserting:
            # The insert rule's affected set bounds every distance change.
            assert set(dropped) <= affected
    builds = index.stats.row_builds
    for member in everyone:
        assert index.filter_candidates(everyone, member, 2) == fresh_filter(
            graph, everyone, member, 2
        )
    assert index.stats.row_builds - builds == len(dropped)


def test_unaffected_rows_survive_a_concrete_insert():
    # Triangle 0-1-2 with a pendant 3: the edge (0, 3) changes only the
    # distance between its own endpoints, so 1's and 2's rows stay.
    graph = AttributedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    index = NLRNLIndex(graph)
    for member in range(4):
        index.filter_candidates([0, 1, 2, 3], member, 1)
    index.insert_edge(0, 3)
    assert sorted(member for member, _ in index._rows) == [1, 2]
    assert index.filter_candidates([0, 1, 2, 3], 0, 1) == []
    assert index.stats.row_hits == 0


def test_delete_keeps_rows_of_affected_but_unchanged_vertices():
    # In the 4-cycle 0-1-5-4, deleting (0, 1) puts 4 and 5 in the
    # delete rule's affected set (their endpoint distances differ by
    # one), yet each keeps a shortest path round the other side.
    graph = AttributedGraph(6, [(0, 1), (1, 5), (5, 4), (4, 0), (2, 3)])
    index = NLRNLIndex(graph)
    for member in range(6):
        index.filter_candidates(list(range(6)), member, 1)
    index.delete_edge(0, 1)
    assert sorted(member for member, _ in index._rows) == [2, 3, 4, 5]
    assert index.filter_candidates(list(range(6)), 0, 1) == [1, 2, 3, 5]


def test_row_cache_stays_within_budget(monkeypatch):
    import repro.index.nlrnl as nlrnl

    graph = AttributedGraph(10, [(i, i + 1) for i in range(9)])
    monkeypatch.setattr(nlrnl, "ROW_CACHE_BYTES", 35)
    index = NLRNLIndex(graph)
    for member in range(10):
        assert index.filter_candidates(list(range(10)), member, 2) == fresh_filter(
            graph, list(range(10)), member, 2
        )
    assert index.stats.row_builds == 10
    assert index.stats.row_evictions == 7
    assert index.stats.row_bytes == 30
    assert list(index._rows) == [(7, 2), (8, 2), (9, 2)]


def test_rows_exact_past_255_hops():
    # Row decoding packs distances into bytes; a 300-vertex path has
    # pairs farther apart than one byte holds.
    graph = AttributedGraph(300, [(i, i + 1) for i in range(299)])
    index = NLRNLIndex(graph)
    everyone = list(range(300))
    for member in (0, 150, 299):
        for k in (2, 254, 255, 256, 280):
            assert index.filter_candidates(everyone, member, k) == fresh_filter(
                graph, everyone, member, k
            )


def test_threads_share_rows_without_double_builds():
    graph = make_random_attributed_graph(num_vertices=40, seed=5)
    index = NLRNLIndex(graph)
    everyone = list(range(40))
    expected = {
        (member, k): fresh_filter(graph, everyone, member, k)
        for member in everyone
        for k in (1, 2)
    }
    barrier = threading.Barrier(6)
    failures = []

    def hammer(slot):
        barrier.wait()
        rng = random.Random(slot)
        for _ in range(400):
            key = rng.choice(list(expected))
            if index.filter_candidates(everyone, *key) != expected[key]:
                failures.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # Builds run under the cache lock and re-check it: one per key.
    assert index.stats.row_builds == len(index._rows)
    assert index.stats.row_bytes == 40 * len(index._rows)
