"""VKC orderings sort through cached per-vertex key tables.

``VKCOrdering.reorder`` and ``VKCDegreeOrdering.reorder`` look their sort
keys up in a table built once per ``(context, covered_mask)``.  The
reference sorts below are the per-candidate lambda sorts the tables
replaced; every reorder must equal them, ties included (``sorted`` is
stable, so equal keys keep their incoming order).
"""

import pickle
import sys
import threading
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.query import KTGQuery
from repro.core.strategies import VKCDegreeOrdering, VKCOrdering
from repro.index.nlrnl import NLRNLIndex
from tests.conftest import make_random_attributed_graph


def reference_vkc(candidates, covered_mask, masks):
    uncovered = ~covered_mask
    return sorted(candidates, key=lambda v: -(masks[v] & uncovered).bit_count())


def reference_vkc_deg(candidates, covered_mask, masks, degrees, sign):
    uncovered = ~covered_mask
    return sorted(
        candidates,
        key=lambda v: -((masks[v] & uncovered).bit_count() << 32) + sign * degrees[v],
    )


@st.composite
def ordering_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    bits = draw(st.integers(min_value=1, max_value=8))
    masks = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n))
    # A narrow degree range forces duplicate keys, so stability shows.
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # which of two contexts
                st.integers(0, (1 << bits) - 1),  # covered mask
                st.lists(st.integers(0, n - 1), max_size=n),  # candidates
            ),
            min_size=1,
            max_size=12,
        )
    )
    return masks, degrees, calls


@settings(max_examples=150, deadline=None)
@given(case=ordering_cases(), degree_order=st.sampled_from(["ascending", "descending"]))
def test_reorder_equals_reference_lambda_sorts(case, degree_order):
    masks, degrees, calls = case
    # Two contexts over the same vertices: the second reverses the
    # masks, so a table served for the wrong context would show.
    contexts = [SimpleNamespace(masks=masks), SimpleNamespace(masks=masks[::-1])]
    vkc = VKCOrdering()
    vkc_deg = VKCDegreeOrdering(degrees, degree_order=degree_order)
    sign = 1 if degree_order == "ascending" else -1
    for which, covered, candidates in calls:
        context = contexts[which]
        assert vkc.reorder(candidates, covered, context) == reference_vkc(
            candidates, covered, context.masks
        )
        assert vkc_deg.reorder(candidates, covered, context) == reference_vkc_deg(
            candidates, covered, context.masks, degrees, sign
        )
        assert vkc_deg.initial_order(candidates, context) == reference_vkc_deg(
            candidates, 0, context.masks, degrees, sign
        )


def test_tables_are_built_once_per_context_and_mask():
    masks = [0b01, 0b10, 0b11, 0]
    context = SimpleNamespace(masks=masks)
    strategy = VKCDegreeOrdering([3, 1, 2, 0])
    first = strategy._key_table(0b01, context)
    assert strategy._key_table(0b01, context) is first
    assert strategy._key_table(0b10, context) is not first
    other = SimpleNamespace(masks=masks)
    assert strategy._key_table(0b01, other) is not first
    clone = pickle.loads(pickle.dumps(strategy))
    assert clone._tables[0] is None
    assert clone.reorder([0, 1, 2, 3], 0b01, context) == strategy.reorder(
        [0, 1, 2, 3], 0b01, context
    )


def test_shared_strategy_solves_two_queries_at_once():
    graph = make_random_attributed_graph(num_vertices=60, seed=11)
    oracle = NLRNLIndex(graph)
    queries = [
        KTGQuery(keywords=("kw000", "kw001", "kw002"), group_size=3, tenuity=1, top_n=3),
        KTGQuery(keywords=("kw003", "kw004", "kw005", "kw006"), group_size=3, tenuity=2, top_n=3),
    ]

    def run(query, strategy):
        solver = BranchAndBoundSolver(graph, oracle=oracle, strategy=strategy)
        result = solver.solve(query)
        return [g.members for g in result.groups], result.stats.nodes_expanded

    expected = [run(q, VKCDegreeOrdering(graph.degrees())) for q in queries]
    assert all(groups for groups, _ in expected)
    shared = VKCDegreeOrdering(graph.degrees())
    barrier = threading.Barrier(4)
    failures = []

    def hammer(slot):
        barrier.wait()
        for round_ in range(25):
            which = (slot + round_) % 2
            got = run(queries[which], shared)
            if got != expected[which]:
                failures.append((slot, round_, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
