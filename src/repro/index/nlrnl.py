"""NLRNL index: (c-1)-hop lists + reverse c-hop lists (Section V-B).

For each vertex the paper picks ``c`` — the hop level with the largest
neighbour count — and stores every BFS level *except* level ``c``:

* the **near** lists hold levels ``1..c-1``;
* the **reverse** (far) lists hold levels ``c+1..ecc``.

Skipping the single biggest level is what makes NLRNL smaller than NL
despite covering *all* distances, and covering all distances is what
removes NL's on-demand expansion from the probe path.

Representation note: the two lists are stored jointly as one flat
``neighbour -> depth`` map per vertex (depths ``< c`` are the near list,
depths ``> c`` the reverse list).  The entry count — the unit the
paper's space analysis and Figure 9(a) use — is identical to the
two-list layout, but a probe is a single hash lookup instead of one
membership test per level, which is what lets NLRNL beat NL on probe
latency as reported in Section VII-A.

Two storage rules from the paper are implemented faithfully:

* **Id-halving** — vertex ``v``'s map only contains vertices with id
  greater than ``v``; a probe for the pair ``(u, v)`` always consults
  the smaller id's map ("we only store the hop neighbor whose id is
  greater than the user").
* **Missing-pair convention** — a same-component pair found in no list
  sits at distance exactly ``c``.  The paper leaves the
  "distance == c vs unreachable" ambiguity unaddressed; we disambiguate
  with a per-vertex connected-component id (O(n) extra space), recorded
  as a substitution in DESIGN.md.

k-line filtering reads **tenuity rows**: for a ``(member, k)`` pair the
row is a ``bytes`` of length n with ``row[v] == 1`` iff ``v`` is
tenuous to the member (``row[member] == 0``).  A row is decoded once
from the id-halved maps, the components and the frozen ``c`` values,
and then every filter against that member is one C-level gather and
``compress`` over the candidates instead of a per-candidate
dict-and-branch loop.  Rows are cached up to :data:`ROW_CACHE_BYTES`
(oldest row evicted first).

Dynamic maintenance (edge insert/delete) follows the paper's sketch:
identify the vertices whose BFS distances may have changed using the
old distances from the edge endpoints, then rebuild exactly those
vertices' maps.  ``c`` values are frozen at build time so the
missing-pair convention stays stable across updates.  Rows are
dropped only for vertices whose distances changed, read off the
rebuilt maps (a full rebuild, a new vertex or a change of components
drops them all).
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache
from itertools import compress, islice, repeat
from operator import itemgetter

from repro.core.errors import IndexUpdateError
from repro.core.graph import AttributedGraph
from repro.index._traversal import UNREACHABLE, bfs_distance_array, bfs_levels
from repro.index.base import DistanceOracle
from repro.index.nl import choose_peak_level

__all__ = ["NLRNLIndex", "ROW_CACHE_BYTES"]

#: Byte budget of one index's tenuity-row cache.  Every row of a
#: 1,200-vertex graph at one ``k`` takes 1.4 MB.
ROW_CACHE_BYTES = 4 << 20


class NLRNLIndex(DistanceOracle):
    """(c-1)-hop neighbour lists plus reverse c-hop lists, id-halved.

    Examples
    --------
    >>> g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> idx = NLRNLIndex(g)
    >>> idx.is_tenuous(0, 3, 2)
    True
    >>> idx.is_tenuous(0, 3, 3)
    False
    >>> idx.insert_edge(0, 3)
    >>> idx.is_tenuous(0, 3, 2)
    False
    """

    name = "nlrnl"

    def __init__(self, graph: AttributedGraph) -> None:
        super().__init__(graph)
        # _depth_of[v] maps each neighbour w > v (at any distance except
        # exactly c) to its hop distance.  _c[v] is the skipped level.
        self._depth_of: list[dict[int, int]] = []
        self._c: list[int] = []
        self._component: list[int] = []
        self._reset_rows()
        self.rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        started = time.perf_counter()
        graph = self.graph
        adjacency = graph.adjacency_view()
        n = graph.num_vertices

        depth_of: list[dict[int, int]] = []
        c_values: list[int] = []
        entries = 0
        for vertex in range(n):
            levels = bfs_levels(adjacency, vertex)
            c = choose_peak_level([len(level) for level in levels])
            c_values.append(c)
            vertex_map = self._map_from_levels(vertex, levels, c)
            entries += len(vertex_map)
            depth_of.append(vertex_map)

        self._depth_of = depth_of
        self._c = c_values
        self._component = graph.connected_components()

        self.stats.entries = entries
        self.stats.build_seconds = time.perf_counter() - started
        self._drop_rows(None)
        super().rebuild()

    @staticmethod
    def _map_from_levels(
        vertex: int, levels: list[list[int]], c: int
    ) -> dict[int, int]:
        """Flatten BFS levels into an id-halved neighbour->depth map,
        dropping level ``c`` entirely (the missing-pair convention)."""
        vertex_map: dict[int, int] = {}
        for depth, level in enumerate(levels, start=1):
            if depth == c:
                continue
            for w in level:
                if w > vertex:
                    vertex_map[w] = depth
        return vertex_map

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        self.check_k(k)
        self.stats.probes += 1
        if u == v:
            return False
        if k == 0:
            return True
        # Id-halving: the smaller id owns the pair.
        if u > v:
            u, v = v, u
        depth = self._depth_of[u].get(v)
        if depth is not None:
            self.stats.memo_hits += 1
            return depth > k
        # Not stored: either distance == c (same component) or
        # unreachable (different component, always tenuous).
        self.stats.memo_misses += 1
        if self._component[u] != self._component[v]:
            return True
        return self._c[u] > k

    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        """k-line filtering as one pass over *member*'s tenuity row."""
        self.stats.probes += len(candidates)
        if k == 0:
            return [v for v in candidates if v != member]
        row = self._rows.get((member, k))
        if row is None:
            row = self._row(member, k)
        else:
            self.stats.row_hits += 1
        if len(candidates) < 2:
            # itemgetter returns a bare item, not a tuple, for one key.
            return [v for v in candidates if row[v]]
        return list(compress(candidates, itemgetter(*candidates)(row)))

    def within_k(self, vertex: int, k: int) -> set[int]:
        """All vertices at distance 1..k of *vertex*.

        Id-halving means this cannot be read off one vertex's map; the
        canonical NLRNL usage is pairwise probing.  This method
        reconstructs the set by probing every other vertex and exists
        for API completeness and cross-validation tests.
        """
        self.check_k(k)
        return {
            other
            for other in range(self.graph.num_vertices)
            if other != vertex and not self.is_tenuous(vertex, other, k)
        }

    def distance_class(self, u: int, v: int) -> float:
        """Exact hop distance of the pair (``float('inf')`` if unreachable).

        Decoded purely from index state — used by tests to cross-validate
        against BFS.
        """
        if u == v:
            return 0
        if u > v:
            u, v = v, u
        depth = self._depth_of[u].get(v)
        if depth is not None:
            return depth
        if self._component[u] == self._component[v]:
            return self._c[u]
        return float("inf")

    # ------------------------------------------------------------------
    # Tenuity rows
    # ------------------------------------------------------------------
    def _reset_rows(self) -> None:
        """Start an empty row cache (construction, load, unpickling)."""
        self._rows: dict[tuple[int, int], bytes] = {}
        self._row_lock = threading.Lock()
        self.stats.row_bytes = 0

    def _row(self, member: int, k: int) -> bytes:
        """The cached tenuity row of ``(member, k)``, built on a miss."""
        key = (member, k)
        with self._row_lock:
            row = self._rows.get(key)
            if row is not None:
                self.stats.row_hits += 1
                return row
            row = self._build_row(member, k)
            rows = self._rows
            stats = self.stats
            while rows and stats.row_bytes + len(row) > ROW_CACHE_BYTES:
                # Dicts keep insertion order: the first key is the oldest.
                stats.row_bytes -= len(rows.pop(next(iter(rows))))
                stats.row_evictions += 1
            rows[key] = row
            stats.row_bytes += len(row)
            stats.row_builds += 1
        return row

    def _build_row(self, member: int, k: int) -> bytes:
        """Decode *member*'s row at *k* from the maps, ``c`` and components."""
        c_values = self._c
        depth_of = self._depth_of
        n = len(c_values)
        # Below the member each v owns the pair: its stored depth, or
        # its c when the pair is unstored (the missing-pair convention).
        below = map(
            dict.get, islice(depth_of, member), repeat(member), islice(c_values, member)
        )
        row = bytearray(_tenuity_bytes(below, k))
        row.append(0)
        # Above it the member owns every pair.
        row += bytes((c_values[member] > k,)) * (n - member - 1)
        for w, depth in depth_of[member].items():
            row[w] = depth > k
        # Other components are unreachable, whatever their c says.
        component = self._component
        mine = component[member]
        if component.count(mine) != n:
            for v in compress(range(n), map(mine.__ne__, component)):
                row[v] = 1
        return bytes(row)

    def _drop_rows(self, vertices) -> None:
        """Drop the rows of *vertices* (every row when ``None``)."""
        with self._row_lock:
            if vertices is None:
                self._rows.clear()
                self.stats.row_bytes = 0
                return
            doomed = set(vertices)
            for key in [key for key in self._rows if key[0] in doomed]:
                self.stats.row_bytes -= len(self._rows.pop(key))

    # ------------------------------------------------------------------
    # Pickling (process workers): rows are a per-process cache and the
    # lock is not picklable, so neither is shipped.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_rows"] = {}
        state["_row_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_rows()

    # ------------------------------------------------------------------
    # Dynamic maintenance (Section V-B)
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        return True

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge ``(u, v)`` and update affected vertices' maps.

        A vertex ``a`` can see a distance change from an inserted edge
        ``(x, y)`` only if its old distances to the endpoints differ by
        more than one hop (or it could previously reach only one of
        them): otherwise no shortest path can improve through the new
        edge.  Exactly those vertices' maps are rebuilt.
        """
        graph = self.graph
        old_from_u = bfs_distance_array(graph.adjacency_view(), u)
        old_from_v = bfs_distance_array(graph.adjacency_view(), v)
        graph.add_edge(u, v)
        affected = [
            a
            for a in range(graph.num_vertices)
            if _insert_affects(old_from_u[a], old_from_v[a])
        ]
        self._rebuild_vertices(affected)

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)`` and update affected vertices' maps.

        A shortest path from ``a`` can traverse the edge ``(x, y)`` only
        when ``|dist(a, x) - dist(a, y)| == 1`` (with the edge present
        the difference is never more than one).  Only those vertices can
        lose a shortest path, so only they are rebuilt.
        """
        graph = self.graph
        if not graph.has_edge(u, v):
            raise IndexUpdateError(f"edge ({u}, {v}) does not exist")
        old_from_u = bfs_distance_array(graph.adjacency_view(), u)
        old_from_v = bfs_distance_array(graph.adjacency_view(), v)
        graph.remove_edge(u, v)
        affected = [
            a
            for a in range(graph.num_vertices)
            if old_from_u[a] != UNREACHABLE
            and abs(old_from_u[a] - old_from_v[a]) == 1
        ]
        self._rebuild_vertices(affected)

    def insert_vertex(self, labels=()) -> int:
        """Append an isolated vertex: empty map, fresh singleton component.

        No existing distance changes, so no map is rebuilt; the new
        vertex's own map is the empty one a full build would produce and
        its ``c`` is the empty-profile peak level.
        """
        vertex = self.graph.add_vertex(labels)
        self._depth_of.append({})
        self._c.append(choose_peak_level([]))
        self._component = self.graph.connected_components()
        self._built_version = self.graph.version
        # Every row is one byte short of the new vertex.
        self._drop_rows(None)
        return vertex

    def _rebuild_vertices(self, vertices: list[int]) -> None:
        """Recompute the maps of *vertices* from fresh BFS runs.

        ``c`` values are kept frozen (see module docstring); components
        are recomputed because inserts can merge and deletes can split.

        Rows are dropped only for the vertices whose distances changed.
        A changed pair has both endpoints among *vertices*, so its owner
        (the smaller id) is rebuilt here, and with ``c`` frozen the
        owner's map entry changes exactly when the pair's distance does
        (a pair that becomes or stops being unreachable changes the
        components instead, which drops every row).
        """
        adjacency = self.graph.adjacency_view()
        changed: set[int] = set()
        for vertex in vertices:
            old_map = self._depth_of[vertex]
            levels = bfs_levels(adjacency, vertex)
            vertex_map = self._map_from_levels(vertex, levels, self._c[vertex])
            if vertex_map != old_map:
                changed.add(vertex)
                changed.update(w for w, _ in old_map.items() ^ vertex_map.items())
            self._depth_of[vertex] = vertex_map
            self.stats.entries += len(vertex_map) - len(old_map)
        component = self.graph.connected_components()
        self._drop_rows(changed if component == self._component else None)
        self._component = component
        self._built_version = self.graph.version

    # ------------------------------------------------------------------
    def c_value(self, vertex: int) -> int:
        """The frozen per-vertex ``c`` (peak hop level at build time)."""
        return self._c[vertex]


@lru_cache(maxsize=64)
def _tenuity_table(k: int) -> bytes:
    """``bytes.translate`` table mapping a hop distance d to ``d > k``."""
    return bytes(depth > k for depth in range(256))


def _tenuity_bytes(distances, k: int) -> bytes:
    """``d > k`` for each of *distances*, as 0/1 bytes."""
    values = list(distances)
    try:
        return bytes(values).translate(_tenuity_table(k))
    except ValueError:  # some distance is past 255 hops
        return bytes(depth > k for depth in values)


def _insert_affects(dist_u: int, dist_v: int) -> bool:
    """Whether old endpoint distances imply a possible improvement."""
    if dist_u == UNREACHABLE and dist_v == UNREACHABLE:
        return False
    if dist_u == UNREACHABLE or dist_v == UNREACHABLE:
        return True
    return abs(dist_u - dist_v) > 1
