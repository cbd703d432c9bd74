"""Frontier-at-a-time twins of the branch-and-bound expansion primitives.

At every interior node the scalar solver walks the ordered candidate
frontier ``S_R`` one vertex at a time: per-candidate VKC popcounts feed
a ``sorted`` call, per-candidate big-int arithmetic feeds the Theorem 3
k-line filter, and the Theorem 2 bound re-reads the list head.  On the
numpy backend this module batches all three over the whole frontier:

* **batched scoring / re-sort** — a node family's candidate ids index
  one shared ``(num_vertices, mask_bytes)`` uint8 mask matrix
  (:meth:`repro.core.coverage.CoverageContext.packed_masks`); a row-wise
  ``AND`` against the uncovered-keyword row plus a vectorized popcount
  yields every VKC gain in one sweep, and the VKC / VKC-DEG orderings
  become a single stable ``np.lexsort``;
* **bulk k-line elimination** — the chosen member's ball is read as a
  byte array (:meth:`repro.kernels.engine.BallBitsetEngine.ball_bytes`,
  a zero-copy view over the engine's cached ball storage) and one
  gather-shift-mask pass computes the keep-vector for the entire tail,
  replacing the per-node big-int threading;
* **vectorized admissible bounds** — the sorted node's gains are reused
  for the Theorem 2 head sum; for the union bound a single reversed
  ``np.bitwise_or.accumulate`` (a prefix-OR over the sorted mask rows)
  precomputes the "remaining coverage" row of *every* tail child in one
  sweep;
* **candidate-array pooling** — sibling nodes slice the parent's id /
  gain / row arrays (numpy views) instead of rebuilding python lists;
  only an actual elimination compresses.

Bit-identity argument (the property suite asserts it end to end):

* *scoring*: the matrix rows are the little-endian bytes of the same
  ints the scalar path reads from ``CoverageContext.masks``, so the
  row-wise popcount equals ``(masks[v] & uncovered).bit_count()``
  exactly.
* *ordering*: python's ``sorted`` and ``np.lexsort`` are both stable;
  identical keys therefore produce the identical permutation.  The
  scalar VKC-DEG composite key ``-(gain << 32) + sign*degree`` orders
  exactly like the lexicographic pair ``(-gain, sign*degree)`` because
  ``|sign*degree| < 2**31``; the lexsort uses that pair.
* *bounds*: the batched Theorem 2 bound sums the same integer gains
  (``np.partition`` selects the same top-``slots`` multiset as
  ``heapq.nlargest``) and runs the same float division via
  :func:`repro.core.pruning.bound_from_vkc_sum`; the union bound ORs
  the same mask ints, so both the bound values and the keyword/union
  rule attribution match.
* *elimination*: bit ``v`` of ``ball_bytes(member, k)`` equals bit
  ``v`` of ``ball(member, k)``, so the keep-vector reproduces the
  scalar ``candidates_mask & ~(ball | 1 << member)`` membership (the
  member itself never sits in its own tail), and ``keep.sum()`` equals
  the scalar survivor popcount.

The solver enables a :class:`SolveBatch` per coverage context when its
kernel resolved to the numpy backend and the strategy opted in via
``batch_sort_spec``; frontiers below :data:`BATCH_MIN_CANDIDATES` fall
back to the scalar path node-by-node (legal precisely because both
paths are bit-identical).  Counters: ``kernels.node_batches`` (frontier
stacked into arrays), ``kernels.batched_scores`` (vectorized score
sweeps) and ``kernels.bulk_eliminations`` (vectorized k-line passes,
which also advance ``kernels.mask_filters`` one-for-one with the scalar
engine).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional

from repro.core.pruning import bound_from_vkc_sum
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.kernels import vec

if TYPE_CHECKING:
    from repro.core.branch_and_bound import BranchAndBoundSolver
    from repro.core.coverage import CoverageContext
    from repro.kernels.engine import BallBitsetEngine

__all__ = ["NodeBatch", "SolveBatch", "BATCH_MIN_CANDIDATES"]

#: Frontiers narrower than this run the scalar path: below a few dozen
#: candidates the fixed numpy dispatch overhead outweighs the sweep.
#: Tests shrink it to force tiny property-test graphs through the
#: batched path.
BATCH_MIN_CANDIDATES = 16

#: The built-in scalar sorts each ``batch_sort_spec`` kind must
#: replicate; a subclass overriding any sort hook falls back to scalar.
_SPEC_BASES = {"qkc": QKCOrdering, "vkc": VKCOrdering, "vkc-deg": VKCDegreeOrdering}
_SORT_HOOKS = ("initial_order", "reorder", "_key_table", "_base_keys")


class NodeBatch:
    """One node family's candidate frontier as packed arrays.

    ``ids`` (int64) mirrors the scalar ``remaining`` list order exactly.
    ``gains`` caches the VKC gains against the node's covered mask
    (present whenever they are known-valid: after a scoring sweep, or
    sliced from a parent whose covered mask the child shares).  ``rows``
    caches the gathered mask-matrix rows; ``byte_idx`` / ``bit_mask``
    the per-candidate ball-byte coordinates; ``suffix_union`` the
    prefix-OR table serving every tail child's union bound;
    ``union_row`` this node's own precomputed union row (inherited from
    the parent's suffix table when the candidate set is a pure tail).
    All derived arrays are lazy and propagate to children as views.
    """

    __slots__ = (
        "ids",
        "gains",
        "rows",
        "byte_idx",
        "bit_mask",
        "suffix_union",
        "union_row",
    )

    def __init__(
        self,
        ids: Any,
        gains: Any = None,
        rows: Any = None,
        union_row: Any = None,
    ) -> None:
        self.ids = ids
        self.gains = gains
        self.rows = rows
        self.byte_idx: Any = None
        self.bit_mask: Any = None
        self.suffix_union: Any = None
        self.union_row = union_row

    def __len__(self) -> int:
        return int(self.ids.shape[0])


class SolveBatch:
    """Batched expansion primitives bound to one solver + coverage context.

    Built via :meth:`for_solver` (``None`` when the configuration cannot
    batch); owned by a single solver clone, so its small mutable caches
    need no locking — only counter flushes hop through the kernel lock.
    """

    def __init__(
        self,
        kernel: "BallBitsetEngine",
        spec: tuple,
        context: "CoverageContext",
        use_union_bound: bool,
    ) -> None:
        np = vec.numpy_or_none()
        assert np is not None  # guarded by for_solver
        self._np = np
        self.kernel = kernel
        self.context = context
        self.min_candidates = BATCH_MIN_CANDIDATES
        self.mask_bytes = (context.query_size + 7) >> 3
        # Narrow fast path: queries of <= 64 keywords fit one machine
        # word, so every mask row collapses to a single uint64 — scoring
        # becomes ``bitwise_count(rows & uncovered)`` with no per-row
        # byte axis to reduce over.  The uint64 view of the little-endian
        # byte matrix IS the mask value only on little-endian hosts; the
        # byte-matrix path stays as the general (and big-endian) route.
        self._narrow = (
            self.mask_bytes <= 8
            and sys.byteorder == "little"
            and hasattr(np, "bitwise_count")
        )
        if self._narrow:
            packed = np.ascontiguousarray(context.packed_masks(8))
            self.matrix = packed.view(np.uint64).ravel()
        else:
            self.matrix = context.packed_masks(self.mask_bytes)
        self.ball_nbytes = (len(context.masks) + 7) >> 3
        kind, sign, degrees = spec
        self.kind = kind
        self._deg_keys = (
            np.asarray(degrees, dtype=np.int64) * sign if degrees is not None else None
        )
        self._use_union = use_union_bound
        self._uncovered_for = -1
        self._uncovered_row: Any = None

    @classmethod
    def for_solver(
        cls, solver: "BranchAndBoundSolver", context: "CoverageContext"
    ) -> Optional["SolveBatch"]:
        """The batch engine for *solver* on *context*, or ``None``.

        Batching needs the bitset kernel on its numpy backend and a
        strategy whose ordering the lexsort twin provably replicates
        (one of the built-ins, with neither ordering hook overridden).
        """
        kernel = solver.kernel
        if kernel is None or kernel.backend != "numpy":
            return None
        if vec.numpy_or_none() is None:  # pragma: no cover - numpy backend implies numpy
            return None
        strategy = solver.strategy
        spec = strategy.batch_sort_spec()
        if spec is None:
            return None
        base = _SPEC_BASES.get(spec[0])
        cls_of = type(strategy)
        if base is None or any(
            getattr(cls_of, hook, None) is not getattr(base, hook, None)
            for hook in _SORT_HOOKS
        ):
            return None
        return cls(kernel, spec, context, solver.use_union_bound)

    # ------------------------------------------------------------------
    # Node construction and pooling
    # ------------------------------------------------------------------
    def make_node(self, remaining: list, covered_mask: int) -> NodeBatch:
        """Stack a scalar candidate list into a :class:`NodeBatch`.

        For re-sorting strategies the entry gains are scored immediately
        (the list arrives sorted under *covered_mask*, so the gain array
        is descending — the Theorem 2 head sum reads it directly)."""
        np = self._np
        ids = np.fromiter(remaining, dtype=np.int64, count=len(remaining))
        node = NodeBatch(ids)
        scores = 0
        if self.kind != "qkc":
            node.rows = self.matrix[ids]
            node.gains = self._popcount(node.rows & self._uncov(covered_mask))
            scores = 1
        self.kernel.note_batch(nodes=1, scores=scores)
        return node

    def child_tail(self, node: NodeBatch, position: int, same_mask: bool) -> NodeBatch:
        """The child frontier ``remaining[position+1:]`` as array views.

        *same_mask* says the child's covered mask equals the parent's;
        only then do the parent's gains stay valid for the child."""
        tail = slice(position + 1, None)
        child = NodeBatch(
            node.ids[tail],
            node.gains[tail] if (same_mask and node.gains is not None) else None,
            node.rows[tail] if node.rows is not None else None,
        )
        if node.byte_idx is not None:
            child.byte_idx = node.byte_idx[tail]
            child.bit_mask = node.bit_mask[tail]
        if self._use_union:
            # A pure tail's union row comes off the parent's prefix-OR
            # table — mask-set algebra, independent of the covered mask.
            child.union_row = self._tail_union(node, position)
        return child

    def child_after_elimination(
        self, node: NodeBatch, position: int, keep: Any, same_mask: bool
    ) -> NodeBatch:
        """Compress the tail by the elimination keep-vector.

        Returns only the packed child; the caller materialises the
        scalar candidate list via ``child.ids.tolist()`` — and only when
        no reorder follows, since a reorder hands back the (permuted)
        list itself and the pre-reorder list would be dead work."""
        tail = slice(position + 1, None)
        ids = node.ids[tail][keep]
        return NodeBatch(
            ids,
            node.gains[tail][keep] if (same_mask and node.gains is not None) else None,
            node.rows[tail][keep] if node.rows is not None else None,
        )

    # ------------------------------------------------------------------
    # Batched scoring and ordering
    # ------------------------------------------------------------------
    def reorder(self, node: NodeBatch, covered_mask: int) -> tuple[list[int], NodeBatch]:
        """Score and stably sort the frontier for a new covered mask.

        One sweep computes every gain; ``np.lexsort`` (stable, like
        python's ``sorted``) applies the strategy's key — ``-gain`` for
        VKC, ``(-gain, sign*degree)`` for VKC-DEG.  Returns the
        reordered scalar list plus the packed node (gains and rows ride
        along already permuted; the union row survives, a reorder does
        not change the candidate set)."""
        np = self._np
        rows = self._rows(node)
        gains = self._popcount(rows & self._uncov(covered_mask))
        if self.kind == "vkc-deg":
            order = np.lexsort((self._deg_keys[node.ids], -gains))
        else:
            order = np.lexsort((-gains,))
        ids = node.ids[order]
        child = NodeBatch(ids, gains[order], rows[order], union_row=node.union_row)
        self.kernel.note_batch(scores=1)
        return ids.tolist(), child

    def leaf_gains(self, node: NodeBatch, covered_mask: int) -> list[int]:
        """Every candidate's VKC gain at a leaf, as python ints.

        Reuses the node's cached gains when present (always, for the
        re-sorting strategies); otherwise one scoring sweep."""
        if node.gains is None:
            self._score(node, covered_mask)
        return node.gains.tolist()

    def _score(self, node: NodeBatch, covered_mask: int) -> Any:
        gains = self._popcount(self._rows(node) & self._uncov(covered_mask))
        node.gains = gains
        self.kernel.note_batch(scores=1)
        return gains

    def _popcount(self, anded: Any) -> Any:
        """Per-candidate popcounts of already-masked rows, as int64
        (signed, so ``-gains`` is a valid sort key)."""
        if self._narrow:
            return self._np.bitwise_count(anded).astype(self._np.int64)
        return vec.popcount_rows(anded)

    def _rows(self, node: NodeBatch) -> Any:
        if node.rows is None:
            node.rows = self.matrix[node.ids]
        return node.rows

    def _uncov(self, covered_mask: int) -> Any:
        """The uncovered-keyword mask, broadcastable against the node's
        rows: a uint64 scalar on the narrow path, a uint8 row otherwise
        (cached for the common prune/leaf/reorder repeats per mask)."""
        if covered_mask != self._uncovered_for:
            uncovered = ~covered_mask & self.context.full_mask
            if self._narrow:
                self._uncovered_row = self._np.uint64(uncovered)
            else:
                self._uncovered_row = self._np.frombuffer(
                    uncovered.to_bytes(self.mask_bytes, "little"), dtype=self._np.uint8
                )
            self._uncovered_for = covered_mask
        return self._uncovered_row

    # ------------------------------------------------------------------
    # Bulk k-line elimination (Theorem 3)
    # ------------------------------------------------------------------
    def eliminate(
        self, node: NodeBatch, position: int, member: int, k: int
    ) -> tuple[Any, int]:
        """Keep-vector and survivor count for the tail after *member*.

        One gather over the member's ball bytes answers every
        candidate's ``within_k`` probe at once; ``keep[i]`` is True iff
        tail candidate ``i`` survives the scalar
        ``mask & ~(ball | 1 << member)``."""
        np = self._np
        if node.byte_idx is None:
            node.byte_idx = node.ids >> 3
            node.bit_mask = np.uint8(1) << (node.ids & 7).astype(np.uint8)
        ball = self.kernel.ball_bytes(member, k, self.ball_nbytes)
        tail = slice(position + 1, None)
        keep = (ball[node.byte_idx[tail]] & node.bit_mask[tail]) == 0
        survivors = int(np.count_nonzero(keep))
        self.kernel.note_batch(eliminations=1)
        return keep, survivors

    # ------------------------------------------------------------------
    # Vectorized admissible bounds (Theorem 2 + union bound)
    # ------------------------------------------------------------------
    def prune_decision(
        self, covered_mask: int, node: NodeBatch, slots: int
    ) -> tuple[float, str]:
        """Batched twin of :func:`repro.core.pruning.keyword_prune_decision`.

        Sorted frontiers read the head sum straight off the cached gain
        array; unsorted (QKC) frontiers score once and ``np.partition``
        the top *slots* — the same integer multiset ``heapq.nlargest``
        sums.  The union bound ORs the node's precomputed union row when
        one was inherited, else reduces the rows."""
        np = self._np
        gains = node.gains
        if gains is None:
            gains = self._score(node, covered_mask)
        if self.kind != "qkc":
            # Re-sorting strategies keep the frontier gain-sorted, so
            # the top-``slots`` sum is the head sum.
            vkc_sum = int(gains[:slots].sum())
        else:
            # QKC frontiers are statically ordered: select the top
            # ``slots`` gains (same multiset ``heapq.nlargest`` sums).
            n = int(gains.shape[0])
            if slots >= n:
                vkc_sum = int(gains.sum())
            else:
                vkc_sum = int(np.partition(gains, n - slots)[n - slots :].sum())
        bound = bound_from_vkc_sum(covered_mask, vkc_sum, self.context)
        if self._use_union:
            row = node.union_row
            if row is None:
                row = np.bitwise_or.reduce(self._rows(node), axis=0)
            combined = covered_mask | int.from_bytes(row.tobytes(), "little")
            alternative = self.context.coverage_of_mask(combined)
            if alternative < bound:
                return alternative, "union"
        return bound, "keyword"

    def _tail_union(self, node: NodeBatch, position: int) -> Any:
        """Union row of ``remaining[position+1:]`` from the node's
        prefix-OR table (built once, serves all tail children)."""
        if node.suffix_union is None:
            rows = self._rows(node)
            node.suffix_union = self._np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
        return node.suffix_union[position + 1]
