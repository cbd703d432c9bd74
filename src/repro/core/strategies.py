"""Candidate-ordering strategies for the branch-and-bound search.

The paper's three exact algorithms differ only in *how the remaining
candidate set ``S_R`` is ordered* before the next member is selected:

* **QKC** (Section IV-A, evaluated as KTG-QKC-*): sort once by static
  query-keyword coverage, never re-sort.  Cheap per node, but the head
  of ``S_R`` stops being the best "increment" as soon as keywords are
  covered.
* **VKC** (KTG-VKC-*): re-sort by *valid* keyword coverage — the new
  keywords a candidate would add on top of the intermediate group —
  every time the group grows (Definition 8).
* **VKC-DEG** (KTG-VKC-DEG-*): VKC order with vertex degree as the
  tie-break.  The paper motivates preferring *small* degree ("the
  smaller is the degree of a vertex, the more vertices are unfamiliar
  with this vertex") even though one sentence says "descending order";
  we follow the motivation and the worked example (ascending), and
  expose ``degree_order`` so the ablation bench can measure both.

A strategy is a small stateless object with two hooks: an initial
ordering of the qualified candidates, and a re-ordering applied after
each member joins ``S_I``.  Both receive plain vertex-id lists and the
current covered-keyword mask, so strategies compose with any distance
oracle.
"""

from __future__ import annotations

import abc
from typing import Literal, Optional

from repro.core.coverage import CoverageContext

#: Key tables one strategy keeps per context before starting over.  A
#: six-keyword query has up to 64 covered masks, but the depth-first
#: search revisits few at a time: at 16, 98% of the lookups on the
#: twitter Table-I queries still hit, at a quarter of the memory.
_TABLES_PER_CONTEXT = 16

__all__ = [
    "OrderingStrategy",
    "QKCOrdering",
    "VKCOrdering",
    "VKCDegreeOrdering",
    "strategy_by_name",
]


class OrderingStrategy(abc.ABC):
    """Orders the remaining candidate set ``S_R`` during the search."""

    #: Short name used in algorithm labels ("qkc", "vkc", "vkc-deg").
    name: str = "abstract"
    #: Whether :meth:`reorder` actually changes the order.  When False the
    #: solver skips re-sorting entirely (ordering is preserved by the
    #: filtering steps, which keep relative order).
    resorts: bool = True

    @abc.abstractmethod
    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        """Return *candidates* ordered for the root of the search tree."""

    def reorder(
        self, candidates: list[int], covered_mask: int, context: CoverageContext
    ) -> list[int]:
        """Return *candidates* ordered for a node whose intermediate group
        covers *covered_mask*.  Default: keep the incoming order."""
        return candidates

    def batch_sort_spec(self) -> Optional[tuple]:
        """Recipe for the vectorized ordering twin, or ``None`` to opt out.

        The batched solver core (:mod:`repro.kernels.solve`) replicates
        a strategy's sort as one ``np.lexsort`` when this returns
        ``(kind, degree_sign, degrees)``; ``kind`` names which built-in
        scalar sort must be reproduced bit for bit.  The default
        ``None`` keeps custom strategies on the scalar path — their
        ``reorder`` is the only source of truth for their order.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class QKCOrdering(OrderingStrategy):
    """Static ordering by query keyword coverage, computed once.

    The paper discusses this as the cheap alternative to VKC sorting:
    "we only need to calculate query keyword coverage once for each
    vertex and only need sorting once", at the cost of weaker early
    solutions and weaker pruning.  Evaluated as KTG-QKC-NLRNL in
    Figure 3.
    """

    name = "qkc"
    resorts = False

    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        masks = context.masks
        return sorted(candidates, key=lambda v: -masks[v].bit_count())

    def batch_sort_spec(self) -> Optional[tuple]:
        return ("qkc", 0, None)


class VKCOrdering(OrderingStrategy):
    """Re-sort by valid keyword coverage after every member selection.

    This is the ordering of Algorithm 1 (KTG-VKC): the candidate that
    would add the most *uncovered* query keywords comes first, so a
    high-coverage feasible group is formed as early as possible and the
    keyword-pruning threshold rises quickly.

    The sort key of vertex ``v`` at covered mask ``c`` is
    ``base[v] - (gain << _gain_shift)`` with ``gain`` the popcount of
    ``masks[v] & ~c``.  It is looked up in a per-vertex key table built
    once per ``(context, covered_mask)``, so each re-sort is a C-level
    ``sorted(..., key=table.__getitem__)``.
    """

    name = "vkc"
    #: Left shift of the gain in the composite key (VKC-DEG packs the
    #: degree below it).
    _gain_shift = 0
    #: (context, qualified (vertex, mask) pairs, covered mask -> table).
    #: Replaced whole, on the instance, when the context changes and read
    #: once per call, so threads sharing the strategy never mix contexts.
    _tables: tuple = (None, (), {})

    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        return self.reorder(candidates, 0, context)

    def reorder(
        self, candidates: list[int], covered_mask: int, context: CoverageContext
    ) -> list[int]:
        return sorted(candidates, key=self._key_table(covered_mask, context).__getitem__)

    def _key_table(self, covered_mask: int, context: CoverageContext) -> list[int]:
        """Sort key of every vertex for a node covering *covered_mask*."""
        owner, qualified, tables = self._tables
        if owner is not context:
            qualified = [(v, mask) for v, mask in enumerate(context.masks) if mask]
            tables = {}
            self._tables = (context, qualified, tables)
        table = tables.get(covered_mask)
        if table is None:
            if len(tables) >= _TABLES_PER_CONTEXT:
                tables.clear()
            table = self._base_keys(context)
            uncovered = ~covered_mask
            shift = self._gain_shift
            for v, mask in qualified:
                gain = (mask & uncovered).bit_count()
                if gain:
                    table[v] -= gain << shift
            tables[covered_mask] = table
        return table

    def _base_keys(self, context: CoverageContext) -> list[int]:
        """A fresh key table for a node where no vertex adds a keyword."""
        return [0] * len(context.masks)

    def batch_sort_spec(self) -> Optional[tuple]:
        return ("vkc", 0, None)

    def __getstate__(self) -> dict:
        # The tables are a per-process cache holding the last context
        # (and through it the graph): process workers start without.
        state = dict(self.__dict__)
        state.pop("_tables", None)
        return state


class VKCDegreeOrdering(VKCOrdering):
    """VKC ordering with vertex degree as the tie-break (Section IV-B).

    Parameters
    ----------
    degrees:
        Per-vertex degree table (indexed by vertex id), computed once —
        "the degree of a vertex does not change as the procedure
        proceeds, so the computational overhead is small".
    degree_order:
        ``"ascending"`` (default, the paper's motivation: low-degree
        vertices have fewer k-line conflicts, so feasible groups form
        earlier) or ``"descending"`` (the literal reading of one
        sentence in Section IV-B; measured in the ablation bench).
    """

    name = "vkc-deg"
    # Single-int composite key: VKC dominates (shifted above any
    # realistic degree), signed degree breaks ties.  One int compare
    # per element is measurably cheaper than tuple keys.
    _gain_shift = 32

    def __init__(
        self,
        degrees: list[int],
        degree_order: Literal["ascending", "descending"] = "ascending",
    ) -> None:
        if degree_order not in ("ascending", "descending"):
            raise ValueError(
                f"degree_order must be 'ascending' or 'descending', got {degree_order!r}"
            )
        self._degrees = degrees
        self._degree_sign = 1 if degree_order == "ascending" else -1
        self._signed_degrees = [self._degree_sign * d for d in degrees]
        self.degree_order = degree_order

    def _base_keys(self, context: CoverageContext) -> list[int]:
        return self._signed_degrees.copy()

    def batch_sort_spec(self) -> Optional[tuple]:
        # The composite int key orders exactly like the pair
        # (-gain, sign * degree) because |sign * degree| < 2**31; the
        # batched twin lexsorts that pair (see repro.kernels.solve).
        return ("vkc-deg", self._degree_sign, self._degrees)

    def __repr__(self) -> str:
        return f"VKCDegreeOrdering(degree_order={self.degree_order!r})"


def strategy_by_name(name: str, graph=None, **options) -> OrderingStrategy:
    """Instantiate an ordering strategy from its short name.

    ``"vkc-deg"`` needs the graph (for the degree table); the other two
    do not.  Extra keyword options are forwarded to the constructor.
    """
    normalized = name.lower().replace("_", "-")
    if normalized == "qkc":
        return QKCOrdering()
    if normalized == "vkc":
        return VKCOrdering()
    if normalized in ("vkc-deg", "vkcdeg", "deg"):
        if graph is None:
            raise ValueError("the 'vkc-deg' strategy requires the graph argument")
        return VKCDegreeOrdering(graph.degrees(), **options)
    raise ValueError(f"unknown ordering strategy {name!r}")
