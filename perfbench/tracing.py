"""Span tracing for the traced (``--trace 1``) runs.

The timed runs never import this module's wrappers: they construct the
service exactly as a user would.  A traced run calls :func:`install`
inside the process under test (the benchmark process for
``solve-cold``, the benchmark's own server launcher for the server
workloads), which replaces the layer-boundary methods at class level
with timing wrappers.

Two kinds of wrapper keep the overhead proportional to what is asked:

* **span** methods (a solve, a request, a write) append one record
  ``(id, name, start, end, parent, request_id, self_s, hot, attrs)`` per
  call, kept in memory and written out when the process exits;
* **hot** methods (``filter_candidates``, ``is_tenuous``, ``reorder``,
  ``ResultCache.get``), called up to millions of times per run, only add
  their call count and duration to the innermost open span's ``hot``.

A span's self time is its duration minus the time its direct children
(spans or hot calls, on the same thread) cover.  Work a request hands to
a pool thread is linked back to the request's span through a context
variable that :func:`propagate_context` carries across
``run_in_executor``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import threading
import time
from typing import Any, Callable, Optional

#: (request id, span id) of the request currently being served.
_REQUEST: contextvars.ContextVar[Optional[tuple[Any, int]]] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    # ------------------------------------------------------------------
    def span(self, name: str, attrs_of: Optional[Callable] = None) -> Callable:
        """Decorator factory for a recorded span around a sync function."""
        tracer = self

        def decorate(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                # frame: [span id, child seconds, hot aggregates]
                frame = [tracer._next_id(), 0.0, {}]
                request = _REQUEST.get() or (None, None)
                parent = stack[-1][0] if stack else request[1]
                request_id = request[0]
                stack.append(frame)
                start = time.monotonic()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    end = time.monotonic()
                    stack.pop()
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    attrs = attrs_of(result) if attrs_of and result is not None else {}
                    tracer.spans.append(
                        (frame[0], name, start, end, parent, request_id,
                         duration - frame[1], frame[2], attrs)
                    )

            return wrapper

        return decorate

    def hot(self, name: str) -> Callable:
        """Decorator factory for a counted, timed, unrecorded call."""
        tracer = self

        def decorate(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                start = time.monotonic()
                try:
                    return function(*args, **kwargs)
                finally:
                    duration = time.monotonic() - start
                    if stack:
                        frame = stack[-1]
                        frame[1] += duration
                        slot = frame[2].get(name)
                        if slot is None:
                            frame[2][name] = [1, duration]
                        else:
                            slot[0] += 1
                            slot[1] += duration

            return wrapper

        return decorate

    def request_span(self, name: str, request_id_of: Callable) -> Callable:
        """Decorator factory for a coroutine that serves one request.

        The span id and request id are published in a context variable,
        so pool-thread spans started on the request's behalf name this
        span as their parent.
        """
        tracer = self

        def decorate(function: Callable) -> Callable:
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span_id = tracer._next_id()
                request_id = request_id_of(*args, **kwargs)
                token = _REQUEST.set((request_id, span_id))
                start = time.monotonic()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = time.monotonic()
                    _REQUEST.reset(token)
                    tracer.spans.append(
                        (span_id, name, start, end, None, request_id, None, {}, {})
                    )

            return wrapper

        return decorate

    def set_request(self, request_id: Any) -> None:
        """Tag the spans the calling thread opens next with *request_id*."""
        _REQUEST.set((request_id, None))

    def export(self) -> list[dict]:
        return [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request_id,
                "self_s": self_s,
                "hot": hot,
                "attrs": attrs,
            }
            for span_id, name, start, end, parent, request_id, self_s, hot, attrs in self.spans
        ]


def _search_stats(result) -> dict:
    stats = result.stats
    return {
        "nodes": stats.nodes_expanded,
        "keyword_prunes": stats.keyword_prunes,
        "kline_removed": stats.kline_removed,
        "feasible": stats.feasible_groups,
    }


def _snapshot_bytes(snapshot) -> dict:
    return {"bytes": snapshot.nbytes}


def _route_request_id(server, request, peer_host) -> Any:
    return request.header("x-request-id")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the program at class level."""
    from repro.core import csr, epoch
    from repro.core.branch_and_bound import BranchAndBoundSolver
    from repro.core.strategies import VKCDegreeOrdering
    from repro.datasets import registry
    from repro.index.nlrnl import NLRNLIndex
    from repro.server.app import KTGServer
    from repro.service.cache import ResultCache
    from repro.service.service import QueryService

    def wrap(owner, attribute, decorator):
        setattr(owner, attribute, decorator(getattr(owner, attribute)))

    wrap(registry, "load_dataset", tracer.span("datasets.load"))
    wrap(NLRNLIndex, "rebuild", tracer.span("index.build"))
    wrap(NLRNLIndex, "filter_candidates", tracer.hot("index.filter"))
    wrap(NLRNLIndex, "is_tenuous", tracer.hot("index.tenuous"))
    wrap(NLRNLIndex, "insert_edge", tracer.span("index.insert_edge"))
    wrap(NLRNLIndex, "delete_edge", tracer.span("index.delete_edge"))
    wrap(BranchAndBoundSolver, "solve", tracer.span("solver.solve", _search_stats))
    wrap(VKCDegreeOrdering, "reorder", tracer.hot("solver.reorder"))
    wrap(QueryService, "submit", tracer.span("service.submit"))
    for method in ("add_edge", "remove_edge", "set_keywords", "add_vertex"):
        wrap(QueryService, method, tracer.span("service.mutate"))
        wrap(epoch.EpochManager, method, tracer.span("epoch.write"))
    wrap(ResultCache, "get", tracer.hot("service.cache_get"))
    wrap(epoch.EpochManager, "rotate", tracer.span("epoch.rotate"))
    # from_graph is a classmethod: wrap the underlying function and
    # re-bind it so the wrapper still receives the class.
    from_graph = csr.CsrSnapshot.__dict__["from_graph"].__func__
    csr.CsrSnapshot.from_graph = classmethod(
        tracer.span("csr.build", _snapshot_bytes)(from_graph)
    )
    # The router coroutine is the server layer's per-request boundary;
    # it has no public name.
    wrap(KTGServer, "_route", tracer.request_span("server.route", _route_request_id))


def propagate_context(loop: asyncio.AbstractEventLoop) -> None:
    """Make ``loop.run_in_executor`` run callables in the caller's context."""
    original = loop.run_in_executor

    def run_in_executor(executor, function, *args):
        context = contextvars.copy_context()
        return original(executor, functools.partial(context.run, function, *args))

    loop.run_in_executor = run_in_executor  # type: ignore[method-assign]
