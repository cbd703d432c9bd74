"""Wire tests for the multi-graph endpoints (``/graphs``, ``/graphs/load``)."""

from __future__ import annotations

import http.client
import json

from repro.server import KTGServer, ServerThread, http_request
from repro.service import GraphRegistry, QueryService
from tests.conftest import make_random_attributed_graph


def _exchange(connection, method, path, payload=None):
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def test_unknown_algorithm_load_is_400_and_connection_survives():
    graph = make_random_attributed_graph(num_vertices=20, seed=3)
    service = QueryService(graph, "KTG-VKC-NLRNL", max_workers=1)
    graphs = GraphRegistry(max_workers=1)
    with service, graphs, ServerThread(KTGServer(service, registry=graphs)) as handle:
        host, port = handle.address
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            status, body = _exchange(
                connection,
                "POST",
                "/graphs/load",
                {"name": "a", "profile": "brightkite", "scale": 0.08,
                 "algorithm": "NOPE"},
            )
            assert status == 400
            assert "unknown algorithm 'NOPE'" in body["error"]
            assert "KTG-VKC-DEG-NLRNL" in body["error"]
            # Same keep-alive connection: the server answered, not hung up.
            status, body = _exchange(connection, "GET", "/graphs")
            assert status == 200
            assert body["count"] == 0
        finally:
            connection.close()
        assert "a" not in graphs
        status, _ = http_request(
            host, port, "POST", "/graphs/load",
            {"name": "a", "profile": "brightkite", "scale": 0.08,
             "algorithm": "KTG-VKC-NLRNL"},
        )
        assert status == 200
        assert graphs.entry("a").graph_id == "a#1"
