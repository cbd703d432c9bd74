"""Start, probe and stop the benchmark's server launcher process."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Optional

import common

#: How long a server may take to exit after SIGTERM before the run fails.
STOP_TIMEOUT_S = 15.0
READY_TIMEOUT_S = 120.0


def request(port: int, method: str, path: str, payload: Optional[dict] = None):
    """One blocking request on a fresh connection: ``(status, json)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


class ServerProcess:
    """One launch of ``server_main.py``; always stopped by :meth:`stop`."""

    def __init__(self, trace: bool, tag: str) -> None:
        common.OUT_DIR.mkdir(exist_ok=True)
        self.report_path = common.OUT_DIR / f"server-{tag}.json"
        self.stderr_path = common.OUT_DIR / f"server-{tag}.stderr"
        if self.report_path.exists():
            self.report_path.unlink()
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(common.HERE / "server_main.py"),
                "--trace", str(int(trace)),
                "--report", str(self.report_path),
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=str(common.ROOT),
        )
        self.port = 0
        self.started = 0.0

    def wait_ready(self) -> None:
        """Block until the launcher prints ``READY <port> <started>``."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(
                    f"server did not start; see {self.stderr_path.name}"
                )
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        _, port, started = line.decode().split()
        self.port = int(port)
        self.started = float(started)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def stop(self) -> tuple[list[str], dict]:
        """SIGTERM, wait, check ``/dev/shm``; return ``(problems, exit report)``."""
        problems: list[str] = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"server did not exit within {STOP_TIMEOUT_S} s of SIGTERM")
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            problems.append(f"server exited with code {self.process.returncode}")
        self._stderr.close()
        if self.process.stdout is not None:
            self.process.stdout.close()
        shm = subprocess.run(
            ["bash", str(common.ROOT / "scripts" / "check_shm_leaks.sh")],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if shm.returncode != 0:
            problems.append(f"/dev/shm check failed: {shm.stderr.strip()}")
        report: dict = {}
        if self.report_path.exists():
            with open(self.report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        elif not problems:
            problems.append("server wrote no exit report")
        return problems, report

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if not self._stderr.closed:
            self._stderr.close()


def launch_and_probe(trace: bool, tag: str, probe: dict):
    """Start a server and send *probe*; return ``(server, window, answer)``.

    The set-up *window* ``(start, end)`` runs from the launcher's start of
    dataset generation to the first answer (``time.monotonic`` is one
    clock for every process).
    """
    server = ServerProcess(trace, tag)
    try:
        server.wait_ready()
        status, body = request(server.port, "POST", "/solve", common.query_payload(probe))
        window = (server.started, time.monotonic())
    except BaseException:
        server.kill()
        raise
    return server, window, (status, body)


# ----------------------------------------------------------------------
# Flow of a server workload
# ----------------------------------------------------------------------
class Tally:
    """Attempted / failed / degraded counts and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.degraded = 0
        self.problems: list[str] = []
        self._validated: dict = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def answer(self, label: str, status: int, body, error=None) -> bool:
        """Count one request; ``True`` when it produced an answer."""
        self.attempted += 1
        if error is not None:
            self.fail(f"{label}: {error}")
            return False
        if status != 200 or body is None:
            self.fail(f"{label}: HTTP {status} {body}")
            return False
        self.answered += 1
        if body.get("degraded"):
            self.degraded += 1
        return True

    def check(self, label: str, graph, entry: dict, body: dict, expected) -> None:
        """Validate an answer on *graph* and compare it with *expected*.

        Degraded answers are validated but not compared.  Repeated
        identical answers are checked once.
        """
        if body.get("degraded"):
            expected = None
        groups = body["groups"]
        key = (id(graph), json.dumps(entry, sort_keys=True), json.dumps(groups), expected is None)
        problem = self._validated.get(key, "unchecked")
        if problem == "unchecked":
            query = common.make_query(entry)
            problem = common.check_answer(
                graph, query, common.result_from_groups(query, groups), expected
            )
            self._validated[key] = problem
        if problem is not None:
            self.fail(f"{label}: {problem}")


def set_up(trace: bool, probe: dict, graph, tally: Tally):
    """Launch the server ``SETUP_REPEATS`` times; keep the last one running.

    Returns the last server and the set-up window of every launch.

    Each earlier launch is stopped with the same lifecycle check as the
    last, so every run also proves SIGTERM shutdown several times.
    """
    server = None
    windows: list[tuple[float, float]] = []
    for repeat in range(common.SETUP_REPEATS):
        if server is not None:
            for problem in server.stop()[0]:
                tally.fail(f"set-up server {repeat - 1}: {problem}")
        server, window, (status, body) = launch_and_probe(trace, f"setup{repeat}", probe)
        windows.append(window)
        if tally.answer(f"set-up probe {repeat}", status, body):
            tally.check(f"set-up probe {repeat}", graph, probe, body, probe["coverage"])
    assert server is not None
    return server, windows


def stats(server: ServerProcess) -> dict:
    status, body = request(server.port, "GET", "/stats")
    if status != 200 or body is None:
        raise RuntimeError(f"/stats answered HTTP {status}")
    return body


def _counter(after: dict, before: dict, name: str) -> float:
    """How much a ``/stats`` server counter grew between two snapshots."""
    return float(
        after["server"]["counters"].get(name, 0) - before["server"]["counters"].get(name, 0)
    )


def server_layers(spans: list[dict], phase, before: dict, after: dict) -> dict:
    """Per-layer metrics of one open-loop phase against a traced server."""
    import layers

    window = (phase.started, phase.ended)
    routes = {
        span["request"]: span
        for span in spans
        if span["name"] == "server.route"
        and span["request"] is not None
        and window[0] <= span["start"] < window[1]
    }
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    accounted = generator = client_queue = wire = server_self = 0.0
    self_ms: list[float] = []
    roots: set[int] = set()
    for index, outcome in enumerate(phase.outcomes):
        accounted += outcome.received - outcome.due
        generator += outcome.released - outcome.due
        client_queue += outcome.sent - outcome.released
        route = routes.get(str(index))
        if route is not None:
            route_s = route["end"] - route["start"]
            wire += (outcome.received - outcome.sent) - route_s
            server_self += route_s - child_time.get(route["id"], 0.0)
            roots.add(route["id"])
        if outcome.body is not None and "latency_ms" in outcome.body:
            self_ms.append(
                (outcome.received - outcome.sent) * 1000.0 - outcome.body["latency_ms"]
            )
    metrics = layers.span_metrics(spans, window)
    metrics.update(
        layers.attribute(
            spans,
            roots,
            accounted,
            {"generator": generator, "client_queue": client_queue, "wire": wire,
             "server": server_self},
        )
    )
    metrics["trace.accounted_s"] = accounted
    metrics["server.self_ms"] = sum(self_ms) / len(self_ms) if self_ms else 0.0
    for name in ("coalesced_followers", "solver_runs"):
        metrics[f"server.{name}"] = _counter(after, before, f"server.{name}")
    metrics["server.rejected"] = sum(
        _counter(after, before, f"server.{name}")
        for name in ("rate_limited", "overload_rejected", "deadline_rejected")
    )
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = after["cache"]["lookups"] - before["cache"]["lookups"]
    metrics["service.cache_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["index.entries"] = after.get("oracle", {}).get("entries", 0)
    epoch_before, epoch_after = before.get("epoch", {}), after.get("epoch", {})
    for name in ("rotations", "lease_waits"):
        metrics[f"epoch.{name}"] = epoch_after.get(name, 0) - epoch_before.get(name, 0)
    metrics["epoch.delta_depth"] = epoch_after.get("delta_depth", 0)
    metrics.update(layers.kernel_counters(after))
    return metrics
