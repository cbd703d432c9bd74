"""Host speed: a fixed pure-Python kernel timed beside the measured work.

The reference machine's vCPUs change speed all the time: the same work
takes up to ~1.8x longer in slow phases that last from under a second to
minutes, and CPU time grows with wall time (it is not time stolen by the
hypervisor).  A latency measured in a slow phase would read as a
regression of the program.  So every latency metric is reported in
*reference milliseconds*: the measured time multiplied by
``REFERENCE_MS / k``, where ``k`` is the CPU time this module's kernel
took right around the measured interval.  On the reference machine at
a typical speed the two agree; the raw times are printed beside them.

The kernel is the benchmark's own code and never calls the program, so
no change to the program moves it.  It mixes the program's kinds of
work: a breadth-first search keeping distances in a dict, two-hop balls
built as sets with a list filter against them, and integer arithmetic.
Its inputs are fixed (they do not depend on ``--seed``).

In process (solve-cold), :func:`time_kernel` runs between queries.  For
work in another process (churn-mix) a :class:`Sampler` process runs the
kernel every :data:`PERIOD_S` seconds and records CPU time, so waiting
for a CPU does not count as host slowness.

Run as a sampler::

    python3 perfbench/hostspeed.py --out PATH

samples until SIGTERM, then writes ``[[monotonic midpoint, ms], ...]``
to ``PATH`` and exits 0.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Kernel CPU time on the reference machine at a typical speed, in ms.
REFERENCE_MS = 3.5
#: Sampler period, in seconds (the kernel takes ~3 ms of it).
PERIOD_S = 0.1
#: Samples within this distance of a measured interval also describe it.
MARGIN_S = 0.25


def _random_graph(rng: random.Random, vertices: int, degree: int) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(vertices)]
    for u in range(vertices):
        for _ in range(degree // 2):
            v = rng.randrange(vertices)
            adjacency[u].append(v)
            adjacency[v].append(u)
    return adjacency


_RNG = random.Random(20231017)
_SPARSE = _random_graph(_RNG, 2000, 8)
_DENSE = _random_graph(_RNG, 1200, 22)
_SOURCES = [_RNG.randrange(1200) for _ in range(6)]
_CANDIDATES = list(range(1200))


def kernel() -> int:
    """Fixed work; returns a checksum so none of it can be skipped."""
    distance = {0: 0}
    frontier = [0]
    while frontier:
        following = []
        for u in frontier:
            step = distance[u] + 1
            for v in _SPARSE[u]:
                if v not in distance:
                    distance[v] = step
                    following.append(v)
        frontier = following
    checksum = len(distance)
    for source in _SOURCES:
        ball = {source}
        frontier = [source]
        for _ in range(2):
            following = []
            for u in frontier:
                for v in _DENSE[u]:
                    if v not in ball:
                        ball.add(v)
                        following.append(v)
            frontier = following
        checksum += len([v for v in _CANDIDATES if v not in ball])
    total = 0
    for i in range(15000):
        total += i * i % 7
    return checksum + total


def time_kernel() -> float:
    """CPU time of one kernel run, in ms."""
    started = time.thread_time()
    kernel()
    return (time.thread_time() - started) * 1000.0


def scale(kernel_ms: list[float]) -> float:
    """Factor from measured to reference time, given kernel times around it."""
    return REFERENCE_MS / statistics.median(kernel_ms)


class Samples:
    """Kernel times recorded by a :class:`Sampler`, looked up by time."""

    def __init__(self, samples: list[list[float]]) -> None:
        if not samples:
            raise RuntimeError("the host-speed sampler recorded no sample")
        self.times = [sample[0] for sample in samples]
        self.kernel_ms = [sample[1] for sample in samples]

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval: the samples within it, or nearest to it."""
        chosen = [
            ms
            for at, ms in zip(self.times, self.kernel_ms)
            if start - MARGIN_S <= at <= end + MARGIN_S
        ]
        if not chosen:
            middle = (start + end) / 2.0
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
            chosen = [self.kernel_ms[i] for i in nearest[:3]]
        return scale(chosen)


class Sampler:
    """A sampler process; :meth:`stop` ends it and returns its samples."""

    def __init__(self, out: Path) -> None:
        self.out = out
        if out.exists():
            out.unlink()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--out", str(out)],
            stdout=subprocess.DEVNULL,
        )

    def stop(self) -> Samples:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("the host-speed sampler did not exit on SIGTERM")
        if self.process.returncode != 0:
            raise RuntimeError(f"the host-speed sampler exited with {self.process.returncode}")
        with open(self.out, encoding="utf-8") as handle:
            return Samples(json.load(handle))

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description="host-speed sampler")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    samples: list[list[float]] = []
    while not stopping:
        started = time.monotonic()
        kernel_ms = time_kernel()
        samples.append([(started + time.monotonic()) / 2.0, kernel_ms])
        remaining = started + PERIOD_S - time.monotonic()
        if remaining > 0 and not stopping:
            time.sleep(remaining)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
