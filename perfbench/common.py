"""Shared pieces of the benchmark: paths, inputs, statistics, checks, stamps.

Every workload runs against ``twitter`` at scale 1.0 (1,200 vertices,
13,079 edges) and the shipped service/server defaults.  The query pools
are pinned in ``reference.json`` together with the answers the seed
commit gave for them, so a run can check every exact answer without
re-deriving it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch output of a run (traces, server exit reports).  Ignored by git.
OUT_DIR = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"

PROFILE = "twitter"
SCALE = 1.0
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``tail_ms`` is the quantile with this many samples beyond it.
TAIL_BEYOND = 10
#: Cost strata of the Zipf popularity order (see :func:`zipf_sequence`).
POPULARITY_STRATA = 3


def require_source() -> None:
    """Exit non-zero (no result printed) when the program is not present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC / 'repro'}; run from a "
            "checkout of the repository root\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def query_payload(entry: dict) -> dict:
    """The wire form of a pool entry (what ``/solve`` receives)."""
    return {
        "keywords": list(entry["keywords"]),
        "group_size": entry["group_size"],
        "tenuity": entry["tenuity"],
        "top_n": entry["top_n"],
    }


def make_query(entry: dict):
    from repro.core.query import KTGQuery

    return KTGQuery(
        keywords=tuple(entry["keywords"]),
        group_size=entry["group_size"],
        tenuity=entry["tenuity"],
        top_n=entry["top_n"],
    )


def zipf_sequence(pool: list[dict], count: int, exponent: float, rng: random.Random) -> list[int]:
    """*count* pool indices drawn Zipf-skewed over a seeded popularity order.

    The seed decides which entry holds each popularity rank and the draw
    sequence; the popularity curve is fixed.  Ranks are filled in
    cost-stratified order: the pool is cut into :data:`POPULARITY_STRATA`
    equal strata by the cost recorded for each entry, and rank ``r``
    always goes to an entry of stratum ``r % POPULARITY_STRATA``.  So no
    seed makes only cheap or only expensive queries popular, and a run's
    cache-miss cost does not hang on one popularity draw.
    """
    if len(pool) % POPULARITY_STRATA:
        raise ValueError(f"pool size {len(pool)} is not a multiple of {POPULARITY_STRATA}")
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i]["cost"], i))
    size = len(pool) // POPULARITY_STRATA
    strata = [ranked[s * size : (s + 1) * size] for s in range(POPULARITY_STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    popularity = [strata[r % POPULARITY_STRATA][r // POPULARITY_STRATA] for r in range(len(pool))]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(pool))]
    return [popularity[i] for i in rng.choices(range(len(pool)), weights, k=count)]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Harrell-Davis estimate of the *fraction* quantile of *values*.

    A weighted mean of every order statistic, with Beta((n+1)p,
    (n+1)(1-p)) weights: the weight sits on the ranks around ``p * n``
    but is spread over a few of them.  A nearest-rank percentile is one
    sample, so it jumps with whichever query or request happens to land
    on that rank; this estimate of the same quantile moves far less from
    run to run.  Harrell & Davis, Biometrika 69(3), 1982.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    if count == 1:
        return ordered[0]
    alpha, beta = fraction * (count + 1), (1.0 - fraction) * (count + 1)
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (alpha - 1) * math.log(x) + (beta - 1) * math.log1p(-x))

    # Each order statistic weighs the Beta mass of its cell ((i-1)/n, i/n],
    # integrated with Simpson's rule.
    steps = 32
    weights = []
    for index in range(count):
        low = index / count
        width = 1.0 / (count * steps)
        total = density(low) + density(low + steps * width)
        total += sum((4 if k % 2 else 2) * density(low + k * width) for k in range(1, steps))
        weights.append(total * width / 3.0)
    mass = sum(weights)
    return sum(weight * value for weight, value in zip(weights, ordered)) / mass


def tail_fraction(count: int) -> float:
    """The highest quantile of *count* samples with 10 samples beyond it."""
    return 1.0 - TAIL_BEYOND / count


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def graph_fingerprint(graph) -> dict:
    """Size plus a digest of edges and keywords: detects dataset drift."""
    digest = hashlib.sha256()
    for u, v in sorted(graph.edges()):
        digest.update(f"{u},{v};".encode())
    for vertex in range(graph.num_vertices):
        digest.update((",".join(sorted(graph.keyword_labels(vertex))) + "|").encode())
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "sha256": digest.hexdigest(),
    }


def check_dataset(graph, reference: dict) -> None:
    expected = reference["dataset"]["fingerprint"]
    actual = graph_fingerprint(graph)
    if actual != expected:
        raise RuntimeError(
            f"dataset {PROFILE}@{SCALE} differs from the one the reference "
            f"answers were recorded on: {actual} != {expected}"
        )


def result_from_groups(query, groups: list[dict]):
    """Rebuild a ``KTGResult`` from wire groups, for ``validate_ktg_result``."""
    from repro.core.branch_and_bound import KTGResult
    from repro.core.results import Group

    return KTGResult(
        query=query,
        algorithm="wire",
        groups=tuple(
            Group(coverage=group["coverage"], members=tuple(group["members"]))
            for group in groups
        ),
    )


def check_answer(graph, query, result, expected_coverage) -> str | None:
    """``None`` when *result* is valid and matches the reference coverage.

    Member ties may differ between correct answers, so the comparison is
    on the top-N coverage vector, which is unique for an exact answer.
    ``expected_coverage=None`` skips the reference comparison.
    """
    from repro.core.validate import ResultValidationError, validate_ktg_result

    try:
        validate_ktg_result(graph, result)
    except ResultValidationError as exc:
        return f"invalid answer: {exc}"
    coverage = [group.coverage for group in result.groups]
    if expected_coverage is not None and coverage != list(expected_coverage):
        return f"coverage {coverage} != reference {list(expected_coverage)}"
    return None


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "absent"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "absent"
    return out.stdout.strip()


def _source_digest() -> str:
    """Digest of ``src/**/*.py``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp(workload: str, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }
