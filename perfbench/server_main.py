"""The benchmark's server launcher: one ``KTGServer`` at its defaults.

Run as its own process by the churn-mix workload::

    python3 perfbench/server_main.py --trace 0 --report PATH

It builds the dataset, a ``QueryService`` exactly as a user would
(``mutations=True``, which ``/mutate`` requires) and a ``KTGServer``
with every setting at its default, then prints one line
``READY <port> <monotonic time set-up started>`` and serves until
SIGTERM.  On SIGTERM it stops the server, closes the service, writes its
exit report (with ``--trace 1``, every span) to ``--report`` and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

import common


async def _serve(args: argparse.Namespace, tracer) -> None:
    from repro.datasets import registry
    from repro.server.app import KTGServer
    from repro.service.service import QueryService

    if tracer is not None:
        import tracing

        tracing.propagate_context(asyncio.get_running_loop())
    started = time.monotonic()
    graph, _ = registry.load_dataset(common.PROFILE, scale=common.SCALE)
    service = QueryService(graph, mutations=True)
    server = KTGServer(service)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    print(f"READY {server.port} {started!r}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
        service.close()
    # Written last: its presence shows the shutdown ran to the end.
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.export() if tracer is not None else []}, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    common.require_source()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    asyncio.run(_serve(args, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
