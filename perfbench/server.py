"""The served process of the benchmark: one ValidationService behind the
default AsyncGateway, configured per workload.

Run as ``python3 perfbench/server.py --archive A --name N [options]``.
It binds an ephemeral port on 127.0.0.1, prints ``PORT <n>`` on stdout
once it accepts connections, and serves until SIGTERM or SIGINT.

Start-up loads the archive eagerly (weights, engine compile, transform
plan), attaches the rule set, and, with ``--shard-workers``, starts and
warms the shard pool, so that the first request is served hot. This is
the work ``setup_s`` measures.

With ``--trace-out FILE`` the tracing wrappers of ``perfbench/tracing.py``
are installed before the archive loads (kernel exports happen during the
load), and the spans plus layer counters are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--rules", default=None, help="rule-set JSON file to attach")
    parser.add_argument("--monitor-window", type=int, default=0)
    parser.add_argument("--shard-workers", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.install()

    from repro.runtime.service import ValidationService
    from repro.serve.transport import AsyncGateway

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    service = ValidationService(
        capacity=1,
        shard_workers=args.shard_workers,
        monitor_window=args.monitor_window,
    )
    gateway = None
    try:
        service.register(args.name, args.archive)
        service.get(args.name)
        if args.rules:
            service.set_rules(args.name, args.rules)
        if args.shard_workers >= 2:
            # The service builds its shard pool on the first sharded
            # request; building and warming it here keeps worker start-up
            # out of the first stream.
            service._parallel_for(args.name).warm()
        gateway = AsyncGateway(service, host="127.0.0.1", port=0).start()
        print(f"PORT {gateway.port}", flush=True)
        while not stop.wait(0.2):
            pass
    finally:
        if gateway is not None:
            gateway.close(drain_timeout=5.0)
        if tracer is not None:
            tracer.dump(args.trace_out, gateway=gateway)
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
