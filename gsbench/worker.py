"""One repetition of a batch workload, in a fresh process.

Usage: ``python3 gsbench/worker.py WORKLOAD SEED [--trace]``

Builds ``SimulationSession(spec)`` cold (timed as set-up), ticks it one
``advance()`` at a time to the horizon, finalizes it, and prints one JSON
line: set-up, run and ``finalize()`` seconds, every tick's milliseconds,
the report digest and the process's peak RSS.  With ``--trace`` the layer
wrappers are installed first; the line then carries the per-layer metrics
and the spans are dumped under ``.gsbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import OUT_DIR, peak_rss_mb, report_digest
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.simulation.session import SimulationSession

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = time.perf_counter
    start = clock()
    session = SimulationSession(spec)
    setup_s = clock() - start
    if tracer is not None:
        tracer.record("setup", start, start + setup_s)

    ticks_ms = []
    run_start = clock()
    while session.step < session.horizon_steps:
        tick_start = clock()
        session.advance()
        ticks_ms.append((clock() - tick_start) * 1e3)
    finalize_start = clock()
    report = session.finalize()
    end = clock()

    result = {
        "setup_s": setup_s,
        "run_s": end - run_start,
        "finalize_s": end - finalize_start,
        "ticks_ms": ticks_ms,
        "digest": report_digest(report.to_json()),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            list(tracer.spans), session, report
        )
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
