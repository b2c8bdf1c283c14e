"""The service-day scheduler daemon, in its own process.

Usage: ``python3 gsbench/daemon.py SEED [--trace]``

Builds the workload's session (timed as set-up) behind a
``SchedulerService`` on an ephemeral port with a free-running ticker,
prints a ``READY`` JSON line (port, set-up seconds, horizon, satellite and
station ids), then waits for a line on stdin before it starts ticking and
serving.  When a client POSTs ``/shutdown`` it prints a final JSON line
with its run time, every tick's milliseconds and its peak RSS (plus the
per-layer metrics under ``--trace``) and exits.

The run time is the daemon's own: from ``go`` to the end of the ticker's
last tick, plus the ``finalize()`` the ``/shutdown`` request runs.  The
wait between the last tick and the client noticing the horizon is left
out, so the client's polling step does not round the figure up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import OUT_DIR, peak_rss_mb
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service import SchedulerService
    from repro.simulation.session import SimulationSession

    spec = WORKLOADS["service-day"].spec(args.seed)
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

    # Time each tick the service's ticker runs, around the same public
    # call the batch workers time, and the first finalize().
    ticks_ms = []
    last_tick_end = None
    finalize_s = None
    advance, finalize = session.advance, session.finalize

    def timed_advance(*a, **kw):
        nonlocal last_tick_end
        tick_start = clock()
        try:
            return advance(*a, **kw)
        finally:
            last_tick_end = clock()
            ticks_ms.append((last_tick_end - tick_start) * 1e3)

    def timed_finalize(*a, **kw):
        nonlocal finalize_s
        start = clock()
        try:
            return finalize(*a, **kw)
        finally:
            if finalize_s is None:
                finalize_s = clock() - start

    session.advance, session.finalize = timed_advance, timed_finalize
    service = SchedulerService(session, port=0)
    sim = session.simulation
    print("READY " + json.dumps({
        "port": service.address[1],
        "setup_s": setup_s,
        "horizon_steps": session.horizon_steps,
        "satellites": sorted(s.satellite_id for s in sim.satellites),
        "stations": sorted(st.station_id for st in sim.network),
        "tenants": sorted(t.tenant_id for t in spec.tenants),
    }), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    go = clock()
    report = service.serve_forever()

    result = {
        "setup_s": setup_s,
        "run_s": (last_tick_end or go) - go + (finalize_s or 0.0),
        "ticks_ms": ticks_ms,
        "steps": session.step,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        spans = list(tracer.spans)
        result["layers"] = tracing.layer_metrics(spans, session, report)
        tracer.dump(OUT_DIR / f"spans-service-day-seed{args.seed}.json.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
