"""Outside-in layer tracing for the benchmark's traced runs.

The program is left untouched: :func:`install` replaces public functions
and methods of each layer with thin wrappers that record one span per
call -- name, start, end, parent span, tick id and a work count -- into an
in-memory :class:`Tracer`.  Spans are dumped once, when the process ends
its run, and :func:`layer_metrics` turns them into the per-layer metrics.

The program's own recorder (``ObsConfig``) stays off: enabling it sends
``DownlinkScheduler.contact_graph`` down a different weather path, so the
trace would time a different program.  Wrapping traps handled here: the
matcher is looked up per call from ``scheduler._MATCHERS``; the engine
imports ``shared_ephemeris_table`` and ``shared_window_index`` by name;
``edge_values`` is looked up on the value-function instance, so it is
wrapped on each value-function class.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from pathlib import Path

from common import percentile

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "setup.s": "s",
    "orbits.ephemeris_s": "s",
    "windows.build_s": "s",
    "windows.pair_steps": "count",
    "windows.windows": "count",
    "graph.s": "s",
    "graph.self_s": "s",
    "graph.calls": "count",
    "graph.edges": "count",
    "weather.sample_s": "s",
    "weather.samples": "count",
    "weather.inner_samples": "count",
    "weather.hit_ratio": "ratio",
    "linkbudget.kernel_s": "s",
    "linkbudget.pairs": "count",
    "value.pricing_s": "s",
    "value.priced": "count",
    "value.deadline_priced": "count",
    "matching.s": "s",
    "matching.calls": "count",
    "matching.assignments": "count",
    "matching.yield": "ratio",
    "matching.tick_share": "ratio",
    "engine.self_s": "s",
    "engine.idle_ticks": "count",
    "network.backend_s": "s",
    "network.receipts": "count",
    "diversity.copies": "count",
    "diversity.rescues": "count",
    "demand.s": "s",
    "demand.injected": "count",
    "session.ingest_s": "s",
    "session.events": "count",
    "session.deltas": "count",
    "session.tick_p50_ms": "ms",
    "session.tick_p99_ms": "ms",
    "service.handle_p50_ms": "ms",
    "service.lock_wait_p90_ms": "ms",
    "service.write_p50_ms": "ms",
    "service.read_p50_ms": "ms",
    "loadgen.late_p90_ms": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

# Span tuple layout: (id, name, start, end, parent id, tick, count).
SID, NAME, START, END, PARENT, TICK, COUNT = range(7)


class Tracer:
    """An in-memory span store shared by every wrapper in one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tick = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, count=None, on_enter=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` gives the span's work count;
        ``on_enter(args)`` runs before the call (the tick wrapper uses it
        to stamp the tick id).
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, count, on_enter))

    def _wrapper(self, original, name, count, on_enter):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if on_enter is not None:
                on_enter(args)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            n = count(args, kwargs, result) if count is not None else 1
            spans.append((sid, name, start, end, parent, tracer.tick, n))
            return result

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Add a root span for one of the benchmark's own phases."""
        self.spans.append((next(self._ids), name, start, end, 0, self.tick, 1))

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON (one row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["id", "name", "start", "end", "parent", "tick",
                        "count"],
            "spans": sorted(self.spans),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _n_edges(args, kwargs, result):
    return result.num_edges


def _n_pairs(args, kwargs, result):
    return int(kwargs["range_km"].size)


def _n_priced(args, kwargs, result):
    return int(args[2].size)


def _n_result(args, kwargs, result):
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; call before the session is built."""
    from repro.demand.accounting import TenantAccountant
    from repro.demand.requests import DemandAssigner
    from repro.linkbudget.budget import LinkBudget
    from repro.network.backend import BackendCollator
    from repro.scheduling import scheduler as scheduler_mod
    from repro.scheduling import value_functions as vf
    from repro.service import daemon as daemon_mod
    from repro.simulation import engine
    from repro.simulation.session import SimulationSession
    from repro.weather.provider import QuantizedWeatherCache

    wrap = tracer.wrap

    def stamp_tick(args):
        tracer.tick = args[0].step

    # Set-up layers.
    wrap(engine, "shared_ephemeris_table", "orbits.ephemeris")
    wrap(engine, "shared_window_index", "windows.build")
    # Session: the tick, event intake and reads.
    wrap(SimulationSession, "advance", "session.advance", on_enter=stamp_tick)
    wrap(SimulationSession, "ingest", "session.ingest", count=_n_result)
    for attr in ("snapshot", "plan", "plan_deltas"):
        wrap(SimulationSession, attr, "session.read")
    # Scheduling: graph build (with weather, link kernel and pricing
    # inside it) and matching.
    wrap(scheduler_mod.DownlinkScheduler, "schedule_step", "scheduler.step")
    wrap(scheduler_mod.DownlinkScheduler, "contact_graph", "graph",
         count=_n_edges)
    for attr in ("sample", "sample_prequantized"):
        wrap(QuantizedWeatherCache, attr, "weather")
    wrap(LinkBudget, "evaluate_batch", "linkbudget", count=_n_pairs)
    wrap(vf.LatencyValue, "edge_values", "value", count=_n_priced)
    wrap(vf.ThroughputValue, "edge_values", "value", count=_n_priced)
    wrap(vf.DeadlineSlaValue, "edge_values", "value.deadline",
         count=_n_priced)
    for key, matcher in list(scheduler_mod._MATCHERS.items()):
        scheduler_mod._MATCHERS[key] = tracer._wrapper(
            matcher, "matching", _n_result, None
        )
    # Execution back end and demand.
    for attr in ("advance", "submit_receipt", "issue_ack_batch"):
        wrap(BackendCollator, attr, "network.backend")
    wrap(DemandAssigner, "stamp", "demand")
    wrap(DemandAssigner, "inject", "demand.inject")
    for attr in ("record_generation", "record_delivery", "record_run_end",
                 "set_quota", "under_quota", "summary"):
        wrap(TenantAccountant, attr, "demand")
    # Service: the handler and the locked service call around the
    # session call.
    for attr in ("health", "current_plan", "deltas_since", "metrics",
                 "submit"):
        wrap(daemon_mod.SchedulerService, attr, "service.call")
    for attr in ("do_GET", "do_POST"):
        wrap(daemon_mod._Handler, attr, "service.handle")


def layer_metrics(spans: list[tuple], session, report) -> dict[str, float]:
    """Per-layer metrics from one process's spans, its finalized session
    and that session's report."""
    by_name: dict[str, list[tuple]] = {}
    child_time: dict[int, float] = {}
    has_schedule: set[int] = set()
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) \
            + (s[END] - s[START])
        if s[NAME] == "scheduler.step":
            has_schedule.add(s[PARENT])

    def total(*names):
        return sum(s[END] - s[START] for n in names
                   for s in by_name.get(n, ()))

    def self_time(*names):
        return sum(s[END] - s[START] - child_time.get(s[SID], 0.0)
                   for n in names for s in by_name.get(n, ()))

    def count(*names):
        return sum(s[COUNT] for n in names for s in by_name.get(n, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def durations_ms(name):
        return [(s[END] - s[START]) * 1e3 for s in by_name.get(name, ())]

    sim = session.simulation
    index = sim.window_index
    weather = sim.truth_weather
    advance = by_name.get("session.advance", [])
    advance_s = total("session.advance")
    covered = sum(child_time.get(s[SID], 0.0) for s in advance)
    graph_edges = count("graph")
    diversity = report.diversity or {}
    weather_calls = calls("weather")
    lock_wait = [
        (s[END] - s[START] - child_time.get(s[SID], 0.0)) * 1e3
        for s in by_name.get("service.call", ())
    ]
    return {
        "setup.s": total("setup"),
        "orbits.ephemeris_s": total("orbits.ephemeris"),
        "windows.build_s": total("windows.build"),
        "windows.pair_steps": int(index.pair_sat.size) if index else 0,
        "windows.windows": int(index.num_windows) if index else 0,
        "graph.s": total("graph"),
        "graph.self_s": self_time("graph"),
        "graph.calls": calls("graph"),
        "graph.edges": graph_edges,
        "weather.sample_s": total("weather"),
        "weather.samples": weather_calls,
        "weather.inner_samples": getattr(weather, "misses", 0),
        "weather.hit_ratio": (
            1.0 - getattr(weather, "misses", 0) / weather_calls
            if weather_calls else 0.0
        ),
        "linkbudget.kernel_s": total("linkbudget"),
        "linkbudget.pairs": count("linkbudget"),
        "value.pricing_s": total("value", "value.deadline"),
        "value.priced": count("value", "value.deadline"),
        "value.deadline_priced": count("value.deadline"),
        "matching.s": total("matching"),
        "matching.calls": calls("matching"),
        "matching.assignments": count("matching"),
        "matching.yield": (
            count("matching") / graph_edges if graph_edges else 0.0
        ),
        "matching.tick_share": (
            total("matching") / advance_s if advance_s else 0.0
        ),
        "engine.self_s": self_time("session.advance"),
        "engine.idle_ticks": sum(
            1 for s in advance if s[SID] not in has_schedule
        ),
        "network.backend_s": total("network.backend"),
        "network.receipts": sim.backend.total_receipts,
        "diversity.copies": diversity.get("copies_attempted", 0),
        "diversity.rescues": diversity.get("rescued_by_diversity", 0),
        "demand.s": total("demand", "demand.inject"),
        "demand.injected": calls("demand.inject"),
        "session.ingest_s": total("session.ingest"),
        "session.events": count("session.ingest"),
        "session.deltas": len(session.plan_deltas()),
        "session.tick_p50_ms": percentile(durations_ms("session.advance"), 50),
        "session.tick_p99_ms": percentile(durations_ms("session.advance"), 99),
        "service.handle_p50_ms": percentile(durations_ms("service.handle"), 50),
        "service.lock_wait_p90_ms": percentile(lock_wait, 90),
        "trace.coverage": covered / advance_s if advance_s else 0.0,
    }
