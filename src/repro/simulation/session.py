"""The event-driven session lifecycle over the simulation engine.

The batch :meth:`Simulation.run` executes a whole horizon in one call;
a :class:`SimulationSession` drives the *same* four engine stages
(:meth:`~Simulation._begin_loop`, :meth:`~Simulation._step_once`,
:meth:`~Simulation._drain_backend`, :meth:`~Simulation._finalize_report`)
tick by tick, accepting control inputs between ticks:

* :class:`SubmitRequest` -- a tenant asks for a window of a satellite's
  capture stream (injected ahead of the seeded demand stream);
* :class:`QuotaUpdate` -- a tenant's per-day quota changes mid-run (the
  quota-aware pricing sees it at the next scheduling pass);
* :class:`OutageNotice` -- a station announces a maintenance window (the
  scheduler routes around it from the next pass).

Events queue in :meth:`SimulationSession.ingest` and apply at the *next*
tick boundary, never retroactively.  Each tick's executed links are
diffed against the previous tick's into a :class:`PlanDelta` log that
clients (the :mod:`repro.service` daemon) can poll incrementally.

The replay-equivalence guarantee: a session that is never fed an event
runs the exact code path of the batch loop, so ``finalize()`` returns a
:class:`SimulationReport` byte-identical to ``Simulation.run()`` on the
same :class:`ScenarioSpec` (pinned by ``tests/simulation/test_session.py``).

Sessions inherit the engine's contact-window fast paths untouched: with
``ScenarioSpec.contact_windows`` on, each tick reads its active pairs
from the precomputed :class:`~repro.scheduling.windows.ContactWindowIndex`
and zero-contact ticks fast-forward past scheduling entirely -- an
:class:`OutageNotice` still applies, because station availability is
masked at query time, not baked into the index.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from repro.obs import build_manifest
from repro.simulation.metrics import GB_TO_BITS, SimulationReport

# -- control-plane events ----------------------------------------------------


@dataclass(frozen=True)
class SubmitRequest:
    """A tenant's externally submitted downlink request.

    ``request_id`` is the client's idempotency key: re-submitting the
    same id is acknowledged as a duplicate and queued once.  The next
    ``chunks`` captures of ``satellite_id`` are stamped with this
    request's tenant/priority/deadline, preempting the seeded stream.
    ``priority`` and ``sla_deadline_s`` default to the tenant's own tier
    and SLA when omitted.
    """

    request_id: str
    tenant_id: str
    satellite_id: str
    chunks: int = 1
    priority: float | None = None
    sla_deadline_s: float | None = None
    region: str = ""


@dataclass(frozen=True)
class QuotaUpdate:
    """A mid-run change to one tenant's per-day quota (GB; 0 = unlimited)."""

    tenant_id: str
    quota_gb_per_day: float


@dataclass(frozen=True)
class OutageNotice:
    """An announced station maintenance window [start, end)."""

    station_id: str
    start: datetime
    end: datetime


@dataclass(frozen=True)
class PlanDelta:
    """One tick's change to the executed downlink plan.

    ``assigned`` lists (satellite_id, station_id) links that started
    this tick; ``released`` lists links that ended.  A satellite
    switching stations appears in both.  Ticks whose links match the
    previous tick produce no delta, so the log length measures plan
    churn directly.
    """

    seq: int
    step: int
    when: str
    assigned: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    released: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "step": self.step,
            "when": self.when,
            "assigned": [list(pair) for pair in self.assigned],
            "released": [list(pair) for pair in self.released],
        }


_EVENT_TYPES = (SubmitRequest, QuotaUpdate, OutageNotice)


class SimulationSession:
    """An incrementally driven simulation accepting events between ticks.

    Build from a :class:`~repro.core.scenarios.ScenarioSpec` (or an
    already-assembled :class:`~repro.core.scenarios.Scenario`), then
    alternate :meth:`ingest` and :meth:`advance` until the horizon, and
    :meth:`finalize` into the :class:`SimulationReport`::

        session = SimulationSession(spec)
        session.ingest([SubmitRequest("r-1", "premium", sat_id)])
        session.advance(steps=10)
        report = session.finalize()
    """

    def __init__(self, spec=None, *, scenario=None):
        if (spec is None) == (scenario is None):
            raise TypeError(
                "SimulationSession takes exactly one of spec= or scenario="
            )
        if scenario is None:
            scenario = spec.build()
        self.scenario = scenario
        self.spec = scenario.spec
        self.simulation = scenario.simulation
        self._step = 0
        self._pending: list = []
        self._seen_request_ids: set[str] = set()
        self._injected_count = 0
        self._deltas: list[PlanDelta] = []
        self._last_executed: dict[int, int] = {}
        self._stack: contextlib.ExitStack | None = None
        self._report: SimulationReport | None = None
        self._satellite_ids = {
            s.satellite_id for s in self.simulation.satellites
        }
        self._station_ids = {
            st.station_id for st in self.simulation.network
        }

    # -- clock --------------------------------------------------------------

    @property
    def step(self) -> int:
        """The next step index :meth:`advance` will execute."""
        return self._step

    @property
    def now(self) -> datetime:
        """The wall clock at the session's current position."""
        cfg = self.simulation.config
        return cfg.start + timedelta(seconds=self._step * cfg.step_s)

    @property
    def horizon_steps(self) -> int:
        return self.simulation.config.num_steps

    @property
    def finished(self) -> bool:
        """Whether :meth:`finalize` has produced the report."""
        return self._report is not None

    # -- event intake -------------------------------------------------------

    def ingest(self, events) -> list[dict]:
        """Validate and queue events for the next tick, atomically.

        Every event is validated before any is queued: one bad event
        rejects the whole batch with ``ValueError`` and queues nothing.
        Returns one acknowledgement dict per event; a re-submitted
        ``SubmitRequest.request_id`` is acknowledged as ``"duplicate"``
        and not queued again (idempotent submission).
        """
        if self._report is not None:
            raise RuntimeError("session is finalized; no further events")
        events = list(events)
        for event in events:
            self._validate(event)
        acks = []
        for event in events:
            if isinstance(event, SubmitRequest):
                if event.request_id in self._seen_request_ids:
                    acks.append({"event": "submit_request",
                                 "request_id": event.request_id,
                                 "status": "duplicate"})
                    continue
                self._seen_request_ids.add(event.request_id)
                acks.append({"event": "submit_request",
                             "request_id": event.request_id,
                             "status": "queued"})
            elif isinstance(event, QuotaUpdate):
                acks.append({"event": "quota_update",
                             "tenant_id": event.tenant_id,
                             "status": "queued"})
            else:
                acks.append({"event": "outage_notice",
                             "station_id": event.station_id,
                             "status": "queued"})
            self._pending.append(event)
        return acks

    def _tenant_ids(self) -> set[str]:
        demand = self.simulation.demand
        if demand is None:
            return set()
        return {t.tenant_id for t in demand.tenants}

    def _validate(self, event) -> None:
        if not isinstance(event, _EVENT_TYPES):
            raise ValueError(
                f"unknown event type {type(event).__name__!r}; expected "
                "SubmitRequest, QuotaUpdate, or OutageNotice"
            )
        if isinstance(event, (SubmitRequest, QuotaUpdate)):
            if self.simulation.demand is None:
                raise ValueError(
                    f"{type(event).__name__} needs a tenanted scenario "
                    "(ScenarioSpec(tenants=...))"
                )
            if event.tenant_id not in self._tenant_ids():
                raise ValueError(f"unknown tenant {event.tenant_id!r}")
        if isinstance(event, SubmitRequest):
            if not event.request_id:
                raise ValueError("SubmitRequest.request_id must be non-empty")
            if event.satellite_id not in self._satellite_ids:
                raise ValueError(
                    f"unknown satellite {event.satellite_id!r}"
                )
            if event.chunks < 1:
                raise ValueError("SubmitRequest.chunks must be >= 1")
            for name in ("priority", "sla_deadline_s"):
                value = getattr(event, name)
                if value is not None and not math.isfinite(value):
                    raise ValueError(
                        f"SubmitRequest.{name} must be finite, got {value}"
                    )
            if event.sla_deadline_s is not None:
                # Like a tenant's SLA, the override is a positive span,
                # and the deadline it stamps on the run's last capture
                # must still be a representable instant.
                if event.sla_deadline_s <= 0.0:
                    raise ValueError(
                        "SubmitRequest.sla_deadline_s must be positive"
                    )
                config = self.simulation.config
                try:
                    config.start + timedelta(
                        seconds=config.duration_s + event.sla_deadline_s
                    )
                except OverflowError:
                    raise ValueError(
                        "SubmitRequest.sla_deadline_s is too large: "
                        f"{event.sla_deadline_s}"
                    ) from None
        elif isinstance(event, QuotaUpdate):
            if not math.isfinite(event.quota_gb_per_day):
                raise ValueError("quota_gb_per_day must be finite")
            if event.quota_gb_per_day < 0.0:
                raise ValueError("quota_gb_per_day must be >= 0")
        elif isinstance(event, OutageNotice):
            if event.station_id not in self._station_ids:
                raise ValueError(f"unknown station {event.station_id!r}")
            if event.start.tzinfo is not None or event.end.tzinfo is not None:
                raise ValueError(
                    "outage times must be naive UTC datetimes (the "
                    "simulation clock carries no time zone)"
                )
            if event.end <= event.start:
                raise ValueError("outage must end after it starts")
            sim = self.simulation
            if sim.outages is not None and not sim.outages_announced:
                raise ValueError(
                    "cannot announce outages over an unannounced "
                    "OutageSchedule"
                )

    # -- ticking ------------------------------------------------------------

    def _start(self) -> None:
        """Open the run exactly as the batch path does."""
        sim = self.simulation
        rec = sim.obs
        if rec.enabled:
            rec.start_run(build_manifest(
                config=sim.config,
                seeds=rec.config.seeds,
                extra=rec.config.manifest_extra,
            ))
        sim._begin_loop()
        self._stack = contextlib.ExitStack()
        self._stack.enter_context(rec.span("run"))

    def _apply(self, event) -> None:
        sim = self.simulation
        if isinstance(event, SubmitRequest):
            from repro.demand import DownlinkRequest

            tenant = next(
                t for t in sim.demand.tenants
                if t.tenant_id == event.tenant_id
            )
            self._injected_count += 1
            request = DownlinkRequest(
                # Injected ids number their own sequence, disjoint from
                # the seeded per-satellite streams (which count up from
                # zero) so stamped chunks stay attributable.
                request_id=-self._injected_count,
                tenant_id=event.tenant_id,
                priority=(
                    float(tenant.tier) if event.priority is None
                    else float(event.priority)
                ),
                region=event.region,
                sla_deadline_s=(
                    tenant.sla_deadline_s if event.sla_deadline_s is None
                    else float(event.sla_deadline_s)
                ),
            )
            sim.demand.assigner.inject(
                event.satellite_id, request, chunks=event.chunks
            )
        elif isinstance(event, QuotaUpdate):
            sim.demand.accountant.set_quota(
                event.tenant_id, event.quota_gb_per_day
            )
        elif isinstance(event, OutageNotice):
            sim.announce_outage(event.station_id, event.start, event.end)

    def advance(self, until: datetime | None = None, *,
                steps: int | None = None) -> list[PlanDelta]:
        """Execute ticks up to ``until`` (exclusive) or for ``steps`` ticks.

        With neither argument, advances one tick.  Pending events apply
        at the first tick boundary; in planned execution mode an applied
        event also forces the next plan issue so the re-plan sees it.
        Returns the :class:`PlanDelta` entries the ticks produced.
        Advancing past the configured horizon stops at the horizon.
        """
        if self._report is not None:
            raise RuntimeError("session is finalized; no further ticks")
        if until is not None and steps is not None:
            raise TypeError("advance takes at most one of until= or steps=")
        cfg = self.simulation.config
        if until is not None:
            target = int(
                (until - cfg.start).total_seconds() // cfg.step_s
            )
        elif steps is not None:
            if steps < 0:
                raise ValueError("steps must be >= 0")
            target = self._step + steps
        else:
            target = self._step + 1
        target = min(target, cfg.num_steps)
        if self._stack is None and self._step < target:
            self._start()
        sim = self.simulation
        first_seq = len(self._deltas)
        while self._step < target:
            if self._pending:
                for event in self._pending:
                    self._apply(event)
                self._pending.clear()
                if cfg.execution_mode == "planned":
                    # Force a plan re-issue at this tick so the new
                    # demand/outage state reaches the stations' plan.
                    sim._next_plan_issue = self.now
            executed = sim._step_once(self._step)
            self._record_delta(self._step, executed)
            self._step += 1
        return self._deltas[first_seq:]

    def _record_delta(self, step: int, executed: dict[int, int]) -> None:
        sim = self.simulation
        previous = self._last_executed
        assigned = [
            (sim.satellites[i].satellite_id,
             sim.network[j].station_id)
            for i, j in executed.items() if previous.get(i) != j
        ]
        released = [
            (sim.satellites[i].satellite_id,
             sim.network[j].station_id)
            for i, j in previous.items() if executed.get(i) != j
        ]
        self._last_executed = dict(executed)
        if not assigned and not released:
            return
        self._deltas.append(PlanDelta(
            seq=len(self._deltas) + 1,
            step=step,
            when=sim._now.isoformat(),
            assigned=tuple(sorted(assigned)),
            released=tuple(sorted(released)),
        ))

    # -- reads --------------------------------------------------------------

    def plan(self) -> list[dict]:
        """The currently executing links, sorted by satellite id."""
        sim = self.simulation
        return sorted(
            (
                {"satellite_id": sim.satellites[i].satellite_id,
                 "station_id": sim.network[j].station_id}
                for i, j in self._last_executed.items()
            ),
            key=lambda link: link["satellite_id"],
        )

    def plan_deltas(self, since: int = 0) -> list[PlanDelta]:
        """Deltas with ``seq > since`` (``since=0`` returns the full log)."""
        if since < 0:
            raise ValueError("since must be >= 0")
        return [d for d in self._deltas if d.seq > since]

    def snapshot(self) -> dict:
        """The session's current position and queue/backlog state."""
        sim = self.simulation
        return {
            "step": self._step,
            "horizon_steps": self.horizon_steps,
            "now": self.now.isoformat(),
            "finished": self.finished,
            "pending_events": len(self._pending),
            "delta_seq": len(self._deltas),
            "delivered_bits": sim.metrics.delivered_bits,
            "generated_bits": sim.metrics.generated_bits,
            "backlog_gb": {
                s.satellite_id: s.storage.true_backlog_bits / GB_TO_BITS
                for s in sim.satellites
            },
        }

    # -- completion ---------------------------------------------------------

    def finalize(self) -> SimulationReport:
        """Drain the backend, close the run, and build the report.

        Mirrors the batch path's end-of-run sequence stage for stage,
        which is what keeps an event-free session's report byte-identical
        to ``Simulation.run()``.  Idempotent: later calls return the same
        report.
        """
        if self._report is not None:
            return self._report
        sim = self.simulation
        rec = sim.obs
        if self._stack is None:
            # A session finalized before any tick still opens/closes the
            # run bracket so traces and manifests stay well-formed.
            self._start()
        try:
            sim._drain_backend()
        finally:
            self._stack.close()
        if rec.enabled:
            sim._record_component_stats()
        self._report = sim._finalize_report()
        rec.finish_run(
            fault_counters=(
                sim.fault_counters.as_dict()
                if sim.faults is not None else None
            ),
            status="ok",
            delivered_bits=self._report.delivered_bits,
            generated_bits=self._report.generated_bits,
        )
        return self._report

    def run_to_horizon(self) -> SimulationReport:
        """Advance through every remaining tick and finalize."""
        self.advance(steps=self.horizon_steps - self._step)
        return self.finalize()
