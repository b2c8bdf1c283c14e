"""The discrete-time data-transfer simulation engine.

Each step (default 60 s, the cadence at which the paper re-runs stable
matching):

1. satellites capture imagery (100 GB/day default);
2. in-flight Internet receipts land at the backend;
3. the scheduler matches the contact graph (on forecast weather when
   configured, otherwise truth);
4. matched satellites transmit at the *planned* rate -- if truth weather
   is worse than the forecast the ground cannot decode and the bits are
   lost (ack-free downlink's failure mode);
5. successfully decoded chunk completions become receipts to the backend;
6. transmit-capable contacts upload a plan timestamp and the collated ack
   batch; stale unacked chunks are requeued for retransmission.

The engine mutates the satellites' storage in place; run a fresh fleet
per experiment variant (``repro.core`` scenario helpers do this).
"""

from __future__ import annotations

from collections.abc import Sequence
from datetime import datetime, timedelta

import numpy as np

from repro.faults import FaultCounters, FaultSchedule
from repro.groundstations.network import GroundStationNetwork
from repro.linkbudget.decode import decode_probability_batch
from repro.network.backend import BackendCollator
from repro.network.diversity import DiversityCombiner
from repro.network.messages import ChunkReceiptMessage
from repro.obs import ObsConfig, build_manifest, make_recorder
from repro.orbits.ephemeris import EphemerisTable, shared_ephemeris_table
from repro.orbits.sgp4 import SGP4Error
from repro.satellites.data import ChunkIdAllocator
from repro.satellites.satellite import Satellite
from repro.scheduling.matching import Assignment
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.windows import shared_window_index
from repro.scheduling.value_functions import ValueFunction
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import GB_TO_BITS, MetricsCollector, SimulationReport
from repro.weather.forecast import ForecastProvider
from repro.weather.provider import ClearSkyProvider, WeatherProvider


class Simulation:
    """One configured data-transfer simulation.

    All constructor arguments are keyword-only; ``satellites``,
    ``network``, ``value_function``, and ``config`` are required.
    """

    def __init__(
        self,
        *args,
        satellites: list[Satellite] | None = None,
        network: GroundStationNetwork | None = None,
        value_function: ValueFunction | None = None,
        config: SimulationConfig | None = None,
        truth_weather: WeatherProvider | None = None,
        forecast: ForecastProvider | None = None,
        capacities: list[int] | None = None,
        outages: "OutageSchedule | None" = None,
        outages_announced: bool = False,
        faults: FaultSchedule | None = None,
        faults_announced: bool = True,
        fault_availability_prior: float | None = None,
        demand: "DemandLayer | None" = None,
        observability: ObsConfig | None = None,
        scheduler_factory=DownlinkScheduler,
    ):
        if args:
            raise TypeError(
                "Simulation() no longer accepts positional arguments (the "
                "PR-3 deprecation shim was removed); pass satellites=, "
                "network=, value_function=, config= (and truth_weather=) as "
                "keywords, or describe the run with repro.ScenarioSpec"
            )
        missing = [
            name for name, value in (
                ("satellites", satellites), ("network", network),
                ("value_function", value_function), ("config", config),
            ) if value is None
        ]
        if missing:
            raise TypeError(
                "Simulation missing required keyword arguments: "
                + ", ".join(f"{name}=" for name in missing)
            )
        #: The run's recorder: a live :class:`repro.obs.Recorder` when an
        #: enabled ObsConfig was passed, the shared no-op otherwise.
        self.obs = make_recorder(observability)
        self.satellites = satellites
        self.network = network
        self.config = config
        self.outages = outages
        #: Announced outages (maintenance) are known to the scheduler, so
        #: it routes around them; unannounced failures waste the pass.
        self.outages_announced = outages_announced
        #: The seeded fault-injection layer (None = healthy run; the
        #: engine then behaves bit-identically to a build without it).
        self.faults = faults
        #: Announced faults let the scheduler prune/down-weight edges to
        #: faulted stations; unannounced ones are discovered the hard way.
        self.faults_announced = faults_announced
        #: With a prior p in (0, 1], edges to hard-down announced stations
        #: survive at weight * p -- the scheduler gambles the station may
        #: recover -- instead of being pruned outright.
        self.fault_availability_prior = fault_availability_prior
        self.fault_counters = FaultCounters()
        #: Diversity-reception combiner (``execution_mode="diversity"``
        #: only; None otherwise, so every other mode's report is
        #: byte-identical to builds without the diversity layer).
        self.diversity = (
            DiversityCombiner(seed=config.diversity_seed)
            if config.execution_mode == "diversity" else None
        )
        #: Chunk ids whose first decoded delivery has been recorded; a
        #: redelivery (receipt lost in a partition -> requeue ->
        #: retransmit) must not double-count delivered bits or latency.
        self._delivered_chunk_ids: set[int] = set()
        #: The multi-tenant demand layer (None = the legacy uniform
        #: single-tenant stream; the engine then behaves bit-identically
        #: to a build without it).
        self.demand = demand
        # Per-simulation chunk numbering: ids restart per run instead of
        # continuing a process-global counter, so two in-process runs of
        # the same scenario produce identical reports.  Starting above
        # any pre-existing id keeps ids fleet-unique (the delivered-chunk
        # dedup set above requires that) even when data was generated
        # before this Simulation existed.
        existing_ids = [
            chunk.chunk_id
            for sat in satellites for chunk in sat.storage.all_chunks()
        ]
        self._chunk_ids = ChunkIdAllocator(
            max(existing_ids) + 1 if existing_ids else 0
        )
        for sat in satellites:
            sat.chunk_ids = self._chunk_ids
            if demand is not None:
                sat.demand = demand.assigner
        self.truth_weather = truth_weather or ClearSkyProvider()
        if config.use_forecast and forecast is None:
            forecast = ForecastProvider(self.truth_weather)
        self.forecast = forecast
        scheduler_weather = forecast if config.use_forecast else self.truth_weather
        station_available = None
        if outages is not None and outages_announced:
            def station_available(index: int, when) -> bool:
                return not outages.is_down(network[index].station_id, when)
        station_weight = None
        if faults is not None and faults_announced:
            # Single-penalty contract: this factor prices *fault*
            # availability only, and the graph applies it exactly once as
            # the edge's weight_factor.  Weather never enters here -- rain
            # already discounts the same edge through the link budget's
            # attenuation -- so a station inside a storm cell AND under an
            # injected outage is discounted once for each cause, not
            # twice for either (pinned by
            # tests/faults/test_weather_fault_interaction.py).
            def station_weight(index: int, when) -> float:
                availability = faults.station_availability(
                    network[index].station_id, when
                )
                if availability <= 0.0:
                    # Hard down: prune, unless a prior keeps a gamble edge.
                    return fault_availability_prior or 0.0
                return availability
        with self.obs.span("ephemeris_build"):
            self.ephemeris = self._build_ephemeris(
                satellites, config, recorder=self.obs
            )
        #: ``scheduler_factory`` builds the scheduler family (the base
        #: :class:`DownlinkScheduler`, or a horizon/beamforming subclass
        #: bound to its own parameters); every family gets this same
        #: engine wiring.
        self.scheduler = scheduler_factory(
            satellites=satellites,
            network=network,
            value_function=value_function,
            matcher=config.matcher,
            weather=scheduler_weather,
            step_s=config.step_s,
            capacities=capacities,
            acm_margin_db=config.acm_margin_db,
            require_current_plan=config.enforce_plan_distribution,
            plan_max_age_s=config.plan_max_age_s,
            station_available=station_available,
            station_weight=station_weight,
            ephemeris=self.ephemeris,
            recorder=self.obs,
        )
        # Precompute the pass structure once: candidate generation per
        # step becomes an index lookup and idle ticks (no pair in a pass)
        # skip scheduling entirely -- byte-identical either way.  Needs
        # a precomputed ephemeris; inert otherwise.
        self.window_index = None
        if config.contact_windows and self.ephemeris is not None:
            index_steps = config.num_steps
            if config.execution_mode == "planned":
                index_steps += int(config.plan_horizon_s // config.step_s) + 1
            with self.obs.span("window_index_build"):
                self.window_index = shared_window_index(
                    satellites,
                    network,
                    start=config.start,
                    num_steps=index_steps,
                    step_s=config.step_s,
                    geometry=self.scheduler._geometry,
                    ephemeris=self.ephemeris,
                    culling=self.scheduler._culling_grid,
                    link_budget_for=self.scheduler._link_budget_for,
                    pair_groups=self.scheduler._pair_groups,
                    recorder=self.obs,
                )
            self.scheduler.window_index = self.window_index
        self.backend = BackendCollator()
        self.metrics = MetricsCollector()
        from repro.simulation.events import EventLog

        self.events = EventLog() if config.record_events else None
        # Vectorized imagery accumulator (see :meth:`_generate`); filled
        # lazily so standalone constructions stay cheap.
        self._gen_acc = None
        self._gen_per_step = None
        self._gen_chunk_bits = None
        self._gen_active = None
        self._power_enabled = any(s.power is not None for s in satellites)
        self._sunlit: dict[int, bool] = {}
        self._transmitted_this_step: set[int] = set()
        self.power_blocked_steps = 0
        self._previous_links: dict[int, int] = {}
        #: Count of satellite->station link changes across the whole run
        #: (antenna slews the network performed); exposed for churn
        #: analysis of matching policies.
        self.link_changes = 0
        # Planned-execution state (config.execution_mode == "planned").
        self._latest_plan = None  # what stations follow (Internet-fresh)
        self._satellite_plans: dict[int, object] = {}  # what satellites hold
        self._next_plan_issue = config.start
        #: Steps where a satellite transmitted per its (stale) plan at a
        #: station that was no longer pointing at it.
        self.plan_mismatch_steps = 0
        # Stepped-lifecycle state (set by _begin_loop, advanced by
        # _step_once): the wall clock of the last executed step and the
        # last forecast issue time.  run() and SimulationSession drive
        # the same four stages, so both paths share these.
        self._now = config.start
        self._last_forecast_issue = config.start

    @staticmethod
    def _build_ephemeris(satellites: list[Satellite],
                         config: SimulationConfig,
                         recorder=None) -> "EphemerisTable | None":
        """Batch-propagate the fleet over the run's scheduling grid.

        Planned execution looks ahead a plan horizon past the last step,
        so the table covers that too.  A fleet that decays mid-horizon
        falls back to lazy per-satellite propagation (which raises at the
        offending step, as the scalar path always did).
        """
        if not config.precompute_ephemeris or not satellites:
            return None
        steps = config.num_steps
        if config.execution_mode == "planned":
            steps += int(config.plan_horizon_s // config.step_s) + 1
        try:
            if config.ephemeris_window_steps > 0:
                from repro.orbits.ephemeris import StreamingEphemerisTable

                return StreamingEphemerisTable(
                    satellites, config.start, steps, config.step_s,
                    window_steps=config.ephemeris_window_steps,
                    dtype=config.ephemeris_dtype,
                    recorder=recorder,
                )
            return shared_ephemeris_table(
                satellites, config.start, steps, config.step_s,
                dtype=config.ephemeris_dtype,
                recorder=recorder,
            )
        except SGP4Error:
            return None

    # -- mid-run control inputs ---------------------------------------------

    def announce_outage(self, station_id: str, start: datetime,
                        end: datetime) -> None:
        """Register a station maintenance window announced mid-run.

        The window is appended to the simulation's (announced) outage
        schedule and the scheduler routes around it from the next
        scheduling pass.  A simulation configured with an *unannounced*
        schedule refuses the call: a notice cannot retroactively make
        surprise failures known to the scheduler.
        """
        from repro.simulation.faults import Outage, OutageSchedule

        if self.outages is not None and not self.outages_announced:
            raise ValueError(
                "cannot announce outages on a simulation configured with "
                "an unannounced OutageSchedule"
            )
        known = {st.station_id for st in self.network}
        if station_id not in known:
            raise ValueError(f"unknown station {station_id!r}")
        if self.outages is None:
            self.outages = OutageSchedule()
            self.outages_announced = True
            network = self.network
            outages = self.outages

            def station_available(index: int, when) -> bool:
                return not outages.is_down(network[index].station_id, when)

            self.scheduler.station_available = station_available
        self.outages.add(Outage(station_id, start, end))

    # -- main loop --------------------------------------------------------------

    def run(self) -> SimulationReport:
        """Execute the configured run and return the report."""
        cfg = self.config
        rec = self.obs
        if rec.enabled:
            rec.start_run(build_manifest(
                config=cfg,
                seeds=rec.config.seeds,
                extra=rec.config.manifest_extra,
            ))
        try:
            report = self._run_observed()
        except BaseException:
            rec.finish_run(status="error")
            raise
        rec.finish_run(
            fault_counters=(
                self.fault_counters.as_dict()
                if self.faults is not None else None
            ),
            status="ok",
            delivered_bits=report.delivered_bits,
            generated_bits=report.generated_bits,
        )
        return report

    def _run_observed(self) -> SimulationReport:
        """The main loop, staged under the recorder's ``run`` span.

        The batch path is just the stepped lifecycle driven to the
        horizon in one go: :meth:`_begin_loop`, then
        :meth:`_step_once` per step, then :meth:`_drain_backend` and
        :meth:`_finalize_report`.  :class:`SimulationSession` drives
        the identical stages tick by tick, which is what makes the
        replay-equivalence guarantee hold by construction.
        """
        cfg = self.config
        rec = self.obs
        self._begin_loop()
        with rec.span("run"):
            for k in range(cfg.num_steps):
                self._step_once(k)
            self._drain_backend()
        if rec.enabled:
            self._record_component_stats()
        return self._finalize_report()

    def _begin_loop(self) -> None:
        """Reset the stepped-lifecycle clock to the configured start."""
        self._now = self.config.start
        self._last_forecast_issue = self.config.start

    def _step_once(self, k: int) -> dict[int, int]:
        """Advance the simulation by exactly one step (index ``k``).

        Must run inside the recorder's ``run`` span after
        :meth:`_begin_loop`.  Returns the executed satellite->station
        links for the step.
        """
        cfg = self.config
        rec = self.obs
        now = cfg.start + timedelta(seconds=k * cfg.step_s)
        self._now = now
        with rec.span("generate"):
            self._generate(now)
        with rec.span("backend_advance"):
            self.backend.advance(now)
        if cfg.use_forecast and (
            (now - self._last_forecast_issue).total_seconds()
            >= cfg.forecast_refresh_s
        ):
            self._last_forecast_issue = now
        self._transmitted_this_step = set()
        # Idle-tick fast-forward: when the contact-window index says zero
        # pairs are in a pass right now, the contact graph is empty by
        # construction -- an empty graph samples no weather, touches no
        # queue profile, and matches nothing -- so skipping link budget,
        # graph build, and matching outright is byte-identical.  Only the
        # scheduler that owns the index may skip (horizon/beamforming
        # replacements keep internal replan counters that must tick), and
        # planned mode never skips (plan issue ticks are time-driven).
        skip_idle = False
        if cfg.execution_mode != "planned":
            window_index = getattr(self.scheduler, "window_index", None)
            if window_index is not None:
                ki = window_index.step_of(now)
                if ki is not None and window_index.active_count(ki) == 0:
                    skip_idle = True
                    if rec.enabled:
                        rec.counter("idle_ticks_skipped")
        if cfg.execution_mode == "planned":
            with rec.span("plan_execution"):
                executed = self._planned_step(now)
        elif skip_idle:
            executed = {}
        elif cfg.execution_mode == "diversity":
            # Live matching plus extra listeners: the matched primary
            # transmits as usual while otherwise-idle stations that can
            # see the satellite record the same stream; the backend
            # combiner keeps whichever copy decodes.
            with rec.span("schedule"):
                step = self.scheduler.schedule_step(
                    now,
                    forecast_issued_at=(
                        self._last_forecast_issue if cfg.use_forecast
                        else None
                    ),
                    keep_graph=True,
                )
            with rec.span("execute"):
                self._execute_diversity_tick(step, now)
            executed = {
                a.satellite_index: a.station_index
                for a in step.assignments
            }
        else:
            with rec.span("schedule"):
                step = self.scheduler.schedule_step(
                    now,
                    forecast_issued_at=(
                        self._last_forecast_issue if cfg.use_forecast
                        else None
                    ),
                )
            with rec.span("execute"):
                truth_decodes = self._decodes_under_truth(
                    step.assignments, now
                )
                for assignment in step.assignments:
                    self._execute_assignment(assignment, now, truth_decodes)
            executed = {
                a.satellite_index: a.station_index
                for a in step.assignments
            }
        with rec.span("bookkeeping"):
            if self._power_enabled:
                self._update_power(now, k)
            self.metrics.record_step(len(executed))
            self._record_churn(executed)
            self._previous_links = executed
            if cfg.snapshot_every_steps \
                    and k % cfg.snapshot_every_steps == 0:
                self.metrics.record_snapshot(
                    now,
                    {s.satellite_id:
                     s.storage.true_backlog_bits / GB_TO_BITS
                     for s in self.satellites},
                    {s.satellite_id:
                     s.storage.stored_bits / GB_TO_BITS
                     for s in self.satellites},
                )
        if rec.enabled:
            rec.event("step", step=k, when=now.isoformat(),
                      matched=len(executed))
        return executed

    def _drain_backend(self) -> None:
        """Land any receipts still in flight so totals are conserved.

        Flushes to the latest outstanding arrival, not a fixed horizon,
        so fault-injected latency spikes cannot strand receipts past the
        drain.
        """
        with self.obs.span("drain"):
            self.backend.advance(self.backend.flush_horizon(self._now))

    def _finalize_report(self) -> SimulationReport:
        """Close the books at the current clock and build the report."""
        now = self._now
        tenant_reports: dict[str, dict] = {}
        tenant_fairness = None
        if self.demand is not None:
            self.demand.accountant.record_run_end(self.satellites, now)
            tenant_reports = self.demand.accountant.summary()
            tenant_fairness = self.demand.accountant.fairness_index()
        return self.metrics.finalize(
            final_backlog_gb={
                s.satellite_id: s.storage.true_backlog_bits / GB_TO_BITS
                for s in self.satellites
            },
            final_unacked_gb={
                s.satellite_id: s.storage.unacked_bits / GB_TO_BITS
                for s in self.satellites
            },
            fault_counters=(
                self.fault_counters.as_dict()
                if self.faults is not None else None
            ),
            stage_timings=self.obs.stage_timings(),
            link_changes=self.link_changes,
            plan_mismatch_steps=self.plan_mismatch_steps,
            tenant_reports=tenant_reports,
            tenant_fairness=tenant_fairness,
            diversity=(
                self.diversity.as_dict()
                if self.diversity is not None else None
            ),
        )

    def _record_component_stats(self) -> None:
        """End-of-run gauges and cache events from the engine's parts."""
        rec = self.obs
        for name, stat in self.backend.stats().items():
            rec.gauge(f"backend/{name}", stat)
        for label, provider in (("truth_weather", self.truth_weather),
                                ("forecast", self.forecast)):
            hits = getattr(provider, "hits", None)
            misses = getattr(provider, "misses", None)
            if hits is None or misses is None:
                continue
            rec.gauge(f"weather_cache/{label}/hits", hits)
            rec.gauge(f"weather_cache/{label}/misses", misses)
            rec.event("cache", name=f"weather/{label}",
                      hits=int(hits), misses=int(misses))
        counters = rec.counters_snapshot()
        rec.event(
            "cache", name="ephemeris",
            hits=int(counters.get("ephemeris_cache/memory_hit", 0)
                     + counters.get("ephemeris_cache/disk_hit", 0)
                     + counters.get("ephemeris_cache/shm_hit", 0)),
            misses=int(counters.get("ephemeris_cache/build", 0)),
            shm_hits=int(counters.get("ephemeris_cache/shm_hit", 0)),
        )

    # -- step pieces --------------------------------------------------------------

    def _generate(self, now: datetime) -> None:
        # Capture covers the interval that just elapsed, (now - step, now],
        # so no chunk's capture time is in the future of the transmissions
        # happening at ``now``.
        #
        # Chunk boundaries are rare (a satellite emits a handful of chunks
        # a day over 1440 steps), so the per-satellite accumulator runs as
        # one vectorized add here and ``generate_data`` is only entered on
        # boundary-crossing steps.  float64 elementwise adds are the same
        # IEEE operations the scalar accumulator performs, so emission
        # steps, capture times, and chunk ids are bit-identical.
        interval_start = now - timedelta(seconds=self.config.step_s)
        step_s = self.config.step_s
        if self._gen_acc is None:
            rates = [
                s.generation_gb_per_day * GB_TO_BITS / 86400.0
                for s in self.satellites
            ]
            self._gen_per_step = np.array([r * step_s for r in rates])
            self._gen_chunk_bits = np.array(
                [s.chunk_size_gb * GB_TO_BITS for s in self.satellites]
            )
            self._gen_active = np.array([r > 0.0 for r in rates])
            self._gen_acc = np.array(
                [s._accumulated_bits for s in self.satellites]
            )
        total = self._gen_acc + self._gen_per_step
        emitting = self._gen_active & (total >= self._gen_chunk_bits)
        for i in np.flatnonzero(emitting).tolist():
            sat = self.satellites[i]
            sat._accumulated_bits = float(self._gen_acc[i])
            chunks = sat.generate_data(interval_start, step_s)
            total[i] = sat._accumulated_bits
            for chunk in chunks:
                self.metrics.record_generation(chunk.size_bits)
                if self.demand is not None:
                    self.demand.accountant.record_generation(chunk)
        self._gen_acc = total

    def _execute_assignment(self, assignment, now: datetime,
                            truth_decodes: dict | None) -> None:
        """Transmit one matched link for one step.

        ``truth_decodes`` is the tick's :meth:`_decodes_under_truth`
        (None unless forecast mode planned the link).
        """
        sat = self.satellites[assignment.satellite_index]
        station = self.network[assignment.station_index]
        rec = self.obs
        if self.outages is not None and self.outages.is_down(
            station.station_id, now
        ):
            # The station is dark.  With unannounced failures the satellite
            # still transmits per plan and every bit is wasted; announced
            # outages were already filtered out of the contact graph.
            bits_budget = assignment.bitrate_bps * self.config.step_s
            sent, _completed = sat.storage.transmit(
                bits_budget, now, decoded=False
            )
            self.metrics.record_lost_transmission(sent)
            if rec.enabled:
                rec.event("assignment", when=now.isoformat(),
                          satellite_id=sat.satellite_id,
                          station_id=station.station_id,
                          bitrate_bps=assignment.bitrate_bps,
                          decoded=False, bits=sent)
            return
        availability = 1.0
        if self.faults is not None:
            availability = self.faults.station_availability(
                station.station_id, now
            )
            if availability <= 0.0:
                # Injected hard outage.  Announced ones are normally pruned
                # from the graph, but an availability prior can keep the
                # edge as a gamble; unannounced ones always land here.  The
                # satellite transmits per plan and every bit is wasted.
                self.fault_counters.station_outage_steps += 1
                sent, _completed = sat.storage.transmit(
                    assignment.bitrate_bps * self.config.step_s, now,
                    decoded=False,
                )
                self.metrics.record_lost_transmission(sent)
                if rec.enabled:
                    rec.event("fault", when=now.isoformat(),
                              fault="station_outage",
                              satellite_id=sat.satellite_id,
                              station_id=station.station_id)
                    rec.event("assignment", when=now.isoformat(),
                              satellite_id=sat.satellite_id,
                              station_id=station.station_id,
                              bitrate_bps=assignment.bitrate_bps,
                              decoded=False, bits=sent)
                return
        if sat.power is not None and not sat.power.can_transmit():
            # Flight rules: battery too low to power the radio this pass.
            self.power_blocked_steps += 1
            return
        self._transmitted_this_step.add(assignment.satellite_index)
        decoded = True
        # Antenna slew/acquisition: a station that just switched to this
        # satellite loses part of the step before bits flow.
        usable_fraction = 1.0
        if self.config.acquisition_overhead_s > 0.0:
            previously = self._previous_links.get(assignment.satellite_index)
            if previously != assignment.station_index:
                usable_fraction = 1.0 - (
                    self.config.acquisition_overhead_s / self.config.step_s
                )
        if truth_decodes is not None:
            decoded = truth_decodes[
                assignment.satellite_index, assignment.station_index
            ]
        if self.faults is not None and decoded:
            if self.faults.is_undecoded(station.station_id, now):
                # Ground-side decode fault: the pass happens, nothing lands.
                decoded = False
                self.fault_counters.undecoded_steps += 1
                if rec.enabled:
                    rec.event("fault", when=now.isoformat(),
                              fault="undecoded",
                              satellite_id=sat.satellite_id,
                              station_id=station.station_id)
            elif self.faults.is_tle_stale(sat.satellite_id, now):
                # Stale elements degrade pointing; the transmission fails.
                decoded = False
                self.fault_counters.stale_tle_steps += 1
                if rec.enabled:
                    rec.event("fault", when=now.isoformat(),
                              fault="stale_tle",
                              satellite_id=sat.satellite_id,
                              station_id=station.station_id)
        bits_budget = assignment.bitrate_bps * self.config.step_s * usable_fraction
        if availability < 1.0:
            # Partial outage: the pass proceeds at reduced capacity.
            bits_budget *= availability
            self.fault_counters.partial_outage_steps += 1
            if rec.enabled:
                rec.event("fault", when=now.isoformat(),
                          fault="partial_outage",
                          satellite_id=sat.satellite_id,
                          station_id=station.station_id)
        sent, completed = sat.storage.transmit(bits_budget, now, decoded=decoded)
        if rec.enabled:
            rec.event("assignment", when=now.isoformat(),
                      satellite_id=sat.satellite_id,
                      station_id=station.station_id,
                      bitrate_bps=assignment.bitrate_bps,
                      decoded=decoded, bits=sent)
        if self.events is not None and sent > 0:
            self.events.record(
                now, "transmission", sat.satellite_id, station.station_id,
                bits=sent, bitrate_bps=assignment.bitrate_bps, decoded=decoded,
            )
        if decoded:
            backhaul_fault = None
            if self.faults is not None:
                backhaul_fault = self.faults.backhaul_fault(
                    station.station_id, now
                )
            for chunk in completed:
                if chunk.chunk_id not in self._delivered_chunk_ids:
                    self._delivered_chunk_ids.add(chunk.chunk_id)
                    latency = (now - chunk.capture_time).total_seconds()
                    self.metrics.record_delivery(
                        sat.satellite_id, latency, chunk.size_bits,
                        station.station_id,
                    )
                    if self.demand is not None:
                        self.demand.accountant.record_delivery(chunk, now)
                    if self.events is not None:
                        self.events.record(
                            now, "delivery", sat.satellite_id,
                            station.station_id, chunk_id=chunk.chunk_id,
                            latency_s=latency, bits=chunk.size_bits,
                        )
                    if rec.enabled:
                        rec.event("delivery", when=now.isoformat(),
                                  satellite_id=sat.satellite_id,
                                  station_id=station.station_id,
                                  chunk_id=chunk.chunk_id,
                                  latency_s=latency, bits=chunk.size_bits)
                else:
                    # The ground already has this chunk (its first receipt
                    # was lost, so the satellite retransmitted): unique
                    # delivered bits and latency are not recounted.
                    self.fault_counters.redelivered_chunks += 1
                    if rec.enabled:
                        rec.event("fault", when=now.isoformat(),
                                  fault="redelivery",
                                  satellite_id=sat.satellite_id,
                                  station_id=station.station_id)
                if backhaul_fault is not None and backhaul_fault.partitioned:
                    # The station cannot reach the backend: the receipt is
                    # lost.  The ack never happens, so the ack-timeout
                    # requeue path retransmits the chunk later.
                    self.fault_counters.receipts_dropped += 1
                    if rec.enabled:
                        rec.event("fault", when=now.isoformat(),
                                  fault="receipt_dropped",
                                  satellite_id=sat.satellite_id,
                                  station_id=station.station_id)
                    continue
                backhaul_latency_s = station.backhaul_latency_s
                if backhaul_fault is not None:
                    backhaul_latency_s += backhaul_fault.extra_latency_s
                    self.fault_counters.receipts_delayed += 1
                    if rec.enabled:
                        rec.event("fault", when=now.isoformat(),
                                  fault="receipt_delayed",
                                  satellite_id=sat.satellite_id,
                                  station_id=station.station_id)
                self.backend.submit_receipt(
                    ChunkReceiptMessage(
                        station_id=station.station_id,
                        satellite_id=sat.satellite_id,
                        chunk_id=chunk.chunk_id,
                        received_at=now,
                        size_bits=chunk.size_bits,
                    ),
                    backhaul_latency_s=backhaul_latency_s,
                )
        else:
            self.metrics.record_lost_transmission(sent)
            if self.events is not None and sent > 0:
                self.events.record(
                    now, "loss", sat.satellite_id, station.station_id,
                    bits=sent,
                )
        if station.can_transmit:
            self._tx_contact(sat, now, station.station_id)

    # -- diversity reception (Sec. 3.3's hybrid-GS combining) ---------------

    def _truth_esn0(self, sat_idx: Sequence[int], gs_idx: Sequence[int],
                    elevation_deg: Sequence[float],
                    range_km: Sequence[float], now: datetime) -> np.ndarray:
        """Es/N0 of each (satellite, station) reception under *true* weather.

        Every execution-time decode question -- a diversity copy's
        probability, a forecast-planned MODCOD's survival -- is priced
        here: truth weather is sampled per reception, in the given order
        (so the quantized cache sees the same first sample per bucket),
        and the link budget runs once per hardware class.  Class ids come
        from the scheduler's :class:`PairGroupCache`, so the budgets are
        the ones the graph priced the same pairs with.
        """
        network = self.network
        truth = self.truth_weather
        count = len(gs_idx)
        rain = np.empty(count)
        cloud = np.empty(count)
        for p, j in enumerate(gs_idx):
            station = network[j]
            sample = truth.sample(
                station.latitude_deg, station.longitude_deg, now
            )
            rain[p] = sample.rain_rate_mm_h
            cloud[p] = sample.cloud_water_kg_m2
        sats = np.asarray(sat_idx, dtype=np.intp)
        stations = np.asarray(gs_idx, dtype=np.intp)
        elevation = np.asarray(elevation_deg, dtype=float)
        range_arr = np.asarray(range_km, dtype=float)
        scheduler = self.scheduler
        pair_groups = scheduler._pair_groups
        gids = pair_groups.resolve(
            self.satellites, scheduler._link_budget_for, sats, stations
        )
        geometry = scheduler._geometry
        station_lat = geometry._station_lat_deg[stations]
        station_alt = geometry._station_alt_km[stations]
        esn0 = np.empty(count)
        for gid in np.unique(gids).tolist():
            pos = np.flatnonzero(gids == gid)
            esn0[pos] = pair_groups.budget_of[gid].evaluate_batch(
                range_km=range_arr[pos],
                elevation_deg=elevation[pos],
                station_latitude_deg=station_lat[pos],
                rain_rate_mm_h=rain[pos],
                cloud_water_kg_m2=cloud[pos],
                station_altitude_km=station_alt[pos],
            ).esn0_db
        return esn0

    def _copy_decode_probabilities(self, copies, now: datetime) -> list[float]:
        """Each listening station's chance of decoding its shared stream.

        ``copies`` are ``(satellite_index, station_index, elevation_deg,
        range_km, required_esn0_db)`` rows; all are priced in one
        :meth:`_truth_esn0` pass.  The station's *true*-weather Es/N0 (its
        own geometry, its own storm) is measured against the MODCOD
        threshold the transmitter committed to, through the soft
        Gaussian-margin model.  Injected faults apply the single-penalty
        rule: a hard outage (or dark station, or decode fault) zeroes the
        copy without sampling its weather, a partial outage scales the
        copy's probability -- never the group's bits budget, which
        belongs to the transmitter, not any one receiver.
        """
        outages = self.outages
        faults = self.faults
        availability = []
        live = []
        for _sat, j, _elev, _rng, _required in copies:
            station_id = self.network[j].station_id
            factor = 1.0
            if outages is not None and outages.is_down(station_id, now):
                factor = 0.0
            elif faults is not None:
                factor = faults.station_availability(station_id, now)
                if factor > 0.0 and faults.is_undecoded(station_id, now):
                    factor = 0.0
            availability.append(factor)
            if factor > 0.0:
                live.append(len(availability) - 1)
        probability = [0.0] * len(copies)
        if live:
            rows = [copies[k] for k in live]
            sat_idx, gs_idx, elevation, range_km, required = zip(*rows)
            esn0 = self._truth_esn0(sat_idx, gs_idx, elevation, range_km, now)
            priced = decode_probability_batch(esn0, required).tolist()
            for k, p in zip(live, priced):
                probability[k] = p * availability[k]
        return probability

    def _execute_diversity_tick(self, step, now: datetime) -> None:
        """Execute one diversity-mode tick: recruit, price, then transmit.

        Every copy of the tick -- each transmitting assignment's primary
        and its recruited secondaries -- is priced in one
        :meth:`_copy_decode_probabilities` call before any assignment
        executes.  A power-blocked satellite transmits nothing, so its
        copies are not priced.
        """
        from repro.scheduling.matching import diversity_groups

        groups = diversity_groups(
            step.graph, step.assignments, self.config.diversity_receivers
        )
        cols = step.graph.columns()
        plans = []
        copies = []
        for assignment in step.assignments:
            sat = self.satellites[assignment.satellite_index]
            if sat.power is not None and not sat.power.can_transmit():
                self.power_blocked_steps += 1
                continue
            i = assignment.satellite_index
            required = assignment.required_esn0_db
            receivers = [assignment.station_index]
            copies.append((i, assignment.station_index,
                           assignment.elevation_deg, assignment.range_km,
                           required))
            for pos in groups[i]:
                j = int(cols.station_index[pos])
                receivers.append(j)
                copies.append((i, j, float(cols.elevation_deg[pos]),
                               float(cols.range_km[pos]), required))
            plans.append((assignment, sat, receivers))
        probability = iter(self._copy_decode_probabilities(copies, now))
        for assignment, sat, receivers in plans:
            attempts = [
                (j, self.network[j].station_id, k == 0, next(probability))
                for k, j in enumerate(receivers)
            ]
            self._execute_diversity(assignment, sat, attempts, now)

    def _execute_diversity(self, assignment, sat: Satellite, attempts,
                           now: datetime) -> None:
        """Execute one pass step with extra listening stations.

        The satellite transmits exactly once, at the primary assignment's
        committed bitrate/MODCOD; every receiver (primary + recruited
        secondaries) independently attempts to decode that one stream and
        the :class:`DiversityCombiner` ORs the copies.  ``attempts`` are
        the priced ``(station_index, station_id, is_primary,
        decode_probability)`` copies, primary first.  Each successful
        station posts its own receipt through the normal backhaul path --
        the backend collator's duplicate handling collapses the extras,
        and delivered bits/latency are credited once via the
        delivered-chunk dedup set, to the first successful station.
        """
        cfg = self.config
        rec = self.obs
        primary = self.network[assignment.station_index]
        self._transmitted_this_step.add(assignment.satellite_index)
        usable_fraction = 1.0
        if cfg.acquisition_overhead_s > 0.0:
            previously = self._previous_links.get(assignment.satellite_index)
            if previously != assignment.station_index:
                usable_fraction = 1.0 - (
                    cfg.acquisition_overhead_s / cfg.step_s
                )
        reception = self.diversity.combine(sat.satellite_id, now, attempts)
        decoded = reception.decoded
        if decoded and self.faults is not None and self.faults.is_tle_stale(
            sat.satellite_id, now
        ):
            # Pointing is the transmitter's problem: stale elements fail
            # every copy at once, however many stations are listening.
            decoded = False
            self.fault_counters.stale_tle_steps += 1
            if rec.enabled:
                rec.event("fault", when=now.isoformat(), fault="stale_tle",
                          satellite_id=sat.satellite_id,
                          station_id=primary.station_id)
        bits_budget = assignment.bitrate_bps * cfg.step_s * usable_fraction
        sent, completed = sat.storage.transmit(bits_budget, now,
                                               decoded=decoded)
        if rec.enabled:
            rec.event("assignment", when=now.isoformat(),
                      satellite_id=sat.satellite_id,
                      station_id=primary.station_id,
                      bitrate_bps=assignment.bitrate_bps,
                      decoded=decoded, bits=sent,
                      receivers=len(attempts))
        if self.events is not None and sent > 0:
            self.events.record(
                now, "transmission", sat.satellite_id, primary.station_id,
                bits=sent, bitrate_bps=assignment.bitrate_bps,
                decoded=decoded,
            )
        if decoded:
            successes = [c for c in reception.copies if c.decoded]
            credit = self.network[successes[0].station_index]
            for chunk in completed:
                if chunk.chunk_id not in self._delivered_chunk_ids:
                    self._delivered_chunk_ids.add(chunk.chunk_id)
                    latency = (now - chunk.capture_time).total_seconds()
                    self.metrics.record_delivery(
                        sat.satellite_id, latency, chunk.size_bits,
                        credit.station_id,
                    )
                    if self.demand is not None:
                        self.demand.accountant.record_delivery(chunk, now)
                    if self.events is not None:
                        self.events.record(
                            now, "delivery", sat.satellite_id,
                            credit.station_id, chunk_id=chunk.chunk_id,
                            latency_s=latency, bits=chunk.size_bits,
                        )
                else:
                    self.fault_counters.redelivered_chunks += 1
                # One receipt per successful copy, each over its own
                # backhaul (partitions/latency apply per station); the
                # collator's duplicate-receipt path eats the extras.
                for copy in successes:
                    station = self.network[copy.station_index]
                    backhaul_fault = None
                    if self.faults is not None:
                        backhaul_fault = self.faults.backhaul_fault(
                            station.station_id, now
                        )
                    if backhaul_fault is not None \
                            and backhaul_fault.partitioned:
                        self.fault_counters.receipts_dropped += 1
                        continue
                    backhaul_latency_s = station.backhaul_latency_s
                    if backhaul_fault is not None:
                        backhaul_latency_s += backhaul_fault.extra_latency_s
                        self.fault_counters.receipts_delayed += 1
                    self.backend.submit_receipt(
                        ChunkReceiptMessage(
                            station_id=station.station_id,
                            satellite_id=sat.satellite_id,
                            chunk_id=chunk.chunk_id,
                            received_at=now,
                            size_bits=chunk.size_bits,
                        ),
                        backhaul_latency_s=backhaul_latency_s,
                    )
        else:
            self.metrics.record_lost_transmission(sent)
            if self.events is not None and sent > 0:
                self.events.record(
                    now, "loss", sat.satellite_id, primary.station_id,
                    bits=sent,
                )
        if primary.can_transmit:
            self._tx_contact(sat, now, primary.station_id)

    def _reaches_receiver(self, assignment, now: datetime) -> bool:
        """Whether :meth:`_execute_assignment` gets as far as asking if
        the stream decodes: the station is neither dark nor hard down
        and the satellite can power its radio."""
        station_id = self.network[assignment.station_index].station_id
        if self.outages is not None and self.outages.is_down(station_id, now):
            return False
        if self.faults is not None and \
                self.faults.station_availability(station_id, now) <= 0.0:
            return False
        sat = self.satellites[assignment.satellite_index]
        return sat.power is None or sat.power.can_transmit()

    def _decodes_under_truth(self, assignments, now: datetime
                             ) -> dict[tuple[int, int], bool] | None:
        """Would each planned MODCOD decode under the actual atmosphere?

        Forecast mode only (None otherwise).  Answers are keyed by
        (satellite, station) index for the links that will reach a
        receiver, priced together in one :meth:`_truth_esn0` pass --
        weather sampled in execution order -- before any of them
        executes.
        """
        if not self.config.use_forecast:
            return None
        live = [a for a in assignments if self._reaches_receiver(a, now)]
        if not live:
            return {}
        esn0 = self._truth_esn0(
            [a.satellite_index for a in live],
            [a.station_index for a in live],
            [a.elevation_deg for a in live],
            [a.range_km for a in live], now,
        ).tolist()
        return {
            (a.satellite_index, a.station_index): e >= a.required_esn0_db
            for a, e in zip(live, esn0)
        }

    # -- planned execution (Sec. 3's operational model) ---------------------

    def _planned_step(self, now: datetime) -> dict[int, int]:
        """One step where actors follow plans instead of live matching.

        Stations obey the backend's newest plan; each satellite obeys the
        plan it last received at a tx-capable contact.  Returns the
        executed satellite->station links.
        """
        from datetime import timedelta as _td

        cfg = self.config
        if self._latest_plan is None or now >= self._next_plan_issue:
            self._latest_plan = self.scheduler.build_plan(
                now, cfg.plan_horizon_s
            )
            self._next_plan_issue = now + _td(seconds=cfg.plan_refresh_s)
        station_targets = self._latest_plan.station_targets(now)
        links = []
        for sat_index, sat in enumerate(self.satellites):
            plan = self._satellite_plans.get(sat_index)
            if plan is None:
                continue
            entry = plan.entry_at(sat_index, now)
            if entry is None:
                continue
            pointing_at = station_targets.get(entry.station_index)
            aligned = pointing_at == sat_index
            if not aligned:
                # The station moved on (newer plan); the satellite's
                # transmission falls on a dish pointed elsewhere.
                self.plan_mismatch_steps += 1
            links.append((sat, aligned, Assignment(
                satellite_index=sat_index,
                station_index=entry.station_index,
                weight=0.0,
                bitrate_bps=entry.expected_bitrate_bps,
                elevation_deg=entry.elevation_deg,
                range_km=entry.range_km,
                required_esn0_db=entry.required_esn0_db,
            )))
        truth_decodes = self._decodes_under_truth(
            [assignment for _sat, aligned, assignment in links if aligned],
            now,
        )
        executed: dict[int, int] = {}
        for sat, aligned, assignment in links:
            if aligned:
                self._execute_assignment(assignment, now, truth_decodes)
            else:
                sent, _ = sat.storage.transmit(
                    assignment.bitrate_bps * cfg.step_s, now,
                    decoded=False,
                )
                self.metrics.record_lost_transmission(sent)
            executed[assignment.satellite_index] = assignment.station_index
        self._bootstrap_planless(now, executed)
        return executed

    def _bootstrap_planless(self, now: datetime,
                            executed: dict[int, int]) -> None:
        """Give plans to satellites passing tx-capable stations.

        A satellite whose executed contact this step was tx-capable, or a
        plan-less satellite merely visible from an idle tx-capable
        station, receives the backend's newest plan (plus acks).
        """
        tx_indices = [
            j for j, st in enumerate(self.network) if st.can_transmit
        ]
        if not tx_indices:
            return
        # Contacted a tx station per plan: refresh during the same pass
        # (the ack/plan upload itself already ran in _execute_assignment).
        for sat_index, station_index in executed.items():
            if self.network[station_index].can_transmit:
                self._satellite_plans[sat_index] = self._latest_plan
        # Plan-less satellites: any visible tx station can bootstrap them
        # (uplink is narrowband and does not occupy the downlink dish).
        planless = [
            i for i, _s in enumerate(self.satellites)
            if i not in self._satellite_plans
        ]
        if not planless:
            return
        elevation, _rng, visible = self.scheduler.visibility(now)
        for sat_index in planless:
            for j in tx_indices:
                if visible[sat_index, j]:
                    self._satellite_plans[sat_index] = self._latest_plan
                    self._tx_contact(self.satellites[sat_index], now,
                                     self.network[j].station_id)
                    break

    def _record_churn(self, current_links: dict[int, int]) -> None:
        """Count satellite->station link changes relative to the last step."""
        for sat_index, station_index in current_links.items():
            if self._previous_links.get(sat_index) != station_index:
                self.link_changes += 1

    def _update_power(self, now: datetime, step_index: int) -> None:
        """Integrate every powered satellite's energy balance for one step.

        Eclipse state is re-evaluated every 5th step (LEO shadow
        transitions take minutes; the cache keeps the per-step cost to a
        handful of eclipse tests).
        """
        from repro.orbits.sun import is_eclipsed

        refresh = step_index % 5 == 0 or not self._sunlit
        for index, sat in enumerate(self.satellites):
            if sat.power is None:
                continue
            if refresh:
                pos, _vel = sat.position_teme(now)
                self._sunlit[index] = not is_eclipsed(pos, now)
            sat.power.step(
                self.config.step_s,
                sunlit=self._sunlit.get(index, True),
                transmitting=index in self._transmitted_this_step,
            )

    def _tx_contact(self, sat: Satellite, now: datetime,
                    station_id: str = "") -> None:
        """Plan upload + delayed-ack delivery during a tx-capable contact."""
        if (
            self.faults is not None
            and station_id
            and self.faults.is_partitioned(station_id, now)
        ):
            # The station is cut off from the backend: it has no fresh
            # plan to upload and no collated ack batch.  The satellite
            # leaves with stale state and recovers via the ack timeout.
            self.fault_counters.ack_batches_missed += 1
            if self.obs.enabled:
                self.obs.event("fault", when=now.isoformat(),
                               fault="ack_batch_missed",
                               satellite_id=sat.satellite_id,
                               station_id=station_id)
            return
        with self.obs.span("plan_upload"):
            sat.receive_plan(now)
            if self.events is not None:
                self.events.record(now, "plan_upload", sat.satellite_id,
                                   station_id)
            self.obs.counter("plan_uploads")
        with self.obs.span("ack_collation"):
            batch = self.backend.issue_ack_batch(sat.satellite_id, now)
            if batch is not None:
                sat.storage.acknowledge(batch.chunk_ids, now)
                self.obs.counter("ack_batches")
                self.obs.counter("acked_chunks", len(batch.chunk_ids))
                if self.events is not None:
                    self.events.record(
                        now, "ack_batch", sat.satellite_id, station_id,
                        chunk_count=len(batch.chunk_ids),
                    )
            cutoff = now - timedelta(seconds=self.config.ack_timeout_s)
            requeued = sat.storage.requeue_stale_unacked(cutoff)
            if requeued:
                self.metrics.record_requeue(len(requeued))
                self.obs.counter("requeued_chunks", len(requeued))
                if self.events is not None:
                    self.events.record(
                        now, "requeue", sat.satellite_id, station_id,
                        chunk_count=len(requeued),
                    )
