"""Scenario builders for the paper's evaluation (Sec. 4).

One place defines "the paper's setup": 259 satellites generating
100 GB/day with the Planet-class X-band radio; 173 SatNOGS-like DGS
stations (or a 25% subset, or the 5-station baseline); the synthetic
weather month; stable matching at 60 s cadence.  Experiments and
benchmarks build everything through here so the variants differ in
exactly one dimension at a time.

The one way in is :class:`ScenarioSpec`: a frozen, fully-serializable
description of a run.  ``ScenarioSpec.dgs(...)`` / ``.baseline(...)``
construct specs, ``spec.build()`` assembles the fleet/network/simulation
triple, and ``spec.run(label)`` executes it.  (The historical
``make_dgs_scenario`` / ``make_baseline_scenario`` helpers went through a
deprecation cycle and are gone.)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from datetime import datetime
from functools import partial

from repro.baseline.system import CentralizedBaseline
from repro.groundstations.network import GroundStationNetwork, satnogs_like_network
from repro.obs import ObsConfig
from repro.orbits.constellation import synthetic_leo_constellation, walker_delta
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler, MatcherName
from repro.scheduling.value_functions import (
    LatencyValue,
    ThroughputValue,
    ValueFunction,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.simulation.metrics import SimulationReport
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache, WeatherProvider

#: The paper's population sizes.
PAPER_SATELLITES = 259
PAPER_STATIONS = 173
PAPER_EPOCH = datetime(2020, 6, 1)


def _auto_walker_planes(total_satellites: int) -> int:
    """Largest divisor of the shell size not exceeding its square root --
    the near-square plane/slot split a Walker shell defaults to."""
    for planes in range(int(math.isqrt(total_satellites)), 1, -1):
        if total_satellites % planes == 0:
            return planes
    return 1


def build_paper_fleet(
    count: int = PAPER_SATELLITES,
    epoch: datetime = PAPER_EPOCH,
    generation_gb_per_day: float = 100.0,
    chunk_size_gb: float = 1.0,
    seed: int = 7,
) -> list[Satellite]:
    """The satellite fleet: synthetic EO constellation, 100 GB/day each."""
    tles = synthetic_leo_constellation(count, epoch, seed=seed)
    return [
        Satellite(
            tle=tle,
            generation_gb_per_day=generation_gb_per_day,
            chunk_size_gb=chunk_size_gb,
        )
        for tle in tles
    ]


def build_paper_weather(seed: int = 3,
                        intensity_scale: float = 1.0) -> WeatherProvider:
    """The synthetic weather month, memoized at 5-minute resolution."""
    return QuantizedWeatherCache(
        RainCellField(seed=seed, intensity_scale=intensity_scale)
    )


def build_storm_weather(
    seed: int = 3,
    intensity_scale: float = 1.0,
    storm_seed: int = 17,
    storm_rate: float = 1.0,
    storm_speed: float = 1.0,
) -> WeatherProvider:
    """The weather month plus advected storm tracks, memoized.

    Composition order matters for reproducibility: storms add on top of
    the same rain-cell field ``build_paper_weather`` makes, so away from
    every storm the two providers return bit-identical samples.
    """
    from repro.weather.storms import StormField, StormWeatherProvider

    base = RainCellField(seed=seed, intensity_scale=intensity_scale)
    storms = StormField(
        seed=storm_seed, rate=storm_rate, speed_scale=storm_speed
    )
    return QuantizedWeatherCache(StormWeatherProvider(base, storms))


def value_function_by_name(name: str) -> ValueFunction:
    """'latency' (Phi = t), 'throughput' (Phi = |x|), or 'deadline'.

    The bare ``deadline`` instance prices SLA urgency only; tenant
    weights and quota discounting need the demand layer, which
    ``ScenarioSpec.build`` wires in when the spec has tenants.
    """
    if name == "latency":
        return LatencyValue()
    if name == "throughput":
        return ThroughputValue()
    if name == "deadline":
        from repro.scheduling.value_functions import DeadlineSlaValue

        return DeadlineSlaValue()
    raise ValueError(f"unknown value function {name!r}")


@dataclass
class ScenarioResult:
    """A finished scenario: its label, networks sizes, and the report."""

    label: str
    num_satellites: int
    num_stations: int
    report: SimulationReport


@dataclass
class Scenario:
    """An assembled scenario: the fleet/network pair and its simulation."""

    spec: "ScenarioSpec"
    fleet: list[Satellite]
    network: GroundStationNetwork
    simulation: Simulation

    def run(self, label: str | None = None) -> ScenarioResult:
        """Execute the simulation into a labelled result."""
        report = self.simulation.run()
        return ScenarioResult(
            label=label if label is not None else self.spec.label(),
            num_satellites=len(self.fleet),
            num_stations=len(self.network),
            report=report,
        )

    # Tuple compatibility: the legacy builders returned (fleet, network,
    # sim), and a lot of call sites unpack exactly that.
    def __iter__(self):
        return iter((self.fleet, self.network, self.simulation))


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, reproducible description of one paper scenario.

    ``kind`` selects the ground segment: ``"dgs"`` (SatNOGS-like
    distributed network, optionally a fraction of it) or ``"baseline"``
    (the centralized 5-dish operator).  Everything else is a knob with
    the paper's defaults.  Build with :meth:`build`, or run directly with
    :meth:`run`.
    """

    kind: str = "dgs"
    value: str = "latency"
    matcher: MatcherName = "stable"
    num_satellites: int = PAPER_SATELLITES
    num_stations: int = PAPER_STATIONS
    station_fraction: float = 1.0
    #: Baseline-only: how many centralized dishes.
    station_count: int = 5
    duration_s: float = 86400.0
    step_s: float = 60.0
    weather_seed: int = 3
    network_seed: int = 11
    fleet_seed: int = 7
    use_forecast: bool = False
    enforce_plan_distribution: bool = False
    tx_capable_fraction: float = 0.1
    #: Rain intensity multiplier on the synthetic weather month
    #: (0 = clear sky, 1 = the paper's month, >1 = stormier).
    weather_intensity: float = 1.0
    #: Weather process: ``cells`` (the stationary-statistics rain-cell
    #: month) or ``storms`` (the same month plus seeded, advected
    #: synoptic storm tracks -- moving regional wipeouts).
    weather: str = "cells"
    #: Storm-track knobs (ignored unless ``weather="storms"``): the storm
    #: process seed, the multiplier on storm births per day, and the
    #: multiplier on track speeds.
    storm_seed: int = 17
    storm_rate: float = 1.0
    storm_speed: float = 1.0
    #: Scheduler family: ``downlink`` (the paper's per-instant matcher),
    #: ``horizon`` (receding-horizon lookahead), or ``beamforming``
    #: (power-split multi-beam stations).
    scheduler: str = "downlink"
    #: Horizon-scheduler lookahead window, in steps (ignored otherwise).
    horizon_steps: int = 1
    #: Beamforming-scheduler beams per station (ignored otherwise).
    beams: int = 1
    #: Override the fleet's downlink carrier (None = the radio's default
    #: X-band); Ku/Ka sweeps set 14.0 / 26.5.
    frequency_ghz: float | None = None
    #: ``live`` per-instant matching, ``planned`` plan-following
    #: execution (Sec. 3's operational model), or ``diversity``: live
    #: matching where up to ``diversity_receivers`` stations listen to
    #: each pass and the backend merges their independently-errored
    #: copies (Sec. 3.3's hybrid-GS reception).
    execution_mode: str = "live"
    #: Diversity-mode knobs (ignored otherwise): total receivers per pass
    #: (primary + extra listeners) and the decode-draw seed.
    diversity_receivers: int = 2
    diversity_seed: int = 19
    #: Seeded fault-injection intensity for :meth:`FaultSchedule.generate`
    #: (0 = healthy run, no fault layer attached).
    fault_intensity: float = 0.0
    fault_seed: int = 7
    faults_announced: bool = True
    #: Fleet synthesis: ``paper`` (the SatNOGS-like EO mix) or ``walker``
    #: (a deterministic Walker-delta shell -- the mega-constellation
    #: scaling fleets).
    constellation: str = "paper"
    #: Walker-shell geometry (ignored for ``paper``).  ``walker_planes=0``
    #: picks the near-square plane count automatically.
    walker_planes: int = 0
    walker_phasing: int = 1
    walker_inclination_deg: float = 53.0
    walker_altitude_km: float = 550.0
    #: Scaling knobs, forwarded to :class:`SimulationConfig`: ephemeris
    #: storage dtype and windowed ephemeris streaming (0 = monolithic).
    ephemeris_dtype: str = "float64"
    ephemeris_window_steps: int = 0
    #: Drive the per-step loop from the precomputed contact-window index
    #: (bit-identical reports either way; ``False`` generates candidates
    #: per step with the culling grid).  Only the base downlink scheduler
    #: consumes the index, so horizon/beamforming specs skip the build.
    contact_windows: bool = True
    #: Multi-tenant demand: a tuple of :class:`repro.demand.Tenant` (or
    #: their dicts, normalized on construction).  None = the legacy
    #: uniform single-tenant stream, bit-identical to builds without the
    #: demand layer.
    tenants: "tuple | None" = None
    #: Request granularity: how many tasking windows per satellite-day
    #: the capture stream is cut into (tenancy switches at window
    #: boundaries).  Ignored without tenants.
    requests_per_day: int = 24
    demand_seed: int = 13
    observability: ObsConfig | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("dgs", "baseline"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not 0.0 < self.station_fraction <= 1.0:
            raise ValueError(
                f"station_fraction must be in (0, 1], got {self.station_fraction}"
            )
        if self.scheduler not in ("downlink", "horizon", "beamforming"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.scheduler == "horizon" and self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if self.scheduler == "beamforming" and self.beams < 1:
            raise ValueError("beams must be >= 1")
        if self.weather_intensity < 0.0:
            raise ValueError("weather_intensity must be >= 0")
        if self.weather not in ("cells", "storms"):
            raise ValueError(f"unknown weather process {self.weather!r}")
        if self.storm_rate < 0.0:
            raise ValueError("storm_rate must be >= 0")
        if self.storm_speed < 0.0:
            raise ValueError("storm_speed must be >= 0")
        if self.diversity_receivers < 1:
            raise ValueError("diversity_receivers must be >= 1")
        if self.execution_mode == "diversity" and (
            self.horizon_steps > 1 or self.beams > 1
        ):
            raise ValueError(
                "diversity execution requires the downlink scheduler "
                "(horizon_steps=1, beams=1)"
            )
        if not 0.0 <= self.fault_intensity <= 1.0:
            raise ValueError(
                f"fault_intensity must be in [0, 1], got {self.fault_intensity}"
            )
        if self.constellation not in ("paper", "walker"):
            raise ValueError(f"unknown constellation {self.constellation!r}")
        if self.walker_planes < 0:
            raise ValueError("walker_planes must be >= 0 (0 = auto)")
        if self.ephemeris_dtype not in ("float64", "float32"):
            raise ValueError(
                f"ephemeris_dtype must be 'float64' or 'float32', "
                f"got {self.ephemeris_dtype!r}"
            )
        if self.ephemeris_window_steps < 0:
            raise ValueError("ephemeris_window_steps must be >= 0")
        if self.requests_per_day < 1:
            raise ValueError("requests_per_day must be >= 1")
        if self.tenants is not None:
            from repro.demand import Tenant

            normalized = tuple(
                t if isinstance(t, Tenant) else Tenant.from_dict(t)
                for t in self.tenants
            )
            if not normalized:
                raise ValueError("tenants must be non-empty or None")
            object.__setattr__(self, "tenants", normalized)
        if self.value == "deadline" and self.tenants is None:
            raise ValueError(
                "value='deadline' needs tenants= (the SLA pricing has "
                "nothing to price on the uniform single-tenant stream)"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def dgs(cls, **kwargs) -> "ScenarioSpec":
        """A DGS scenario spec (full network or a station fraction)."""
        return cls(kind="dgs", **kwargs)

    @classmethod
    def baseline(cls, **kwargs) -> "ScenarioSpec":
        """The centralized-baseline scenario spec."""
        kwargs.setdefault("station_fraction", 1.0)
        return cls(kind="baseline", **kwargs)

    # -- identity -----------------------------------------------------------

    def label(self) -> str:
        """A short human label: 'dgs25-L', 'baseline-T', 'dgs-D', ..."""
        prefix = self.kind
        if self.kind == "dgs" and self.station_fraction < 1.0:
            prefix = f"dgs{round(self.station_fraction * 100):d}"
        suffix = {"latency": "L", "deadline": "D"}.get(self.value, "T")
        return f"{prefix}-{suffix}"

    def seeds(self) -> dict[str, int]:
        """All RNG seeds the scenario consumes (for the run manifest)."""
        seeds = {
            "fleet": self.fleet_seed,
            "weather": self.weather_seed,
            "network": self.network_seed,
        }
        if self.weather == "storms":
            seeds["storm"] = self.storm_seed
        if self.execution_mode == "diversity":
            seeds["diversity"] = self.diversity_seed
        if self.fault_intensity > 0.0:
            seeds["faults"] = self.fault_seed
        if self.tenants is not None:
            seeds["demand"] = self.demand_seed
        return seeds

    # -- serialization ------------------------------------------------------

    @classmethod
    def _serialized_fields(cls) -> tuple[str, ...]:
        """Fields that cross process/checkpoint boundaries.

        ``observability`` stays out: it is per-run plumbing (trace paths
        differ per worker), not part of the scenario's identity, and is
        excluded from equality for the same reason.
        """
        return tuple(
            f.name for f in fields(cls) if f.name != "observability"
        )

    def to_dict(self) -> dict:
        """JSON-compatible dict of every identity field (no observability)."""
        raw = {name: getattr(self, name)
               for name in self._serialized_fields()}
        if raw["tenants"] is not None:
            raw["tenants"] = [t.to_dict() for t in raw["tenants"]]
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output; strict on keys."""
        unknown = set(raw) - set(cls._serialized_fields())
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}"
            )
        return cls(**raw)

    def config_sha256(self) -> str:
        """Content hash of the spec: the sweep runner's checkpoint key."""
        from repro.obs.manifest import config_digest

        return config_digest(self.to_dict())

    def derive_seeds(self, sweep_seed: int) -> "ScenarioSpec":
        """Replace every RNG seed with one derived from ``sweep_seed``.

        The derivation hashes (sweep seed, the spec's seed-free identity,
        seed name), so a grid re-run under a different sweep seed draws
        fresh-but-reproducible randomness per cell while cells that differ
        only in their seeds collapse onto the same derived values.
        """
        identity = {
            name: value for name, value in self.to_dict().items()
            if not name.endswith("_seed")
        }
        from repro.obs.manifest import config_digest

        base = config_digest(identity)

        def derived(name: str) -> int:
            digest = hashlib.sha256(
                f"{sweep_seed}:{base}:{name}".encode("utf-8")
            ).digest()
            return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF

        return replace(
            self,
            fleet_seed=derived("fleet"),
            weather_seed=derived("weather"),
            network_seed=derived("network"),
            fault_seed=derived("faults"),
            demand_seed=derived("demand"),
            storm_seed=derived("storm"),
            diversity_seed=derived("diversity"),
        )

    # -- assembly -----------------------------------------------------------

    def fleet_identity(self) -> tuple:
        """The fields that determine the fleet's TLE set.

        Two specs with equal identities build orbit-identical fleets (and
        therefore share one ephemeris table); the sweep runner's
        shared-memory export groups cells by this.
        """
        return (
            self.constellation, self.num_satellites, self.fleet_seed,
            self.walker_planes, self.walker_phasing,
            self.walker_inclination_deg, self.walker_altitude_km,
        )

    def build_fleet(self) -> list[Satellite]:
        """Synthesize the satellite fleet alone (no network/simulation)."""
        if self.constellation == "walker":
            planes = self.walker_planes or _auto_walker_planes(
                self.num_satellites
            )
            tles = walker_delta(
                self.num_satellites, planes, self.walker_phasing % planes,
                self.walker_inclination_deg, self.walker_altitude_km,
                PAPER_EPOCH,
            )
            return [
                Satellite(
                    tle=tle, generation_gb_per_day=100.0, chunk_size_gb=1.0
                )
                for tle in tles
            ]
        return build_paper_fleet(self.num_satellites, seed=self.fleet_seed)

    def build(self) -> Scenario:
        """Assemble the fleet, ground network, and simulation."""
        fleet = self.build_fleet()
        if self.frequency_ghz is not None:
            from repro.linkbudget.budget import RadioConfig

            radio = RadioConfig(frequency_ghz=self.frequency_ghz)
            for sat in fleet:
                sat.radio = radio
        if self.kind == "baseline":
            network = CentralizedBaseline(
                station_count=self.station_count
            ).network()
        else:
            network = satnogs_like_network(
                self.num_stations,
                tx_capable_fraction=self.tx_capable_fraction,
                seed=self.network_seed,
            )
            if self.station_fraction < 1.0:
                network = network.subset_fraction(
                    self.station_fraction, seed=self.network_seed
                )
        if self.weather == "storms":
            weather = build_storm_weather(
                self.weather_seed,
                intensity_scale=self.weather_intensity,
                storm_seed=self.storm_seed,
                storm_rate=self.storm_rate,
                storm_speed=self.storm_speed,
            )
        else:
            weather = build_paper_weather(
                self.weather_seed, intensity_scale=self.weather_intensity
            )
        config = SimulationConfig(
            start=PAPER_EPOCH,
            duration_s=self.duration_s,
            step_s=self.step_s,
            matcher=self.matcher,
            use_forecast=self.use_forecast,
            enforce_plan_distribution=self.enforce_plan_distribution,
            execution_mode=self.execution_mode,
            diversity_receivers=self.diversity_receivers,
            diversity_seed=self.diversity_seed,
            ephemeris_dtype=self.ephemeris_dtype,
            ephemeris_window_steps=self.ephemeris_window_steps,
            # The horizon/beamforming families never consume the index;
            # skip the build for them.
            contact_windows=self.contact_windows and not (
                (self.scheduler == "horizon" and self.horizon_steps > 1)
                or (self.scheduler == "beamforming" and self.beams > 1)
            ),
        )
        observability = self.observability
        if observability is not None and not observability.seeds:
            # Stamp the scenario's seeds into the manifest automatically.
            observability = replace(observability, seeds=self.seeds())
        faults = None
        if self.fault_intensity > 0.0:
            from repro.faults import FaultSchedule

            faults = FaultSchedule.generate(
                station_ids=[st.station_id for st in network],
                satellite_ids=[s.satellite_id for s in fleet],
                start=config.start,
                horizon_s=self.duration_s,
                intensity=self.fault_intensity,
                seed=self.fault_seed,
            )
        demand = None
        if self.tenants is not None:
            from repro.demand import DemandLayer

            demand = DemandLayer.build(
                tenants=self.tenants,
                requests_per_day=self.requests_per_day,
                seed=self.demand_seed,
                start=config.start,
            )
        if self.value == "deadline":
            from repro.scheduling.value_functions import DeadlineSlaValue

            value_function: ValueFunction = DeadlineSlaValue(
                tenants=self.tenants, accountant=demand.accountant
            )
        else:
            value_function = value_function_by_name(self.value)
        sim = Simulation(
            satellites=fleet,
            network=network,
            value_function=value_function,
            config=config,
            truth_weather=weather,
            faults=faults,
            faults_announced=self.faults_announced,
            demand=demand,
            observability=observability,
            scheduler_factory=self._scheduler_factory(),
        )
        return Scenario(spec=self, fleet=fleet, network=network, simulation=sim)

    def _scheduler_factory(self):
        """The scheduler family the spec asks for, bound to its parameters.

        The engine builds it with the same wiring it gives the base
        :class:`DownlinkScheduler` (faults, outages, ephemeris, margins,
        plan gating, recorder); H=1 / beams=1 degenerate to the base
        scheduler, so those specs stay bit-identical to the paper path.
        """
        if self.scheduler == "horizon" and self.horizon_steps > 1:
            from repro.scheduling.horizon import HorizonScheduler

            return partial(
                HorizonScheduler, horizon_steps=self.horizon_steps,
                replan_steps=max(1, self.horizon_steps // 2),
            )
        if self.scheduler == "beamforming" and self.beams > 1:
            from repro.scheduling.beamforming import BeamformingScheduler

            return partial(BeamformingScheduler, beams=self.beams)
        return DownlinkScheduler

    def run(self, label: str | None = None) -> ScenarioResult:
        """Assemble and execute in one call."""
        return self.build().run(label)


# -- retired legacy builders -------------------------------------------------

_REMOVED_BUILDERS = {
    "make_dgs_scenario": "ScenarioSpec.dgs(...).build()",
    "make_baseline_scenario": "ScenarioSpec.baseline(...).build()",
}


def __getattr__(name: str):
    """Actionable errors for the removed PR-3 deprecation shims."""
    if name in _REMOVED_BUILDERS:
        raise AttributeError(
            f"{name} was removed after its deprecation cycle; use "
            f"{_REMOVED_BUILDERS[name]} (the Scenario it returns still "
            "unpacks as a (fleet, network, simulation) tuple)"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_scenario(label: str, sim: Simulation) -> ScenarioResult:
    """Run an assembled simulation into a labelled result."""
    report = sim.run()
    return ScenarioResult(
        label=label,
        num_satellites=len(sim.satellites),
        num_stations=len(sim.network),
        report=report,
    )
