"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from repro.scheduling.scheduler import MatcherName


@dataclass
class SimulationConfig:
    """All knobs of a data-transfer simulation run.

    Defaults mirror the paper's setup (Sec. 4): one simulated day at
    60-second scheduling cadence, satellites generating 100 GB/day, stable
    matching, latency-optimized value function chosen by the caller.
    """

    start: datetime = field(default_factory=lambda: datetime(2020, 6, 1))
    duration_s: float = 86400.0
    step_s: float = 60.0
    matcher: MatcherName = "stable"
    #: Schedule on forecasts issued every ``forecast_refresh_s`` (True) or
    #: on truth weather (False -- the paper's idealized predictor).
    use_forecast: bool = False
    forecast_refresh_s: float = 6 * 3600.0
    #: Enforce the hybrid constraint that a satellite may only dump to
    #: receive-only stations while holding a plan younger than
    #: ``plan_max_age_s`` (uploaded at tx-capable contacts).
    enforce_plan_distribution: bool = False
    plan_max_age_s: float = 12 * 3600.0
    #: After an ack batch arrives, chunks sent more than this long before
    #: the contact with no ack are presumed lost and requeued.
    ack_timeout_s: float = 3 * 3600.0
    #: DVB-S2 ACM margin used by the link predictions.
    acm_margin_db: float = 1.0
    #: Record a backlog/storage snapshot every this many steps (0 = never).
    snapshot_every_steps: int = 60
    #: Append per-transmission/delivery/ack events to ``Simulation.events``
    #: (off by default: a full-scale day generates ~100k events).
    record_events: bool = False
    #: Seconds lost to antenna slew + carrier acquisition each time a
    #: station switches to a new satellite (the first step of a new link
    #: transmits proportionally less).  0 = the paper's idealized instant
    #: handover.
    acquisition_overhead_s: float = 0.0
    #: How the schedule reaches the actors.  ``live``: every actor follows
    #: the scheduler's per-instant matching (the paper's simulation).
    #: ``planned``: the operational model of Sec. 3 -- the backend issues a
    #: horizon plan every ``plan_refresh_s``; receive-only stations follow
    #: the latest plan immediately (Internet), but each satellite follows
    #: the plan it last *received at a transmit-capable contact*, so stale
    #: satellite plans can point at stations that are no longer listening.
    #: ``diversity``: live matching, but up to ``diversity_receivers``
    #: stations listen to each pass and the backend combines their
    #: independently-errored copies (Sec. 3.3's hybrid reception).
    execution_mode: str = "live"
    plan_refresh_s: float = 3600.0
    plan_horizon_s: float = 2 * 3600.0
    #: Diversity mode: total receivers per pass step (the matched primary
    #: plus up to N-1 otherwise-idle stations that can also see the
    #: satellite).  1 = stochastic decode without overlap, isolating the
    #: per-copy loss model from the combiner's gain.
    diversity_receivers: int = 2
    #: Seed for the deterministic per-(satellite, station, time) decode
    #: draws in :class:`repro.network.diversity.DiversityCombiner`.
    diversity_seed: int = 19
    #: Batch-propagate the fleet over the whole horizon up front (one
    #: vectorized SGP4 pass, shared across variants via the ephemeris
    #: cache) instead of per-satellite propagation at every step.
    precompute_ephemeris: bool = True
    #: Ephemeris storage dtype: ``"float64"`` (exact) or ``"float32"``
    #: (half the memory; sub-meter position rounding at LEO radii, below
    #: the link model's sensitivity but not bit-identical to float64).
    ephemeris_dtype: str = "float64"
    #: Stream the ephemeris in windows of this many steps instead of
    #: materializing the whole horizon (0 = materialize everything).
    #: Bounds peak memory at mega-constellation scale; rows are
    #: bit-identical to the monolithic table.
    ephemeris_window_steps: int = 0
    #: Precompute the contact-window (pass) structure once and drive the
    #: per-step loop from it: candidate generation becomes an index
    #: lookup, zero-contact ticks skip graph/matching entirely, and edge
    #: gathers are reused between rise/set boundaries.  Bit-identical
    #: reports either way (``False`` generates candidates per step with
    #: the culling grid).  Requires a precomputed ephemeris; silently
    #: inert otherwise.
    contact_windows: bool = True

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.step_s <= 0:
            raise ValueError("step must be positive")
        if self.step_s > self.duration_s:
            raise ValueError("step cannot exceed duration")
        if self.forecast_refresh_s <= 0:
            raise ValueError("forecast refresh must be positive")
        if not 0.0 <= self.acquisition_overhead_s < self.step_s:
            raise ValueError(
                "acquisition overhead must be within [0, step_s)"
            )
        if self.execution_mode not in ("live", "planned", "diversity"):
            raise ValueError(
                f"execution_mode must be 'live', 'planned', or "
                f"'diversity', got {self.execution_mode!r}"
            )
        if self.diversity_receivers < 1:
            raise ValueError("diversity_receivers must be >= 1")
        if self.plan_refresh_s <= 0 or self.plan_horizon_s <= 0:
            raise ValueError("plan refresh and horizon must be positive")
        if self.plan_horizon_s < self.plan_refresh_s:
            raise ValueError(
                "plan horizon must cover at least one refresh interval"
            )
        if self.ephemeris_dtype not in ("float64", "float32"):
            raise ValueError(
                f"ephemeris_dtype must be 'float64' or 'float32', "
                f"got {self.ephemeris_dtype!r}"
            )
        if self.ephemeris_window_steps < 0:
            raise ValueError("ephemeris window must be non-negative")

    @property
    def num_steps(self) -> int:
        return int(self.duration_s // self.step_s)
