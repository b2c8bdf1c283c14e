"""Time-instant contact graph construction (paper Sec. 3.1, steps 1-2).

At each scheduling instant we need the weighted bipartite graph between
satellites and ground stations: an edge exists when the satellite is above
the station's elevation mask and the station's constraint bitmap allows it;
the edge weight is the value function applied to the link-model bitrate.

:func:`build_contact_graph` is one pipeline of three array stages:

1. *candidates* -- the visible (satellite, station) pairs with exact
   elevation and range: read from the precomputed
   :class:`~repro.scheduling.windows.ContactWindowIndex` on grid
   instants, or produced by the :class:`~repro.scheduling.culling.StationGrid`
   prefilter plus the exact elevation test off-grid;
2. *feasibility* -- one mask for down stations, constraint bitmaps and
   the hybrid plan-distribution rule (:func:`_feasible`);
3. *pricing* -- per-station weather, the batched link-budget kernel
   (:meth:`LinkBudget.evaluate_batch`, one call per hardware class), the
   value function, and the fault layer's station weight
   (:func:`_price_pairs`).

The graph is held as :class:`EdgeColumns` arrays.  The per-pair scalar
builder and the dense M x N builder the pipeline replaced live on as
reference oracles in ``tests/oracles.py``; the equivalence tests hold
this pipeline to them edge for edge.
"""

from __future__ import annotations

import math
import time
from datetime import datetime
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.linkbudget.budget import KernelStatics, LinkBudget
from repro.orbits.frames import geodetic_to_ecef
from repro.orbits.timebase import datetime_to_jd, gmst_rad
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid
from repro.scheduling.value_functions import FleetQueueProfile, ValueFunction
from repro.weather.cells import WeatherSample

if TYPE_CHECKING:
    from repro.orbits.ephemeris import EphemerisTable

#: Forecast oracle: (lat, lon, valid_at) -> WeatherSample, already bound to
#: an issue time by the caller.
ForecastFn = Callable[[float, float, datetime], WeatherSample]


class ContactEdge(NamedTuple):
    """One feasible satellite-station link at one instant.

    A NamedTuple rather than a dataclass: tens of thousands of edges are
    constructed per scheduling instant at mega-constellation scale, and
    tuple construction is ~3x cheaper than frozen-dataclass ``__init__``.
    """

    satellite_index: int
    station_index: int
    weight: float
    bitrate_bps: float
    elevation_deg: float
    range_km: float
    #: Ideal Es/N0 threshold (dB) of the MODCOD the plan commits to; the
    #: transmission decodes iff the truth-weather Es/N0 clears this.
    required_esn0_db: float = -100.0


class EdgeColumns(NamedTuple):
    """Column-array form of a graph's edges, in edge order.

    The sparse contact-graph representation: seven parallel arrays
    instead of a list of :class:`ContactEdge` objects.  The graph build
    produces this directly (never constructing per-edge objects) and the
    matchers consume it directly, so at mega-constellation scale no
    per-edge Python object exists unless something asks for ``.edges``.
    """

    satellite_index: np.ndarray  # intp
    station_index: np.ndarray  # intp
    weight: np.ndarray
    bitrate_bps: np.ndarray
    elevation_deg: np.ndarray
    range_km: np.ndarray
    required_esn0_db: np.ndarray

    @classmethod
    def from_edges(cls, edges: list[ContactEdge]) -> "EdgeColumns":
        count = len(edges)
        return cls(
            np.fromiter((e.satellite_index for e in edges), np.intp, count),
            np.fromiter((e.station_index for e in edges), np.intp, count),
            np.fromiter((e.weight for e in edges), float, count),
            np.fromiter((e.bitrate_bps for e in edges), float, count),
            np.fromiter((e.elevation_deg for e in edges), float, count),
            np.fromiter((e.range_km for e in edges), float, count),
            np.fromiter((e.required_esn0_db for e in edges), float, count),
        )

    def to_edges(self) -> list[ContactEdge]:
        """Materialize :class:`ContactEdge` objects (bit-identical fields)."""
        return list(map(ContactEdge._make, zip(*(col.tolist() for col in self))))


class ContactGraph:
    """The bipartite graph for one instant, held as :class:`EdgeColumns`.

    ``edges`` materializes :class:`ContactEdge` objects from the columns
    on first access (bit-identical fields); array consumers read
    :meth:`columns` and never pay for per-edge objects.
    """

    __slots__ = ("when", "num_satellites", "num_stations", "_columns",
                 "_edges")

    def __init__(self, when: datetime, columns: EdgeColumns,
                 num_satellites: int = 0, num_stations: int = 0):
        self.when = when
        self.num_satellites = num_satellites
        self.num_stations = num_stations
        self._columns = columns
        self._edges: list[ContactEdge] | None = None

    @property
    def edges(self) -> list[ContactEdge]:
        """Edge objects, materialized from the column arrays on demand."""
        if self._edges is None:
            self._edges = self._columns.to_edges()
        return self._edges

    @property
    def num_edges(self) -> int:
        """Edge count without materializing edge objects."""
        return int(self._columns.satellite_index.size)

    def columns(self) -> EdgeColumns:
        """Column-array form of the edges."""
        return self._columns


class GeometryEngine:
    """Precomputed station geometry + vectorized visibility evaluation."""

    def __init__(self, network: GroundStationNetwork):
        self.network = network
        positions = []
        ups = []
        easts = []
        norths = []
        for st in network:
            positions.append(
                geodetic_to_ecef(st.latitude_deg, st.longitude_deg, st.altitude_km)
            )
            lat = math.radians(st.latitude_deg)
            lon = math.radians(st.longitude_deg)
            ups.append(
                [
                    math.cos(lat) * math.cos(lon),
                    math.cos(lat) * math.sin(lon),
                    math.sin(lat),
                ]
            )
            easts.append([-math.sin(lon), math.cos(lon), 0.0])
            norths.append(
                [
                    -math.sin(lat) * math.cos(lon),
                    -math.sin(lat) * math.sin(lon),
                    math.cos(lat),
                ]
            )
        self._station_ecef = np.array(positions)  # (N, 3)
        self._up = np.array(ups)
        self._east = np.array(easts)
        self._north = np.array(norths)
        self._min_elevation = np.array([st.min_elevation_deg for st in network])
        self._sin_min_elevation = np.sin(np.radians(self._min_elevation))
        # Per-station scalars the batched budget kernel consumes.
        self._station_lat_deg = np.array([st.latitude_deg for st in network])
        self._station_alt_km = np.array([st.altitude_km for st in network])
        self._can_transmit = np.array(
            [st.can_transmit for st in network], dtype=bool
        )

    def satellite_ecef(self, satellites: list[Satellite],
                       when: datetime) -> np.ndarray:
        """Fleet ECEF positions ``(M, 3)`` by per-satellite propagation."""
        jd = datetime_to_jd(when)
        theta = gmst_rad(jd)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rot = np.array(
            [[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]]
        )
        sat_ecef = np.empty((len(satellites), 3))
        for i, sat in enumerate(satellites):
            pos_teme, _ = sat.position_teme(when)
            sat_ecef[i] = rot @ pos_teme
        return sat_ecef

    def visibility(
        self,
        satellites: list[Satellite],
        when: datetime,
        sat_ecef: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(elevation_deg, range_km, visible_mask) matrices, shape (M, N).

        ``sat_ecef`` short-circuits propagation with precomputed fleet
        positions (an :class:`EphemerisTable` row).
        """
        if sat_ecef is None:
            sat_ecef = self.satellite_ecef(satellites, when)
        # rel[i, j] = satellite i relative to station j.
        rel = sat_ecef[:, None, :] - self._station_ecef[None, :, :]
        rng = np.linalg.norm(rel, axis=2)
        up_component = np.einsum("ijk,jk->ij", rel, self._up)
        with np.errstate(invalid="ignore", divide="ignore"):
            elevation = np.degrees(np.arcsin(np.clip(up_component / rng, -1.0, 1.0)))
        visible = elevation > self._min_elevation[None, :]
        return elevation, rng, visible


def build_contact_graph(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    when: datetime,
    value_function: ValueFunction,
    link_budget_for: Callable[[Satellite, int], LinkBudget],
    forecast: ForecastFn,
    step_s: float,
    geometry: GeometryEngine | None = None,
    require_current_plan: bool = False,
    plan_max_age_s: float = float("inf"),
    station_available: Callable[[int, datetime], bool] | None = None,
    station_weight: Callable[[int, datetime], float] | None = None,
    ephemeris: "EphemerisTable | None" = None,
    pair_groups: PairGroupCache | None = None,
    culling: StationGrid | None = None,
    queue_profile: FleetQueueProfile | None = None,
    recorder=None,
    window_index=None,
    window_state: dict | None = None,
    weather_memo=None,
) -> ContactGraph:
    """Construct the weighted bipartite graph at ``when``.

    One pipeline in three stages:

    1. *Candidates* -- the visible pairs, row-major by (satellite,
       station) with exact elevation/range.  On-grid instants read them
       from ``window_index`` (a
       :class:`~repro.scheduling.windows.ContactWindowIndex`) as
       zero-copy slices; off-grid instants run the ``culling`` grid
       (a :class:`~repro.scheduling.culling.StationGrid`) over the fleet
       positions -- the ``ephemeris`` row when it covers the instant,
       per-satellite propagation otherwise -- and the exact elevation
       test on its candidates.
    2. *Feasibility* (:func:`_feasible`) -- drop pairs to stations that
       are down, that a station's constraint bitmap excludes, or, with
       ``require_current_plan``, from satellites without a plan younger
       than ``plan_max_age_s`` to receive-only stations (they do not
       know where to point; transmit-capable stations can retask them).
    3. *Pricing* (:func:`_price_pairs`) -- weather, the batched link
       budget, the value function, and the station weight factor.

    ``link_budget_for(sat, station_index)`` returns the budget binding a
    pair.  ``station_available(station_index, when)`` excludes stations
    the scheduler knows to be down (announced maintenance).
    ``station_weight(station_index, when)`` is the fault layer's graded
    variant: every edge weight to the station is multiplied by the
    factor, and a factor <= 0 prunes the station.

    ``pair_groups``, ``queue_profile``, ``window_state`` and
    ``weather_memo`` are caches a scheduler keeps between calls (the
    function builds throwaway ones when they are omitted, like
    ``geometry`` and ``culling``).  ``recorder`` (a
    :class:`repro.obs.Recorder`) receives pair counters and the
    weather-sampling time; it never influences the graph.  Edges come
    out in row-major order whichever source produced the candidates --
    matchers tie-break on edge order -- and are pinned against the
    per-pair reference builders in ``tests/oracles.py``.
    """
    if geometry is None:
        geometry = GeometryEngine(network)
    record = recorder is not None and recorder.enabled
    step_k = window_index.step_of(when) if window_index is not None else None
    if step_k is not None:
        pair_sat, pair_gs, pair_elev, pair_rng = window_index.pairs_at(step_k)
        if record:
            recorder.counter("window_index_hits")
            recorder.counter("visible_pairs", int(pair_sat.size))
    else:
        sat_ecef = None
        if ephemeris is not None:
            sat_ecef = ephemeris.positions_ecef(when)
        if record:
            recorder.counter(
                "ephemeris_row_hits" if sat_ecef is not None
                else "ephemeris_row_misses"
            )
        if sat_ecef is None:
            sat_ecef = geometry.satellite_ecef(satellites, when)
        if culling is None:
            culling = StationGrid(network)
        cand_sat, cand_gs = culling.candidate_pairs(sat_ecef)
        elevation, rng, visible = _pair_visibility(
            geometry, sat_ecef, cand_sat, cand_gs
        )
        seen = np.flatnonzero(visible)
        pair_sat, pair_gs = cand_sat[seen], cand_gs[seen]
        pair_elev, pair_rng = elevation[seen], rng[seen]
        if record:
            recorder.counter("visible_pairs", int(seen.size))
            recorder.counter("candidate_pairs", int(cand_sat.size))
            recorder.counter(
                "culled_pairs",
                len(satellites) * len(network) - int(cand_sat.size),
            )

    if pair_groups is None:
        pair_groups = PairGroupCache(len(satellites), len(network))
    if queue_profile is None:
        queue_profile = FleetQueueProfile(satellites)
    down, weight_factor = _station_gates(
        len(network), when, station_available, station_weight
    )
    keep = _feasible(
        satellites, network, geometry, when, pair_sat, pair_gs, down,
        require_current_plan, plan_max_age_s,
    )
    kernel_static = None
    if step_k is not None:
        kernel_static = window_index.kernel_statics_at(step_k)
    pair_static = None
    if keep is not None:
        final = np.flatnonzero(keep)
        pair_sat, pair_gs = pair_sat[final], pair_gs[final]
        pair_elev, pair_rng = pair_elev[final], pair_rng[final]
        if kernel_static is not None:
            # Gathering precomputed columns with the same mask keeps them
            # element-aligned (and element-wise ops on a gathered subset
            # are bit-equal to gathering their full-array results).
            kernel_static = {
                gid: st.take(final) for gid, st in kernel_static.items()
            }
    elif step_k is not None and window_state is not None:
        pair_static = _segment_static(
            window_index, step_k, window_state, geometry, pair_groups,
            pair_sat, pair_gs, recorder,
        )
    columns = _price_pairs(
        satellites, network, when, value_function, link_budget_for,
        forecast, step_s, geometry, pair_sat, pair_gs, pair_elev, pair_rng,
        weight_factor, pair_groups, queue_profile, weather_memo=weather_memo,
        pair_static=pair_static, kernel_static=kernel_static,
        recorder=recorder,
    )
    return ContactGraph(when, columns, len(satellites), len(network))


def _station_gates(
    num_stations: int,
    when: datetime,
    station_available: Callable[[int, datetime], bool] | None,
    station_weight: Callable[[int, datetime], float] | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-station ``(down, weight_factor)`` at ``when``.

    ``down`` flags stations that contribute no edges (unavailable, or a
    weight factor <= 0); ``None`` when every station is up.
    ``weight_factor`` is ``None`` without a ``station_weight`` oracle.
    """
    down = None
    if station_available is not None:
        down = np.fromiter(
            (not station_available(j, when) for j in range(num_stations)),
            bool, num_stations,
        )
    weight_factor = None
    if station_weight is not None:
        weight_factor = np.array(
            [float(station_weight(j, when)) for j in range(num_stations)]
        )
        pruned = weight_factor <= 0.0
        down = pruned if down is None else down | pruned
    if down is not None and not down.any():
        down = None
    return down, weight_factor


def _feasible(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    geometry: GeometryEngine,
    when: datetime,
    pair_sat: np.ndarray,
    pair_gs: np.ndarray,
    down: np.ndarray | None,
    require_current_plan: bool,
    plan_max_age_s: float,
) -> np.ndarray | None:
    """Survivor mask over the candidate pairs, or ``None`` when all survive.

    Applies the down-station gate, the stations' constraint bitmaps and
    the hybrid plan-distribution rule.  Masking only removes entries, so
    the survivors keep the candidates' row-major order; returning
    ``None`` in the common unmasked case lets the window index's slices
    reach pricing without a copy.
    """
    num_sats = len(satellites)
    keep: np.ndarray | None = None
    if down is not None:
        keep = ~down[pair_gs]
    # Constraint bitmaps: only stations that are not allow-all need the
    # per-satellite expansion (rare: volunteer stations allow everyone).
    for j, station in enumerate(network):
        if station.constraints.bitmap == -1:
            continue
        base = keep if keep is not None else np.ones(pair_sat.size, bool)
        at_station = base & (pair_gs == j)
        if not at_station.any():
            continue
        allowed = np.fromiter(
            (station.allows_satellite(i) for i in range(num_sats)),
            bool, num_sats,
        )
        keep = base & (allowed[pair_sat] | ~at_station)
    if require_current_plan:
        has_plan = np.fromiter(
            (s.has_current_plan(when, plan_max_age_s) for s in satellites),
            bool, num_sats,
        )
        mask = has_plan[pair_sat] | geometry._can_transmit[pair_gs]
        keep = mask if keep is None else keep & mask
    if keep is not None and bool(keep.all()):
        return None
    return keep


def _segment_static(window_index, step_k: int, window_state: dict,
                    geometry: GeometryEngine, pair_groups: PairGroupCache,
                    pair_sat: np.ndarray, pair_gs: np.ndarray,
                    recorder) -> tuple | None:
    """Per-pair pricing gathers, reused between rise/set boundary ticks.

    Between boundaries the window index's pair topology is constant, so
    the station latitude/altitude and hardware-class id columns gathered
    for one tick serve the whole segment; the ``edges_rebuilt`` counter
    ticks only when a pass boundary invalidates them.
    """
    seg = window_index.segment_id(step_k)
    if window_state.get("segment") == seg:
        return window_state.get("static")
    if not pair_sat.size:
        return None
    gids = pair_groups.gid[pair_sat, pair_gs]
    if (gids < 0).any():
        return None
    pair_static = (
        geometry._station_lat_deg[pair_gs],
        geometry._station_alt_km[pair_gs],
        gids,
    )
    window_state["segment"] = seg
    window_state["static"] = pair_static
    if recorder is not None and recorder.enabled:
        recorder.counter("edges_rebuilt")
    return pair_static


def _pair_visibility(
    geometry: GeometryEngine,
    sat_ecef: np.ndarray,
    sat_idx: np.ndarray,
    gs_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair (elevation_deg, range_km, visible) for candidate pairs.

    Element-for-element the same arithmetic as the dense
    :meth:`GeometryEngine.visibility` (subtract, norm, 3-term dot,
    arcsin), just restricted to the candidate pairs -- so every pair that
    passes the sine-space prescreen has elevation/range bit-identical to
    its dense-matrix entry, and the prescreen only prunes pairs both
    paths reject.
    """
    rel = sat_ecef[sat_idx] - geometry._station_ecef[gs_idx]
    rng = np.linalg.norm(rel, axis=1)
    up_component = np.einsum("ij,ij->i", rel, geometry._up[gs_idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.clip(up_component / rng, -1.0, 1.0)
    # Conservative sine-space prescreen: ``degrees(arcsin(r))`` is
    # monotone in r with relative rounding error far below 1e-9, so any
    # pair whose elevation could clear its mask has
    # ``r >= sin(mask) - 1e-9``.  The exact arcsin (bit-identical to the
    # dense matrix entry) then runs on the survivors only; pruned pairs
    # are reported at -90 deg, which every mask rejects.
    maybe = np.nonzero(
        ratio >= geometry._sin_min_elevation[gs_idx] - 1e-9
    )[0]
    elevation = np.full(ratio.shape, -90.0)
    visible = np.zeros(ratio.shape, dtype=bool)
    if maybe.size:
        gs_maybe = gs_idx[maybe]
        elev_maybe = np.degrees(np.arcsin(ratio[maybe]))
        elevation[maybe] = elev_maybe
        visible[maybe] = elev_maybe > geometry._min_elevation[gs_maybe]
    return elevation, rng, visible


def _empty_columns() -> EdgeColumns:
    empty_f = np.empty(0)
    return EdgeColumns(
        np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
        empty_f, empty_f.copy(), empty_f.copy(), empty_f.copy(),
        empty_f.copy(),
    )


def _budget_group_key(budget: LinkBudget) -> tuple:
    """Pairs sharing this key evaluate identically and can batch together."""
    return (
        budget.radio,
        budget.receiver,
        budget.acm_margin_db,
        budget.hardware_calibration_db,
        budget.pilots,
    )


#: Interned hardware-class ids: hashing the full (radio, receiver, ...)
#: tuple per pair per step is measurable, so each LinkBudget caches its
#: small-int class id after the first lookup.  The registry stays tiny --
#: one entry per distinct hardware class ever seen.
_GROUP_IDS: dict[tuple, int] = {}


def _budget_group_id(budget: LinkBudget) -> int:
    gid = budget.__dict__.get("_group_id")
    if gid is None:
        key = _budget_group_key(budget)
        gid = _GROUP_IDS.setdefault(key, len(_GROUP_IDS))
        budget.__dict__["_group_id"] = gid
    return gid


class PairGroupCache:
    """Lazily-filled (satellite, station) -> hardware-class-id matrix.

    Budget assignment is time-invariant, so after the first step touching
    a pair the batched path resolves its hardware class with one fancy
    index instead of a ``link_budget_for`` call per pair per step.
    """

    def __init__(self, num_satellites: int, num_stations: int):
        self.gid = np.full((num_satellites, num_stations), -1, dtype=np.int32)
        #: One representative (value-identical) budget per class id.
        self.budget_of: dict[int, LinkBudget] = {}

    def resolve(self, satellites: list[Satellite],
                link_budget_for: Callable[[Satellite, int], LinkBudget],
                sat_idx: np.ndarray, gs_idx: np.ndarray) -> np.ndarray:
        """Hardware-class ids of the pairs ``(sat_idx[p], gs_idx[p])``,
        filling any not yet seen through ``link_budget_for``."""
        gids = self.gid[sat_idx, gs_idx]
        unresolved = np.nonzero(gids < 0)[0]
        if unresolved.size:
            sat_list = sat_idx.tolist()
            gs_list = gs_idx.tolist()
            for p in unresolved.tolist():
                i, j = sat_list[p], gs_list[p]
                budget = link_budget_for(satellites[i], j)
                gid = _budget_group_id(budget)
                self.gid[i, j] = gid
                self.budget_of.setdefault(gid, budget)
                gids[p] = gid
        return gids


def _price_pairs(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    when: datetime,
    value_function: ValueFunction,
    link_budget_for: Callable[[Satellite, int], LinkBudget],
    forecast: ForecastFn,
    step_s: float,
    geometry: GeometryEngine,
    sat_idx: np.ndarray,
    gs_idx: np.ndarray,
    pair_elevation: np.ndarray,
    pair_range: np.ndarray,
    weight_factor: np.ndarray | None,
    pair_groups: PairGroupCache,
    queue_profile: FleetQueueProfile,
    weather_memo=None,
    pair_static: tuple | None = None,
    kernel_static: dict[int, KernelStatics] | None = None,
    recorder=None,
) -> EdgeColumns:
    """Price the feasible pairs: weather, link budget, value, weight factor.

    ``sat_idx``/``gs_idx`` are the feasible pairs (all masks applied)
    with their already-gathered elevation/range, in row-major order.

    ``weather_memo`` substitutes a per-station sample memo for the
    involved-station oracle loop; it issues the identical first call per
    provider quantization bucket, so the returned values (and the
    provider's cache contents) are bit-identical to the loop's.
    ``pair_static`` is an optional pre-gathered
    ``(station_lat_deg, station_alt_km, gids)`` triple for this exact
    pair set -- the window path reuses it across boundary-free ticks.
    ``kernel_static`` maps hardware-class gid to precomputed
    :class:`~repro.linkbudget.budget.KernelStatics` columns aligned with
    this exact pair set; the budget kernel then skips its fspl, gas, and
    cloud-sine evaluations bit-identically.
    """
    if sat_idx.size == 0:
        return _empty_columns()
    num_stations = len(network)

    # Weather once per involved station.  An identically-clear provider
    # skips the oracle loop: every sample would be exactly zero.
    record = recorder is not None and recorder.enabled
    if record:
        t0 = time.perf_counter()
    if getattr(forecast, "always_clear", False):
        rain = np.zeros(num_stations)
        cloud = np.zeros(num_stations)
        sampled = 0
    elif weather_memo is not None:
        rain, cloud, sampled = weather_memo.station_weather(
            network, gs_idx, when
        )
    else:
        rain = np.zeros(num_stations)
        cloud = np.zeros(num_stations)
        # Involved stations via a flag pass: gs_idx is bounded by the
        # (small) station count, so this avoids sorting the pair list.
        involved = np.zeros(num_stations, dtype=bool)
        involved[gs_idx] = True
        stations = np.flatnonzero(involved).tolist()
        for j in stations:
            station = network[j]
            sample = forecast(
                station.latitude_deg, station.longitude_deg, when
            )
            rain[j] = sample.rain_rate_mm_h
            cloud[j] = sample.cloud_water_kg_m2
        sampled = len(stations)
    if record:
        recorder.add_time("weather_sampling", time.perf_counter() - t0)
        recorder.counter("weather_samples", sampled)

    # Group pairs by budget hardware class; the paper's scenarios collapse
    # to one or two classes, so the kernel runs once or twice per instant.
    # The class of a pair never changes, so the PairGroupCache resolves
    # previously-seen pairs with one fancy index (and the window index
    # pre-resolves every pair it will ever emit at build time).
    if pair_static is not None:
        station_lat, station_alt, gids = pair_static
    else:
        gids = pair_groups.resolve(
            satellites, link_budget_for, sat_idx, gs_idx
        )
        station_lat = geometry._station_lat_deg[gs_idx]
        station_alt = geometry._station_alt_km[gs_idx]

    pair_count = sat_idx.size
    gid_lo = int(gids.min())
    gid_hi = int(gids.max())
    if gid_lo == gid_hi:
        # Single hardware class (the common case): evaluate the whole
        # pair set in one kernel call, no group masking or scatters.
        budget = pair_groups.budget_of[gid_lo]
        static = (
            kernel_static.get(gid_lo) if kernel_static is not None else None
        )
        result = budget.evaluate_batch(
            range_km=pair_range,
            elevation_deg=pair_elevation,
            station_latitude_deg=station_lat,
            rain_rate_mm_h=rain[gs_idx],
            cloud_water_kg_m2=cloud[gs_idx],
            station_altitude_km=station_alt,
            static=static,
        )
        closes = result.closes
        bitrate = result.bitrate_bps
        required_esn0 = result.required_esn0_db
    else:
        closes = np.zeros(pair_count, dtype=bool)
        bitrate = np.zeros(pair_count)
        required_esn0 = np.full(pair_count, -100.0)
        present = np.flatnonzero(
            np.bincount(gids - gid_lo, minlength=gid_hi - gid_lo + 1)
        )
        for gid in (present + gid_lo).tolist():
            budget = pair_groups.budget_of[gid]
            pos = np.nonzero(gids == gid)[0]
            stations_of = gs_idx[pos]
            static = None
            if kernel_static is not None:
                full = kernel_static.get(gid)
                if full is not None:
                    static = full.take(pos)
            result = budget.evaluate_batch(
                range_km=pair_range[pos],
                elevation_deg=pair_elevation[pos],
                station_latitude_deg=station_lat[pos],
                rain_rate_mm_h=rain[stations_of],
                cloud_water_kg_m2=cloud[stations_of],
                station_altitude_km=station_alt[pos],
                static=static,
            )
            closes[pos] = result.closes
            bitrate[pos] = result.bitrate_bps
            required_esn0[pos] = result.required_esn0_db

    keep = np.nonzero(closes)[0]
    if keep.size == 0:
        return _empty_columns()
    k_sat = sat_idx[keep]
    k_gs = gs_idx[keep]
    k_bitrate = bitrate[keep]
    # Value pricing.  Value functions with a vectorized ``edge_values``
    # (latency, throughput, deadline) price every closing pair against
    # the fleet queue profile in a few numpy passes; the rest fill the
    # same weights array one ``edge_value`` call per pair.
    batch_values = getattr(value_function, "edge_values", None)
    if batch_values is not None:
        # Pairs arrive row-major, so k_sat is nondecreasing: dedupe by
        # extracting run starts instead of a full unique sort.
        run_start = np.empty(k_sat.size, dtype=bool)
        run_start[0] = True
        np.not_equal(k_sat[1:], k_sat[:-1], out=run_start[1:])
        queue_profile.refresh(k_sat[run_start])
        weights = batch_values(queue_profile, k_sat, k_bitrate, when, step_s)
    else:
        edge_value = value_function.edge_value
        station_ids = [station.station_id for station in network]
        weights = np.fromiter(
            (
                edge_value(satellites[i], station_ids[j], rate, when, step_s)
                for i, j, rate in zip(
                    k_sat.tolist(), k_gs.tolist(), k_bitrate.tolist()
                )
            ),
            float, k_sat.size,
        )
    if weight_factor is not None:
        weights = weights * weight_factor[k_gs]
    pos = np.nonzero(weights > 0.0)[0]
    return EdgeColumns(
        k_sat[pos], k_gs[pos], weights[pos], k_bitrate[pos],
        pair_elevation[keep][pos], pair_range[keep][pos],
        required_esn0[keep][pos],
    )
