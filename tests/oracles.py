"""Reference implementations the production paths are checked against.

Each function here is the straightforward per-item (or dense M x N)
version of something the engine or scheduler now does array-at-a-time.
They are kept only as oracles: the equivalence tests assert the
production path agrees with them on every element.  The two contact-graph
builders take ``build_contact_graph``'s arguments, so :func:`oracle_graph`
and :func:`use_oracle_builder` can put them in its place behind a real
scheduler.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.linkbudget.decode import decode_probability
from repro.scheduling import scheduler as scheduler_module
from repro.scheduling.graph import (
    ContactEdge,
    ContactGraph,
    EdgeColumns,
    GeometryEngine,
    PairGroupCache,
    _price_pairs,
)
from repro.scheduling.matching import Assignment
from repro.scheduling.value_functions import FleetQueueProfile
from repro.weather.cells import WeatherSample


def _dense_visibility(satellites, geometry, when, ephemeris):
    """The full M x N (elevation, range, visible) matrices at ``when``."""
    sat_ecef = None
    if ephemeris is not None:
        sat_ecef = ephemeris.positions_ecef(when)
    return geometry.visibility(satellites, when, sat_ecef=sat_ecef)


def dense_pairs(geometry: GeometryEngine, satellites, when: datetime,
                ephemeris=None):
    """Visible ``(sat, gs, elevation_deg, range_km)`` from the dense matrix.

    The dense form of the window index's per-step slices and of the
    culled candidate stage: row-major by (satellite, station).
    """
    elevation, rng_km, visible = _dense_visibility(
        satellites, geometry, when, ephemeris
    )
    sat, gs = np.nonzero(visible)
    return sat, gs, elevation[sat, gs], rng_km[sat, gs]


def _station_gates(network, when, station_available, station_weight):
    """Down-station set and per-station weight factors, one call each."""
    unavailable: set[int] = set()
    if station_available is not None:
        unavailable = {
            j for j in range(len(network)) if not station_available(j, when)
        }
    weight_factor = None
    if station_weight is not None:
        weight_factor = [
            float(station_weight(j, when)) for j in range(len(network))
        ]
        unavailable |= {j for j, f in enumerate(weight_factor) if f <= 0.0}
    return unavailable, weight_factor


def scalar_contact_graph(
    satellites, network, when, value_function, link_budget_for, forecast,
    step_s, geometry=None, require_current_plan=False,
    plan_max_age_s=float("inf"), station_available=None,
    station_weight=None, ephemeris=None, **_caches,
) -> ContactGraph:
    """The per-pair reference builder behind ``build_contact_graph``.

    Takes ``build_contact_graph``'s arguments (its caches are ignored),
    so it can stand in for it.  Walks the dense visibility matrix one
    pair at a time: station gates, constraint bitmap and plan rule per
    pair, one scalar link-budget evaluation and one ``edge_value`` call
    per visible feasible pair.
    """
    if geometry is None:
        geometry = GeometryEngine(network)
    elevation, rng_km, visible = _dense_visibility(
        satellites, geometry, when, ephemeris
    )
    unavailable, weight_factor = _station_gates(
        network, when, station_available, station_weight
    )
    edges: list[ContactEdge] = []
    weather_cache: dict[int, WeatherSample] = {}
    for i, sat in enumerate(satellites):
        visible_stations = np.nonzero(visible[i])[0]
        if visible_stations.size == 0:
            continue
        has_plan = sat.has_current_plan(when, plan_max_age_s)
        for j in visible_stations.tolist():
            if j in unavailable:
                continue
            station = network[j]
            if not station.allows_satellite(i):
                continue
            if require_current_plan and not has_plan \
                    and not station.can_transmit:
                continue
            sample = weather_cache.get(j)
            if sample is None:
                sample = forecast(
                    station.latitude_deg, station.longitude_deg, when
                )
                weather_cache[j] = sample
            result = link_budget_for(sat, j).evaluate(
                range_km=float(rng_km[i, j]),
                elevation_deg=float(elevation[i, j]),
                station_latitude_deg=station.latitude_deg,
                rain_rate_mm_h=sample.rain_rate_mm_h,
                cloud_water_kg_m2=sample.cloud_water_kg_m2,
                station_altitude_km=station.altitude_km,
            )
            if not result.closes:
                continue
            weight = value_function.edge_value(
                sat, station.station_id, result.bitrate_bps, when, step_s
            )
            if weight_factor is not None:
                weight *= weight_factor[j]
            if weight <= 0.0:
                continue
            edges.append(ContactEdge(
                satellite_index=i,
                station_index=j,
                weight=weight,
                bitrate_bps=result.bitrate_bps,
                elevation_deg=float(elevation[i, j]),
                range_km=float(rng_km[i, j]),
                required_esn0_db=result.modcod.esn0_db,
            ))
    return ContactGraph(when, EdgeColumns.from_edges(edges),
                        len(satellites), len(network))


def dense_contact_graph(
    satellites, network, when, value_function, link_budget_for, forecast,
    step_s, geometry=None, require_current_plan=False,
    plan_max_age_s=float("inf"), station_available=None,
    station_weight=None, ephemeris=None, pair_groups=None,
    queue_profile=None, **_caches,
) -> ContactGraph:
    """The dense-matrix reference builder behind ``build_contact_graph``.

    Applies the feasibility masks to the full M x N visibility matrix
    and prices the surviving pairs with the production pricing stage --
    the pipeline's candidate and feasibility stages without culling or
    the window index.
    """
    if geometry is None:
        geometry = GeometryEngine(network)
    elevation, rng_km, visible = _dense_visibility(
        satellites, geometry, when, ephemeris
    )
    num_sats = len(satellites)
    unavailable, weight_factor = _station_gates(
        network, when, station_available, station_weight
    )
    mask = visible.copy()
    if unavailable:
        mask[:, sorted(unavailable)] = False
    for j, station in enumerate(network):
        if station.constraints.bitmap != -1 and mask[:, j].any():
            mask[:, j] &= np.fromiter(
                (station.allows_satellite(i) for i in range(num_sats)),
                bool, num_sats,
            )
    if require_current_plan:
        has_plan = np.fromiter(
            (s.has_current_plan(when, plan_max_age_s) for s in satellites),
            bool, num_sats,
        )
        mask &= has_plan[:, None] | geometry._can_transmit[None, :]
    sat_idx, gs_idx = np.nonzero(mask)
    columns = _price_pairs(
        satellites, network, when, value_function, link_budget_for,
        forecast, step_s, geometry, sat_idx, gs_idx,
        elevation[sat_idx, gs_idx], rng_km[sat_idx, gs_idx],
        None if weight_factor is None else np.asarray(weight_factor),
        pair_groups or PairGroupCache(num_sats, len(network)),
        queue_profile or FleetQueueProfile(satellites),
    )
    return ContactGraph(when, columns, num_sats, len(network))


def oracle_graph(scheduler, when: datetime, builder=scalar_contact_graph,
                 forecast_issued_at: datetime | None = None) -> ContactGraph:
    """``scheduler.contact_graph(when)`` with ``builder`` standing in for
    ``build_contact_graph`` (same wiring: weather, gates, value function)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler_module, "build_contact_graph", builder)
        return scheduler.contact_graph(when, forecast_issued_at)


def use_oracle_builder(monkeypatch, builder=scalar_contact_graph) -> None:
    """Route every scheduler's graph build through ``builder`` (for
    whole-simulation comparisons; undone with the ``monkeypatch``)."""
    monkeypatch.setattr(scheduler_module, "build_contact_graph", builder)


def assert_graphs_identical(graph_a: ContactGraph,
                            graph_b: ContactGraph) -> int:
    """Bitwise edge-for-edge equality, order included; returns the count."""
    assert graph_a.edges == graph_b.edges
    return graph_a.num_edges


def truth_esn0(sim, satellite_index: int, station_index: int,
               elevation_deg: float, range_km: float, now: datetime) -> float:
    """One reception's Es/N0 under the station's true weather, from the
    scalar link budget (the per-item form of ``Simulation._truth_esn0``)."""
    station = sim.network[station_index]
    truth = sim.truth_weather.sample(
        station.latitude_deg, station.longitude_deg, now
    )
    sat = sim.satellites[satellite_index]
    budget = sim.scheduler._link_budget_for(sat, station_index)
    return budget.evaluate(
        range_km=range_km,
        elevation_deg=elevation_deg,
        station_latitude_deg=station.latitude_deg,
        rain_rate_mm_h=truth.rain_rate_mm_h,
        cloud_water_kg_m2=truth.cloud_water_kg_m2,
        station_altitude_km=station.altitude_km,
    ).esn0_db


def copy_decode_probability(sim, satellite_index: int, station_index: int,
                            elevation_deg: float, range_km: float,
                            required_esn0_db: float, now: datetime) -> float:
    """One listening station's chance of decoding the shared stream.

    The per-copy scalar form of
    ``Simulation._copy_decode_probabilities``: gate on outages and
    faults, sample the station's true weather, run the scalar link
    budget, and apply the soft Gaussian-margin model scaled by the
    station's partial availability.
    """
    station = sim.network[station_index]
    if sim.outages is not None and sim.outages.is_down(
        station.station_id, now
    ):
        return 0.0
    availability = 1.0
    if sim.faults is not None:
        availability = sim.faults.station_availability(
            station.station_id, now
        )
        if availability <= 0.0:
            return 0.0
        if sim.faults.is_undecoded(station.station_id, now):
            return 0.0
    esn0 = truth_esn0(sim, satellite_index, station_index, elevation_deg,
                      range_km, now)
    probability = decode_probability(esn0, required_esn0_db)
    return probability * availability


def diversity_groups(graph: ContactGraph, assignments: list[Assignment],
                     max_receivers: int) -> dict[int, list[ContactEdge]]:
    """Secondary receivers per matched satellite, from edge objects.

    Walks each assignment's adjacency list in assignment order, taking
    the best (highest weight, then lowest station index) stations no
    primary holds and no earlier satellite has claimed.
    """
    if max_receivers < 1:
        raise ValueError("max_receivers must be >= 1")
    taken = {a.station_index for a in assignments}
    groups: dict[int, list[ContactEdge]] = {}
    for a in assignments:
        candidates = [
            e for e in graph.edges
            if e.satellite_index == a.satellite_index
            and e.station_index != a.station_index
            and e.station_index not in taken
        ]
        candidates.sort(key=lambda e: (-e.weight, e.station_index))
        chosen = candidates[: max_receivers - 1]
        for e in chosen:
            taken.add(e.station_index)
        groups[a.satellite_index] = chosen
    return groups


def storm_at(field, lat_deg: float, lon_deg: float,
             when: datetime) -> tuple[float, float]:
    """``StormField.storm_at`` as the plain per-cell footprint sum.

    Scans every storm of the three birth epochs that could reach
    ``when`` and adds each one's :meth:`StormCell.footprint_at`, in
    epoch-then-cell order.
    """
    from repro.weather.cells import _ORIGIN

    time_s = (when - _ORIGIN).total_seconds()
    epoch = int(time_s // (24.0 * 3600.0))
    rain = 0.0
    cloud = 0.0
    for ep in range(epoch - 2, epoch + 1):
        for cell in field._cells_for_epoch(ep):
            factor = cell.footprint_at(lat_deg, lon_deg, time_s)
            if factor <= 0.0:
                continue
            rain += cell.peak_rain_mm_h * factor
            cloud += 0.12 * cell.peak_rain_mm_h * factor
    return rain, cloud
