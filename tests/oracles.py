"""Scalar reference implementations the production paths are checked against.

Each function here is the straightforward per-item version of something
the engine or scheduler now does array-at-a-time.  They are kept only as
oracles: the equivalence tests assert the production path agrees with
them on every element.
"""

from __future__ import annotations

from datetime import datetime

from repro.linkbudget.decode import decode_probability
from repro.scheduling.graph import ContactEdge, ContactGraph
from repro.scheduling.matching import Assignment


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
            e for e in graph.edges_for_satellite(a.satellite_index)
            if e.station_index != a.station_index
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
