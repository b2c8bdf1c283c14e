"""Spatial culling: coarse-grid candidate-pair prefiltering.

At mega-constellation scale the dense M x N visibility matrix is the
per-step cost floor -- 10k satellites x 1000 stations is 10M
elevation/range evaluations per minute even though only a few percent of
pairs can ever be simultaneously visible.  This module makes the per-step
cost track *candidate* pairs instead: stations are bucketed once into
coarse latitude/longitude cells, and each step the fleet's subsatellite
points are tested against the occupied cells only (an ``M x C`` dot
product with C ~ a few hundred, evaluated as one BLAS matmul).  Stations
in cells that intersect a satellite's visibility disc become candidate
pairs; the exact elevation test then runs on candidates only.

The prefilter is **conservative by construction**: a pair is culled only
when the great-circle angle between the subsatellite point and the cell
is provably beyond the satellite's horizon at the network's most
permissive elevation mask.  The spherical-Earth bound

    psi_max = arccos((R_station / r_sat) * cos(eps)) - eps

(the closed-form regional-coverage geometry) is padded by the cell's
circumradius plus a fixed margin covering Earth oblateness and the
geodetic-vs-geocentric horizon deviation, so the candidate set is always
a superset of the truly visible pairs -- the property the equivalence
tests pin (the culled graph build matches the dense reference builder in
``tests/oracles.py`` edge for edge).
"""

from __future__ import annotations

import math

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.orbits.frames import geodetic_to_ecef

__all__ = ["StationGrid", "max_central_angle_rad"]

#: Lower bound on any station's geocentric radius (km): below the WGS72
#: polar radius, so the psi_max bound stays conservative for every real
#: site (larger station radius -> smaller visibility disc).
_R_STATION_MIN_KM = 6356.0

#: Fixed angular margin (degrees) absorbing everything the spherical
#: bound ignores: geodetic-vs-geocentric latitude deviation (<= 0.20 deg),
#: Earth oblateness, and station altitude effects on the horizon.
_MARGIN_DEG = 1.0


def max_central_angle_rad(sat_radius_km: np.ndarray,
                          min_elevation_deg: float) -> np.ndarray:
    """Max Earth-central angle at which a satellite can clear the mask.

    Spherical-Earth closed form: a satellite at geocentric radius ``r``
    is above elevation ``eps`` of a station only when the central angle
    between their radials is at most ``arccos((R/r) cos eps) - eps``.
    Uses the conservative minimum station radius so the returned angle is
    an upper bound for every real station.
    """
    r = np.asarray(sat_radius_km, dtype=float)
    eps = np.radians(min_elevation_deg)
    ratio = np.clip(_R_STATION_MIN_KM / np.maximum(r, _R_STATION_MIN_KM), 0.0, 1.0)
    return np.arccos(np.clip(ratio * np.cos(eps), -1.0, 1.0)) - eps


class StationGrid:
    """Coarse-cell bucketing of a ground network for candidate generation.

    Construction is one-time per network: stations are assigned to
    ``cell_size_deg`` latitude/longitude cells; each occupied cell keeps
    its member station indices (ascending), a unit center vector, and a
    circumradius (max angle from center to any member).  Per step,
    :meth:`candidate_pairs` reduces the fleet-vs-network product to a
    fleet-vs-occupied-cells product.
    """

    def __init__(self, network: GroundStationNetwork,
                 cell_size_deg: float = 10.0,
                 margin_deg: float = _MARGIN_DEG):
        if cell_size_deg <= 0.0:
            raise ValueError("cell size must be positive")
        self.cell_size_deg = float(cell_size_deg)
        self.margin_rad = float(np.radians(margin_deg))
        stations = list(network)
        self.num_stations = len(stations)
        #: The network's most permissive mask: the prefilter must keep any
        #: pair that could clear *some* station's elevation cutoff.
        self.min_elevation_deg = min(
            (st.min_elevation_deg for st in stations), default=0.0
        )
        if self.num_stations == 0:
            self.cell_members = np.empty(0, dtype=np.intp)
            self.cell_start = np.zeros(1, dtype=np.intp)
            self.cell_count = np.empty(0, dtype=np.intp)
            self.cell_centers = np.empty((0, 3))
            self.cell_radius_rad = np.empty(0)
            return

        ecef = np.array([
            geodetic_to_ecef(st.latitude_deg, st.longitude_deg, st.altitude_km)
            for st in stations
        ])
        unit = ecef / np.linalg.norm(ecef, axis=1, keepdims=True)
        lat = np.array([st.latitude_deg for st in stations])
        lon = np.array([st.longitude_deg for st in stations])
        lat_bin = np.minimum(
            ((lat + 90.0) // cell_size_deg).astype(np.int64),
            int(np.ceil(180.0 / cell_size_deg)) - 1,
        )
        lon_bin = np.minimum(
            ((lon + 180.0) // cell_size_deg).astype(np.int64),
            int(np.ceil(360.0 / cell_size_deg)) - 1,
        )
        lon_bins_total = int(np.ceil(360.0 / cell_size_deg))
        cell_id = lat_bin * lon_bins_total + lon_bin

        # Group stations by cell, members ascending within each cell so the
        # expanded candidate lists preserve row-major (sat, station) order
        # after the lexsort in candidate_pairs.
        order = np.lexsort((np.arange(self.num_stations), cell_id))
        sorted_cells = cell_id[order]
        unique_cells, start_pos, counts = np.unique(
            sorted_cells, return_index=True, return_counts=True
        )
        self.cell_members = order.astype(np.intp)
        self.cell_start = start_pos.astype(np.intp)
        self.cell_count = counts.astype(np.intp)

        centers = []
        radii = []
        for c in range(unique_cells.size):
            members = self.cell_members[
                self.cell_start[c]:self.cell_start[c] + self.cell_count[c]
            ]
            center = unit[members].mean(axis=0)
            center /= np.linalg.norm(center)
            cosang = np.clip(unit[members] @ center, -1.0, 1.0)
            radii.append(float(np.arccos(cosang.min())))
            centers.append(center)
        self.cell_centers = np.array(centers)  # (C, 3) unit vectors
        self.cell_radius_rad = np.array(radii)
        self.num_cells = unique_cells.size

    # -- per-step candidate generation ----------------------------------

    def candidate_pairs(
        self, sat_ecef: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(sat_idx, gs_idx)`` arrays for one instant.

        ``sat_ecef`` is the fleet's ``(M, 3)`` ECEF positions (km).  The
        result is sorted lexicographically by (satellite, station) -- the
        same row-major order ``np.nonzero`` gives the dense path -- and is
        a superset of the geometrically visible pairs.
        """
        sat_ecef = np.asarray(sat_ecef, dtype=float)
        m = sat_ecef.shape[0]
        if m == 0 or self.num_stations == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        r = np.linalg.norm(sat_ecef, axis=1)
        sat_unit = sat_ecef / r[:, None]
        psi_max = max_central_angle_rad(r, self.min_elevation_deg)

        # Threshold per (sat, cell): psi_max_i + radius_c + margin, in
        # cosine space via the angle-sum identity.  Two stages: a coarse
        # (M, C) compare against the fleet-wide worst-case horizon angle
        # (a per-cell threshold vector, so no M x C threshold matrix is
        # materialized), then the exact per-satellite threshold on the
        # coarse hits only.  The 1e-12 slack keeps the coarse pass a
        # strict superset under libm rounding differences, so the refined
        # set equals the full per-(sat, cell) test exactly.
        pad = self.cell_radius_rad + self.margin_rad  # (C,)
        psi_hi = float(psi_max.max())
        cos_coarse = (
            math.cos(psi_hi) * np.cos(pad)
            - math.sin(psi_hi) * np.sin(pad)
            - 1e-12
        )
        cos_angle = sat_unit @ self.cell_centers.T  # (M, C)
        hit_sat, hit_cell = np.nonzero(cos_angle >= cos_coarse[None, :])
        if hit_sat.size:
            exact = (
                np.cos(psi_max[hit_sat]) * np.cos(pad[hit_cell])
                - np.sin(psi_max[hit_sat]) * np.sin(pad[hit_cell])
            )
            refined = cos_angle[hit_sat, hit_cell] >= exact
            hit_sat = hit_sat[refined]
            hit_cell = hit_cell[refined]
        if hit_sat.size == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty

        # Expand cell hits to their member stations (CSR-style gather).
        counts = self.cell_count[hit_cell]
        total = int(counts.sum())
        sat_idx = np.repeat(hit_sat, counts).astype(np.intp, copy=False)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        flat = (
            np.arange(total)
            - np.repeat(bounds[:-1], counts)
            + np.repeat(self.cell_start[hit_cell], counts)
        )
        gs_idx = self.cell_members[flat]
        # Row-major (sat, station) order via a single flat key: one
        # argsort instead of a two-key lexsort (pairs are unique, so sort
        # stability does not matter).  int32 keys sort measurably faster
        # and cover any fleet x network product below 2**31.
        key = sat_idx * self.num_stations + gs_idx
        if m * self.num_stations < 2**31:
            key = key.astype(np.int32)
        order = np.argsort(key)
        return sat_idx[order], gs_idx[order]
