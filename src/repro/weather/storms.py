"""Advected storm tracks: moving regional wipeouts over the rain field.

The stationary statistics of :mod:`repro.weather.cells` exercise *local*
weather loss, but the scenario that actually stresses a geographically
distributed ground segment is a **moving storm system** that takes out a
correlated cluster of stations for hours and then moves on ("Mapping the
Storm" finds severe-weather outages on LEO networks arrive exactly this
way).  This module adds that process:

* :class:`StormCell` -- one synoptic-scale system (hundreds of km core,
  tens of hours of lifetime, heavy rain) with a birth point, a great-arc
  advection track, and a trapezoidal grow/sustain/decay envelope, so a
  region under the core is wiped out *flat* for a sustained window rather
  than grazed by a Gaussian tail.
* :class:`StormField` -- the seeded generator: Poisson storm births per
  24-hour epoch, with count scaled by ``rate`` and track speed scaled by
  ``speed_scale``.  Every draw derives from ``(seed, epoch index)`` via a
  string-keyed :class:`random.Random`, so two processes with the same
  seed advect the identical storms (the same bit-reproducibility contract
  the rain-cell field keeps).
* :class:`StormWeatherProvider` -- composition with the existing provider
  path: storms *add on top of* a base provider (normally the rain-cell
  field), so the background statistics are unchanged and everything
  downstream (ITU attenuation, forecasts, the quantized cache) works
  untouched.

Scenario knobs (``ScenarioSpec(weather="storms", storm_seed=...,
storm_rate=..., storm_speed=...)``) construct this stack via
``repro.core.scenarios.build_storm_weather``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime

from repro.weather.cells import WeatherSample, _ORIGIN, _poisson, haversine_km
from repro.weather.provider import WeatherProvider

#: Storm systems live on synoptic timescales; seed them per day, not per
#: 6-hour rain epoch.
_STORM_EPOCH_HOURS = 24.0

#: Expected global storm births per day at ``rate=1.0``.
_BIRTHS_PER_DAY = 6.0

#: Lifetimes are clamped so a storm can span at most two extra epochs
#: beyond its birth epoch; :meth:`StormField.storm_at` scans that window.
_MAX_LIFETIME_S = 60.0 * 3600.0

#: Storms are seeded where ground stations actually are (and where
#: extratropical cyclones track): between the 65th parallels.
_LAT_LIMIT_DEG = 65.0

#: Kilometres per degree of latitude, rounded *down* from
#: ``6371 * pi / 180 = 111.1949`` so the latitude-band reach test in
#: :meth:`StormField.storm_at` stays conservative.
_KM_PER_DEG_LAT = 111.19

#: Extra reach (km) on top of a storm's 2.5-radius support in the
#: latitude-band test: headroom for haversine rounding.
_REACH_SLACK_KM = 1.0


@dataclass(frozen=True)
class StormCell:
    """One advecting storm system.

    Same kinematics as :class:`repro.weather.cells.RainCell` (great-arc
    advection from the birth point), but synoptic scale and with a
    flat-topped footprint and trapezoidal envelope: inside the core the
    rain rate sits at ``peak_rain_mm_h`` for the sustained phase instead
    of only touching it at the cell centre for an instant.
    """

    birth_lat_deg: float
    birth_lon_deg: float
    birth_time_s: float  # seconds since the weather origin
    lifetime_s: float
    radius_km: float
    peak_rain_mm_h: float
    zonal_speed_km_h: float
    meridional_speed_km_h: float

    #: Fraction of the lifetime spent ramping up (and, mirrored, decaying).
    RAMP_FRACTION = 0.2

    def center_at(self, time_s: float) -> tuple[float, float]:
        """Storm centre (lat, lon) at an absolute time (s since origin)."""
        age_h = (time_s - self.birth_time_s) / 3600.0
        lat = self.birth_lat_deg + self.meridional_speed_km_h * age_h / 111.0
        lat = max(-89.9, min(89.9, lat))
        km_per_deg_lon = 111.0 * max(0.05, math.cos(math.radians(lat)))
        lon = self.birth_lon_deg + self.zonal_speed_km_h * age_h / km_per_deg_lon
        return lat, ((lon + 180.0) % 360.0) - 180.0

    def envelope_at(self, time_s: float) -> float:
        """Trapezoidal grow/sustain/decay envelope in [0, 1]."""
        age = time_s - self.birth_time_s
        if age < 0.0 or age > self.lifetime_s:
            return 0.0
        ramp = self.RAMP_FRACTION * self.lifetime_s
        return min(1.0, age / ramp, (self.lifetime_s - age) / ramp)

    def footprint_at(self, lat_deg: float, lon_deg: float,
                     time_s: float) -> float:
        """Spatial x temporal intensity factor at a point, in [0, 1].

        The spatial profile is a super-Gaussian, ``exp(-(d/r)^4 / 2)``:
        nearly flat inside the core radius (the wipeout), falling off
        fast beyond it -- regional, not merely local.
        """
        env = self.envelope_at(time_s)
        if env <= 0.0:
            return 0.0
        clat, clon = self.center_at(time_s)
        dist = haversine_km(lat_deg, lon_deg, clat, clon)
        if dist > 2.5 * self.radius_km:
            return 0.0
        return env * math.exp(-0.5 * (dist / self.radius_km) ** 4)


class StormField:
    """The seeded storm-track process.

    Parameters
    ----------
    seed:
        Master storm seed, independent of the rain-cell seed; identical
        seeds advect identical storms in every process.
    rate:
        Multiplier on the expected storm births per day (0 = no storms).
    speed_scale:
        Multiplier on track speeds: >1 sweeps the wipeout across the
        network faster, <1 parks it over a region for longer.
    intensity_scale:
        Multiplier on every storm's peak rain rate.
    """

    def __init__(self, seed: int = 17, rate: float = 1.0,
                 speed_scale: float = 1.0, intensity_scale: float = 1.0):
        if rate < 0.0:
            raise ValueError("storm rate cannot be negative")
        if speed_scale < 0.0:
            raise ValueError("storm speed scale cannot be negative")
        if intensity_scale < 0.0:
            raise ValueError("intensity_scale cannot be negative")
        self.seed = seed
        self.rate = rate
        self.speed_scale = speed_scale
        self.intensity_scale = intensity_scale
        self._epoch_cells: dict[int, list[StormCell]] = {}
        #: ``(time_s, live storms)`` of the last instant sampled (see
        #: :meth:`_live_storms`), replaced as one object.
        self._live: tuple[float | None, list[tuple]] = (None, [])

    # -- generation ---------------------------------------------------------

    def _cells_for_epoch(self, epoch_index: int) -> list[StormCell]:
        cached = self._epoch_cells.get(epoch_index)
        if cached is not None:
            return cached
        rng = random.Random(f"{self.seed}:storm:{epoch_index}")
        epoch_start_s = epoch_index * _STORM_EPOCH_HOURS * 3600.0
        expected = self.rate * _BIRTHS_PER_DAY * (_STORM_EPOCH_HOURS / 24.0)
        cells = [
            self._spawn(rng, epoch_start_s) for _ in range(_poisson(rng, expected))
        ]
        self._epoch_cells[epoch_index] = cells
        # Keep the cache bounded for long simulations.
        if len(self._epoch_cells) > 16:
            del self._epoch_cells[min(self._epoch_cells)]
        return cells

    def _spawn(self, rng: random.Random, epoch_start_s: float) -> StormCell:
        # Area-uniform latitude between the +-65 deg parallels.
        sin_limit = math.sin(math.radians(_LAT_LIMIT_DEG))
        lat = math.degrees(math.asin(rng.uniform(-sin_limit, sin_limit)))
        # Tropical systems track westward, extratropical ones eastward.
        zonal_sign = -1.0 if abs(lat) < 23.0 else 1.0
        zonal = zonal_sign * 35.0 * rng.uniform(0.6, 1.4) * self.speed_scale
        # Poleward drift, as real cyclones recurve.
        meridional = (
            math.copysign(1.0, lat) * rng.uniform(0.0, 8.0) * self.speed_scale
        )
        return StormCell(
            birth_lat_deg=lat,
            birth_lon_deg=rng.uniform(-180.0, 180.0),
            birth_time_s=epoch_start_s
            + rng.uniform(0.0, _STORM_EPOCH_HOURS * 3600.0),
            lifetime_s=min(
                _MAX_LIFETIME_S,
                max(6.0 * 3600.0, rng.expovariate(1.0 / 30.0) * 3600.0),
            ),
            radius_km=max(150.0, rng.lognormvariate(math.log(400.0), 0.35)),
            peak_rain_mm_h=(15.0 + rng.expovariate(1.0 / 20.0))
            * self.intensity_scale,
            zonal_speed_km_h=zonal,
            meridional_speed_km_h=meridional,
        )

    # -- evaluation ---------------------------------------------------------

    def _live_storms(self, time_s: float) -> list[tuple]:
        """``(cell, envelope, centre lat, centre lon, reach_km)`` of every
        storm alive at ``time_s``, in epoch-then-cell order.

        A station loop samples many points at one instant, so each live
        storm's envelope and advected centre are evaluated once per
        instant instead of once per point.  ``reach_km`` is the latitude
        band test's threshold (see :meth:`storm_at`).
        """
        cached_time, cached = self._live
        if cached_time == time_s:
            return cached
        epoch = int(time_s // (_STORM_EPOCH_HOURS * 3600.0))
        live = []
        for ep in range(epoch - 2, epoch + 1):
            for cell in self._cells_for_epoch(ep):
                env = cell.envelope_at(time_s)
                if env <= 0.0:
                    continue
                clat, clon = cell.center_at(time_s)
                live.append((cell, env, clat, clon,
                             2.5 * cell.radius_km + _REACH_SLACK_KM))
        self._live = (time_s, live)
        return live

    def storm_at(self, lat_deg: float, lon_deg: float,
                 when: datetime) -> tuple[float, float]:
        """(rain mm/h, cloud kg/m^2) the storm process adds at a point.

        A storm born late in epoch ``e`` can still rage in ``e+2``
        (lifetimes are clamped to 60 h against 24 h epochs), so the live
        list covers the birth epochs that could reach ``when``.  Each
        contributing term is :meth:`StormCell.footprint_at`'s arithmetic,
        accumulated in the same order, so the sum is bit-identical to the
        per-cell scan.  A storm whose centre is further in latitude than
        its 2.5-radius support is skipped before the haversine: the
        great-circle distance is at least ``R * |dlat|`` and
        ``R * pi / 180 = 111.1949 km`` per degree, so the rounded-down
        :data:`_KM_PER_DEG_LAT` plus :data:`_REACH_SLACK_KM` only ever
        rejects storms whose footprint is exactly zero.
        """
        time_s = (when - _ORIGIN).total_seconds()
        rain = 0.0
        cloud = 0.0
        for cell, env, clat, clon, reach_km in self._live_storms(time_s):
            if abs(lat_deg - clat) * _KM_PER_DEG_LAT > reach_km:
                continue
            dist = haversine_km(lat_deg, lon_deg, clat, clon)
            if dist > 2.5 * cell.radius_km:
                continue
            factor = env * math.exp(-0.5 * (dist / cell.radius_km) ** 4)
            if factor <= 0.0:
                continue
            rain += cell.peak_rain_mm_h * factor
            # The storm shield: thick cloud over the whole core.
            cloud += 0.12 * cell.peak_rain_mm_h * factor
        return rain, cloud

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        """The storm process alone as a :class:`WeatherProvider` (tests)."""
        rain, cloud = self.storm_at(lat_deg, lon_deg, when)
        temperature = 288.0 - 30.0 * (abs(lat_deg) / 90.0) ** 1.5
        return WeatherSample(
            rain_rate_mm_h=rain,
            cloud_water_kg_m2=min(cloud, 6.0),
            temperature_k=temperature,
        )


class StormWeatherProvider:
    """Base weather plus advected storm tracks, as one provider.

    Composition keeps the contract every consumer already relies on: the
    result is a plain :class:`WeatherSample`, the base field's statistics
    are untouched away from storms (a zero storm contribution returns the
    base sample object itself), and the stack still wraps cleanly in
    :class:`repro.weather.provider.QuantizedWeatherCache` and
    :class:`repro.weather.forecast.ForecastProvider`.
    """

    def __init__(self, base: WeatherProvider, storms: StormField):
        self.base = base
        self.storms = storms

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        base = self.base.sample(lat_deg, lon_deg, when)
        rain, cloud = self.storms.storm_at(lat_deg, lon_deg, when)
        if rain <= 0.0 and cloud <= 0.0:
            return base
        return WeatherSample(
            rain_rate_mm_h=base.rain_rate_mm_h + rain,
            cloud_water_kg_m2=min(base.cloud_water_kg_m2 + cloud, 6.0),
            temperature_k=base.temperature_k,
        )
