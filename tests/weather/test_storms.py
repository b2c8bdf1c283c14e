"""Advected storm tracks: determinism, kinematics, knobs, composition."""

import subprocess
import sys
from datetime import datetime, timedelta

import pytest

from repro.weather.cells import RainCellField, WeatherSample, _ORIGIN
from repro.weather.provider import ConstantWeatherProvider, QuantizedWeatherCache
from repro.weather.storms import StormCell, StormField, StormWeatherProvider
from tests import oracles

WHEN = datetime(2020, 6, 3, 12, 0)


def _sample_grid(field: StormField, when=WHEN):
    return [
        field.storm_at(lat, lon, when)
        for lat in (-60.0, -20.0, 0.0, 20.0, 60.0)
        for lon in (-150.0, -60.0, 0.0, 60.0, 150.0)
    ]


class TestStormCell:
    def _cell(self, **overrides) -> StormCell:
        base = dict(
            birth_lat_deg=40.0, birth_lon_deg=-30.0, birth_time_s=1000.0,
            lifetime_s=24 * 3600.0, radius_km=400.0, peak_rain_mm_h=30.0,
            zonal_speed_km_h=40.0, meridional_speed_km_h=5.0,
        )
        base.update(overrides)
        return StormCell(**base)

    def test_center_moves_east_for_positive_zonal_speed(self):
        cell = self._cell()
        lat0, lon0 = cell.center_at(cell.birth_time_s)
        lat1, lon1 = cell.center_at(cell.birth_time_s + 6 * 3600.0)
        assert lon1 > lon0
        assert lat1 > lat0  # poleward drift in the northern hemisphere

    def test_center_longitude_wraps(self):
        cell = self._cell(birth_lon_deg=179.5)
        _, lon = cell.center_at(cell.birth_time_s + 24 * 3600.0)
        assert -180.0 <= lon <= 180.0

    def test_envelope_trapezoid(self):
        cell = self._cell()
        assert cell.envelope_at(cell.birth_time_s - 1.0) == 0.0
        assert cell.envelope_at(cell.birth_time_s + cell.lifetime_s + 1.0) == 0.0
        mid = cell.birth_time_s + cell.lifetime_s / 2.0
        assert cell.envelope_at(mid) == 1.0
        ramp_frac = cell.envelope_at(
            cell.birth_time_s + 0.1 * cell.lifetime_s
        )
        assert 0.0 < ramp_frac < 1.0

    def test_footprint_flat_core_and_bounded_support(self):
        cell = self._cell()
        mid = cell.birth_time_s + cell.lifetime_s / 2.0
        clat, clon = cell.center_at(mid)
        at_core = cell.footprint_at(clat, clon, mid)
        near_core = cell.footprint_at(clat + 1.0, clon, mid)
        assert at_core == 1.0
        # Super-Gaussian: barely attenuated ~100 km inside the core.
        assert near_core > 0.9
        # Hard zero beyond 2.5 radii.
        far = cell.footprint_at(clat + 20.0, clon, mid)
        assert far == 0.0


class TestStormFieldDeterminism:
    def test_same_seed_same_storms(self):
        a = _sample_grid(StormField(seed=99, rate=4.0))
        b = _sample_grid(StormField(seed=99, rate=4.0))
        assert a == b

    def test_different_seed_different_storms(self):
        a = _sample_grid(StormField(seed=99, rate=4.0))
        b = _sample_grid(StormField(seed=100, rate=4.0))
        assert a != b

    def test_evaluation_order_is_irrelevant(self):
        field = StormField(seed=5, rate=4.0)
        later = field.storm_at(30.0, 10.0, WHEN + timedelta(hours=30))
        earlier = field.storm_at(30.0, 10.0, WHEN)
        fresh = StormField(seed=5, rate=4.0)
        assert fresh.storm_at(30.0, 10.0, WHEN) == earlier
        assert fresh.storm_at(
            30.0, 10.0, WHEN + timedelta(hours=30)
        ) == later

    def test_bit_reproducible_across_processes(self):
        """The acceptance criterion: same (seed, knobs) in a separate
        interpreter produces the identical storm process."""
        code = (
            "from datetime import datetime\n"
            "from repro.weather.storms import StormField\n"
            "f = StormField(seed=42, rate=3.0, speed_scale=1.5)\n"
            "vals = [f.storm_at(lat, lon, datetime(2020, 6, 3, 12))\n"
            "        for lat in (-60., -20., 0., 20., 60.)\n"
            "        for lon in (-150., -60., 0., 60., 150.)]\n"
            "print(repr(vals))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        here = repr(_sample_grid(StormField(seed=42, rate=3.0,
                                            speed_scale=1.5)))
        assert out == here

    def test_cell_cache_eviction_does_not_change_results(self):
        field = StormField(seed=7, rate=2.0)
        want = field.storm_at(30.0, 10.0, WHEN)
        # Touch > 16 distinct epochs to force evictions, then re-ask.
        for day in range(25):
            field.storm_at(0.0, 0.0, _ORIGIN + timedelta(days=day))
        assert field.storm_at(30.0, 10.0, WHEN) == want


class TestLiveStormList:
    """``storm_at`` samples each live storm once per instant and skips
    storms out of latitude reach; the sum must stay bit-identical to the
    per-cell footprint scan."""

    #: km per degree of latitude on the haversine sphere (R = 6371 km).
    KM_PER_DEG = 6371.0 * 3.141592653589793 / 180.0

    def _points(self, field: StormField, when):
        """A coarse lat/lon grid plus probes around every live storm:
        just inside/outside its 2.5-radius support along the meridian
        and the parallel, the poles, and both sides of the antimeridian."""
        points = [
            (lat, lon)
            for lat in (-90.0, -89.95, -60.0, -20.0, 0.0, 20.0, 60.0,
                        89.95, 90.0)
            for lon in (-180.0, -179.99, -60.0, 0.0, 60.0, 179.99, 180.0)
        ]
        time_s = (when - _ORIGIN).total_seconds()
        for cell, _env, clat, clon, _reach in field._live_storms(time_s):
            edge_deg = 2.5 * cell.radius_km / self.KM_PER_DEG
            for slack_km in (-2.0, -0.5, -1e-6, 0.0, 1e-6, 0.5, 1.0, 1.5,
                             3.0):
                dlat = edge_deg + slack_km / self.KM_PER_DEG
                for sign in (-1.0, 1.0):
                    points.append((max(-90.0, min(90.0, clat + sign * dlat)),
                                   clon))
                points.append((clat, ((clon + dlat + 180.0) % 360.0) - 180.0))
            points.append((clat, clon))
            points.append((clat, -clon))
        return points

    def _assert_matches_reference(self, field, whens):
        compared = 0
        for when in whens:
            for lat, lon in self._points(field, when):
                assert field.storm_at(lat, lon, when) == \
                    oracles.storm_at(field, lat, lon, when), (lat, lon, when)
                compared += 1
        return compared

    def test_matches_per_cell_sum_on_grid(self):
        field = StormField(seed=11, rate=4.0)
        whens = [WHEN + timedelta(hours=h) for h in range(0, 72, 5)]
        assert self._assert_matches_reference(field, whens) > 1000

    def test_polar_clamp_and_antimeridian(self):
        """Fast tracks drive storm centres into the +-89.9 clamp and
        around the antimeridian; the reach test must stay exact there."""
        field = StormField(seed=3, rate=6.0, speed_scale=40.0)
        whens = [WHEN + timedelta(hours=h) for h in range(0, 60, 3)]
        clamped = any(
            abs(clat) == 89.9
            for when in whens
            for _c, _e, clat, _lon, _r in field._live_storms(
                (when - _ORIGIN).total_seconds()
            )
        )
        assert clamped, "no storm centre reached the polar clamp"
        assert self._assert_matches_reference(field, whens) > 1000

    def test_storms_contribute_somewhere(self):
        """The probes land inside storms, not only in clear air."""
        field = StormField(seed=11, rate=4.0)
        rained = [
            field.storm_at(lat, lon, WHEN)[0] > 0.0
            for lat, lon in self._points(field, WHEN)
        ]
        assert any(rained) and not all(rained)


class TestStormFieldKnobs:
    def test_rate_zero_means_no_storms(self):
        field = StormField(seed=3, rate=0.0)
        for day in range(10):
            when = WHEN + timedelta(days=day)
            assert field.storm_at(20.0, 20.0, when) == (0.0, 0.0)

    def test_rate_scales_storm_count(self):
        low = StormField(seed=3, rate=0.5)
        high = StormField(seed=3, rate=5.0)
        count = lambda f: sum(  # noqa: E731
            len(f._cells_for_epoch(ep)) for ep in range(30)
        )
        assert count(high) > count(low)

    def test_speed_scale_moves_tracks_faster(self):
        slow = StormField(seed=3, rate=2.0, speed_scale=0.1)
        fast = StormField(seed=3, rate=2.0, speed_scale=3.0)
        for s, f in zip(slow._cells_for_epoch(0), fast._cells_for_epoch(0)):
            assert abs(f.zonal_speed_km_h) > abs(s.zonal_speed_km_h)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            StormField(rate=-0.1)
        with pytest.raises(ValueError):
            StormField(speed_scale=-1.0)
        with pytest.raises(ValueError):
            StormField(intensity_scale=-1.0)

    def test_storms_are_heavy_rain(self):
        """Somewhere under some storm core it rains storm-hard (>15 mm/h,
        the spawn floor), which the stationary field essentially never
        produces at a point."""
        field = StormField(seed=11, rate=4.0)
        peak = 0.0
        for ep in range(5):
            for cell in field._cells_for_epoch(ep):
                mid = cell.birth_time_s + cell.lifetime_s / 2.0
                lat, lon = cell.center_at(mid)
                when = _ORIGIN + timedelta(seconds=mid)
                peak = max(peak, field.storm_at(lat, lon, when)[0])
        assert peak > 15.0


class TestStormWeatherProvider:
    def test_zero_contribution_returns_base_sample_object(self):
        base = ConstantWeatherProvider(WeatherSample(1.0, 0.5, 280.0))
        provider = StormWeatherProvider(base, StormField(seed=3, rate=0.0))
        sample = provider.sample(10.0, 10.0, WHEN)
        assert sample is base.sample(10.0, 10.0, WHEN) or sample == base.sample(
            10.0, 10.0, WHEN
        )
        assert sample.rain_rate_mm_h == 1.0

    def test_composition_is_additive_under_a_storm(self):
        field = StormField(seed=11, rate=4.0)
        # Find a wet spot under some storm.
        spot = None
        for cell in field._cells_for_epoch(0):
            mid = cell.birth_time_s + cell.lifetime_s / 2.0
            lat, lon = cell.center_at(mid)
            when = _ORIGIN + timedelta(seconds=mid)
            if field.storm_at(lat, lon, when)[0] > 0.0:
                spot = (lat, lon, when)
                break
        assert spot is not None
        lat, lon, when = spot
        base = ConstantWeatherProvider(WeatherSample(2.0, 0.3, 285.0))
        provider = StormWeatherProvider(base, field)
        combined = provider.sample(lat, lon, when)
        rain, _cloud = field.storm_at(lat, lon, when)
        assert combined.rain_rate_mm_h == pytest.approx(2.0 + rain)
        assert combined.temperature_k == 285.0

    def test_cloud_clamped(self):
        base = ConstantWeatherProvider(WeatherSample(0.0, 5.9, 285.0))
        provider = StormWeatherProvider(
            base, StormField(seed=11, rate=6.0, intensity_scale=10.0)
        )
        for day in range(5):
            for lat in (-40.0, 0.0, 40.0):
                sample = provider.sample(
                    lat, 0.0, WHEN + timedelta(days=day)
                )
                assert sample.cloud_water_kg_m2 <= 6.0

    def test_wraps_in_quantized_cache(self):
        inner = StormWeatherProvider(
            RainCellField(seed=3), StormField(seed=17, rate=2.0)
        )
        cached = QuantizedWeatherCache(inner)
        a = cached.sample(30.0, 10.0, WHEN)
        b = cached.sample(30.0, 10.0, WHEN)
        assert a == b
        assert cached.hits >= 1

    def test_standalone_provider_protocol(self):
        field = StormField(seed=17, rate=2.0)
        sample = field.sample(45.0, 5.0, WHEN)
        assert isinstance(sample, WeatherSample)
        assert sample.temperature_k < 288.0  # latitude-cooled
