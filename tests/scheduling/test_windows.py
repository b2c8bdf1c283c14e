"""Unit tests for the contact-window index: CSR shape, boundaries, cache.

Equivalence against the per-step scheduling paths lives in
``test_windows_equivalence.py``; this file pins the index's own
contracts -- that the stored per-step pair sets are exactly what direct
geometry computes, that pass intervals are half-open ``[rise, set)``,
that the scalar :class:`PassPredictor` brackets the step-sampled
windows, and that the session cache returns the same object without
re-scanning.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.groundstations.network import satnogs_like_network
from repro.obs.recorder import Recorder
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import (
    StreamingEphemerisTable,
    clear_ephemeris_cache,
    shared_ephemeris_table,
)
from repro.orbits.passes import PassPredictor
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid
from repro.scheduling.graph import GeometryEngine
from repro.scheduling.windows import (
    ContactWindowIndex,
    clear_window_index_cache,
    shared_window_index,
)
from tests.oracles import dense_pairs

EPOCH = datetime(2020, 6, 1)
STEP_S = 60.0
NUM_STEPS = 180


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_ephemeris_cache()
    clear_window_index_cache()
    yield
    clear_ephemeris_cache()
    clear_window_index_cache()


def _fleet(n=25, seed=21):
    tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    return [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]


def _build(satellites, network, num_steps=NUM_STEPS, **kwargs):
    return ContactWindowIndex.build(
        satellites, network, start=EPOCH, num_steps=num_steps,
        step_s=STEP_S, culling=StationGrid(network), **kwargs,
    )


class TestCsrAgainstDirectGeometry:
    def test_pairs_match_dense_visibility_bitwise(self):
        """Every step's stored pairs/elevations/ranges == the dense
        visibility matrix (the dense oracle scan)."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        geometry = GeometryEngine(network)
        index = _build(satellites, network, geometry=geometry)
        assert index.step_ptr.shape == (NUM_STEPS + 1,)
        assert np.all(np.diff(index.step_ptr) >= 0)
        total_pairs = 0
        for k in range(NUM_STEPS):
            when = EPOCH + timedelta(seconds=k * STEP_S)
            vs, vg, dense_elev, dense_rng = dense_pairs(
                geometry, satellites, when
            )
            sat, gs, elev, rng = index.pairs_at(k)
            assert np.array_equal(sat, vs.astype(np.int32))
            assert np.array_equal(gs, vg.astype(np.int32))
            # Bitwise: same elementwise arithmetic on the same positions.
            assert np.array_equal(elev, dense_elev)
            assert np.array_equal(rng, dense_rng)
            assert index.active_count(k) == vs.size
            total_pairs += vs.size
        assert total_pairs > 0  # the comparison actually bit

    def test_windows_partition_the_pair_steps(self):
        """Interval records replay exactly the stored per-step pair sets."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        from_windows: dict[int, set] = {k: set() for k in range(NUM_STEPS)}
        for w in range(index.num_windows):
            pair = (int(index.window_sat[w]), int(index.window_gs[w]))
            rise = int(index.window_rise_step[w])
            set_ = int(index.window_set_step[w])
            assert 0 <= rise < set_ <= NUM_STEPS  # half-open, non-empty
            for k in range(rise, set_):
                assert pair not in from_windows[k]  # no overlapping passes
                from_windows[k].add(pair)
        for k in range(NUM_STEPS):
            sat, gs, _, _ = index.pairs_at(k)
            assert from_windows[k] == set(zip(sat.tolist(), gs.tolist()))

    def test_boundary_flags_and_segments(self):
        """Boundary iff the pair set changed; segments constant between."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        previous: set = set()
        for k in range(NUM_STEPS):
            sat, gs, _, _ = index.pairs_at(k)
            current = set(zip(sat.tolist(), gs.tolist()))
            if k == 0:
                assert index.boundary[0]
            else:
                assert bool(index.boundary[k]) == (current != previous)
                same_segment = index.segment_id(k) == index.segment_id(k - 1)
                assert same_segment == (not index.boundary[k])
            previous = current

    def test_streaming_ephemeris_build_identical(self):
        """Windowed ephemeris streaming does not change the index."""
        satellites = _fleet(15)
        network = satnogs_like_network(20, seed=13)
        mono = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, STEP_S)
        monolithic = _build(satellites, network, ephemeris=mono)
        stream = StreamingEphemerisTable(
            satellites, EPOCH, NUM_STEPS, STEP_S, window_steps=16
        )
        streamed = _build(satellites, network, ephemeris=stream)
        assert np.array_equal(monolithic.step_ptr, streamed.step_ptr)
        assert np.array_equal(monolithic.pair_sat, streamed.pair_sat)
        assert np.array_equal(monolithic.pair_elevation,
                              streamed.pair_elevation)
        assert np.array_equal(monolithic.pair_range, streamed.pair_range)


class TestStepOf:
    def test_on_grid_off_grid_and_out_of_range(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        index = _build(satellites, network, num_steps=30)
        assert index.step_of(EPOCH) == 0
        assert index.step_of(EPOCH + timedelta(seconds=29 * STEP_S)) == 29
        assert index.step_of(EPOCH + timedelta(seconds=30 * STEP_S)) is None
        assert index.step_of(EPOCH - timedelta(seconds=STEP_S)) is None
        assert index.step_of(EPOCH + timedelta(seconds=90.0)) is None


class TestHalfOpenBoundaries:
    def test_set_step_is_first_invisible_step(self):
        """A pair is visible on [rise, set) and invisible just outside."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        assert index.num_windows > 0
        checked = 0
        for w in range(index.num_windows):
            pair = (int(index.window_sat[w]), int(index.window_gs[w]))
            rise = int(index.window_rise_step[w])
            set_ = int(index.window_set_step[w])

            def present(k):
                sat, gs, _, _ = index.pairs_at(k)
                return pair in set(zip(sat.tolist(), gs.tolist()))

            assert present(rise) and present(set_ - 1)
            if rise > 0:
                assert not present(rise - 1)
            if set_ < NUM_STEPS:
                assert not present(set_)
                checked += 1
        assert checked > 0  # at least one set landed inside the horizon

    def test_windows_for_contains_respects_half_open_set(self):
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        found = 0
        for w in range(min(index.num_windows, 10)):
            sat = int(index.window_sat[w])
            gs = int(index.window_gs[w])
            for window in index.windows_for(sat, gs):
                assert window.contains(window.rise_time)
                assert not window.contains(window.set_time)
                found += 1
        assert found > 0


class TestPassPredictorBracket:
    def test_predictor_crossings_bracket_step_sampled_windows(self):
        """Scalar bisected rise/set always bracket the grid intervals.

        The index samples the elevation mask on the step grid, so its
        rise lands at-or-after the true crossing and its set at most one
        step after: ``predictor_rise <= rise_time`` and
        ``set_time <= predictor_set + step_s``.
        """
        satellites = _fleet(12, seed=5)
        network = satnogs_like_network(12, seed=13)
        index = _build(satellites, network)
        end = EPOCH + timedelta(seconds=NUM_STEPS * STEP_S)
        step = timedelta(seconds=STEP_S)
        matched = 0
        for i, sat in enumerate(satellites):
            for j, station in enumerate(network):
                grid_windows = index.windows_for(i, j)
                if not grid_windows:
                    continue
                predictor = PassPredictor(
                    sat.position_teme,
                    station.latitude_deg,
                    station.longitude_deg,
                    station.altitude_km,
                    station.min_elevation_deg,
                )
                exact = list(predictor.passes(EPOCH, end))
                for grid in grid_windows:
                    bracketing = [
                        w for w in exact
                        if w.rise_time <= grid.rise_time
                        and grid.set_time <= w.set_time + step
                    ]
                    assert bracketing, (
                        f"no predictor pass brackets sat {i} / station {j} "
                        f"window {grid.rise_time}..{grid.set_time}"
                    )
                    matched += 1
            if matched >= 8:
                break
        assert matched > 0


class TestSharedIndexCache:
    def test_memory_hit_returns_same_object(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        recorder = Recorder()
        kwargs = dict(
            start=EPOCH, num_steps=60, step_s=STEP_S,
            culling=StationGrid(network), geometry=geometry,
            ephemeris=table, recorder=recorder,
        )
        first = shared_window_index(satellites, network, **kwargs)
        second = shared_window_index(satellites, network, **kwargs)
        assert second is first
        counters = recorder.counters_snapshot()
        assert counters["window_index_cache/build"] == 1
        assert counters["window_index_cache/memory_hit"] == 1

    def test_different_grid_or_mask_misses(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        base = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            culling=StationGrid(network), geometry=geometry,
            ephemeris=table,
        )
        shorter = shared_window_index(
            satellites, network, start=EPOCH, num_steps=30, step_s=STEP_S,
            culling=StationGrid(network), geometry=geometry,
            ephemeris=table,
        )
        assert shorter is not base
        # A different elevation mask changes the geometry fingerprint.
        strict = satnogs_like_network(10, seed=13)
        for station in strict:
            station.min_elevation_deg = station.min_elevation_deg + 10.0
        other = shared_window_index(
            satellites, strict, start=EPOCH, num_steps=60, step_s=STEP_S,
            culling=StationGrid(strict), geometry=GeometryEngine(strict),
            ephemeris=table,
        )
        assert other is not base

    def test_clear_cache_forces_rebuild(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        first = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            culling=StationGrid(network), geometry=geometry,
            ephemeris=table,
        )
        clear_window_index_cache()
        rebuilt = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            culling=StationGrid(network), geometry=geometry,
            ephemeris=table,
        )
        assert rebuilt is not first
        assert np.array_equal(rebuilt.step_ptr, first.step_ptr)
        assert np.array_equal(rebuilt.pair_elevation, first.pair_elevation)
