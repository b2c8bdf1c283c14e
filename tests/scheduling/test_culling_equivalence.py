"""Spatial culling vs the dense oracle: superset candidates, identical graphs.

The coarse-grid prefilter must be *conservative*: its candidate pairs are
a superset of the geometrically visible pairs, so the culled graph build
prices exactly the pairs the dense-matrix reference builder
(``tests/oracles.py``) prices -- and because the per-pair arithmetic is
the same elementwise operations, edges (and therefore schedules and
reports) are bit-identical.  These tests pin that contract at candidate,
graph, and full-simulation level, including at the paper's population
scale and under fault injection.
"""

from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.scenarios import ScenarioSpec
from repro.groundstations.network import satnogs_like_network
from repro.obs.recorder import Recorder
from repro.orbits.constellation import synthetic_leo_constellation, walker_delta
from repro.orbits.ephemeris import clear_ephemeris_cache, shared_ephemeris_table
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid, max_central_angle_rad
from repro.scheduling.graph import GeometryEngine
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracles import (
    assert_graphs_identical,
    dense_contact_graph,
    dense_pairs,
    oracle_graph,
    use_oracle_builder,
)

EPOCH = datetime(2020, 6, 1)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ephemeris_cache()
    yield
    clear_ephemeris_cache()


def _fleet(n=40, seed=21, walker=False):
    if walker:
        tles = walker_delta(n, max(1, n // 10), 1, 53.0, 550.0, EPOCH)
    else:
        tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    for sat in sats:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _scheduler(satellites, network, **kwargs):
    return DownlinkScheduler(
        satellites,
        network,
        LatencyValue(),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
        **kwargs,
    )


class TestCandidateSuperset:
    def test_candidates_cover_all_visible_pairs(self):
        """Every dense-visible pair appears among the grid's candidates."""
        satellites = _fleet(60)
        network = satnogs_like_network(50, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        covered_total = 0
        for k in range(0, 240, 10):
            when = EPOCH + timedelta(minutes=k)
            sat_ecef = geometry.satellite_ecef(satellites, when)
            _, _, visible = geometry.visibility(
                satellites, when, sat_ecef=sat_ecef
            )
            cand_sat, cand_gs = grid.candidate_pairs(sat_ecef)
            candidates = set(zip(cand_sat.tolist(), cand_gs.tolist()))
            vis_sat, vis_gs = np.nonzero(visible)
            for pair in zip(vis_sat.tolist(), vis_gs.tolist()):
                assert pair in candidates
            covered_total += vis_sat.size
        assert covered_total > 0  # the superset check actually bit

    def test_candidates_lexsorted_and_unique(self):
        """Candidate order must match np.nonzero's row-major order."""
        satellites = _fleet(30)
        network = satnogs_like_network(40, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        sat_ecef = geometry.satellite_ecef(satellites, EPOCH)
        cand_sat, cand_gs = grid.candidate_pairs(sat_ecef)
        flat = cand_sat * len(network) + cand_gs
        assert np.all(np.diff(flat) > 0)  # strictly increasing => sorted, unique

    def test_culling_actually_culls(self):
        """The prefilter must reject a large share of the M x N product."""
        satellites = _fleet(100, walker=True)
        network = satnogs_like_network(80, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        sat_ecef = geometry.satellite_ecef(satellites, EPOCH)
        cand_sat, _ = grid.candidate_pairs(sat_ecef)
        dense_pairs = len(satellites) * len(network)
        assert cand_sat.size < 0.5 * dense_pairs

    def test_max_central_angle_monotone_in_elevation(self):
        r = np.array([6378.0 + 550.0])
        low = max_central_angle_rad(r, 0.0)[0]
        high = max_central_angle_rad(r, 25.0)[0]
        assert 0.0 < high < low < np.pi / 2

    def test_empty_network_and_fleet(self):
        network = satnogs_like_network(10, seed=13)
        grid = StationGrid(network)
        empty_sat, empty_gs = grid.candidate_pairs(np.empty((0, 3)))
        assert empty_sat.size == 0 and empty_gs.size == 0


class TestGraphEquivalence:
    def test_identical_edges_across_a_horizon(self):
        satellites = _fleet(40)
        network = satnogs_like_network(40, seed=13)
        dense = _scheduler(satellites, network)
        culled = _scheduler(satellites, network)
        total = 0
        for k in range(0, 180, 5):
            when = EPOCH + timedelta(minutes=k)
            total += assert_graphs_identical(
                oracle_graph(dense, when, dense_contact_graph),
                culled.contact_graph(when),
            )
        assert total > 0

    def test_identical_edges_with_ephemeris_and_constraints(self):
        satellites = _fleet(30)
        network = satnogs_like_network(30, seed=13)
        # Give some stations restrictive constraint bitmaps and
        # availability holes, so every sparse mask stage is exercised.
        for j, station in enumerate(network):
            if j % 5 == 0:
                station.constraints.bitmap = (1 << len(satellites)) - 2

        def available(index, when):
            return index % 7 != 0

        table = shared_ephemeris_table(satellites, EPOCH, 120, 60.0)
        kwargs = dict(
            ephemeris=table, station_available=available,
            require_current_plan=True, plan_max_age_s=3600.0,
        )
        dense = _scheduler(satellites, network, **kwargs)
        culled = _scheduler(satellites, network, **kwargs)
        for s in (dense, culled):
            s.satellites[0].receive_plan(EPOCH)
            s.satellites[2].receive_plan(EPOCH)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            assert_graphs_identical(
                oracle_graph(dense, when, dense_contact_graph),
                culled.contact_graph(when),
            )

    def test_visible_pair_counters_agree(self):
        """The culled build reports the dense matrix's visible_pairs."""
        satellites = _fleet(30)
        network = satnogs_like_network(30, seed=13)
        rec = Recorder()
        sched = _scheduler(satellites, network, recorder=rec)
        sched.contact_graph(EPOCH)
        counts = rec.counters_snapshot()
        dense_sat, _gs, _elev, _rng = dense_pairs(
            sched._geometry, satellites, EPOCH
        )
        assert counts["visible_pairs"] == dense_sat.size > 0
        assert counts["candidate_pairs"] >= counts["visible_pairs"]
        assert "culled_pairs" in counts


def _assert_dense_oracle_reports_match(spec, monkeypatch):
    """The production run vs one whose every graph build is the dense
    oracle (per-step, no window index; same ephemeris)."""
    with monkeypatch.context() as patch:
        use_oracle_builder(patch, dense_contact_graph)
        oracle = replace(spec, contact_windows=False).build()
        off = oracle.run("dgs-L").report.to_dict()
    on = spec.build().run("dgs-L").report.to_dict()
    on.pop("stage_timings", None)
    off.pop("stage_timings", None)
    assert on == off


class TestPaperScaleEquivalence:
    def test_fig3a_reports_bit_identical(self, monkeypatch):
        """fig3a at full paper scale: identical reports to the dense oracle."""
        _assert_dense_oracle_reports_match(
            ScenarioSpec.dgs(duration_s=1800.0), monkeypatch
        )

    def test_fig3a_reports_bit_identical_under_faults(self, monkeypatch):
        """The graded station_weight fault path must also match."""
        _assert_dense_oracle_reports_match(
            ScenarioSpec.dgs(
                duration_s=1800.0, fault_intensity=0.25, fault_seed=11,
            ),
            monkeypatch,
        )
