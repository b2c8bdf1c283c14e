"""Production graph build vs the scalar per-pair oracle: same edges,
same schedules.

Matchers tie-break on edge order, so the array pipeline must reproduce the
scalar reference builder's edges (``tests/oracles.py``) exactly and in the
same row-major (satellite, station) order -- these tests pin that contract
at graph, scheduler, and full simulation level.
"""

from datetime import datetime, timedelta

import pytest

from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import (
    clear_ephemeris_cache,
    shared_ephemeris_table,
)
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    LatencyValue,
    PriorityValue,
    ThroughputValue,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracles import oracle_graph, use_oracle_builder

EPOCH = datetime(2020, 6, 1)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ephemeris_cache()
    yield
    clear_ephemeris_cache()


def _fleet(n=10, seed=21):
    tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    for sat in sats:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _scheduler(use_ephemeris, num_steps=180, value_function=None,
               **kwargs):
    satellites = _fleet()
    network = satnogs_like_network(24, seed=13)
    table = None
    if use_ephemeris:
        table = shared_ephemeris_table(satellites, EPOCH, num_steps, 60.0)
    return DownlinkScheduler(
        satellites,
        network,
        value_function or LatencyValue(),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
        ephemeris=table,
        **kwargs,
    )


def _assert_graphs_equal(graph_a, graph_b, geometry_tol=0.0):
    """Edge-for-edge equality.

    ``geometry_tol`` admits float noise on the *continuous* geometry
    fields when one side propagates through the batch-SGP4 ephemeris
    (positions agree to ~1e-12 km, i.e. 1 ulp); the discrete outcomes
    (edge set, order, MODCOD, bitrate, weight) must still match exactly.
    """
    assert len(graph_a.edges) == len(graph_b.edges)
    for ea, eb in zip(graph_a.edges, graph_b.edges):
        assert ea.satellite_index == eb.satellite_index
        assert ea.station_index == eb.station_index
        assert ea.weight == eb.weight
        assert ea.bitrate_bps == eb.bitrate_bps
        assert ea.required_esn0_db == eb.required_esn0_db
        if geometry_tol:
            assert ea.elevation_deg == pytest.approx(
                eb.elevation_deg, abs=geometry_tol
            )
            assert ea.range_km == pytest.approx(eb.range_km, abs=geometry_tol)
        else:
            assert ea.elevation_deg == eb.elevation_deg
            assert ea.range_km == eb.range_km


class TestGraphEquivalence:
    def test_identical_edges_across_a_horizon(self):
        scalar = _scheduler(use_ephemeris=False)
        batched = _scheduler(use_ephemeris=False)
        total = 0
        for k in range(0, 180, 5):
            when = EPOCH + timedelta(minutes=k)
            graph_s = oracle_graph(scalar, when)
            graph_b = batched.contact_graph(when)
            _assert_graphs_equal(graph_s, graph_b)
            total += len(graph_s.edges)
        assert total > 0  # the comparison actually exercised edges

    def test_identical_edges_with_ephemeris_table(self):
        """Batched + precomputed ephemeris against fully scalar."""
        scalar = _scheduler(use_ephemeris=False)
        batched = _scheduler(use_ephemeris=True)
        for k in range(0, 180, 7):
            when = EPOCH + timedelta(minutes=k)
            _assert_graphs_equal(
                oracle_graph(scalar, when), batched.contact_graph(when),
                geometry_tol=1e-6,
            )

    def test_identical_edges_under_plan_distribution(self):
        """The has-plan x can-transmit mask must vectorize faithfully."""
        kwargs = dict(require_current_plan=True, plan_max_age_s=3600.0)
        scalar = _scheduler(use_ephemeris=False, **kwargs)
        batched = _scheduler(use_ephemeris=False, **kwargs)
        # A couple of satellites hold fresh plans; the rest do not.
        for s in (scalar, batched):
            s.satellites[0].receive_plan(EPOCH)
            s.satellites[3].receive_plan(EPOCH)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            _assert_graphs_equal(
                oracle_graph(scalar, when), batched.contact_graph(when)
            )

    def test_identical_edges_with_station_outages(self):
        def available(index, when):
            return index % 3 != 0
        scalar = _scheduler(use_ephemeris=False, station_available=available)
        batched = _scheduler(use_ephemeris=False, station_available=available)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            graph_s = oracle_graph(scalar, when)
            graph_b = batched.contact_graph(when)
            _assert_graphs_equal(graph_s, graph_b)
            assert all(e.station_index % 3 != 0 for e in graph_b.edges)


class TestPerEdgeValueFunctions:
    """Value functions without ``edge_values`` are priced one
    ``edge_value`` call per closing pair into the same weights array."""

    @pytest.mark.parametrize("value_function", [
        PriorityValue(priority_weight=1800.0),
        AuctionValue(default_bid=2.5),
        CompositeValue(((LatencyValue(), 0.7), (ThroughputValue(), 0.3))),
    ], ids=["priority", "auction", "composite"])
    def test_identical_edges(self, value_function):
        def available(index, when):
            return index % 4 != 1

        def weight(index, when):
            return (0.0, 0.5, 1.0)[index % 3]

        kwargs = dict(value_function=value_function,
                      station_available=available, station_weight=weight)
        scalar = _scheduler(use_ephemeris=False, **kwargs)
        batched = _scheduler(use_ephemeris=True, **kwargs)
        total = 0
        for k in range(0, 180, 6):
            when = EPOCH + timedelta(minutes=k)
            graph_s = oracle_graph(scalar, when)
            _assert_graphs_equal(graph_s, batched.contact_graph(when),
                                 geometry_tol=1e-6)
            total += graph_s.num_edges
        assert total > 0


class TestScheduleEquivalence:
    def test_identical_assignments(self, monkeypatch):
        scalar = _scheduler(use_ephemeris=False)
        batched = _scheduler(use_ephemeris=True)
        for k in range(0, 180, 5):
            when = EPOCH + timedelta(minutes=k)
            with monkeypatch.context() as patch:
                use_oracle_builder(patch)
                step_s = scalar.schedule_step(when)
            step_b = batched.schedule_step(when)
            assert step_s.num_edges == step_b.num_edges
            pairs_s = [
                (a.satellite_index, a.station_index)
                for a in step_s.assignments
            ]
            pairs_b = [
                (a.satellite_index, a.station_index)
                for a in step_b.assignments
            ]
            assert pairs_s == pairs_b


class TestSimulationEquivalence:
    def test_identical_reports(self, monkeypatch):
        """A full (short) run schedules and delivers identically."""
        reports = {}
        for batched in (False, True):
            tles = synthetic_leo_constellation(8, EPOCH, seed=21)
            sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
            network = satnogs_like_network(20, seed=13)
            config = SimulationConfig(
                start=EPOCH,
                duration_s=3 * 3600.0,
                step_s=60.0,
                contact_windows=batched,
                precompute_ephemeris=batched,
            )
            weather = QuantizedWeatherCache(RainCellField(seed=3))
            sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config,
                             truth_weather=weather)
            with monkeypatch.context() as patch:
                if not batched:
                    use_oracle_builder(patch)
                reports[batched] = sim.run()
        scalar, batched = reports[False], reports[True]
        assert scalar.matched_step_counts == batched.matched_step_counts
        assert scalar.delivered_bits == batched.delivered_bits
        assert scalar.generated_bits == batched.generated_bits
        assert scalar.latency_s == batched.latency_s
        assert scalar.station_bits == batched.station_bits
        assert scalar.final_backlog_gb == batched.final_backlog_gb

    def test_identical_reports_in_planned_mode(self, monkeypatch):
        """Plan building prices through the per-edge anticipated-value
        wrapper on forecast weather; both arms must agree."""
        reports = {}
        for production in (False, True):
            tles = synthetic_leo_constellation(8, EPOCH, seed=21)
            sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
            network = satnogs_like_network(20, seed=13, tx_capable_fraction=0.3)
            config = SimulationConfig(
                start=EPOCH, duration_s=3 * 3600.0, step_s=60.0,
                execution_mode="planned", use_forecast=True,
                enforce_plan_distribution=True,
                contact_windows=production,
                precompute_ephemeris=production,
            )
            sim = Simulation(
                satellites=sats, network=network,
                value_function=LatencyValue(), config=config,
                truth_weather=QuantizedWeatherCache(RainCellField(seed=3)),
            )
            with monkeypatch.context() as patch:
                if not production:
                    use_oracle_builder(patch)
                reports[production] = sim.run()
        assert reports[False].to_json() == reports[True].to_json()
        assert reports[True].delivered_bits > 0
