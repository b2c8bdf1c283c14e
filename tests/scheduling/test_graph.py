"""Tests for contact-graph construction and the vectorized geometry engine."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.api import DGSNetwork
from repro.satellites.satellite import Satellite
from repro.scheduling.graph import GeometryEngine, build_contact_graph
from repro.scheduling.value_functions import LatencyValue, ThroughputValue
from repro.weather.cells import WeatherSample
from repro.weather.provider import ClearSkyProvider

EPOCH = datetime(2020, 6, 1)


def clear_forecast(lat, lon, when):
    return WeatherSample(0.0, 0.0)


@pytest.fixture()
def loaded_fleet(small_fleet):
    for sat in small_fleet:
        sat.generate_data(EPOCH - timedelta(hours=1), 3600.0)
    return small_fleet


def budget_factory(network):
    from repro.linkbudget.budget import LinkBudget

    cache = {}

    def link_budget_for(sat, station_index):
        key = (id(sat.radio), station_index)
        if key not in cache:
            cache[key] = LinkBudget(sat.radio, network[station_index].receiver)
        return cache[key]

    return link_budget_for


class TestGeometryEngine:
    def test_matches_scalar_look_angles(self, loaded_fleet, small_network):
        """The vectorized path must agree with the reference scalar path."""
        engine = GeometryEngine(small_network)
        elevation, rng_km, visible = engine.visibility(loaded_fleet, EPOCH)
        api = DGSNetwork(satellites=loaded_fleet, network=small_network)
        for i, sat in enumerate(loaded_fleet):
            for j, station in enumerate(small_network):
                topo = api.look_angles(sat, station, EPOCH)
                assert elevation[i, j] == pytest.approx(
                    topo.elevation_deg, abs=1e-6
                )
                assert rng_km[i, j] == pytest.approx(topo.range_km, abs=1e-6)

    def test_visibility_consistent_with_mask(self, loaded_fleet, small_network):
        engine = GeometryEngine(small_network)
        elevation, _rng, visible = engine.visibility(loaded_fleet, EPOCH)
        for j, station in enumerate(small_network):
            expected = elevation[:, j] > station.min_elevation_deg
            assert np.array_equal(visible[:, j], expected)


class TestBuildContactGraph:
    def build(self, fleet, network, when=EPOCH, value=None, **kwargs):
        return build_contact_graph(
            satellites=fleet,
            network=network,
            when=when,
            value_function=value or LatencyValue(),
            link_budget_for=budget_factory(network),
            forecast=clear_forecast,
            step_s=60.0,
            **kwargs,
        )

    def test_edges_reference_valid_indices(self, loaded_fleet, small_network):
        graph = self.build(loaded_fleet, small_network)
        for e in graph.edges:
            assert 0 <= e.satellite_index < len(loaded_fleet)
            assert 0 <= e.station_index < len(small_network)
            assert e.weight > 0.0
            assert e.bitrate_bps > 0.0
            assert e.elevation_deg > 0.0

    def test_some_edges_over_a_day(self, loaded_fleet, small_network):
        total = 0
        for hour in range(24):
            graph = self.build(loaded_fleet, small_network,
                               when=EPOCH + timedelta(hours=hour))
            total += len(graph.edges)
        assert total > 0

    def test_empty_queue_produces_no_edges(self, small_fleet, small_network):
        # Satellites with nothing to send have zero-value edges everywhere.
        graph = self.build(small_fleet, small_network)
        assert graph.edges == []

    def test_constraint_bitmap_respected(self, loaded_fleet, small_network):
        from repro.groundstations.station import DownlinkConstraints

        # Find a time with edges, then deny that satellite at that station.
        when = EPOCH
        graph = self.build(loaded_fleet, small_network, when=when)
        for hour in range(24):
            when = EPOCH + timedelta(hours=hour)
            graph = self.build(loaded_fleet, small_network, when=when)
            if graph.edges:
                break
        assert graph.edges, "no contact in a day -- geometry broken"
        target = graph.edges[0]
        station = small_network[target.station_index]
        original = station.constraints
        try:
            station.constraints = DownlinkConstraints.deny_all()
            graph2 = self.build(loaded_fleet, small_network, when=when)
            assert all(
                e.station_index != target.station_index for e in graph2.edges
            )
        finally:
            station.constraints = original

    def test_plan_requirement_limits_to_tx_stations(self, loaded_fleet,
                                                    small_network):
        when = None
        for hour in range(24):
            candidate = EPOCH + timedelta(hours=hour)
            graph = self.build(loaded_fleet, small_network, when=candidate)
            if graph.edges:
                when = candidate
                break
        assert when is not None
        # No satellite holds a plan: edges may only touch tx-capable stations.
        constrained = self.build(
            loaded_fleet, small_network, when=when,
            require_current_plan=True, plan_max_age_s=3600.0,
        )
        for e in constrained.edges:
            assert small_network[e.station_index].can_transmit

    def test_weight_matrix_shape(self, loaded_fleet, small_network):
        """The column arrays scatter into an M x N weight matrix."""
        graph = self.build(loaded_fleet, small_network)
        cols = graph.columns()
        mat = np.zeros((graph.num_satellites, graph.num_stations))
        mat[cols.satellite_index, cols.station_index] = cols.weight
        assert mat.shape == (len(loaded_fleet), len(small_network))
        assert np.count_nonzero(mat) == graph.num_edges

    def test_throughput_value_weights(self, loaded_fleet, small_network):
        graph = self.build(loaded_fleet, small_network, value=ThroughputValue())
        for e in graph.edges:
            assert e.weight <= e.bitrate_bps * 60.0 + 1e-6
