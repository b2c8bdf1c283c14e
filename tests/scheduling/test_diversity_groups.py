"""Secondary-receiver selection over the priced contact graph."""

import random
from datetime import datetime

import numpy as np
import pytest

from repro.scheduling.graph import ContactEdge, ContactGraph, EdgeColumns
from repro.scheduling.matching import (
    Assignment,
    diversity_groups,
    gale_shapley,
    greedy_matching,
)
from tests import oracles

WHEN = datetime(2020, 6, 1)


def _edge(sat: int, gs: int, weight: float) -> ContactEdge:
    return ContactEdge(
        satellite_index=sat, station_index=gs, weight=weight,
        bitrate_bps=1e6, elevation_deg=45.0, range_km=1000.0,
        required_esn0_db=5.0,
    )


def _graph(edges) -> ContactGraph:
    sats = max(e.satellite_index for e in edges) + 1
    stations = max(e.station_index for e in edges) + 1
    return ContactGraph(WHEN, EdgeColumns.from_edges(list(edges)),
                        num_satellites=sats, num_stations=stations)


def _stations(graph, positions) -> list[int]:
    """Station indices of chosen edge positions."""
    return graph.columns().station_index[positions].tolist()


class TestDiversityGroups:
    def test_best_idle_station_chosen(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 1, 6.0), _edge(0, 2, 8.0),
        ])
        assignments = [Assignment.from_edge(graph.edges[0])]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        assert _stations(graph, groups[0]) == [2]

    def test_primary_stations_never_recruited(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 1, 9.0),
            _edge(1, 1, 10.0), _edge(1, 2, 3.0),
        ])
        assignments = [
            Assignment.from_edge(graph.edges[0]),   # sat0 -> gs0
            Assignment.from_edge(graph.edges[2]),   # sat1 -> gs1
        ]
        groups = diversity_groups(graph, assignments, max_receivers=3)
        # gs1 serves sat1, so sat0 gets nothing; sat1 gets gs2.
        assert groups[0] == []
        assert _stations(graph, groups[1]) == [2]

    def test_secondaries_are_exclusive(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 2, 5.0),
            _edge(1, 1, 10.0), _edge(1, 2, 9.0),
        ])
        assignments = [
            Assignment.from_edge(graph.edges[0]),
            Assignment.from_edge(graph.edges[2]),
        ]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        # First assignment in order claims gs2; the second finds it taken.
        assert _stations(graph, groups[0]) == [2]
        assert groups[1] == []

    def test_receiver_cap(self):
        graph = _graph(
            [_edge(0, 0, 10.0)] + [_edge(0, g, 10.0 - g) for g in range(1, 6)]
        )
        assignments = [Assignment.from_edge(graph.edges[0])]
        for cap in (1, 2, 3, 4):
            groups = diversity_groups(graph, assignments, max_receivers=cap)
            assert len(groups[0]) == cap - 1

    def test_deterministic_tiebreak_on_station_index(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 3, 7.0), _edge(0, 1, 7.0),
        ])
        assignments = [Assignment.from_edge(graph.edges[0])]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        assert _stations(graph, groups[0]) == [1]

    def test_invalid_cap_rejected(self):
        graph = _graph([_edge(0, 0, 10.0)])
        with pytest.raises(ValueError):
            diversity_groups(graph, [], max_receivers=0)


def _random_graph(rng: random.Random, columns: bool) -> ContactGraph:
    """A random sparse graph with heavily tied weights.

    ``columns=False`` materializes the lazy ``edges`` view before the
    graph is used, so both access orders are covered.
    """
    sats = rng.randint(1, 12)
    stations = rng.randint(1, 15)
    edges = [
        ContactEdge(
            satellite_index=i, station_index=j,
            # Few distinct values, so ties on weight are the norm.
            weight=float(rng.choice((0.0, 1.0, 2.5, 2.5, 4.0))),
            bitrate_bps=1e6, elevation_deg=rng.uniform(10.0, 80.0),
            range_km=rng.uniform(500.0, 2500.0), required_esn0_db=5.0,
        )
        for i in range(sats) for j in range(stations)
        if rng.random() < 0.4
    ]
    graph = ContactGraph(WHEN, columns=EdgeColumns.from_edges(edges),
                         num_satellites=sats, num_stations=stations)
    if not columns:
        assert graph.edges == edges
    return graph


class TestAgainstEdgeListOracle:
    @pytest.mark.parametrize("columns", [True, False])
    def test_random_graphs_with_tied_weights(self, columns):
        rng = random.Random(1234)
        checked = 0
        for trial in range(300):
            graph = _random_graph(rng, columns)
            if graph.num_edges == 0:
                continue
            matcher = (gale_shapley, greedy_matching)[trial % 2]
            assignments = matcher(graph)
            if trial % 3 == 0:
                # Assignment order is part of the contract: earlier
                # assignments claim contested stations first.
                rng.shuffle(assignments)
            for receivers in (1, 2, 3, 5):
                got = diversity_groups(graph, assignments, receivers)
                want = oracles.diversity_groups(graph, assignments, receivers)
                assert list(got) == list(want)
                cols = graph.columns()
                for sat, positions in got.items():
                    assert [
                        ContactEdge._make(
                            col[p].item() for col in cols
                        ) for p in positions
                    ] == want[sat]
                checked += 1
        assert checked > 500

    def test_positions_index_the_graph_columns(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 1, 6.0), _edge(0, 2, 8.0),
        ])
        assignments = [Assignment.from_edge(graph.edges[0])]
        groups = diversity_groups(graph, assignments, max_receivers=3)
        assert groups[0] == [2, 1]
        assert isinstance(groups[0][0], int)
        assert np.array_equal(
            graph.columns().station_index[groups[0]], [2, 1]
        )
