"""Tests for matching algorithms: stability, optimality, capacity handling."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduling.graph import ContactEdge, ContactGraph, EdgeColumns
from repro.scheduling.matching import (
    gale_shapley,
    greedy_matching,
    hungarian,
    is_stable,
    max_weight_matching,
)

EPOCH = datetime(2020, 6, 1)


def make_graph(edge_spec, num_sats=None, num_stations=None):
    """edge_spec: list of (sat, station, weight)."""
    edges = [
        ContactEdge(satellite_index=s, station_index=g, weight=w,
                    bitrate_bps=w * 1e6, elevation_deg=45.0, range_km=900.0)
        for s, g, w in edge_spec
    ]
    if num_sats is None:
        num_sats = 1 + max((s for s, _g, _w in edge_spec), default=0)
    if num_stations is None:
        num_stations = 1 + max((g for _s, g, _w in edge_spec), default=0)
    return ContactGraph(when=EPOCH, columns=EdgeColumns.from_edges(edges),
                        num_satellites=num_sats, num_stations=num_stations)


def assert_valid(graph, assignments, capacities=None):
    caps = capacities or [1] * graph.num_stations
    sats = [a.satellite_index for a in assignments]
    assert len(sats) == len(set(sats)), "satellite matched twice"
    by_station = {}
    for a in assignments:
        by_station.setdefault(a.station_index, []).append(a)
    for station, assigned in by_station.items():
        assert len(assigned) <= caps[station], "station over capacity"
    edge_set = {(e.satellite_index, e.station_index) for e in graph.edges}
    for a in assignments:
        assert (a.satellite_index, a.station_index) in edge_set


# Strategy generating random bipartite graphs.
graphs = st.builds(
    make_graph,
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.1, max_value=100.0),
        ),
        max_size=30,
        unique_by=lambda t: (t[0], t[1]),
    ),
    num_sats=st.just(8),
    num_stations=st.just(6),
)


class TestGaleShapley:
    def test_simple_preference(self):
        graph = make_graph([(0, 0, 10.0), (0, 1, 5.0), (1, 0, 8.0), (1, 1, 7.0)])
        assignments = gale_shapley(graph)
        pairs = {(a.satellite_index, a.station_index) for a in assignments}
        # Sat 0 takes its better station 0; sat 1 gets station 1.
        assert pairs == {(0, 0), (1, 1)}

    def test_contention_resolved_by_weight(self):
        graph = make_graph([(0, 0, 10.0), (1, 0, 20.0)])
        assignments = gale_shapley(graph)
        assert len(assignments) == 1
        assert assignments[0].satellite_index == 1

    def test_empty_graph(self):
        graph = make_graph([])
        assert gale_shapley(graph) == []

    @settings(max_examples=80)
    @given(graph=graphs)
    def test_output_is_valid_matching(self, graph):
        assignments = gale_shapley(graph)
        assert_valid(graph, assignments)

    @settings(max_examples=80)
    @given(graph=graphs)
    def test_output_is_stable(self, graph):
        """The paper's core guarantee: no blocking pair exists."""
        assignments = gale_shapley(graph)
        assert is_stable(graph, assignments)

    @settings(max_examples=40)
    @given(graph=graphs, cap=st.integers(min_value=1, max_value=3))
    def test_stable_under_capacity(self, graph, cap):
        caps = [cap] * graph.num_stations
        assignments = gale_shapley(graph, caps)
        assert_valid(graph, assignments, caps)
        assert is_stable(graph, assignments, caps)

    def test_maximal_no_free_pair(self):
        # Stability implies maximality: no edge between two unmatched nodes.
        graph = make_graph(
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 2.0), (2, 0, 3.0)]
        )
        assignments = gale_shapley(graph)
        matched_sats = {a.satellite_index for a in assignments}
        matched_stations = {a.station_index for a in assignments}
        for e in graph.edges:
            assert (
                e.satellite_index in matched_sats
                or e.station_index in matched_stations
            )


#: Like ``graphs`` but weights drawn from a tiny discrete set, so tied
#: edge weights are the norm rather than a measure-zero accident.
tied_graphs = st.builds(
    make_graph,
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=5),
            st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0]),
        ),
        max_size=30,
        unique_by=lambda t: (t[0], t[1]),
    ),
    num_sats=st.just(8),
    num_stations=st.just(6),
)


class TestGaleShapleyTiedWeights:
    """The satellite preference sort and the station eviction sort break
    ties differently (station index ascending vs satellite index
    descending).  Under *weak* stability -- the guarantee ``is_stable``
    checks, where a blocking pair needs strict preference on both sides --
    any deferred-acceptance run is stable regardless of tie-break order;
    these tests pin that so a future tie-break change cannot regress it.
    """

    @settings(max_examples=120)
    @given(graph=tied_graphs)
    def test_stable_under_ties(self, graph):
        assignments = gale_shapley(graph)
        assert_valid(graph, assignments)
        assert is_stable(graph, assignments)

    @settings(max_examples=60)
    @given(graph=tied_graphs, cap=st.integers(min_value=1, max_value=3))
    def test_stable_under_ties_with_capacity(self, graph, cap):
        caps = [cap] * graph.num_stations
        assignments = gale_shapley(graph, caps)
        assert_valid(graph, assignments, caps)
        assert is_stable(graph, assignments, caps)

    def test_all_weights_equal(self):
        # Fully tied: every maximal matching is weakly stable; check the
        # algorithm still yields a valid, stable, maximal result.
        graph = make_graph(
            [(s, g, 1.0) for s in range(3) for g in range(3)]
        )
        assignments = gale_shapley(graph)
        assert len(assignments) == 3
        assert_valid(graph, assignments)
        assert is_stable(graph, assignments)

    def test_deterministic_under_ties(self):
        spec = [(0, 0, 2.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 2.0),
                (2, 0, 2.0), (2, 1, 1.0)]
        first = gale_shapley(make_graph(spec))
        second = gale_shapley(make_graph(spec))
        assert first == second


class TestHungarian:
    def test_identity(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        rows, cols = hungarian(cost)
        assert list(cols[np.argsort(rows)]) == [0, 1]

    def test_rectangular(self):
        cost = np.array([[1.0, 9.0, 9.0], [9.0, 1.0, 9.0]])
        rows, cols = hungarian(cost)
        total = cost[rows, cols].sum()
        assert total == pytest.approx(2.0)

    def test_tall_matrix_transposed(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0], [5.0, 5.0]])
        rows, cols = hungarian(cost)
        assert len(rows) == 2  # min(n_rows, n_cols) assignments

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
        seed=st.integers(0, 10_000),
    )
    def test_matches_scipy(self, shape, seed):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 10.0, size=shape)
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(
            cost[ref_rows, ref_cols].sum()
        )

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            hungarian(np.array([1.0, 2.0]))


class TestMaxWeightMatching:
    def test_beats_stable_when_they_differ(self):
        # Classic instance where stability costs global value.
        graph = make_graph([(0, 0, 10.0), (0, 1, 9.0), (1, 0, 9.9)])
        stable_value = sum(a.weight for a in gale_shapley(graph))
        optimal_value = sum(a.weight for a in max_weight_matching(graph))
        assert optimal_value >= stable_value

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs)
    def test_optimal_dominates_stable_and_greedy(self, graph):
        optimal = sum(a.weight for a in max_weight_matching(graph))
        stable = sum(a.weight for a in gale_shapley(graph))
        greedy = sum(a.weight for a in greedy_matching(graph))
        assert optimal >= stable - 1e-9
        assert optimal >= greedy - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs)
    def test_valid_matching(self, graph):
        assert_valid(graph, max_weight_matching(graph))

    def test_capacity_expansion(self):
        graph = make_graph([(0, 0, 5.0), (1, 0, 4.0), (2, 0, 3.0)])
        assignments = max_weight_matching(graph, capacities=[2])
        assert len(assignments) == 2
        assert sum(a.weight for a in assignments) == pytest.approx(9.0)

    def test_empty(self):
        assert max_weight_matching(make_graph([])) == []


class TestGreedy:
    def test_takes_heaviest_first(self):
        graph = make_graph([(0, 0, 1.0), (1, 0, 2.0)])
        assignments = greedy_matching(graph)
        assert assignments[0].satellite_index == 1

    @settings(max_examples=60)
    @given(graph=graphs)
    def test_half_approximation(self, graph):
        """Greedy is a 1/2-approximation of the optimum."""
        greedy = sum(a.weight for a in greedy_matching(graph))
        optimal = sum(a.weight for a in max_weight_matching(graph))
        assert greedy >= 0.5 * optimal - 1e-9

    @settings(max_examples=40)
    @given(graph=graphs)
    def test_valid(self, graph):
        assert_valid(graph, greedy_matching(graph))


class TestCapacityValidation:
    def test_wrong_capacity_length(self):
        graph = make_graph([(0, 0, 1.0)])
        with pytest.raises(ValueError):
            gale_shapley(graph, capacities=[1, 1, 1])
