"""Component micro-benchmarks: the hot paths of the simulation loop.

Unlike the figure benches (one long pedantic round), these use
pytest-benchmark's statistical timing: SGP4 propagation, vectorized
visibility, contact-graph pricing, and the three matchers.  They guard
against performance regressions that would make full-scale reproduction
impractical (a simulated day is ~1440 of each of these per scenario).
"""

import time
from datetime import datetime, timedelta

import pytest

from repro.core.scenarios import build_paper_fleet, build_paper_weather
from repro.groundstations.network import satnogs_like_network
from repro.orbits.ephemeris import (
    EphemerisTable,
    clear_ephemeris_cache,
    shared_ephemeris_table,
)
from repro.orbits.sgp4 import SGP4
from repro.scheduling.graph import GeometryEngine
from repro.scheduling.matching import (
    gale_shapley,
    greedy_matching,
    max_weight_matching,
)
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue
from tests.oracles import oracle_graph

EPOCH = datetime(2020, 6, 1)


@pytest.fixture(scope="module")
def world():
    fleet = build_paper_fleet(100, seed=7)
    for sat in fleet:
        sat.generate_data(EPOCH - timedelta(hours=1), 3600.0)
    network = satnogs_like_network(80, seed=11)
    scheduler = DownlinkScheduler(
        fleet, network, LatencyValue(), weather=build_paper_weather()
    )
    return fleet, network, scheduler


def test_bench_sgp4_propagation(benchmark, world):
    fleet, _network, _scheduler = world
    propagator = SGP4(fleet[0].tle)

    def propagate_one_day():
        for minutes in range(0, 1440, 10):
            propagator.propagate_tsince(float(minutes))

    benchmark(propagate_one_day)


def test_bench_visibility_matrix(benchmark, world):
    fleet, network, _scheduler = world
    engine = GeometryEngine(network)
    benchmark(engine.visibility, fleet, EPOCH)


def test_bench_ephemeris_table(benchmark, world):
    """One vectorized SGP4 pass over the fleet for a 2 h horizon."""
    fleet, _network, _scheduler = world
    benchmark(EphemerisTable.build, fleet, EPOCH, 120, 60.0)


def test_bench_contact_graph(benchmark, world):
    _fleet, _network, scheduler = world
    benchmark(scheduler.contact_graph, EPOCH)


def test_bench_contact_graph_scalar(benchmark, world):
    """The per-pair reference builder (``tests/oracles.py``), for
    before/after comparison."""
    fleet, network, _scheduler = world
    scheduler = DownlinkScheduler(
        fleet, network, LatencyValue(), weather=build_paper_weather(),
    )
    benchmark(oracle_graph, scheduler, EPOCH)


def test_bench_contact_graph_batched_with_ephemeris(benchmark, world):
    """The production configuration: ephemeris table + batched kernel."""
    fleet, network, _scheduler = world
    table = shared_ephemeris_table(fleet, EPOCH, 120, 60.0)
    scheduler = DownlinkScheduler(
        fleet, network, LatencyValue(), weather=build_paper_weather(),
        ephemeris=table,
    )
    benchmark(scheduler.contact_graph, EPOCH)


def test_contact_graph_speedup_paper_scale():
    """Acceptance gate: >= 3x on the paper's 259 x 173 scenario.

    Times ``num_steps`` minutes of graph construction through the
    production build and the per-pair reference builder in
    ``tests/oracles.py`` (each with its own propagation strategy:
    per-satellite SGP4 for the scalar oracle, the shared ephemeris table
    for the production build) and asserts the ratio.  Not a
    pytest-benchmark fixture on purpose -- the two sides must run the
    same instants back to back.
    """
    num_steps = 50

    def build(with_table):
        fleet = build_paper_fleet(259, seed=7)
        for sat in fleet:
            sat.generate_data(EPOCH - timedelta(hours=1), 3600.0)
        network = satnogs_like_network(173, seed=11)
        table = None
        if with_table:
            table = shared_ephemeris_table(fleet, EPOCH, num_steps, 60.0)
        return DownlinkScheduler(
            fleet, network, LatencyValue(), weather=build_paper_weather(),
            ephemeris=table,
        )

    def run(graph_at):
        graphs = []
        start = time.perf_counter()
        for k in range(num_steps):
            graphs.append(graph_at(EPOCH + timedelta(minutes=k)))
        return time.perf_counter() - start, graphs

    clear_ephemeris_cache()
    scalar = build(with_table=False)
    batched = build(with_table=True)

    def scalar_graph(when):
        return oracle_graph(scalar, when)

    # Warm the weather / pair-group caches so both sides time steady state.
    scalar_graph(EPOCH)
    batched.contact_graph(EPOCH)
    elapsed_batched, graphs_batched = run(batched.contact_graph)
    elapsed_scalar, graphs_scalar = run(scalar_graph)

    for graph_s, graph_b in zip(graphs_scalar, graphs_batched):
        assert len(graph_s.edges) == len(graph_b.edges)
        for edge_s, edge_b in zip(graph_s.edges, graph_b.edges):
            assert edge_s.satellite_index == edge_b.satellite_index
            assert edge_s.station_index == edge_b.station_index
            assert edge_s.weight == edge_b.weight
            assert edge_s.bitrate_bps == edge_b.bitrate_bps

    speedup = elapsed_scalar / elapsed_batched
    print(
        f"\ncontact graph 259x173: scalar {elapsed_scalar:.2f}s, "
        f"batched {elapsed_batched:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0


def test_deadline_pricing_overhead_paper_scale():
    """Acceptance gate: tenant-priced Phi within 1.5x of LatencyValue.

    Times graph construction on the fig3a workload (259 x 173, batched
    kernels, shared ephemeris) under both value functions, back to back
    over the same instants on the same tenant-stamped fleet, and asserts
    the deadline pricing's extra work (demand columns, per-slot weights,
    urgency term) stays within 1.5x of the paper's age-only pricing.
    """
    from repro.demand import DemandAssigner, RequestGenerator, tenant_mix
    from repro.scheduling.value_functions import DeadlineSlaValue

    num_steps = 30
    mix = tenant_mix("balanced")

    clear_ephemeris_cache()
    fleet = build_paper_fleet(259, seed=7)
    assigner = DemandAssigner(RequestGenerator(mix, seed=13),
                              requests_per_day=24)
    for sat in fleet:
        sat.demand = assigner
        sat.generate_data(EPOCH - timedelta(hours=1), 3600.0)
    network = satnogs_like_network(173, seed=11)
    table = shared_ephemeris_table(fleet, EPOCH, num_steps, 60.0)

    def build(value_function):
        return DownlinkScheduler(
            fleet, network, value_function, weather=build_paper_weather(),
            ephemeris=table,
        )

    def run(scheduler):
        start = time.perf_counter()
        for k in range(num_steps):
            scheduler.contact_graph(EPOCH + timedelta(minutes=k))
        return time.perf_counter() - start

    latency = build(LatencyValue())
    deadline = build(DeadlineSlaValue(tenants=mix))
    # Warm caches (weather, pair groups, demand columns) on both sides.
    latency.contact_graph(EPOCH)
    deadline.contact_graph(EPOCH)
    elapsed_deadline = run(deadline)
    elapsed_latency = run(latency)

    ratio = elapsed_deadline / elapsed_latency
    print(
        f"\npricing 259x173: latency {elapsed_latency:.2f}s, "
        f"deadline {elapsed_deadline:.2f}s, ratio {ratio:.2f}x"
    )
    assert ratio <= 1.5


def test_bench_full_schedule_step(benchmark, world):
    _fleet, _network, scheduler = world
    benchmark(scheduler.schedule_step, EPOCH)


@pytest.fixture(scope="module")
def dense_graph(world):
    """A denser graph than a single instant gives, for matcher timing."""
    _fleet, _network, scheduler = world
    graph = scheduler.contact_graph(EPOCH)
    if len(graph.edges) < 20:
        # Merge a few instants so matchers have real work.
        edges = list(graph.edges)
        for minute in (30, 60, 90, 120):
            extra = scheduler.contact_graph(EPOCH + timedelta(minutes=minute))
            seen = {(e.satellite_index, e.station_index) for e in edges}
            edges.extend(
                e for e in extra.edges
                if (e.satellite_index, e.station_index) not in seen
            )
        from repro.scheduling.graph import ContactGraph, EdgeColumns

        graph = ContactGraph(EPOCH, EdgeColumns.from_edges(edges),
                             graph.num_satellites, graph.num_stations)
    return graph


def test_bench_gale_shapley(benchmark, dense_graph):
    result = benchmark(gale_shapley, dense_graph)
    assert isinstance(result, list)


def test_bench_hungarian_matching(benchmark, dense_graph):
    result = benchmark(max_weight_matching, dense_graph)
    assert isinstance(result, list)


def test_bench_greedy_matching(benchmark, dense_graph):
    result = benchmark(greedy_matching, dense_graph)
    assert isinstance(result, list)
