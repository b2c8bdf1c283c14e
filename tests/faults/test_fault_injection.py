"""Engine-level fault injection: degradation, recovery, and equivalence."""

from datetime import datetime, timedelta

from repro.faults import (
    BackhaulFault,
    FaultSchedule,
    StaleTleWindow,
    StationOutage,
    UndecodedPass,
)
from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.satellite import Satellite
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from tests.oracles import use_oracle_builder

EPOCH = datetime(2020, 6, 1)
DURATION_S = 4 * 3600.0


def _simulate(faults=None, announced=True, prior=None, ack_timeout_s=None,
              oracle=False):
    """A fresh small world per call (engine mutates storage in place)."""
    tles = synthetic_leo_constellation(8, EPOCH, seed=21)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    network = satnogs_like_network(15, seed=13)
    config = SimulationConfig(
        start=EPOCH,
        duration_s=DURATION_S,
        ack_timeout_s=ack_timeout_s if ack_timeout_s is not None else 3 * 3600.0,
        contact_windows=not oracle,
        precompute_ephemeris=not oracle,
    )
    sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config, faults=faults,
                     faults_announced=announced,
                     fault_availability_prior=prior)
    return network, sim


def _report_fields(report):
    return (
        report.latency_s,
        report.final_backlog_gb,
        report.final_unacked_gb,
        report.delivered_bits,
        report.generated_bits,
        report.lost_transmission_bits,
        report.retransmitted_chunks,
        report.matched_step_counts,
        report.station_bits,
        report.satellite_bits,
    )


class TestOptInEquivalence:
    def test_none_and_empty_schedule_identical(self):
        """The fault layer is pure opt-in: faults=None and an empty
        FaultSchedule must produce the same run, bit for bit."""
        _n, sim_off = _simulate(faults=None)
        report_off = sim_off.run()
        _n, sim_empty = _simulate(faults=FaultSchedule())
        report_empty = sim_empty.run()
        assert _report_fields(report_empty) == _report_fields(report_off)
        # Only the counters block distinguishes the two reports.
        assert report_off.fault_counters == {}
        assert report_empty.fault_counters == {
            name: 0 for name in report_empty.fault_counters
        }
        assert set(report_empty.fault_counters) == {
            "station_outage_steps", "partial_outage_steps",
            "undecoded_steps", "stale_tle_steps", "receipts_dropped",
            "receipts_delayed", "ack_batches_missed", "redelivered_chunks",
        }

    def test_scalar_and_batched_paths_agree_under_faults(self, monkeypatch):
        """The availability weight is applied identically by the graph
        build and by the scalar per-pair oracle."""
        network, _ = _simulate()
        faults = FaultSchedule(outages=[
            StationOutage(network[j].station_id, EPOCH,
                          EPOCH + timedelta(hours=5),
                          severity=0.5 if j % 2 else 1.0)
            for j in range(6)
        ])
        _n, sim_batched = _simulate(faults=faults)
        _n, sim_scalar = _simulate(faults=faults, oracle=True)
        report_b = sim_batched.run()
        with monkeypatch.context() as patch:
            use_oracle_builder(patch)
            report_s = sim_scalar.run()
        assert _report_fields(report_b) == _report_fields(report_s)
        assert report_b.fault_counters == report_s.fault_counters


class TestSeededRunsReproduce:
    def test_same_seed_same_report(self):
        network, _ = _simulate()
        def make_faults():
            _n, sim = _simulate()
            return FaultSchedule.generate(
                station_ids=[st.station_id for st in network],
                satellite_ids=[s.satellite_id for s in sim.satellites],
                start=EPOCH, horizon_s=DURATION_S,
                intensity=0.4, seed=17,
            )
        _n, sim_a = _simulate(faults=make_faults())
        _n, sim_b = _simulate(faults=make_faults())
        report_a = sim_a.run()
        report_b = sim_b.run()
        assert _report_fields(report_a) == _report_fields(report_b)
        assert report_a.fault_counters == report_b.fault_counters


class TestGracefulDegradation:
    def test_twenty_percent_outage_completes_with_counters(self):
        """The acceptance scenario: >= 20% of stations hard-down for the
        whole run completes without exceptions and reports counters."""
        network, _ = _simulate()
        down = [st.station_id for st in network][:5]  # 5/15 = 33%
        faults = FaultSchedule.station_blackout(down, EPOCH, DURATION_S + 3600)
        _n, sim = _simulate(faults=faults, announced=False)
        report = sim.run()
        assert report.generated_bits > 0.0
        assert report.delivered_bits > 0.0  # degraded, not destroyed
        assert set(report.fault_counters) != set()
        assert report.fault_counters["station_outage_steps"] > 0
        assert report.lost_transmission_bits > 0.0

    def test_announced_outage_routes_around(self):
        """Announced hard outages prune edges: nothing is wasted on the
        dark stations."""
        network, _ = _simulate()
        all_down = FaultSchedule.station_blackout(
            [st.station_id for st in network], EPOCH, DURATION_S + 3600
        )
        _n, sim = _simulate(faults=all_down, announced=True)
        report = sim.run()
        assert report.delivered_bits == 0.0
        assert report.lost_transmission_bits == 0.0
        assert report.fault_counters["station_outage_steps"] == 0

    def test_availability_prior_keeps_gamble_edges(self):
        """With a prior, announced-down stations keep (down-weighted)
        edges, so the scheduler gambles and wastes the passes."""
        network, _ = _simulate()
        all_down = FaultSchedule.station_blackout(
            [st.station_id for st in network], EPOCH, DURATION_S + 3600
        )
        _n, sim = _simulate(faults=all_down, announced=True, prior=0.25)
        report = sim.run()
        assert report.delivered_bits == 0.0
        assert report.lost_transmission_bits > 0.0
        assert report.fault_counters["station_outage_steps"] > 0

    def test_partial_outage_throttles_throughput(self):
        network, _ = _simulate()
        half_power = FaultSchedule(outages=[
            StationOutage(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S + 3600),
                          severity=0.5)
            for st in network
        ])
        _n, sim_healthy = _simulate()
        healthy = sim_healthy.run()
        _n, sim_half = _simulate(faults=half_power)
        throttled = sim_half.run()
        assert 0.0 < throttled.delivered_bits < healthy.delivered_bits
        assert throttled.fault_counters["partial_outage_steps"] > 0

    def test_undecoded_window_loses_bits(self):
        network, _ = _simulate()
        faults = FaultSchedule(undecoded=[
            UndecodedPass(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S + 3600))
            for st in network
        ])
        _n, sim = _simulate(faults=faults)
        report = sim.run()
        assert report.delivered_bits == 0.0
        assert report.lost_transmission_bits > 0.0
        assert report.fault_counters["undecoded_steps"] > 0

    def test_stale_tle_window_loses_bits(self):
        _n, sim_probe = _simulate()
        sat_ids = [s.satellite_id for s in sim_probe.satellites]
        faults = FaultSchedule(stale_tle=[
            StaleTleWindow(sat_id, EPOCH,
                           EPOCH + timedelta(seconds=DURATION_S + 3600))
            for sat_id in sat_ids
        ])
        _n, sim = _simulate(faults=faults)
        report = sim.run()
        assert report.delivered_bits == 0.0
        assert report.fault_counters["stale_tle_steps"] > 0


class TestBackhaulFaults:
    def test_latency_spike_delays_receipts(self):
        network, _ = _simulate()
        spikes = FaultSchedule(backhaul=[
            BackhaulFault(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S + 3600),
                          extra_latency_s=600.0)
            for st in network
        ])
        _n, sim = _simulate(faults=spikes)
        report = sim.run()
        assert report.fault_counters["receipts_delayed"] > 0
        assert report.fault_counters["receipts_dropped"] == 0
        # Receipts arrive late but arrive: unique data is still delivered.
        assert report.delivered_bits > 0.0

    def test_partition_drops_receipts_and_requeue_recovers(self):
        """The acceptance path for partitions: receipts are lost, so acks
        never come; the existing ack-timeout requeue retransmits; the
        engine counts redeliveries instead of double-counting them."""
        network, _ = _simulate()
        # Partition every station for the first half of the run with a
        # short ack timeout, so requeues and redeliveries happen within it.
        partition = FaultSchedule(backhaul=[
            BackhaulFault(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S / 2),
                          partitioned=True)
            for st in network
        ])
        _n, sim = _simulate(faults=partition, ack_timeout_s=900.0)
        report = sim.run()
        counters = report.fault_counters
        assert counters["receipts_dropped"] > 0
        assert report.retransmitted_chunks > 0
        # Unique-delivery accounting: one latency sample per unique chunk.
        total_latency_samples = sum(
            len(v) for v in report.latency_s.values()
        )
        assert total_latency_samples == len(sim._delivered_chunk_ids)
        assert report.delivered_bits <= report.generated_bits

    def test_partition_blocks_ack_batches(self):
        network, _ = _simulate()
        partition = FaultSchedule(backhaul=[
            BackhaulFault(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S + 3600),
                          partitioned=True)
            for st in network
        ])
        _n, sim = _simulate(faults=partition)
        report = sim.run()
        assert report.fault_counters["ack_batches_missed"] > 0
        # No receipts ever reach the backend, so nothing is ever acked.
        assert sim.backend.total_receipts == 0
        for sat in sim.satellites:
            assert sat.storage.acked_chunks == []


class TestFaultSweepExperiment:
    def test_fault_sweep_is_deterministic(self):
        """Two runs of the robustness fault sweep with the same seed
        produce byte-identical serialized reports."""
        from repro.experiments import robustness

        kwargs = dict(duration_s=7200.0, scale=0.06,
                      intensities=(0.0, 0.5), seed=3)
        first = robustness.fault_sweep(**kwargs)
        second = robustness.fault_sweep(**kwargs)
        assert first.to_json() == second.to_json()
        assert any(key.startswith("intensity:") for key in first.series)


class TestEndOfRunDrain:
    def test_huge_latency_spike_cannot_strand_receipts(self):
        """Regression: the end-of-run drain used to flush a fixed hour
        past the horizon, so a backhaul spike larger than that stranded
        receipts in flight forever and the backend's totals leaked."""
        network, _ = _simulate()
        spikes = FaultSchedule(backhaul=[
            BackhaulFault(st.station_id, EPOCH,
                          EPOCH + timedelta(seconds=DURATION_S + 3600),
                          extra_latency_s=2 * 86400.0)
            for st in network
        ])
        _n, sim = _simulate(faults=spikes)
        report = sim.run()
        assert report.delivered_bits > 0.0
        # Every receipt landed despite arriving two days "late".
        assert sim.backend.in_flight_count == 0
        assert sim.backend.total_bits_received == report.delivered_bits
