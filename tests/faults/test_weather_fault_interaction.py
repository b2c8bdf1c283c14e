"""Single-penalty contract between injected faults and weather.

A station inside a storm cell AND under an injected outage must be
discounted once per cause: rain enters the edge weight only through the
link budget's attenuation (a lower decodable bitrate), fault availability
only through the graph's ``weight_factor``.  Applying availability a
second time anywhere -- or letting weather leak into ``station_weight`` --
would double-penalize exactly the stations the storm scenarios stress.
"""

from datetime import datetime, timedelta

from repro.core.scenarios import build_storm_weather
from repro.faults import FaultSchedule, StationOutage
from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.satellite import Satellite
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import WeatherSample
from repro.weather.provider import ConstantWeatherProvider

EPOCH = datetime(2020, 6, 1)
STORMY = WeatherSample(rain_rate_mm_h=20.0, cloud_water_kg_m2=3.0,
                       temperature_k=285.0)
AVAILABILITY = 0.4


def _fleet(n=8, seed=21):
    sats = [
        Satellite(tle=t, chunk_size_gb=0.5)
        for t in synthetic_leo_constellation(n, EPOCH, seed=seed)
    ]
    for sat in sats:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _partial_outage_schedule(network, severity):
    """Every station (partially) down for the whole window.

    ``severity`` is the capacity fraction *lost*, so availability is
    ``1 - severity`` (0.6 lost -> 0.4 available)."""
    return FaultSchedule(outages=[
        StationOutage(
            station_id=st.station_id, start=EPOCH - timedelta(days=1),
            end=EPOCH + timedelta(days=2), severity=severity,
        )
        for st in network
    ])


def _simulation(weather, faults):
    network = satnogs_like_network(20, seed=13)
    if faults is not None:
        faults = _partial_outage_schedule(network, 1.0 - AVAILABILITY)
    return Simulation(
        satellites=_fleet(), network=network,
        value_function=LatencyValue(),
        config=SimulationConfig(start=EPOCH, duration_s=3600.0),
        truth_weather=weather, faults=faults, faults_announced=True,
    )


class TestSinglePenalty:
    def test_fault_scales_rainy_edges_exactly_once(self):
        """weight(storm + fault) == weight(storm) * availability,
        bit-exactly, edge for edge.

        If availability were applied twice (once in station_weight, once
        anywhere else), the ratio would be availability**2; if weather
        leaked into station_weight, the ratio would drift with rain."""
        rain = ConstantWeatherProvider(STORMY)
        sim_plain = _simulation(rain, faults=None)
        sim_faulted = _simulation(rain, faults=True)
        compared = 0
        for minutes in range(0, 60, 10):
            when = EPOCH + timedelta(minutes=minutes)
            ga = sim_plain.scheduler.contact_graph(when)
            gb = sim_faulted.scheduler.contact_graph(when)
            assert len(ga.edges) == len(gb.edges)
            for ea, eb in zip(ga.edges, gb.edges):
                assert (ea.satellite_index, ea.station_index) == \
                    (eb.satellite_index, eb.station_index)
                assert eb.weight == ea.weight * AVAILABILITY
                # The *link* itself is identical: rain already shaped the
                # bitrate/MODCOD the same way on both sides.
                assert eb.bitrate_bps == ea.bitrate_bps
                assert eb.required_esn0_db == ea.required_esn0_db
            compared += len(ga.edges)
        assert compared > 0

    def test_station_weight_ignores_weather(self):
        """The closure prices fault availability only: same factor under
        clear sky and under a downpour."""
        clear = ConstantWeatherProvider(
            WeatherSample(0.0, 0.0, 283.0)
        )
        sim_clear = _simulation(clear, faults=True)
        sim_rain = _simulation(ConstantWeatherProvider(STORMY), faults=True)
        when = EPOCH + timedelta(minutes=30)
        for sim in (sim_clear, sim_rain):
            factors = [
                sim.scheduler.station_weight(j, when)
                for j in range(len(sim.network))
            ]
            assert factors == [AVAILABILITY] * len(sim.network)

    def test_storm_weather_with_faults_runs_clean(self):
        """End to end under real storm tracks + partial outages: the run
        completes and the availability scaling appears in the report as
        partial-outage accounting, not as doubled weather loss."""
        weather = build_storm_weather(seed=3, storm_seed=17, storm_rate=3.0)
        sim = _simulation(weather, faults=True)
        report = sim.run()
        assert report.fault_counters["partial_outage_steps"] > 0
        assert report.delivered_bits > 0


class TestDiversitySinglePenalty:
    def test_partial_availability_scales_copy_probability_not_bits(self):
        """In diversity mode a partial outage discounts the station's
        *decode probability*; the transmitter's bits budget is untouched
        (it belongs to the satellite, not any one receiver)."""
        network = satnogs_like_network(20, seed=13)
        fleet = _fleet()
        sim = Simulation(
            satellites=fleet, network=network,
            value_function=LatencyValue(),
            config=SimulationConfig(
                start=EPOCH, duration_s=3600.0,
                execution_mode="diversity", diversity_receivers=2,
            ),
            truth_weather=ConstantWeatherProvider(
                WeatherSample(0.0, 0.0, 283.0)
            ),
            faults=_partial_outage_schedule(network, 1.0 - AVAILABILITY),
            faults_announced=True,
        )
        a = when = None
        for minutes in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=minutes)
            step = sim.scheduler.schedule_step(when, keep_graph=True)
            if step.assignments:
                a = step.assignments[0]
                break
        assert a is not None, "need at least one contact to test"
        copy = (a.satellite_index, a.station_index, a.elevation_deg,
                a.range_km, a.required_esn0_db)
        [p_faulted] = sim._copy_decode_probabilities([copy], when)
        faults, sim.faults = sim.faults, None
        [p_healthy] = sim._copy_decode_probabilities([copy], when)
        sim.faults = faults
        assert 0.0 < p_faulted < p_healthy
        assert p_faulted == p_healthy * AVAILABILITY

    def test_hard_down_copy_is_zero(self):
        network = satnogs_like_network(20, seed=13)
        fleet = _fleet()
        sim = Simulation(
            satellites=fleet, network=network,
            value_function=LatencyValue(),
            config=SimulationConfig(
                start=EPOCH, duration_s=3600.0,
                execution_mode="diversity",
            ),
            truth_weather=ConstantWeatherProvider(
                WeatherSample(0.0, 0.0, 283.0)
            ),
            faults=_partial_outage_schedule(network, 1.0),
            faults_announced=False,
        )
        when = EPOCH + timedelta(minutes=10)
        assert sim._copy_decode_probabilities(
            [(0, 0, 45.0, 1000.0, 5.0)], when
        ) == [0.0]
