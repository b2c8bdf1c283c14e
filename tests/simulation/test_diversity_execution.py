"""Diversity-reception execution mode: the engine-level contracts.

The PR-1/PR-6-style equivalence guarantees, extended to the storm +
diversity path: scalar and batched kernels produce byte-identical
reports, the mode is bit-reproducible, the ``diversity`` report block
round-trips, and specs with the new knobs left at their inert settings
produce byte-identical JSON to specs that predate them.
"""

from datetime import datetime

from repro.core.scenarios import ScenarioSpec, build_storm_weather
from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.satellite import Satellite
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.simulation.metrics import SimulationReport
from tests.oracles import use_oracle_builder

EPOCH = datetime(2020, 6, 1)

DIVERSITY_KEYS = {
    "passes", "copies_attempted", "copies_decoded", "combined_decoded",
    "combined_failed", "rescued_by_diversity", "stations",
}


def _spec(**kwargs) -> ScenarioSpec:
    base = dict(
        num_satellites=10, num_stations=30, duration_s=2 * 3600.0,
        weather="storms", storm_rate=3.0,
        execution_mode="diversity", diversity_receivers=2,
    )
    base.update(kwargs)
    return ScenarioSpec.dgs(**base)


class TestDiversityReport:
    def test_block_present_and_consistent(self):
        report = _spec().run().report
        block = report.diversity
        assert set(block) == DIVERSITY_KEYS
        assert block["passes"] > 0
        assert block["copies_attempted"] >= block["passes"]
        assert block["combined_decoded"] + block["combined_failed"] \
            == block["passes"]
        assert block["copies_decoded"] <= block["copies_attempted"]
        station_copies = sum(
            s["copies"] for s in block["stations"].values()
        )
        assert station_copies == block["copies_attempted"]
        primaries = sum(
            s["primary"] for s in block["stations"].values()
        )
        assert primaries == block["passes"]

    def test_round_trip(self):
        report = _spec().run().report
        clone = SimulationReport.from_dict(report.to_dict())
        assert clone.to_json() == report.to_json()
        assert clone.diversity == report.diversity

    def test_absent_without_diversity_mode(self):
        report = ScenarioSpec.dgs(
            num_satellites=8, num_stations=12, duration_s=3600.0,
            weather="storms",
        ).run().report
        assert report.diversity == {}
        assert "diversity" not in report.to_dict()


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        a = _spec().run().report.to_json()
        b = _spec().run().report.to_json()
        assert a == b

    def test_diversity_seed_changes_outcomes(self):
        a = _spec(diversity_seed=19).run().report
        b = _spec(diversity_seed=91).run().report
        assert a.diversity != b.diversity

    def test_storm_seed_changes_weather(self):
        a = _spec(storm_seed=17).run().report.to_json()
        b = _spec(storm_seed=71).run().report.to_json()
        assert a != b

    def test_derive_seeds_covers_new_seeds(self):
        spec = _spec()
        derived = spec.derive_seeds(12345)
        assert derived.storm_seed != spec.storm_seed
        assert derived.diversity_seed != spec.diversity_seed
        # And the manifest knows about them.
        assert "storm" in spec.seeds()
        assert "diversity" in spec.seeds()
        plain = ScenarioSpec.dgs()
        assert "storm" not in plain.seeds()
        assert "diversity" not in plain.seeds()


class TestInertKnobs:
    """weather="cells" + live mode must ignore every new knob."""

    def test_new_knob_values_do_not_change_legacy_runs(self):
        plain = ScenarioSpec.dgs(
            num_satellites=8, num_stations=12, duration_s=3600.0,
        )
        decorated = ScenarioSpec.dgs(
            num_satellites=8, num_stations=12, duration_s=3600.0,
            storm_seed=999, storm_rate=9.0, storm_speed=4.0,
            diversity_receivers=5, diversity_seed=77,
        )
        assert plain.run().report.to_json() == \
            decorated.run().report.to_json()

    def test_old_spec_dicts_still_load(self):
        raw = ScenarioSpec.dgs().to_dict()
        for key in ("weather", "storm_seed", "storm_rate", "storm_speed",
                    "diversity_receivers", "diversity_seed"):
            raw.pop(key)
        spec = ScenarioSpec.from_dict(raw)
        assert spec.weather == "cells"
        assert spec.diversity_receivers == 2


class TestScalarBatchedEquivalence:
    def test_identical_reports_under_storms_and_diversity(self, monkeypatch):
        reports = {}
        for batched in (False, True):
            tles = synthetic_leo_constellation(8, EPOCH, seed=21)
            sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
            network = satnogs_like_network(24, seed=13)
            config = SimulationConfig(
                start=EPOCH, duration_s=2 * 3600.0, step_s=60.0,
                execution_mode="diversity", diversity_receivers=3,
                contact_windows=batched, precompute_ephemeris=batched,
            )
            sim = Simulation(
                satellites=sats, network=network,
                value_function=LatencyValue(), config=config,
                truth_weather=build_storm_weather(
                    seed=3, storm_seed=17, storm_rate=3.0
                ),
            )
            with monkeypatch.context() as patch:
                if not batched:
                    use_oracle_builder(patch)
                reports[batched] = sim.run()
        assert reports[False].to_json() == reports[True].to_json()
        assert reports[True].diversity["passes"] > 0


class TestValidation:
    def test_diversity_mode_rejects_lookahead_schedulers(self):
        import pytest

        with pytest.raises(ValueError):
            ScenarioSpec.dgs(execution_mode="diversity",
                             scheduler="horizon", horizon_steps=4)
        with pytest.raises(ValueError):
            ScenarioSpec.dgs(execution_mode="diversity",
                             scheduler="beamforming", beams=2)

    def test_bad_knobs_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ScenarioSpec.dgs(weather="hail")
        with pytest.raises(ValueError):
            ScenarioSpec.dgs(storm_rate=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec.dgs(diversity_receivers=0)
        with pytest.raises(ValueError):
            SimulationConfig(execution_mode="telepathy")
