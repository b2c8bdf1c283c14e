"""Batched per-tick copy pricing against the scalar per-copy oracle.

Diversity mode prices every copy of a tick (each assignment's primary
and recruited secondaries) in one link-budget pass per hardware class.
These tests run the same storm + diversity scenario twice -- once
through the engine's batched helper, once with the helper replaced by
the scalar oracle in :mod:`tests.oracles` -- and require per-copy
probabilities within 1e-12, identical combiner outcomes and identical
reports.
"""

import hashlib
import json
from datetime import timedelta

import pytest

from repro.core.scenarios import ScenarioSpec
from repro.demand import tenant_mix
from repro.simulation.faults import Outage, OutageSchedule
from tests import oracles


def _spec(**overrides) -> ScenarioSpec:
    params = dict(
        num_satellites=16, num_stations=24, duration_s=6 * 3600.0,
        weather="storms", storm_rate=4.0,
        execution_mode="diversity", diversity_receivers=3,
        fault_intensity=0.6, faults_announced=False,
    )
    params.update(overrides)
    return ScenarioSpec.dgs(**params)


def _instrumented(spec: ScenarioSpec, *, oracle: bool, outage: str):
    """Build ``spec``'s simulation with recording hooks.

    ``outage="announced"`` announces a maintenance window (the scheduler
    routes around it); ``"unannounced"`` installs a surprise outage the
    engine only discovers when a copy lands on the dark station.
    """
    sim = spec.build().simulation
    start = sim.config.start
    station = sim.network[0].station_id
    window = (start + timedelta(hours=1), start + timedelta(hours=4))
    if outage == "announced":
        sim.announce_outage(station, *window)
    else:
        sim.outages = OutageSchedule([
            Outage(st.station_id, *window) for st in list(sim.network)[:8]
        ])
        sim.outages_announced = False
    priced = []
    combined = []
    batched = sim._copy_decode_probabilities

    def price(copies, now):
        if oracle:
            result = [
                oracles.copy_decode_probability(sim, *copy, now)
                for copy in copies
            ]
        else:
            result = batched(copies, now)
        priced.extend(result)
        return result

    sim._copy_decode_probabilities = price
    combine = sim.diversity.combine

    def record(satellite_id, when, attempts):
        reception = combine(satellite_id, when, attempts)
        combined.append((satellite_id, when, tuple(
            (c.station_index, c.is_primary, c.decoded)
            for c in reception.copies
        )))
        return reception

    sim.diversity.combine = record
    return sim, priced, combined


class TestBatchedCopyPricing:
    @pytest.mark.parametrize("outage", ["announced", "unannounced"])
    def test_matches_scalar_oracle(self, outage):
        spec = _spec()
        sim_b, priced_b, combined_b = _instrumented(
            spec, oracle=False, outage=outage
        )
        sim_o, priced_o, combined_o = _instrumented(
            spec, oracle=True, outage=outage
        )
        report_b = sim_b.run()
        report_o = sim_o.run()
        assert len(priced_b) == len(priced_o) > 500
        for got, want in zip(priced_b, priced_o):
            assert got == pytest.approx(want, abs=1e-12, rel=0.0)
        assert combined_b == combined_o
        assert report_b.to_json() == report_o.to_json()
        # The scenario exercises the gate (zeroed copies: hard outages,
        # decode faults, dark stations) as well as priced copies.
        assert any(p == 0.0 for p in priced_b)
        assert any(0.0 < p < 1.0 for p in priced_b)
        if outage == "unannounced":
            dark = {st.station_id for st in list(sim_b.network)[:8]}
            assert any(
                sim_b.network[station_index].station_id in dark
                for _sat, _when, copies in combined_b
                for station_index, _primary, _decoded in copies
            )

    def test_empty_copy_list(self):
        sim = _spec().build().simulation
        assert sim._copy_decode_probabilities([], sim.config.start) == []

    @pytest.mark.parametrize("mode", ["live", "planned"])
    def test_forecast_execution_matches_scalar_oracle(self, mode):
        """Forecast-mode execution asks the same batched helper, once per
        tick, whether each planned MODCOD survives the true atmosphere;
        its answers match the scalar budget's wherever the margin is not
        within float rounding of zero."""
        spec = ScenarioSpec.dgs(
            num_satellites=16, num_stations=24, duration_s=3 * 3600.0,
            weather="storms", storm_rate=4.0, use_forecast=True,
            execution_mode=mode,
        )
        sim = spec.build().simulation
        decodes = sim._decodes_under_truth
        outcomes = []

        def checked(assignments, now):
            got = decodes(assignments, now)
            for a in assignments:
                if (a.satellite_index, a.station_index) not in got:
                    continue  # gated: the link never reaches a receiver
                esn0 = oracles.truth_esn0(
                    sim, a.satellite_index, a.station_index,
                    a.elevation_deg, a.range_km, now,
                )
                margin = esn0 - a.required_esn0_db
                decoded = got[a.satellite_index, a.station_index]
                if abs(margin) > 1e-9:
                    assert decoded == (margin >= 0.0)
                outcomes.append(decoded)
            return got

        sim._decodes_under_truth = checked
        sim.run()
        assert len(outcomes) > 100


class TestPinnedDigest:
    def test_storm_diversity_tenant_deadline_digest(self):
        """A small storms + diversity(3) + balanced-tenant + deadline day
        finalizes to the digest recorded before copy pricing was
        batched (timings stripped, canonical JSON)."""
        spec = ScenarioSpec.dgs(
            num_satellites=30, num_stations=40, duration_s=12 * 3600.0,
            weather="storms", storm_rate=4.0,
            execution_mode="diversity", diversity_receivers=3,
            tenants=tenant_mix("balanced"), value="deadline",
        )
        raw = json.loads(spec.run().report.to_json())
        raw.pop("stage_timings", None)
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        assert raw["diversity"]["rescued_by_diversity"] > 0
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
            "a117d5323fe54b918def72583ae670295855596da99a35a7617f60afdab41ab8"
        )
