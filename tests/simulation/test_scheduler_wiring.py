"""Every scheduler family gets the engine's full wiring.

The horizon and beamforming families are built by the engine through the
spec's scheduler factory, with the same keyword arguments it gives the
base :class:`DownlinkScheduler`: fault weights, announced outages, the
shared ephemeris, the ACM margin, plan gating, station capacities, and
the recorder.  A family that silently dropped any of these would
schedule as if nothing were broken and vanish from the trace.
"""

from datetime import timedelta

import pytest

from repro.core.scenarios import PAPER_EPOCH, ScenarioSpec
from repro.obs import ObsConfig
from repro.scheduling.beamforming import BeamformingScheduler
from repro.scheduling.horizon import HorizonScheduler
from repro.scheduling.scheduler import DownlinkScheduler

FAMILIES = {
    "downlink": (dict(scheduler="downlink"), DownlinkScheduler),
    "horizon": (dict(scheduler="horizon", horizon_steps=4), HorizonScheduler),
    "beamforming": (dict(scheduler="beamforming", beams=2),
                    BeamformingScheduler),
}


def _simulation(family):
    knobs, _cls = FAMILIES[family]
    spec = ScenarioSpec.dgs(
        num_satellites=12, num_stations=40, duration_s=3600.0,
        fault_intensity=0.5, faults_announced=True,
        enforce_plan_distribution=True, observability=ObsConfig(),
        **knobs,
    )
    return spec.build().simulation


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_carries_engine_wiring(family):
    sim = _simulation(family)
    scheduler = sim.scheduler
    assert type(scheduler) is FAMILIES[family][1]
    assert sim.faults is not None
    assert scheduler.station_weight is not None
    assert scheduler.ephemeris is not None
    assert scheduler.ephemeris is sim.ephemeris
    assert scheduler._acm_margin_db == sim.config.acm_margin_db
    budget = scheduler._link_budget_for(sim.satellites[0], 0)
    assert budget.acm_margin_db == sim.config.acm_margin_db
    assert scheduler.require_current_plan is True
    assert scheduler.plan_max_age_s == sim.config.plan_max_age_s
    expected_caps = (
        [2] * len(sim.network) if family == "beamforming" else None
    )
    assert scheduler.capacities == expected_caps
    assert scheduler.recorder is sim.obs
    assert sim.obs.enabled
    # Announced outages reach the scheduler that actually schedules.
    station_id = sim.network[0].station_id
    sim.announce_outage(station_id, PAPER_EPOCH,
                        PAPER_EPOCH + timedelta(hours=1))
    assert scheduler.station_available is not None
    assert not scheduler.station_available(
        0, PAPER_EPOCH + timedelta(minutes=30)
    )
    # The family's graph builds run under the engine's recorder.
    sim.run()
    counters = sim.obs.counters_snapshot()
    assert counters.get("visible_pairs", 0) > 0
    assert "weather_samples" in counters
