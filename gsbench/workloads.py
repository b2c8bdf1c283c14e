"""The benchmark's workloads: which scenario each runs, and how much of it.

The workload seed reaches the program only as generated inputs: it draws
the weather month and the storm tracks here, and the service client's
request script in :mod:`loadgen`.  The fleet and the station network keep
the paper's fixed seeds, so every seed schedules the same geometry and
the work differs between seeds only through the weather.  Seed 0 is the
paper's own inputs (weather seed 3, storm seed 17); its batch report
digest is pinned below.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose batch report digests are pinned.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``batch`` (ticked by a worker process) or ``service`` (an HTTP
    #: daemon driven by the load generator).
    kind: str
    #: Nominal wall time of one repetition, in seconds.  A run repeats
    #: ``round(seconds / rep_cost_s)`` times, and at least twice so that
    #: the digests can be compared: the work is fixed by the arguments,
    #: never by how fast the box is.
    rep_cost_s: float
    #: sha256 of the report (minus ``stage_timings``) at DEFAULT_SEED.
    pinned_digest: str | None = None

    def reps(self, seconds: float) -> int:
        return max(2, round(seconds / self.rep_cost_s))

    def spec(self, seed: int):
        """The :class:`ScenarioSpec` this workload runs under ``seed``."""
        from repro.core.scenarios import ScenarioSpec

        weather_seed = (3 + seed) % 2**31
        if self.name == "fig3a-day":
            # The paper's headline run: 259 x 173, stable matching,
            # latency value, rain cells, one full day.
            return ScenarioSpec.dgs(weather_seed=weather_seed)
        if self.name == "service-day":
            from repro.demand import tenant_mix

            return ScenarioSpec.dgs(
                weather="storms", weather_seed=weather_seed,
                storm_seed=(17 + seed) % 2**31,
                execution_mode="diversity", diversity_receivers=3,
                tenants=tenant_mix("balanced"), value="deadline",
            )
        raise KeyError(self.name)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig3a-day", "batch", rep_cost_s=6.5,
            pinned_digest=(
                "1d8e3dea9187eb5e42c774195536b1f008753ada31e4a757f4bb86150e981b3a"
            ),
        ),
        Workload("service-day", "service", rep_cost_s=13.0),
    )
}
