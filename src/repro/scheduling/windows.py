"""Contact-window interval index: precomputed pass structure for the loop.

The paper's core observation (Sec. 2) is that LEO contact structure is
sparse and piecewise-constant: a pass lasts seven to ten minutes and a
satellite sees a given station only two-to-three times a day.  Yet the
per-step loop re-derives visibility from scratch every tick -- culling
cosine math, elevation prescreen -- even on ticks where nothing rises or
sets.  :class:`ContactWindowIndex` computes the pass structure **once**
per run: a single chronological scan over the shared
:class:`~repro.orbits.ephemeris.EphemerisTable` evaluates the same
candidate-generation + exact elevation-mask test the per-step path runs
(:meth:`StationGrid.candidate_pairs` + :func:`_pair_visibility`), and
stores the visible pairs of every step as CSR arrays:

* ``step_ptr[k]:step_ptr[k+1]`` slices the flat per-pair arrays
  (``pair_sat``/``pair_gs``/``pair_elevation``/``pair_range``) for step
  ``k``, in the row-major (satellite, station) order every graph path
  emits.  A tick answers "which pairs are in a pass right now" with two
  pointer reads -- O(active pairs), zero geometry.
* Runs of consecutive steps per (sat, station) pair become **half-open**
  interval records ``[rise_step, set_step)`` -- the
  :class:`~repro.orbits.passes.ContactWindow` boundary contract, so a
  set landing exactly on a tick is never double-counted.
* ``boundary[k]`` flags ticks where some pair rises or sets; between
  boundaries the edge *topology* is constant, so per-pair gathers
  (station latitude/altitude, hardware-class ids) are reused and only
  weights/values/ACM are re-evaluated.

Because the stored elevations/ranges are produced by bit-identical
arithmetic on the same ephemeris rows, driving the scheduling loop from
the index yields byte-identical reports to per-step candidate generation
and to the dense reference scan in ``tests/oracles.py`` -- the contract
``tests/scheduling/test_windows_equivalence.py`` pins.

The scan iterates steps chronologically, which is exactly the access
pattern :class:`~repro.orbits.ephemeris.StreamingEphemerisTable` is
built for (PR 6): each ephemeris window is materialized once, used for
its chunk of steps, and evicted -- float32 tables work unchanged, since
per-pair geometry promotes to float64 identically to the per-step path.

The scalar :class:`~repro.orbits.passes.PassPredictor` is the
sub-second-precision reference for a single (satellite, site) pair; its
bisected rise/set times always bracket this index's step-sampled
intervals (pinned by ``tests/scheduling/test_windows.py``).
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.linkbudget.budget import KernelStatics
from repro.orbits.passes import ContactWindow
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid
from repro.scheduling.graph import (
    GeometryEngine,
    _budget_group_id,
    _pair_visibility,
)

#: Above this many stored (pair, step) rows the per-class kernel statics
#: (six float64 columns each) stop being precomputed -- mega-scale
#: builds keep the index itself but fall back to per-step fspl/gas.
_KERNEL_STATICS_MAX_ROWS = 50_000_000

#: Scan-chunk bound: stacked (step, satellite) rows per chunk.
_SCAN_CHUNK_ROWS = 200_000

__all__ = [
    "ContactWindowIndex",
    "shared_window_index",
    "clear_window_index_cache",
]


class ContactWindowIndex:
    """CSR pass-window index over a fixed step grid.

    Construct via :meth:`build`; query with :meth:`step_of` +
    :meth:`pairs_at`.  All per-pair arrays are immutable after build and
    shared (sliced, never copied) with the per-step consumers.
    """

    def __init__(
        self,
        start: datetime,
        step_s: float,
        num_steps: int,
        num_satellites: int,
        num_stations: int,
        step_ptr: np.ndarray,
        pair_sat: np.ndarray,
        pair_gs: np.ndarray,
        pair_elevation: np.ndarray,
        pair_range: np.ndarray,
        window_sat: np.ndarray,
        window_gs: np.ndarray,
        window_rise_step: np.ndarray,
        window_set_step: np.ndarray,
        boundary: np.ndarray,
    ):
        self.start = start
        self.step_s = float(step_s)
        self.num_steps = int(num_steps)
        self.num_satellites = int(num_satellites)
        self.num_stations = int(num_stations)
        self.step_ptr = step_ptr
        self.pair_sat = pair_sat
        self.pair_gs = pair_gs
        self.pair_elevation = pair_elevation
        self.pair_range = pair_range
        #: One record per pass: pair endpoints and half-open step span
        #: ``[rise_step, set_step)`` (the pair is visible at every step in
        #: the span and at neither endpoint's outside neighbour).
        self.window_sat = window_sat
        self.window_gs = window_gs
        self.window_rise_step = window_rise_step
        self.window_set_step = window_set_step
        #: ``boundary[k]`` is True when the visible-pair set at ``k``
        #: differs from step ``k - 1`` (some pass rose or set).
        self.boundary = boundary
        #: Monotone segment label: constant between boundaries, so two
        #: steps share a label iff their pair sets are identical.
        self._segment = np.cumsum(boundary.astype(np.int64))
        #: Per-hardware-class geometry-only kernel terms, aligned with the
        #: CSR pair arrays (filled by :meth:`build` when the class count
        #: is small; see :meth:`kernel_statics_at`).
        self._kernel_statics: dict[int, KernelStatics] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        satellites: list[Satellite],
        network: GroundStationNetwork,
        *,
        start: datetime,
        num_steps: int,
        step_s: float,
        culling: StationGrid,
        geometry: GeometryEngine | None = None,
        ephemeris=None,
        link_budget_for=None,
        pair_groups=None,
        recorder=None,
    ) -> "ContactWindowIndex":
        """One-shot chronological scan producing the full index.

        Runs the *same* candidate generation (the ``culling`` grid) and
        exact elevation test as the per-step graph build, step by step
        in time order (streaming ephemeris windows are touched once
        each).  ``link_budget_for`` +
        ``pair_groups`` optionally pre-resolve the hardware-class id of
        every pair that is ever visible, moving the per-pair budget
        lookups out of the hot loop entirely.
        """
        if geometry is None:
            geometry = GeometryEngine(network)
        num_sats = len(satellites)
        num_stations = len(network)
        counts = np.zeros(num_steps + 1, dtype=np.int64)
        step_sats: list[np.ndarray] = []
        step_gs: list[np.ndarray] = []
        step_elev: list[np.ndarray] = []
        step_rng: list[np.ndarray] = []
        # Chunk the chronological scan: stacking S steps of fleet
        # positions into one (S*M, 3) block treats (step, satellite) as a
        # single row axis, so the culling matmul and the exact elevation
        # test each run once per chunk instead of once per step.  Per-row
        # arithmetic is unchanged -- candidate refinement is exact per
        # row and the visibility test is elementwise -- so the per-step
        # slices are bit-identical to a step-at-a-time scan.
        chunk = max(1, min(32, _SCAN_CHUNK_ROWS // max(1, num_sats)))
        for c0 in range(0, num_steps, chunk):
            c1 = min(c0 + chunk, num_steps)
            blocks = []
            for k in range(c0, c1):
                when = start + timedelta(seconds=k * step_s)
                if ephemeris is not None:
                    block = np.asarray(
                        ephemeris.positions_ecef(when), dtype=float
                    )
                else:
                    block = geometry.satellite_ecef(satellites, when)
                blocks.append(block)
            stacked = np.concatenate(blocks, axis=0)
            span = c1 - c0
            cand_sat, cand_gs = culling.candidate_pairs(stacked)
            elev, rng, vis = _pair_visibility(
                geometry, stacked, cand_sat, cand_gs
            )
            sel = np.nonzero(vis)[0]
            glob = cand_sat[sel]
            g_all = cand_gs[sel].astype(np.int32)
            e_all = elev[sel]
            r_all = rng[sel]
            # Rows arrive (step, sat, station)-ordered; split per step.
            krow = glob // num_sats
            s_all = (glob - krow * num_sats).astype(np.int32)
            bounds = np.searchsorted(krow, np.arange(span + 1))
            for si in range(span):
                lo, hi = int(bounds[si]), int(bounds[si + 1])
                counts[c0 + si + 1] = hi - lo
                step_sats.append(s_all[lo:hi])
                step_gs.append(g_all[lo:hi])
                step_elev.append(e_all[lo:hi])
                step_rng.append(r_all[lo:hi])

        step_ptr = np.cumsum(counts)
        total = int(step_ptr[-1])
        pair_sat = (
            np.concatenate(step_sats) if total else np.empty(0, np.int32)
        )
        pair_gs = (
            np.concatenate(step_gs) if total else np.empty(0, np.int32)
        )
        pair_elevation = (
            np.concatenate(step_elev) if total else np.empty(0, float)
        )
        pair_range = (
            np.concatenate(step_rng) if total else np.empty(0, float)
        )

        # Interval extraction: sort entries by (pair, step); a pass is a
        # maximal run of consecutive steps of one pair.  Half-open spans:
        # set_step is one past the last visible step.
        if total:
            entry_step = np.repeat(
                np.arange(num_steps, dtype=np.int64), np.diff(step_ptr)
            )
            key = pair_sat.astype(np.int64) * num_stations + pair_gs
            # Single-key argsort instead of a two-key lexsort: a pair
            # appears at most once per step, so ``key * num_steps + step``
            # is unique and sorts in the identical (pair, step) order.
            combined = key * num_steps + entry_step
            if num_sats * num_stations * num_steps < 2**31:
                combined = combined.astype(np.int32)
            order = np.argsort(combined)
            k_sorted = key[order]
            t_sorted = entry_step[order]
            new_run = np.empty(total, dtype=bool)
            new_run[0] = True
            new_run[1:] = (k_sorted[1:] != k_sorted[:-1]) | (
                t_sorted[1:] != t_sorted[:-1] + 1
            )
            run_starts = np.flatnonzero(new_run)
            run_ends = np.append(run_starts[1:], total) - 1
            w_key = k_sorted[run_starts]
            window_sat = (w_key // num_stations).astype(np.int32)
            window_gs = (w_key % num_stations).astype(np.int32)
            window_rise = t_sorted[run_starts].astype(np.int32)
            window_set = (t_sorted[run_ends] + 1).astype(np.int32)
        else:
            window_sat = np.empty(0, np.int32)
            window_gs = np.empty(0, np.int32)
            window_rise = np.empty(0, np.int32)
            window_set = np.empty(0, np.int32)

        boundary = np.zeros(num_steps, dtype=bool)
        if num_steps:
            boundary[0] = True
            boundary[window_rise] = True
            sets_inside = window_set[window_set < num_steps]
            boundary[sets_inside] = True

        # Pre-resolve the hardware class of every pair that ever appears:
        # the per-step pricing path then never runs its per-pair budget
        # resolution loop (budget assignment is time-invariant).
        kernel_statics: dict[int, KernelStatics] = {}
        if link_budget_for is not None and pair_groups is not None:
            gids_present = _preresolve_pair_groups(
                window_sat, window_gs,
                satellites, link_budget_for, pair_groups,
            )
            # Free-space loss, gaseous attenuation, the cloud model's
            # elevation sine, and the rain model's slant-path geometry
            # depend only on stored geometry (plus the class's radio
            # frequency): evaluate them once here so the per-step kernel
            # subtracts precomputed columns instead of recomputing
            # transcendentals every tick.  Bounded to a handful of
            # classes so memory stays ~6 columns per class.
            if 0 < len(gids_present) <= 4 and \
                    0 < total <= _KERNEL_STATICS_MAX_ROWS:
                for gid in sorted(gids_present):
                    kernel_statics[gid] = pair_groups.budget_of[
                        gid
                    ].precompute_statics(
                        pair_range,
                        pair_elevation,
                        geometry._station_lat_deg[pair_gs],
                        geometry._station_alt_km[pair_gs],
                    )

        if recorder is not None and recorder.enabled:
            recorder.counter("window_index_pair_steps", total)
            recorder.counter("window_index_windows", int(window_sat.size))

        index = cls(
            start=start,
            step_s=step_s,
            num_steps=num_steps,
            num_satellites=num_sats,
            num_stations=num_stations,
            step_ptr=step_ptr,
            pair_sat=pair_sat,
            pair_gs=pair_gs,
            pair_elevation=pair_elevation,
            pair_range=pair_range,
            window_sat=window_sat,
            window_gs=window_gs,
            window_rise_step=window_rise,
            window_set_step=window_set,
            boundary=boundary,
        )
        index._kernel_statics = kernel_statics
        return index

    # -- per-step queries ------------------------------------------------

    def step_of(self, when: datetime) -> int | None:
        """Grid step index of ``when``, or ``None`` when off-grid.

        The index only answers for instants exactly on its step grid;
        off-grid callers must fall back to direct geometry.
        """
        delta = (when - self.start).total_seconds()
        k = delta / self.step_s
        ki = int(round(k))
        if abs(k - ki) > 1e-6 or not 0 <= ki < self.num_steps:
            return None
        return ki

    def pairs_at(
        self, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Visible ``(sat, gs, elevation_deg, range_km)`` views at step ``k``.

        Zero-copy slices of the CSR arrays, row-major by (sat, station) --
        the exact pair set and values the per-step elevation-mask test
        produces at this instant.
        """
        lo = self.step_ptr[k]
        hi = self.step_ptr[k + 1]
        return (
            self.pair_sat[lo:hi],
            self.pair_gs[lo:hi],
            self.pair_elevation[lo:hi],
            self.pair_range[lo:hi],
        )

    def active_count(self, k: int) -> int:
        """Number of pairs in a pass at step ``k`` (two pointer reads)."""
        return int(self.step_ptr[k + 1] - self.step_ptr[k])

    def kernel_statics_at(self, k: int) -> dict[int, KernelStatics] | None:
        """Per-class geometry kernel terms sliced to step ``k`` (views).

        Maps hardware-class gid to the
        :class:`~repro.linkbudget.budget.KernelStatics` columns aligned
        with :meth:`pairs_at`'s rows, or ``None`` when the build skipped
        precomputation (no budget resolver, too many classes, or a
        mega-scale index).  The stored values are the exact outputs of
        the batch fspl/gas/sine helpers on the stored geometry, so
        feeding them to :meth:`LinkBudget.evaluate_batch` is
        bit-identical to recomputing them in-step.
        """
        if not self._kernel_statics:
            return None
        lo = self.step_ptr[k]
        hi = self.step_ptr[k + 1]
        return {
            gid: st.narrow(lo, hi)
            for gid, st in self._kernel_statics.items()
        }

    def segment_id(self, k: int) -> int:
        """Label constant between rise/set boundaries.

        Two steps share a label iff their visible-pair sets (and order)
        are identical, which is what makes cached per-pair gathers safe
        to reuse across the segment.
        """
        return int(self._segment[k])

    @property
    def num_windows(self) -> int:
        return int(self.window_sat.size)

    # -- pass-level queries ----------------------------------------------

    def windows_for(self, sat_index: int, gs_index: int) -> list[ContactWindow]:
        """Step-sampled :class:`ContactWindow` records for one pair.

        ``rise_time``/``set_time`` are grid instants (half-open:
        ``set_time`` is the first step *below* the mask), so the scalar
        :class:`~repro.orbits.passes.PassPredictor`'s sub-second crossing
        times always bracket them: ``predictor_rise <= rise_time`` and
        ``set_time <= predictor_set + step_s``.
        """
        mine = np.nonzero(
            (self.window_sat == sat_index) & (self.window_gs == gs_index)
        )[0]
        key = sat_index * self.num_stations + gs_index
        out: list[ContactWindow] = []
        for w in mine.tolist():
            rise = int(self.window_rise_step[w])
            set_ = int(self.window_set_step[w])
            best_elev = -90.0
            best_step = rise
            for k in range(rise, set_):
                lo = int(self.step_ptr[k])
                hi = int(self.step_ptr[k + 1])
                keys = (
                    self.pair_sat[lo:hi].astype(np.int64) * self.num_stations
                    + self.pair_gs[lo:hi]
                )
                p = int(np.searchsorted(keys, key))
                elev = float(self.pair_elevation[lo + p])
                if elev > best_elev:
                    best_elev = elev
                    best_step = k
            out.append(
                ContactWindow(
                    rise_time=self.start + timedelta(seconds=rise * self.step_s),
                    set_time=self.start + timedelta(seconds=set_ * self.step_s),
                    culmination_time=self.start
                    + timedelta(seconds=best_step * self.step_s),
                    max_elevation_deg=best_elev,
                )
            )
        return out


# --------------------------------------------------------------------------
# Session-scoped index cache, mirroring
# :func:`repro.orbits.ephemeris.shared_ephemeris_table`: fig3a/3b/3c
# sweeps, scheduler-service sessions, and ablations over one scenario
# population rebuild the Simulation but re-derive the identical pass
# structure, so the scan runs once per population and later builds are a
# dictionary hit.  Soundness: the index content is a pure function of
# the ephemeris table (keyed by object -- the ephemeris cache already
# interns tables by TLE set / start / step / dtype), the station
# geometry + mask fingerprint, and the step grid; hardware-class ids
# are interned process-wide, so cached kernel statics stay valid (a
# scheduler whose classes differ simply misses the statics dict and
# recomputes in-step).
# --------------------------------------------------------------------------

#: Cached entries hold a strong reference to their ephemeris table, so a
#: table id in a live key can never be a reused address.
_INDEX_CACHE: dict[tuple, tuple[object, "ContactWindowIndex"]] = {}
_INDEX_CACHE_MAX = 4


def _preresolve_pair_groups(
    window_sat: np.ndarray,
    window_gs: np.ndarray,
    satellites: list[Satellite],
    link_budget_for,
    pair_groups,
) -> set[int]:
    """Resolve the hardware class of every pair that ever has a pass.

    The assignments :func:`repro.scheduling.graph._price_pairs` would
    make lazily on each pair's first priced tick, done up front so the
    hot loop never runs its per-pair resolution branch.  A budget's
    class key is pure value -- ``(radio, receiver, margins)`` -- so
    satellites sharing a value-identical :class:`RadioConfig` resolve to
    the same class at every station; resolution runs once per (radio
    class, station with a pass) and fills whole grid columns.  Returns
    the class ids present among the window pairs.
    """
    gid_grid = pair_groups.gid
    pass_stations = np.unique(window_gs).tolist()
    radio_rows: dict = {}
    for i, sat in enumerate(satellites):
        radio_rows.setdefault(sat.radio, []).append(i)
    for rows in radio_rows.values():
        rep = satellites[rows[0]]
        rows_arr = np.asarray(rows)
        for j in pass_stations:
            budget = link_budget_for(rep, j)
            gid = _budget_group_id(budget)
            pair_groups.budget_of.setdefault(gid, budget)
            gid_grid[rows_arr, j] = gid
    if window_sat.size:
        gids = np.unique(gid_grid[window_sat, window_gs])
        return set(int(g) for g in gids)
    return set()


def _geometry_fingerprint(geometry: GeometryEngine) -> tuple:
    """Byte-level identity of everything geometry feeds the scan."""
    return (
        geometry._station_ecef.tobytes(),
        geometry._min_elevation.tobytes(),
        geometry._can_transmit.tobytes(),
        geometry._station_lat_deg.tobytes(),
        geometry._station_alt_km.tobytes(),
    )


def shared_window_index(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    *,
    start: datetime,
    num_steps: int,
    step_s: float,
    culling: StationGrid,
    geometry: GeometryEngine | None = None,
    ephemeris=None,
    link_budget_for=None,
    pair_groups=None,
    recorder=None,
) -> ContactWindowIndex:
    """Fetch (or build) the contact-window index from the session cache.

    Same signature and result as :meth:`ContactWindowIndex.build`; a hit
    skips the chronological scan entirely and only replays the pair
    hardware-class pre-resolution (a per-scheduler side effect) against
    the caller's ``pair_groups``.  ``recorder`` receives
    ``window_index_cache/memory_hit`` / ``build`` counters.
    """
    key = None
    if ephemeris is not None and geometry is not None:
        key = (
            id(ephemeris),
            start,
            int(num_steps),
            float(step_s),
            _geometry_fingerprint(geometry),
        )
        entry = _INDEX_CACHE.get(key)
        if entry is not None and entry[0] is ephemeris:
            index = entry[1]
            if link_budget_for is not None and pair_groups is not None:
                # The index is shared; class resolution is a side effect
                # on *this* scheduler's PairGroupCache, so redo it (same
                # assignments the lazy per-tick path would make).
                _preresolve_pair_groups(
                    index.window_sat, index.window_gs,
                    satellites, link_budget_for, pair_groups,
                )
            if recorder is not None and recorder.enabled:
                recorder.counter("window_index_cache/memory_hit")
            return index
    index = ContactWindowIndex.build(
        satellites,
        network,
        start=start,
        num_steps=num_steps,
        step_s=step_s,
        culling=culling,
        geometry=geometry,
        ephemeris=ephemeris,
        link_budget_for=link_budget_for,
        pair_groups=pair_groups,
        recorder=recorder,
    )
    if recorder is not None and recorder.enabled:
        recorder.counter("window_index_cache/build")
    if key is not None:
        while len(_INDEX_CACHE) >= _INDEX_CACHE_MAX:
            _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
        _INDEX_CACHE[key] = (ephemeris, index)
    return index


def clear_window_index_cache() -> None:
    """Drop all cached indexes (tests and benchmarks use this)."""
    _INDEX_CACHE.clear()
