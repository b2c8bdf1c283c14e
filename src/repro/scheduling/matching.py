"""Matching algorithms for the contact graph (paper Sec. 3.1, step 3).

The paper chooses **stable matching** (Gale-Shapley) so that in a
fragmented, multi-operator network no satellite-station pair has an
incentive to defect from the schedule, and discusses **optimal matching**
as the alternative that maximizes global value.  Both are here, plus a
greedy heuristic, so experiments can compare them (the ablation benches
do).

All algorithms respect station capacity (``max_concurrent``): a station
with multiple independently steerable antennas can serve several
satellites, the common case being capacity 1 ("most current ground
stations can only support point to point links").

Preferences on both sides derive from the same edge weight -- the value of
the link -- exactly as the paper constructs them; ties are broken by index
so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scheduling.graph import ContactEdge, ContactGraph


@dataclass(frozen=True)
class Assignment:
    """One scheduled link: a chosen edge of the contact graph."""

    satellite_index: int
    station_index: int
    weight: float
    bitrate_bps: float
    elevation_deg: float = 90.0
    range_km: float = 0.0
    required_esn0_db: float = -100.0

    @classmethod
    def from_edge(cls, edge: ContactEdge) -> "Assignment":
        return cls(
            satellite_index=edge.satellite_index,
            station_index=edge.station_index,
            weight=edge.weight,
            bitrate_bps=edge.bitrate_bps,
            elevation_deg=edge.elevation_deg,
            range_km=edge.range_km,
            required_esn0_db=edge.required_esn0_db,
        )


def _station_capacities(graph: ContactGraph,
                        capacities: list[int] | None) -> list[int]:
    if capacities is None:
        return [1] * graph.num_stations
    if len(capacities) != graph.num_stations:
        raise ValueError(
            f"capacities length {len(capacities)} != stations {graph.num_stations}"
        )
    return capacities


def _assignments_at(graph: ContactGraph, positions: list[int],
                    sat_l: list[int], gs_l: list[int],
                    w_l: list[float]) -> list[Assignment]:
    """Assignments for the chosen edge positions of the graph's columns.

    Extracts only the chosen positions: the matching is bounded by
    min(M, N) while the edge count is not, so converting whole columns
    to lists here would dominate small-step costs.  ``float()`` on a
    float64 element is value-exact, so assignments are bit-identical to
    the previous whole-column ``tolist`` extraction.
    """
    cols = graph.columns()
    bitrate = cols.bitrate_bps
    elev = cols.elevation_deg
    rng = cols.range_km
    esn0 = cols.required_esn0_db
    return [
        Assignment(
            satellite_index=sat_l[p],
            station_index=gs_l[p],
            weight=w_l[p],
            bitrate_bps=float(bitrate[p]),
            elevation_deg=float(elev[p]),
            range_km=float(rng[p]),
            required_esn0_db=float(esn0[p]),
        )
        for p in positions
    ]


def gale_shapley(graph: ContactGraph,
                 capacities: list[int] | None = None) -> list[Assignment]:
    """Satellite-proposing deferred acceptance (Gale-Shapley).

    Satellites propose to stations in descending edge weight; a station
    holds its best ``capacity`` proposals and rejects the rest.  Runs in
    O(E log E) for preference sorting plus O(E) proposal rounds -- the
    K^2 bound the paper quotes with K = max(M, N).

    Operates on the graph's column arrays (edge positions, never edge
    objects): preference order comes from one fleet-wide lexsort and the
    proposal loop shuffles integer positions, so matching cost tracks the
    edge count without materializing per-edge objects.  Order semantics
    are identical to the historical edge-object implementation --
    satellites prefer (higher weight, lower station index), stations
    prefer (higher weight, lower satellite index) -- and pair uniqueness
    makes every comparison key distinct, so results are deterministic.

    The result is stable: no satellite-station pair both strictly prefer
    each other to their assignments (verified by :func:`is_stable` in
    tests).
    """
    caps = _station_capacities(graph, capacities)
    cols = graph.columns()
    sat_arr, gs_arr, w_arr = (
        cols.satellite_index, cols.station_index, cols.weight
    )
    sat_l = sat_arr.tolist()
    gs_l = gs_arr.tolist()
    w_l = w_arr.tolist()
    # Preference lists: per satellite, edge positions by descending weight
    # (ties: ascending station), via one lexsort over all edges.  Edge
    # order is satellite-major, so ascending-satellite grouping preserves
    # the historical first-appearance key order.
    order = np.lexsort((gs_arr, -w_arr, sat_arr))
    sat_sorted = sat_arr[order]
    uniq_sats, starts = np.unique(sat_sorted, return_index=True)
    order_l = order.tolist()
    bounds = starts.tolist() + [len(order_l)]
    prefs: dict[int, list[int]] = {
        int(s): order_l[bounds[k]:bounds[k + 1]]
        for k, s in enumerate(uniq_sats.tolist())
    }
    next_proposal = {sat: 0 for sat in prefs}
    # Station state: currently held edge positions, kept sorted ascending
    # by (weight, -satellite) so the weakest is at index 0.
    held: dict[int, list[int]] = {}
    free = list(prefs.keys())
    station_key = lambda p: (w_l[p], -sat_l[p])  # noqa: E731
    while free:
        sat = free.pop()
        options = prefs[sat]
        idx = next_proposal[sat]
        if idx >= len(options):
            continue  # exhausted all stations; stays unmatched
        next_proposal[sat] = idx + 1
        pos = options[idx]
        station = gs_l[pos]
        station_held = held.setdefault(station, [])
        capacity = caps[station]
        if len(station_held) < capacity:
            station_held.append(pos)
            station_held.sort(key=station_key)
        else:
            weakest = station_held[0]
            if station_key(pos) > station_key(weakest):
                station_held[0] = pos
                station_held.sort(key=station_key)
                free.append(sat_l[weakest])
            else:
                free.append(sat)
    chosen = [pos for positions in held.values() for pos in positions]
    return _assignments_at(graph, chosen, sat_l, gs_l, w_l)


def greedy_matching(graph: ContactGraph,
                    capacities: list[int] | None = None) -> list[Assignment]:
    """Globally greedy: repeatedly take the heaviest remaining feasible edge.

    A 1/2-approximation to the optimum; cheaper and simpler than either
    alternative, included as the ablation straw man.  Like
    :func:`gale_shapley`, consumes the graph's column arrays: the
    (-weight, satellite, station) scan order is one lexsort.
    """
    caps = _station_capacities(graph, capacities)
    cols = graph.columns()
    sat_l = cols.satellite_index.tolist()
    gs_l = cols.station_index.tolist()
    w_l = cols.weight.tolist()
    order = np.lexsort(
        (cols.station_index, cols.satellite_index, -cols.weight)
    )
    remaining_cap = list(caps)
    taken_sats: set[int] = set()
    chosen: list[int] = []
    for pos in order.tolist():
        sat = sat_l[pos]
        if sat in taken_sats:
            continue
        if remaining_cap[gs_l[pos]] <= 0:
            continue
        taken_sats.add(sat)
        remaining_cap[gs_l[pos]] -= 1
        chosen.append(pos)
    return _assignments_at(graph, chosen, sat_l, gs_l, w_l)


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on a rectangular cost matrix.

    A from-scratch Jonker-Volgenant-style shortest-augmenting-path
    implementation, O(n^3).  Returns (row_indices, col_indices) like
    ``scipy.optimize.linear_sum_assignment`` (against which the test suite
    cross-checks it).  Requires rows <= cols; transpose first otherwise.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    n_rows, n_cols = cost.shape
    transposed = False
    if n_rows > n_cols:
        cost = cost.T
        n_rows, n_cols = cost.shape
        transposed = True
    # Potentials (dual variables) and matching arrays, 1-indexed internally.
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    match_col = np.zeros(n_cols + 1, dtype=int)  # col -> row (0 = free)
    way = np.zeros(n_cols + 1, dtype=int)
    for row in range(1, n_rows + 1):
        match_col[0] = row
        j0 = 0
        minv = np.full(n_cols + 1, np.inf)
        used = np.zeros(n_cols + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    rows = []
    cols = []
    for j in range(1, n_cols + 1):
        if match_col[j] != 0:
            rows.append(match_col[j] - 1)
            cols.append(j - 1)
    order = np.argsort(rows)
    row_idx = np.array(rows)[order]
    col_idx = np.array(cols)[order]
    if transposed:
        return col_idx, row_idx
    return row_idx, col_idx


def max_weight_matching(graph: ContactGraph,
                        capacities: list[int] | None = None) -> list[Assignment]:
    """Optimal (maximum total value) matching via the Hungarian algorithm.

    Station capacity c is handled by replicating its column c times.
    Zero-weight pairs are non-edges; the assignment is filtered to real
    edges afterwards, so the optimum is over the true graph.
    """
    caps = _station_capacities(graph, capacities)
    if not graph.edges:
        return []
    # Column expansion for capacities.
    col_station: list[int] = []
    for j, cap in enumerate(caps):
        col_station.extend([j] * max(0, cap))
    if not col_station:
        return []
    station_cols: dict[int, list[int]] = {}
    for col, j in enumerate(col_station):
        station_cols.setdefault(j, []).append(col)
    weight = np.zeros((graph.num_satellites, len(col_station)))
    edge_lookup: dict[tuple[int, int], ContactEdge] = {}
    for e in graph.edges:
        for col in station_cols.get(e.station_index, []):
            weight[e.satellite_index, col] = e.weight
        edge_lookup[(e.satellite_index, e.station_index)] = e
    # Maximize weight == minimize (max - weight).
    cost = weight.max() - weight
    rows, cols = hungarian(cost)
    result = []
    for r, c in zip(rows, cols):
        if weight[r, c] <= 0.0:
            continue  # matched to a non-edge (padding)
        edge = edge_lookup[(int(r), col_station[int(c)])]
        result.append(Assignment.from_edge(edge))
    return result


def is_stable(graph: ContactGraph, assignments: list[Assignment],
              capacities: list[int] | None = None) -> bool:
    """Check the stability property of a matching.

    A blocking pair is an edge (s, g) where s strictly prefers g to its
    current assignment (or is unassigned) AND g either has spare capacity
    or holds some satellite it values strictly less than s.
    """
    caps = _station_capacities(graph, capacities)
    sat_weight: dict[int, float] = {}
    station_held: dict[int, list[float]] = {}
    for a in assignments:
        sat_weight[a.satellite_index] = a.weight
        station_held.setdefault(a.station_index, []).append(a.weight)
    for edge in graph.edges:
        current = sat_weight.get(edge.satellite_index)
        sat_prefers = current is None or edge.weight > current
        if not sat_prefers:
            continue
        held = station_held.get(edge.station_index, [])
        has_room = len(held) < caps[edge.station_index]
        would_evict = any(edge.weight > w for w in held)
        if has_room or would_evict:
            return False
    return True


def diversity_groups(
    graph: ContactGraph,
    assignments: list[Assignment],
    max_receivers: int,
) -> dict[int, list[int]]:
    """Pick extra listening stations per matched satellite (diversity).

    For each assignment, stations that (a) can also see the satellite --
    they have an edge to it in the same priced graph -- and (b) were not
    matched as anyone's primary nor already claimed as another
    satellite's secondary, are recruited as additional receivers, best
    candidate edge first (descending weight, ascending station index for
    determinism).  Each satellite gets at most ``max_receivers - 1``
    secondaries; assignments claim stations in list order.

    Returns, per matched satellite, the chosen edges as positions into
    ``graph.columns()``.  Works on the column arrays: one fleet-wide
    lexsort over ``(satellite, -weight, station)`` and a ``searchsorted``
    slice per matched satellite, so no per-edge objects are built.
    Purely a function of the graph's edges and the matching, so the
    selection is deterministic and identical whichever path built the
    graph.
    """
    if max_receivers < 1:
        raise ValueError("max_receivers must be >= 1")
    groups: dict[int, list[int]] = {
        a.satellite_index: [] for a in assignments
    }
    want = max_receivers - 1
    if want == 0 or not assignments:
        return groups
    cols = graph.columns()
    order = np.lexsort(
        (cols.station_index, -cols.weight, cols.satellite_index)
    )
    sat_sorted = cols.satellite_index[order]
    matched = np.fromiter(
        (a.satellite_index for a in assignments), np.intp, len(assignments)
    )
    lo = np.searchsorted(sat_sorted, matched, side="left").tolist()
    hi = np.searchsorted(sat_sorted, matched, side="right").tolist()
    order_l = order.tolist()
    gs_sorted = cols.station_index[order].tolist()
    taken = {a.station_index for a in assignments}
    for a, start, stop in zip(assignments, lo, hi):
        chosen = groups[a.satellite_index]
        for k in range(start, stop):
            station = gs_sorted[k]
            if station in taken:
                continue
            taken.add(station)
            chosen.append(order_l[k])
            if len(chosen) == want:
                break
    return groups
