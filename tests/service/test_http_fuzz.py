"""Property test of the daemon's HTTP write contract.

Hypothesis throws arbitrary bodies at ``POST /requests``, ``/quota`` and
``/outages`` of one running daemon: any JSON value (non-objects
included), NaN and +-Infinity tokens, timezone-aware and malformed
timestamps, fractional and non-finite chunk counts, and well-formed
events whose fields are drawn from the same pools.  Every request must
get a JSON 2xx or 4xx reply, the ticker must survive all of them
(``/healthz`` stays ``"ok"`` and keeps advancing), and the report
``/shutdown`` finalizes must parse as strict JSON.  Examples are bounded
and derandomized so the test runs in seconds and the same way each time.
"""

import json
from datetime import datetime, timedelta, timezone

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.service.test_daemon import (
    _raw_call,
    _serve,
    _wait_for_step_past,
    make_service,
)

START = datetime(2020, 6, 1)

numbers = (
    st.integers(min_value=-10, max_value=10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.5, 1.5, -1.0, 1e308, 2**63])
)
texts = st.text(max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | texts,
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(texts, children, max_size=3)
    ),
    max_leaves=8,
)
zones = st.sampled_from([
    None, timezone.utc, timezone(timedelta(hours=2)),
    timezone(timedelta(hours=-5, minutes=-30)),
])


@st.composite
def timestamps(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(json_values | st.just("2020-06-01T00:10:00Z"))
    when = START + timedelta(minutes=draw(st.integers(-120, 24 * 60)))
    zone = draw(zones)
    return (when if zone is None else when.replace(tzinfo=zone)).isoformat()


def _event(draw, fields):
    """An object with ``fields`` drawn from their pools, sometimes with
    one field dropped or an unknown one added."""
    body = {name: draw(pool) for name, pool in fields.items()}
    if body and draw(st.integers(0, 5)) == 0:
        body.pop(draw(st.sampled_from(sorted(body))))
    if draw(st.integers(0, 7)) == 0:
        body[draw(texts)] = draw(json_values)
    return body


def bodies(satellites, stations, tenants):
    """(path, raw body text) pairs for the three write endpoints."""
    ids = st.sampled_from(satellites) | texts
    sites = st.sampled_from(stations) | texts
    owners = st.sampled_from(tenants) | texts

    @st.composite
    def request(draw):
        return _event(draw, {
            "request_id": texts, "tenant_id": owners, "satellite_id": ids,
            "chunks": numbers, "priority": numbers,
            "sla_deadline_s": numbers,
        })

    @st.composite
    def structured(draw):
        path = draw(st.sampled_from(["/requests", "/quota", "/outages"]))
        if path == "/requests":
            body = draw(
                request()
                | st.fixed_dictionaries(
                    {"requests": st.lists(request(), max_size=3)}
                )
            )
        elif path == "/quota":
            body = _event(draw, {"tenant_id": owners,
                                 "quota_gb_per_day": numbers})
        else:
            body = _event(draw, {"station_id": sites, "start": timestamps(),
                                 "end": timestamps()})
        return path, json.dumps(body)

    raw = st.tuples(
        st.sampled_from(["/requests", "/quota", "/outages"]),
        json_values.map(json.dumps) | st.sampled_from(
            ["", "{", "NaN", "[1, 2]", '{"tenant_id": ', "\x00"]
        ),
    )
    return structured() | raw


def test_write_endpoints_survive_fuzzed_bodies():
    service = make_service(pace_s=0.05, duration_s=12 * 3600.0)
    thread, _result = _serve(service)
    sim = service.session.simulation
    satellites = [sat.satellite_id for sat in sim.satellites]
    stations = [station.station_id for station in sim.network]
    tenants = ["premium", "standard", "bulk"]
    replies = {"2xx": 0, "4xx": 0}

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=bodies(satellites, stations, tenants))
    def probe(case):
        path, body = case
        status, reply = _raw_call(service, "POST", path, body)
        assert isinstance(reply, dict)
        if 200 <= status < 300:
            replies["2xx"] += 1
            assert isinstance(reply["acks"], list)
        else:
            assert 400 <= status < 500, (status, path, body, reply)
            replies["4xx"] += 1
            assert isinstance(reply["error"], str) and reply["error"]

    try:
        probe()
        assert replies["2xx"] > 0 and replies["4xx"] > 0
        status, health = _raw_call(service, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok", health
        after = _wait_for_step_past(service, health["step"])
        assert after["status"] == "ok", after
        status, body = _raw_call(service, "POST", "/shutdown")
        assert status == 200
        assert body["report"]["delivered_bits"] >= 0.0
    finally:
        if thread.is_alive() and not service.session.finished:
            _raw_call(service, "POST", "/shutdown")
        thread.join(timeout=30)
    assert not thread.is_alive(), "daemon failed to shut down"
