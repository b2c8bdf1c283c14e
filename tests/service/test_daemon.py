"""HTTP contract tests for the scheduler daemon.

Each test boots a :class:`SchedulerService` on an ephemeral port
(``port=0``), drives it with stdlib ``http.client``, and shuts it down
via ``POST /shutdown`` -- the same path a real client uses.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.scenarios import ScenarioSpec
from repro.demand import tenant_mix
from repro.service import SchedulerService
from repro.simulation import SimulationSession


def make_service(pace_s=0.01, **spec_overrides):
    params = dict(num_satellites=4, num_stations=8, duration_s=1800.0,
                  tenants=tenant_mix("balanced"), value="deadline")
    params.update(spec_overrides)
    spec = ScenarioSpec.dgs(**params)
    return SchedulerService(SimulationSession(spec), port=0, pace_s=pace_s)


@pytest.fixture()
def daemon():
    """A running daemon + a request helper; always shut down cleanly."""
    service = make_service()
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(report=service.serve_forever()),
        daemon=True,
    )
    thread.start()
    host, port = service.address

    def call(method, path, payload=None):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    try:
        yield service, call
    finally:
        if not service.session.finished:
            call("POST", "/shutdown")
        else:
            service.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon failed to shut down"


class TestEndpoints:
    def test_healthz(self, daemon):
        service, call = daemon
        status, body = call("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["horizon_steps"] == service.session.horizon_steps
        assert 0 <= body["step"] <= body["horizon_steps"]

    def test_submit_and_duplicate_ack(self, daemon):
        service, call = daemon
        sat = service.session.simulation.satellites[0].satellite_id
        request = {"request_id": "req-1", "tenant_id": "premium",
                   "satellite_id": sat, "chunks": 2}
        status, body = call("POST", "/requests", {"requests": [request]})
        assert status == 200
        assert body["acks"][0]["status"] == "queued"
        status, body = call("POST", "/requests", request)  # bare object form
        assert status == 200
        assert body["acks"][0]["status"] == "duplicate"

    def test_quota_and_outage_endpoints(self, daemon):
        service, call = daemon
        station = service.session.simulation.network[0].station_id
        status, body = call("POST", "/quota",
                            {"tenant_id": "standard",
                             "quota_gb_per_day": 42.0})
        assert status == 200
        assert body["acks"][0] == {"event": "quota_update",
                                   "tenant_id": "standard",
                                   "status": "queued"}
        status, body = call("POST", "/outages",
                            {"station_id": station,
                             "start": "2020-06-01T00:10:00",
                             "end": "2020-06-01T00:20:00"})
        assert status == 200
        assert body["acks"][0]["status"] == "queued"

    def test_plan_and_deltas(self, daemon):
        service, call = daemon
        status, body = call("GET", "/plan")
        assert status == 200
        assert isinstance(body["links"], list)
        status, body = call("GET", "/plan/deltas?since=0")
        assert status == 200
        assert body["since"] == 0
        assert body["latest_seq"] >= len(body["deltas"])
        for delta in body["deltas"]:
            assert set(delta) == {"seq", "step", "when",
                                  "assigned", "released"}

    def test_metrics_carry_tenant_reports(self, daemon):
        _service, call = daemon
        status, body = call("GET", "/metrics")
        assert status == 200
        assert "delivered_bits" in body
        assert set(body["tenant_reports"]) == {"premium", "standard",
                                               "bulk"}

    def test_shutdown_returns_report(self, daemon):
        service, call = daemon
        status, body = call("POST", "/shutdown")
        assert status == 200
        report = body["report"]
        assert report["delivered_bits"] >= 0.0
        assert service.session.finished


class TestErrorContract:
    def test_unknown_path_404(self, daemon):
        _service, call = daemon
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            status, body = call(method, path)
            assert status == 404
            assert "error" in body

    def test_unknown_tenant_400(self, daemon):
        service, call = daemon
        sat = service.session.simulation.satellites[0].satellite_id
        status, body = call("POST", "/requests",
                            {"request_id": "x", "tenant_id": "nope",
                             "satellite_id": sat})
        assert status == 400
        assert "unknown tenant" in body["error"]

    def test_missing_field_400(self, daemon):
        _service, call = daemon
        status, body = call("POST", "/requests", {"request_id": "x"})
        assert status == 400
        assert "missing field" in body["error"]
        status, body = call("POST", "/quota", {"tenant_id": "premium"})
        assert status == 400
        assert "missing field" in body["error"]

    def test_unknown_request_field_400(self, daemon):
        _service, call = daemon
        status, body = call("POST", "/requests",
                            {"request_id": "x", "tenant_id": "premium",
                             "satellite_id": "s", "surprise": 1})
        assert status == 400
        assert "unknown request fields" in body["error"]

    def test_bad_json_body_400(self, daemon):
        service, _call = daemon
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/requests", body="{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_bad_since_400(self, daemon):
        _service, call = daemon
        status, body = call("GET", "/plan/deltas?since=minus-one")
        assert status == 400
        status, body = call("GET", "/plan/deltas?since=-1")
        assert status == 400
        assert ">= 0" in body["error"]

    def test_events_after_finalize_409(self, daemon):
        service, call = daemon
        # Finalize the session directly but leave the HTTP server up, so
        # the late submission still gets an HTTP answer (409, not a
        # connection error).
        service.finalize()
        sat = service.session.simulation.satellites[0].satellite_id
        status, body = call("POST", "/requests",
                            {"request_id": "late", "tenant_id": "premium",
                             "satellite_id": sat})
        assert status == 409
        assert "finalized" in body["error"]


class TestServiceObject:
    def test_ephemeral_port_bound(self):
        service = make_service()
        host, port = service.address
        assert host == "127.0.0.1"
        assert port > 0
        assert service.url == f"http://{host}:{port}"
        service._server.server_close()

    def test_finalize_without_serving(self):
        """finalize() works standalone -- no HTTP round-trip required."""
        service = make_service()
        report = service.finalize()
        assert report.delivered_bits >= 0.0
        assert service.finalize() is report  # idempotent passthrough
        service._server.server_close()

    def test_free_running_daemon_reaches_horizon(self):
        service = make_service(pace_s=0.0, duration_s=600.0)
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=service.serve_forever()),
            daemon=True,
        )
        thread.start()
        # The un-paced ticker races to the horizon; wait for it, then stop.
        for _ in range(600):
            if service.session.step >= service.session.horizon_steps:
                break
            time.sleep(0.05)
        service.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["report"].to_json() == \
            service.session.finalize().to_json()


def _strict_json(raw: bytes):
    """Parse JSON, refusing the NaN/Infinity extensions."""
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(raw, parse_constant=refuse)


def _serve(service):
    """Run ``service`` on a thread; returns (thread, result dict)."""
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(report=service.serve_forever()),
        daemon=True,
    )
    thread.start()
    return thread, result


def _raw_call(service, method, path, body=None):
    """One request with a raw (possibly non-JSON-object) body."""
    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, _strict_json(response.read())
    finally:
        conn.close()


def _wait_for_step_past(service, step, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, health = _raw_call(service, "GET", "/healthz")
        assert status == 200
        if health["step"] > step:
            return health
        time.sleep(0.02)
    raise AssertionError(f"ticker did not advance past step {step}")


@pytest.fixture()
def slow_daemon():
    """A paced daemon with a long horizon, so the ticker is still running
    while a test probes it."""
    service = make_service(pace_s=0.02, duration_s=6 * 3600.0)
    thread, _result = _serve(service)
    try:
        yield service
    finally:
        if not service.session.finished:
            status, body = _raw_call(service, "POST", "/shutdown")
            assert status == 200
            assert body["report"]["delivered_bits"] >= 0.0
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon failed to shut down"


def _request(**fields):
    base = {"request_id": "r", "tenant_id": "premium", "satellite_id": "s"}
    base.update(fields)
    return json.dumps(base)


BAD_INPUTS = {
    "quota-array-body": ("/quota", "[1, 2]"),
    "outage-array-body": ("/outages", "[1]"),
    "requests-scalar-body": ("/requests", "5"),
    "quota-nan": ("/quota",
                  '{"tenant_id": "standard", "quota_gb_per_day": NaN}'),
    "quota-inf": ("/quota",
                  '{"tenant_id": "standard", "quota_gb_per_day": Infinity}'),
    "quota-nan-string": ("/quota",
                         '{"tenant_id": "standard", '
                         '"quota_gb_per_day": "nan"}'),
    "quota-not-a-number": ("/quota",
                           '{"tenant_id": "standard", '
                           '"quota_gb_per_day": [1]}'),
    "priority-nan": ("/requests", _request().replace(
        '"r"', '"r", "priority": NaN', 1)),
    "sla-inf": ("/requests", _request().replace(
        '"r"', '"r", "sla_deadline_s": Infinity', 1)),
    "sla-beyond-the-calendar": ("/requests", _request(sla_deadline_s=1e308)),
    "sla-negative": ("/requests", _request(sla_deadline_s=-60.0)),
    "chunks-inf": ("/requests", _request().replace(
        '"r"', '"r", "chunks": Infinity', 1)),
    "chunks-fractional": ("/requests", _request(chunks=1.5)),
    "priority-list": ("/requests", _request(priority=[1])),
    "outage-bad-timestamp": ("/outages",
                             '{"station_id": "x", "start": "soon", '
                             '"end": "later"}'),
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_a_json_4xx_and_ticker_survives(self, slow_daemon,
                                                         case):
        service = slow_daemon
        path, body = BAD_INPUTS[case]
        if "satellite_id" in body:
            sat = service.session.simulation.satellites[0].satellite_id
            body = body.replace('"s"', json.dumps(sat))
        status, reply = _raw_call(service, "POST", path, body)
        assert 400 <= status < 500
        assert isinstance(reply["error"], str) and reply["error"]
        _status, health = _raw_call(service, "GET", "/healthz")
        after = _wait_for_step_past(service, health["step"])
        assert after["status"] == "ok"

    def test_tz_aware_outage_is_normalized_to_utc(self, slow_daemon):
        service = slow_daemon
        sim = service.session.simulation
        station = sim.network[0].station_id
        status, reply = _raw_call(service, "POST", "/outages", json.dumps({
            "station_id": station,
            # 02:10+02:00 is 00:10 UTC, inside the run's first hour.
            "start": "2020-06-01T02:10:00+02:00",
            "end": "2020-06-01T00:20:00Z",
        }))
        assert status == 200
        assert reply["acks"][0]["status"] == "queued"
        health = _wait_for_step_past(service, 25)
        assert health["status"] == "ok"
        [outage] = sim.outages.outages
        assert outage.start.tzinfo is None and outage.end.tzinfo is None
        assert (outage.start.hour, outage.start.minute) == (0, 10)
        assert (outage.end.hour, outage.end.minute) == (0, 20)

    def test_shutdown_report_is_strict_json(self, slow_daemon):
        service = slow_daemon
        _raw_call(service, "POST", "/quota",
                  '{"tenant_id": "standard", "quota_gb_per_day": NaN}')
        status, body = _raw_call(service, "POST", "/shutdown")
        assert status == 200
        assert body["report"]["delivered_bits"] >= 0.0

    def test_session_rejects_non_finite_and_aware_events(self):
        from datetime import datetime, timezone

        from repro.simulation.session import (
            OutageNotice, QuotaUpdate, SubmitRequest,
        )

        service = make_service()
        session = service.session
        sat = session.simulation.satellites[0].satellite_id
        station = session.simulation.network[0].station_id
        aware = datetime(2020, 6, 1, 0, 10, tzinfo=timezone.utc)
        for event in (
            QuotaUpdate("standard", float("nan")),
            QuotaUpdate("standard", float("inf")),
            SubmitRequest("a", "premium", sat, priority=float("nan")),
            SubmitRequest("b", "premium", sat, sla_deadline_s=float("inf")),
            SubmitRequest("c", "premium", sat, sla_deadline_s=1e308),
            SubmitRequest("d", "premium", sat, sla_deadline_s=0.0),
            OutageNotice(station, aware, aware.replace(minute=20)),
        ):
            with pytest.raises(ValueError):
                session.ingest([event])
        service._server.server_close()


class TestTickerHealth:
    def test_ticker_exception_reports_degraded(self):
        service = make_service(pace_s=0.0)

        def explode(*args, **kwargs):
            raise RuntimeError("tick exploded")

        service.session.advance = explode
        thread, result = _serve(service)
        try:
            deadline = time.monotonic() + 10.0
            while True:
                status, health = _raw_call(service, "GET", "/healthz")
                assert status == 200
                if health["status"] != "ok" or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            assert health["status"] == "degraded"
            assert "RuntimeError: tick exploded" in health["error"]
            # Reads keep working on a degraded daemon.
            status, _plan = _raw_call(service, "GET", "/plan")
            assert status == 200
        finally:
            status, body = _raw_call(service, "POST", "/shutdown")
            thread.join(timeout=30)
        assert status == 200
        assert not thread.is_alive()

    def test_healthy_daemon_reports_ok_without_error(self, daemon):
        _service, call = daemon
        _status, health = call("GET", "/healthz")
        assert health["status"] == "ok"
        assert "error" not in health


class _RecordingWriter:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class TestReplyWrites:
    def test_one_write_per_reply(self):
        from repro.service.daemon import _Handler

        handler = _Handler.__new__(_Handler)
        handler.wfile = _RecordingWriter()
        handler._reply(200, {"status": "ok", "step": 3})
        handler._reply(404, {"error": "no such path '/x'"})
        assert len(handler.wfile.writes) == 2
        for raw, status in zip(handler.wfile.writes, (200, 404)):
            head, body = raw.split(b"\r\n\r\n", 1)
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith(f"HTTP/1.1 {status} ")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            assert headers["Content-Type"] == "application/json"
            assert int(headers["Content-Length"]) == len(body)
            _strict_json(body)

    def test_reply_refuses_non_finite_payloads(self):
        from repro.service.daemon import _Handler

        handler = _Handler.__new__(_Handler)
        handler.wfile = _RecordingWriter()
        with pytest.raises(ValueError):
            handler._reply(200, {"value": float("nan")})
        assert handler.wfile.writes == []

    def test_nagle_disabled(self):
        from repro.service.daemon import _Handler

        assert _Handler.disable_nagle_algorithm is True

    def test_back_to_back_keepalive_requests_are_fast(self):
        """20 back-to-back GETs on one keep-alive connection: with one
        write per reply and Nagle off, none waits for a delayed ACK
        (~40 ms), so the median stays far below it."""
        service = make_service(pace_s=1.0)
        thread, _result = _serve(service)
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            latencies = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
            _raw_call(service, "POST", "/shutdown")
            thread.join(timeout=30)
        latencies.sort()
        assert latencies[len(latencies) // 2] < 0.020
