"""Open-loop client for service-day: one thread, one keep-alive connection.

Traffic arrives as client transactions, due every ``5 / rate`` seconds
from the first one whatever the service does (an open loop at ``rate``
requests per second on average).  A transaction is five requests sent
back to back: a scripted request (a write or a read, see ``MIX``), then
the client polls the plan (``GET /plan/deltas``) and the ticker
(``GET /healthz``) twice.  The first request is timed from the
transaction's due time, so a stall also counts against the transactions
queued behind it; each follow-up is due when the previous reply arrives.  The scripted
requests (endpoint, tenant, satellite, station, values) are drawn from
the workload seed; ``since`` on ``/plan/deltas`` follows the replies.

Back-to-back requests on one connection are what real clients send, and
they expose the service's keep-alive stall: a reply written as two
segments waits for the client's delayed ACK unless the connection was
idle for longer than the ACK timer.  After each idle gap the first one
or two replies are ACKed at once, so five requests per transaction keep
most requests, and the median, in the stalled case.

Checks made on the way: every write gets a 2xx with the expected
``queued``/``duplicate`` ack, every reply is JSON, the ticker's ``step``
keeps advancing (``/healthz`` says ``ok`` even with a dead ticker), and
the ``/shutdown`` report parses as strict JSON.  A non-2xx reply, a
timeout or a reconnect fails the request.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta

#: Mix of each transaction's scripted request: (share, kind).
MIX = (
    (0.45, "submit"),
    (0.05, "quota"),
    (0.05, "outage"),
    (0.15, "deltas"),
    (0.30, "metrics"),
)
#: Requests per transaction: the scripted one and four follow-up reads.
PER_TRANSACTION = 5
WRITES = {"submit", "quota", "outage"}
#: Seconds without ``step`` moving before the ticker counts as stalled.
STALL_S = 10.0
REQUEST_TIMEOUT_S = 10.0
#: The latency a failed request counts as: the longest the client waits,
#: so it misses every latency limit.
FAILED_MS = REQUEST_TIMEOUT_S * 1e3
#: The scenario's start (``repro.core.scenarios.PAPER_EPOCH``).
EPOCH = datetime(2020, 6, 1)


class Failure(Exception):
    """A request that did not get a valid reply."""


@dataclass
class Outcome:
    """What one repetition's client saw."""

    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    last_step: int = -1


class Script:
    """The seeded sequence of scripted requests."""

    def __init__(self, seed: int, ready: dict):
        self.rng = random.Random(seed)
        self.satellites = ready["satellites"]
        self.stations = ready["stations"]
        self.tenants = ready["tenants"]
        self.submitted: list[str] = []
        self.prefix = f"s{seed}-"

    def next(self, i: int):
        """(kind, method, path, body, expected ack status) for transaction
        ``i``; a ``deltas`` path is completed with ``since`` at send time."""
        rng = self.rng
        draw = rng.random()
        for share, kind in MIX:
            if draw < share:
                break
            draw -= share
        if kind == "submit":
            if self.submitted and rng.random() < 0.1:
                request_id, expect = rng.choice(self.submitted), "duplicate"
            else:
                request_id, expect = f"{self.prefix}{i}", "queued"
                self.submitted.append(request_id)
            body = {"requests": [{
                "request_id": request_id,
                "tenant_id": rng.choice(self.tenants),
                "satellite_id": rng.choice(self.satellites),
                "chunks": rng.randint(1, 4),
            }]}
            return kind, "POST", "/requests", body, expect
        if kind == "quota":
            body = {"tenant_id": rng.choice(self.tenants),
                    "quota_gb_per_day": rng.choice((20.0, 40.0, 80.0))}
            return kind, "POST", "/quota", body, "queued"
        if kind == "outage":
            start = EPOCH + timedelta(minutes=rng.randint(0, 1380))
            end = start + timedelta(minutes=rng.randint(10, 60))
            body = {"station_id": rng.choice(self.stations),
                    "start": start.isoformat(), "end": end.isoformat()}
            return kind, "POST", "/outages", body, "queued"
        if kind == "deltas":
            return kind, "GET", "/plan/deltas", None, None
        return kind, "GET", f"/{kind}", None, None


#: The follow-up reads of every transaction: poll the plan and the
#: ticker, twice.
FOLLOW_UPS = (
    ("deltas", "GET", "/plan/deltas", None, None),
    ("healthz", "GET", "/healthz", None, None),
) * 2


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class Client:
    """One keep-alive connection; any transport error fails the request
    and forces a reconnect."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def call(self, method: str, path: str, body=None) -> dict:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            reply = self.conn.getresponse()
            text = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise Failure(f"{method} {path}: {type(exc).__name__}: {exc}")
        if not 200 <= reply.status < 300:
            raise Failure(f"{method} {path}: HTTP {reply.status} {text[:200]!r}")
        try:
            return json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise Failure(f"{method} {path}: bad JSON: {exc}")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def drive(port: int, ready: dict, seed: int, rate: float,
          deadline: float) -> Outcome:
    """Run the open loop until the ticker reaches the horizon, then POST
    ``/shutdown``.  ``deadline`` is a ``time.monotonic()`` limit."""
    out = Outcome()
    script = Script(seed, ready)
    client = Client(port)
    horizon = ready["horizon_steps"]
    period = PER_TRANSACTION / rate
    since = 0
    clock = time.perf_counter
    t0 = clock()
    last_move = t0
    i = 0
    try:
        while out.last_step < horizon:
            now = clock()
            if now - last_move > STALL_S:
                out.errors.append(
                    f"ticker stalled at step {out.last_step} for {STALL_S} s"
                )
                out.failed += 1
                return out
            if time.monotonic() > deadline:
                out.errors.append("deadline reached before the horizon")
                out.failed += 1
                return out
            due = t0 + i * period
            if due > now:
                time.sleep(due - now)
            out.late_ms.append((clock() - due) * 1e3)
            for kind, method, path, body, expect in (script.next(i),
                                                     *FOLLOW_UPS):
                if kind == "deltas":
                    path = f"{path}?since={since}"
                out.attempted += 1
                try:
                    reply = client.call(method, path, body)
                    if kind in WRITES:
                        status = reply["acks"][0]["status"]
                        if status != expect:
                            raise Failure(
                                f"{path}: ack {status!r}, want {expect!r}"
                            )
                    elif kind == "deltas":
                        since = max(since, int(reply["latest_seq"]))
                    else:
                        step = int(reply["step"])
                        if step < out.last_step:
                            raise Failure(f"step went back to {step}")
                        if step > out.last_step:
                            out.last_step = step
                            last_move = clock()
                except (Failure, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    out.failed += 1
                    out.errors.append(str(exc))
                    latency = FAILED_MS
                else:
                    latency = (clock() - due) * 1e3
                out.latencies_ms.setdefault(kind, []).append(latency)
                # A follow-up is due when the previous reply arrives.
                due = clock()
            i += 1
        out.attempted += 1
        try:
            client.call("POST", "/shutdown")["report"]
        except (Failure, KeyError, TypeError) as exc:
            out.failed += 1
            out.errors.append(f"/shutdown: {exc}")
    finally:
        client.close()
    return out
