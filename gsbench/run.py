"""The repository benchmark: one workload, one run, one JSON result line.

Usage::

    python3 gsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``gsbench/README.md`` for why each exists):
``fig3a-day`` and ``service-day``.

Every repetition runs in a fresh child process with one BLAS/OpenMP
thread and without ``REPRO_EPHEMERIS_CACHE``, so set-up is always cold;
the work per run is fixed by ``--seconds`` (a whole number of
repetitions), never by how many fit.  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced repetition.  Exits 0 only when every check passed, and 2
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
from common import ROOT, percentile
from tracing import LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
#: A run must end well inside the 180 s the harness allows it.
RUN_DEADLINE_S = 170.0
#: Service-day's open-loop request rate (requests per second).
RATE = 10.0

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "tick_p50_ms": "ms", "tick_p99_ms": "ms",
    "peak_rss_mb": "MiB", "req_p50_ms": "ms", "req_p90_ms": "ms",
}


class RunFailed(Exception):
    """A child process crashed, hung or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_EPHEMERIS_CACHE", None)
    # Cache bytecode, so that only the first child pays for compiling
    # (compiling lifts a small worker's peak RSS by about 5%).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``python3 gsbench/<args>`` to completion; its last stdout line
    is the JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left for another repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / args[0]), *args[1:]],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args[0]} passed the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"{args[0]} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- batch workloads --------------------------------------------------------


def batch_reps(workload, seed: int, reps: int, deadline: float,
               trace: bool = False):
    """(results, failures): ``reps`` worker runs and why any failed."""
    results, errors = [], []
    for _ in range(reps):
        args = ["worker.py", workload.name, str(seed)]
        if trace:
            args.append("--trace")
        try:
            results.append(run_child(args, deadline))
        except RunFailed as exc:
            errors.append(str(exc))
    return results, errors


def check_digests(workload, seed: int, results, errors) -> int:
    """Count repetitions whose report digest differs from the expected
    one: the pinned digest at the default seed, else the first
    repetition's."""
    if not results:
        return 0
    expected = results[0]["digest"]
    if seed == DEFAULT_SEED and workload.pinned_digest:
        expected = workload.pinned_digest
    bad = 0
    for r in results:
        if r["digest"] != expected:
            bad += 1
            errors.append(f"report digest {r['digest']} != {expected}")
    return bad


def tick_metrics(tick_lists: list[list[float]]) -> dict[str, float]:
    """Batch tick percentiles over a run's repetitions, and the floor's sum.

    The repetitions of one batch run replay the same seeded inputs, so
    tick k does the same work in each (the report digests must match).  On
    a shared VM a tick's time also depends on what the neighbours run,
    and that drifts over tens of seconds by up to 1.8x.  The centre is
    taken from the floor, each tick's fastest repetition, which keeps the
    tick's own cost and drops most of the drift.  A cost that lands on a
    different tick in each repetition mostly drops out of the floor too;
    the tails, taken over every tick of every repetition, are the slow
    ticks a user sees and keep it."""
    floor = [min(column) for column in zip(*tick_lists)]
    pooled = [t for ticks in tick_lists for t in ticks]
    return {
        "floor_s": sum(floor) / 1e3,
        "p50": percentile(floor, 50),
        "p90": percentile(pooled, 90),
        "p99": percentile(pooled, 99),
    }


def log_reps(label: str, values) -> None:
    """Each repetition's own figure, on stderr, beside the estimator."""
    print(f"{label} per repetition: "
          + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)


def run_batch(workload, seed: int, seconds: float, deadline: float) -> dict:
    reps = workload.reps(seconds)
    results, errors = batch_reps(workload, seed, reps, deadline)
    failed = len(errors) + check_digests(workload, seed, results, errors)
    metrics = {}
    if results:
        log_reps("setup_s", [r["setup_s"] for r in results])
        log_reps("run_s", [r["run_s"] for r in results])
        ticks = tick_metrics([r["ticks_ms"] for r in results])
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "run_s": ticks["floor_s"]
            + min(r["finalize_s"] for r in results),
            "tick_p50_ms": ticks["p50"],
            "tick_p99_ms": ticks["p99"],
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in results
            ),
            # A batch client's requests are its advance() calls.
            "req_p50_ms": ticks["p50"],
            "req_p90_ms": ticks["p90"],
        }
    return finish(reps, failed, errors, metrics, E2E_UNITS)


def trace_batch(workload, seed: int, deadline: float) -> dict:
    """One untraced and one traced repetition: per-layer metrics, the
    tracing overhead, and the two report digests compared."""
    plain, errors = batch_reps(workload, seed, 1, deadline)
    traced, more = batch_reps(workload, seed, 1, deadline, trace=True)
    errors += more
    failed = len(errors)
    if plain and traced and plain[0]["digest"] != traced[0]["digest"]:
        failed += 1
        errors.append("traced report digest differs from the untraced one")
    layers = {}
    if plain and traced:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead"] = traced[0]["run_s"] / plain[0]["run_s"]
        # Client-side service layers: no client on a batch workload.
        layers.update(dict.fromkeys(
            ("service.write_p50_ms", "service.read_p50_ms",
             "loadgen.late_p90_ms"), 0.0,
        ))
    return finish(2, failed, errors, layers, LAYER_UNITS)


# -- service workload -------------------------------------------------------


def service_rep(seed: int, deadline: float, trace: bool = False) -> dict:
    """Start the daemon, drive it to its horizon, collect both sides."""
    args = [sys.executable, str(HERE / "daemon.py"), str(seed)]
    if trace:
        args.append("--trace")
    proc = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        timeout = max(0.0, deadline - time.monotonic())
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise RunFailed("daemon not ready before the run deadline")
        line = proc.stdout.readline()
        if not line.startswith("READY "):
            proc.kill()
            raise RunFailed("daemon did not start: "
                            + proc.communicate()[1][-2000:])
        ready = json.loads(line[len("READY "):])
        proc.stdin.write("go\n")
        proc.stdin.flush()
        outcome = loadgen.drive(ready["port"], ready, seed, RATE, deadline)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            raise RunFailed("daemon did not exit after /shutdown") from None
        if proc.returncode != 0 or not stdout.strip():
            raise RunFailed(f"daemon exited {proc.returncode}: "
                            f"{stderr.strip()[-2000:]}")
        daemon = json.loads(stdout.strip().splitlines()[-1])
        if daemon["steps"] != ready["horizon_steps"]:
            outcome.failed += 1
            outcome.errors.append(
                f"ticker stopped at {daemon['steps']} of "
                f"{ready['horizon_steps']} steps"
            )
        return {"client": outcome, "daemon": daemon}
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()


def service_reps(seed: int, reps: int, deadline: float, trace: bool = False):
    results, errors = [], []
    for _ in range(reps):
        try:
            rep = service_rep(seed, deadline, trace)
        except RunFailed as exc:
            errors.append(str(exc))
            continue
        results.append(rep)
        errors.extend(rep["client"].errors)
    return results, errors


def run_service(workload, seed: int, seconds: float, deadline: float) -> dict:
    reps = workload.reps(seconds)
    results, errors = service_reps(seed, reps, deadline)
    attempted = sum(r["client"].attempted for r in results) \
        + (reps - len(results))
    failed = sum(r["client"].failed for r in results) + (reps - len(results))
    metrics = {}
    if results:
        med = lambda f: statistics.median(f(r) for r in results)  # noqa: E731
        log_reps("setup_s", [r["daemon"]["setup_s"] for r in results])
        log_reps("run_s", [r["daemon"]["run_s"] for r in results])
        # Requests land on different ticks in each repetition, so the
        # ticks do not repeat and there is no floor: the centre is the
        # median of the repetitions' p50, the tail pools every tick.
        tick_lists = [r["daemon"]["ticks_ms"] for r in results]
        pooled = [t for ticks in tick_lists for t in ticks]
        requests = [
            [x for xs in r["client"].latencies_ms.values() for x in xs]
            for r in results
        ]
        metrics = {
            "setup_s": med(lambda r: r["daemon"]["setup_s"]),
            "run_s": med(lambda r: r["daemon"]["run_s"]),
            "tick_p50_ms": statistics.median(
                percentile(ticks, 50) for ticks in tick_lists
            ),
            "tick_p99_ms": percentile(pooled, 99),
            "peak_rss_mb": med(lambda r: r["daemon"]["peak_rss_mb"]),
            "req_p50_ms": statistics.median(
                percentile(xs, 50) for xs in requests
            ),
            "req_p90_ms": statistics.median(
                percentile(xs, 90) for xs in requests
            ),
        }
    return finish(attempted, failed, errors, metrics, E2E_UNITS)


def trace_service(seed: int, deadline: float) -> dict:
    """One untraced and one traced daemon: per-layer metrics, the
    client-side service layers and the tracing overhead."""
    plain, errors = service_reps(seed, 1, deadline)
    traced, more = service_reps(seed, 1, deadline, trace=True)
    errors += more
    failed = sum(r["client"].failed for r in plain + traced) \
        + (2 - len(plain) - len(traced))
    layers = {}
    if plain and traced:
        client = traced[0]["client"]
        by_class = {"write": [], "read": []}
        for kind, xs in client.latencies_ms.items():
            by_class["write" if kind in loadgen.WRITES else "read"] += xs
        layers = dict(traced[0]["daemon"]["layers"])
        layers["trace.overhead"] = (traced[0]["daemon"]["run_s"]
                                    / plain[0]["daemon"]["run_s"])
        layers["service.write_p50_ms"] = percentile(by_class["write"], 50)
        layers["service.read_p50_ms"] = percentile(by_class["read"], 50)
        layers["loadgen.late_p90_ms"] = percentile(client.late_ms, 90)
    attempted = sum(r["client"].attempted for r in plain + traced)
    return finish(attempted, failed, errors, layers, LAYER_UNITS)


# -- result -----------------------------------------------------------------


def finish(attempted: int, failed: int, errors: list[str], metrics: dict,
           units: dict[str, str]) -> dict:
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    complete = bool(metrics) and set(units) <= set(metrics)
    return {
        "correct": failed == 0 and not errors and complete,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    if workload.kind == "batch":
        result = (trace_batch(workload, args.seed, deadline) if args.trace
                  else run_batch(workload, args.seed, args.seconds, deadline))
    else:
        result = (trace_service(args.seed, deadline) if args.trace
                  else run_service(workload, args.seed, args.seconds,
                                   deadline))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
