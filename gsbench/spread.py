"""Run one workload N times and show how steady its metrics are.

Usage::

    python3 gsbench/spread.py --workload NAME [--runs 10] [--save FILE]
        [--compare FILE]

Each run is ``gsbench/run.py`` with its own seed (1, 2, ..., ``--runs``)
and the ``run_seconds`` of ``BENCHMARK.json``.  For every
metric the tool prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound from ``BENCHMARK.json``.
A spread wider than the bound is flagged ``TOO-WIDE``; one wider than a
third of it ``WIDE`` (the margin the benchmark is held to).  ``--save``
writes the raw values; ``--compare`` loads an earlier saved set and
prints how far each median moved, flagging ``WORSE`` past the bound.
Exits 1 when any run failed, a spread is too wide or a median got worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list[float]] = {}
    bad_runs = 0
    for seed in range(1, args.runs + 1):
        result = one_run(args.workload, seed, seconds)
        ok = result.get("correct") is True
        bad_runs += not ok
        summary = " ".join(
            f"{name}={m['value']:.4g}"
            for name, m in list(result.get("metrics", {}).items())[:7]
        )
        print(f"seed {seed}: correct={ok} attempted={result.get('attempted')}"
              f" failed={result.get('failed')} {summary}", flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])

    previous = {}
    if args.compare:
        previous = json.loads(args.compare.read_text())["values"]
    flagged = bad_runs > 0
    print(f"\n{args.workload}: {args.runs} runs, {bad_runs} not correct")
    print(f"{'metric':28s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  flag")
    for name, vals in values.items():
        bound = declared.get(name, {}).get("bound")
        if len(vals) < 2:
            continue
        med, q1, q3, spread = quartile_spread(vals)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, flagged = "TOO-WIDE", True
            elif spread > bound / 3:
                flag = "WIDE"
        if name in previous and bound is not None:
            before = statistics.median(previous[name])
            drift = (med - before) / before if before else 0.0
            worse = drift if declared[name]["better"] == "lower" else -drift
            flag += f" drift {drift:+.3f}"
            if worse > bound:
                flag, flagged = flag + " WORSE", True
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:28s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.3f} {bound_text}  {flag}")
    if args.save:
        args.save.write_text(json.dumps(
            {"workload": args.workload, "values": values}, indent=1
        ))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
