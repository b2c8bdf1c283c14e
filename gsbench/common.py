"""Helpers shared by the benchmark's runner and its child processes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: The checkout the benchmark runs from: the directory holding ``gsbench``.
ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs dump their spans (ignored by git).
OUT_DIR = ROOT / ".gsbench"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def report_digest(report_json: str) -> str:
    """sha256 of a report's canonical JSON without ``stage_timings``
    (the same digest as ``scripts/report_hash.py``)."""
    raw = json.loads(report_json)
    raw.pop("stage_timings", None)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")
