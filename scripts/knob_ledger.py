"""Report the size of the program and of its public configuration surface.

Prints, as a Markdown table:

* ``src_lines`` -- lines in every ``*.py`` file under ``src/``;
* ``simulation_config_fields`` -- fields of ``SimulationConfig``;
* ``scenario_spec_fields`` -- fields of ``ScenarioSpec``;
* ``cli_flags`` -- optional arguments across every ``repro`` subcommand
  (``--help`` excluded);
* ``public_knobs`` -- the sum of the three knob counts.

With ``--base REF`` the same numbers are computed for the ``src/`` tree
of git revision ``REF`` and shown beside the current ones with their
difference.  The script reports only; it exits 0 whatever the numbers.

Usage::

    python scripts/knob_ledger.py [--base REF]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs in a fresh interpreter with the measured ``src/`` on its path, so
#: the current tree and a base revision are counted the same way.
_PROBE = """
import argparse, dataclasses, json
from repro.cli import build_parser
from repro.core.scenarios import ScenarioSpec
from repro.simulation.config import SimulationConfig

def flags(parser, seen):
    if id(parser) in seen:
        return 0
    seen.add(id(parser))
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(flags(sub, seen) for sub in action.choices.values())
        elif action.option_strings and not isinstance(
                action, argparse._HelpAction):
            count += 1
    return count

print(json.dumps({
    "simulation_config_fields": len(dataclasses.fields(SimulationConfig)),
    "scenario_spec_fields": len(dataclasses.fields(ScenarioSpec)),
    "cli_flags": flags(build_parser(), set()),
}))
"""

ROWS = ("src_lines", "simulation_config_fields", "scenario_spec_fields",
        "cli_flags", "public_knobs")


def measure(src: Path) -> dict[str, int]:
    """Line and knob counts of the package tree rooted at ``src``."""
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(src.rglob("*.py"))
    )
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=src.parent, check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    counts = json.loads(probe.stdout)
    counts["src_lines"] = lines
    counts["public_knobs"] = (
        counts["simulation_config_fields"] + counts["scenario_spec_fields"]
        + counts["cli_flags"]
    )
    return counts


def measure_revision(ref: str) -> dict[str, int]:
    """:func:`measure` on the ``src/`` tree of git revision ``ref``."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        subprocess.run(
            ["git", "archive", "--output", str(archive), ref, "src"],
            cwd=ROOT, check=True,
        )
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        return measure(Path(tmp) / "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", metavar="REF",
                        help="also count the src/ tree of this git revision")
    args = parser.parse_args(argv)
    current = measure(ROOT / "src")
    if args.base is None:
        print("| metric | value |")
        print("|---|---:|")
        for row in ROWS:
            print(f"| {row} | {current[row]} |")
        return 0
    base = measure_revision(args.base)
    print(f"| metric | {args.base[:12]} | this tree | change |")
    print("|---|---:|---:|---:|")
    for row in ROWS:
        print(f"| {row} | {base[row]} | {current[row]} | "
              f"{current[row] - base[row]:+d} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
