#!/usr/bin/env python
"""Benchmark gates and their longitudinal history.

Every ``benchmarks/bench_*.py`` gate is one :class:`Gate` handed to
:func:`run_gate`, which owns the shared command line::

    --record    write the measured results as the gate's BENCH_*.json
    --check     run the gate's hard checks; exit 1 on any FAIL line
    --quick     the gate's CI-sized run (each gate says what it trims)
    --history   append this run to BENCH_history.jsonl, flag drift

A gate supplies what it measures (``measure(args)``), how it fails
(``check(results)``), which figures it tracks over time
(``timings(results)``) and any flags of its own.

``--check`` catches disasters, such as a timed target more than 2x
slower than the pinned baseline, but is blind to slow drift: five
successive 15 % regressions pass every gate while doubling the runtime.
This module therefore keeps an append-only JSONL evidence trail
(``benchmarks/BENCH_history.jsonl``) of every measured run: git SHA,
UTC timestamp, the ``source`` that wrote it (the gate's name, or the
``repro obs profile`` command for ``--append``) and the scalar timings.
Any timing more than :data:`REGRESSION_PCT` above the trailing median
of recorded runs is flagged.

Flags are advisory: shared CI runners are noisy enough that a hard gate
at 20 % would flake, so drift lines are printed (``DRIFT: ...``) while
the exit code stays with ``--check``.  The history file is the evidence
trail for a human decision to re-record the baseline or hunt the
regression.

Usage::

    python benchmarks/bench_batch.py --check --quick --history
                                    # measure, gate, append, flag drift
    python benchmarks/bench_history.py
                                    # show the recorded tail + drift flags
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HISTORY_PATH = Path(__file__).resolve().parent / "BENCH_history.jsonl"

#: A timing this far above the trailing median is flagged as drift.
REGRESSION_PCT = 20.0
#: Trailing entries the median is taken over.
WINDOW = 10
#: Fewer prior points than this and the median is noise, not a trend.
MIN_PRIOR = 3


def git_sha() -> str:
    """Short SHA of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def load_history(path: Path = HISTORY_PATH) -> List[dict]:
    """All recorded entries, oldest first; malformed lines are skipped."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and isinstance(
            entry.get("timings"), dict
        ):
            entries.append(entry)
    return entries


def append_timings(
    timings: Dict[str, float],
    *,
    path: Path = HISTORY_PATH,
    sha: Optional[str] = None,
    timestamp: Optional[str] = None,
    quick: bool = False,
    source: str,
) -> dict:
    """Append one timings mapping to the history file; returns the entry.

    The shared writer behind :func:`run_gate` (gate runs) and
    ``--append`` (per-span timings from ``repro obs profile``); both
    kinds of entry share the JSONL schema, so :func:`drift_flags` tracks
    them uniformly — keys never collide because profile timings are
    namespaced ``span.*``.
    """
    entry = {
        "sha": sha if sha is not None else git_sha(),
        "time": (
            timestamp
            if timestamp is not None
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        ),
        "quick": bool(quick),
        "source": source,
        "timings": {k: float(v) for k, v in timings.items()},
    }
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def drift_flags(
    timings: Dict[str, float],
    history: List[dict],
    *,
    window: int = WINDOW,
    threshold_pct: float = REGRESSION_PCT,
) -> List[str]:
    """Timings more than ``threshold_pct`` above their trailing median.

    The median is over up to ``window`` most recent recorded runs that
    carry the same key; with fewer than :data:`MIN_PRIOR` points there is
    no trend to drift from and the key is skipped.
    """
    flags = []
    for key, now in sorted(timings.items()):
        prior = [
            float(e["timings"][key])
            for e in history
            if key in e["timings"]
        ][-window:]
        if len(prior) < MIN_PRIOR:
            continue
        median = statistics.median(prior)
        if median > 0 and now > median * (1.0 + threshold_pct / 100.0):
            flags.append(
                f"{key}: {now:.2f} ms is "
                f"{100.0 * (now / median - 1.0):.0f} % above the "
                f"trailing median {median:.2f} ms "
                f"(last {len(prior)} runs)"
            )
    return flags


def percentile(sorted_ms: List[float], pct: float) -> float:
    """The ``pct`` percentile of an ascending list (0.0 when empty)."""
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, int(pct / 100.0 * len(sorted_ms)))
    return sorted_ms[idx]


@dataclass(frozen=True)
class Gate:
    """One benchmark gate: what it measures, fails on and tracks.

    ``measure(args)`` gets the parsed command line and returns the
    results document; ``check(results)`` prints its ``FAIL:`` lines and
    returns the exit code; ``timings(results)`` picks the figures the
    history tracks, indexing the results directly so a renamed key
    fails loudly instead of dropping a series.  ``flags`` are the
    gate's own ``(option, add_argument kwargs)`` pairs.  A run with the
    ``partial`` flag set is printed and checked but neither recorded as
    the baseline nor appended to the history.
    """

    source: str
    doc: str
    baseline: Path
    measure: Callable[[argparse.Namespace], dict]
    check: Callable[[dict], int]
    timings: Callable[[dict], Dict[str, float]]
    check_help: str
    quick_help: str
    flags: Tuple[Tuple[str, dict], ...] = ()
    partial: Optional[str] = None

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(description=self.doc)
        parser.add_argument("--record", action="store_true",
                            help="write the measured results as the "
                                 "baseline")
        parser.add_argument("--check", action="store_true",
                            help=self.check_help)
        parser.add_argument("--quick", action="store_true",
                            help=self.quick_help)
        for option, kwargs in self.flags:
            parser.add_argument(option, **kwargs)
        parser.add_argument("--history", action="store_true",
                            help="append this run to BENCH_history.jsonl "
                                 "and flag >20%% drift vs the trailing "
                                 "median")
        return parser


def run_gate(gate: Gate, argv=None, *, history: Path = HISTORY_PATH) -> int:
    """Measure, print, track, record and check one gate; the exit code."""
    args = gate.parser().parse_args(argv)
    results = gate.measure(args)
    results["quick"] = args.quick
    print(json.dumps(results, indent=2))

    full = not (gate.partial and getattr(args, gate.partial))
    if args.history and full:
        # Advisory drift trail: flags vs the trailing median are printed
        # but never fail the run; the hard gate stays --check.
        timings = gate.timings(results)
        flags = drift_flags(timings, load_history(history))
        append_timings(
            timings, path=history, quick=args.quick, source=gate.source,
        )
        for flag in flags:
            print(f"DRIFT: {flag}")

    if args.record and full:
        gate.baseline.write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {gate.baseline}")
    if args.check:
        return gate.check(results)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--path", type=Path, default=HISTORY_PATH,
        help="history file (default: benchmarks/BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--tail", type=int, default=10,
        help="entries to display (default: 10)",
    )
    parser.add_argument(
        "--window", type=int, default=WINDOW,
        help=f"trailing-median window (default: {WINDOW})",
    )
    parser.add_argument(
        "--append", type=Path, default=None, metavar="FILE",
        help=(
            "append the timings from a profile_timings.json written by "
            "'repro obs profile' before reporting"
        ),
    )
    args = parser.parse_args(argv)

    if args.append is not None:
        doc = json.loads(args.append.read_text())
        timings = doc.get("timings")
        if not isinstance(timings, dict) or not timings:
            print(f"no timings in {args.append}", file=sys.stderr)
            return 2
        entry = append_timings(
            timings,
            path=args.path,
            source=doc.get("command") or str(args.append),
        )
        print(
            f"appended {len(entry['timings'])} timing(s) from "
            f"{args.append} at {entry['sha']}"
        )

    history = load_history(args.path)
    if not history:
        print(f"no history at {args.path}; run bench_batch.py --history")
        return 0

    keys = sorted({k for e in history for k in e["timings"]})
    header = f"{'sha':<12} {'time (UTC)':<20} {'mode':<6}"
    for key in keys:
        header += f" {key:>18}"
    print(header)
    for entry in history[-args.tail:]:
        row = (
            f"{entry.get('sha', '?'):<12} "
            f"{entry.get('time', '?'):<20} "
            f"{'quick' if entry.get('quick') else 'full':<6}"
        )
        for key in keys:
            value = entry["timings"].get(key)
            row += f" {value:>18.2f}" if value is not None else f" {'-':>18}"
        print(row)

    flags = drift_flags(
        history[-1]["timings"], history[:-1], window=args.window
    )
    print()
    if flags:
        for flag in flags:
            print(f"DRIFT: {flag}")
    else:
        print(
            f"latest run within {REGRESSION_PCT:.0f} % of the trailing "
            "median (or too few runs to judge)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
