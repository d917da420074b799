"""End-to-end benchmark of the repro system: one workload per call.

    python3 perfbench/run.py --workload table5-batch --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload

Each workload runs the whole path through the public API, checks its
outputs, and prints a human-readable report followed, as the last line
of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures (untraced);
with ``--trace 1`` they are the per-layer figures of a traced run, and
the report carries the layer table.  ``--workload all`` runs every
workload in a fresh process and exits non-zero if any check failed.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = {
    "table5-batch": "wl_table5",
    "stream-generated": "wl_stream",
    "stream-sinks": "wl_stream",
    "serve-poll": "wl_serve",
}


def _report(out) -> None:
    print(f"===== {out.workload} =====")
    for name, metric in out.metrics.items():
        print(
            f"{name:<18} {metric.value:>14.6g} {common.UNITS[name]:<4} "
            f"{metric.base}"
        )
    ratio = out.failed / out.attempted if out.attempted else float("nan")
    print(
        f"{'error_ratio':<18} {ratio:>14.6g} {'':<4} "
        f"{out.failed} failed / {out.attempted} attempted"
    )
    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for note in out.notes:
        print(note)
    if out.table:
        print(out.table)


def _result_line(out, trace: bool) -> str:
    if trace:
        from layers import UNITS

        metrics = {
            name: {"value": float(value), "unit": UNITS[name]}
            for name, value in out.layers.items()
        }
    else:
        metrics = {
            name: {"value": float(m.value), "unit": common.UNITS[name]}
            for name, m in out.metrics.items()
        }
    return json.dumps({
        "correct": out.correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    })


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module = __import__(WORKLOADS[workload])
    out = module.run(workload, seed, seconds, trace)
    _report(out)
    print(_result_line(out, trace), flush=True)
    return 0 if out.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; non-zero if any failed."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{workload}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
