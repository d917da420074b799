#!/usr/bin/env python3
"""Streaming at scale: analyzing a campaign that won't fit in memory.

The paper's dataset — 9408 nodes x 91 days at 15 s — is ~2 x 10^10 GPU
samples. This example shows how the pipeline handles arbitrary scale:
telemetry is generated, reordered and folded one fold unit (a few nodes)
at a time, sharded across worker processes, into O(bins) streaming
accumulators, and the merged cube yields the same Tables IV/V as the
materialized path.

Run:  python examples/streaming_scale.py [--nodes 256] [--days 7] [--workers 4]
"""

import argparse

from repro import units
from repro.core import decompose_modes, measured_factors, project_savings, report
from repro.core.pipeline import memory_footprint_estimate
from repro.stream.shard import run_sharded_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=256)
    parser.add_argument("--days", type=float, default=7.0)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    est = memory_footprint_estimate(args.nodes, args.days)
    full = memory_footprint_estimate(9408, 91)
    print(
        f"this run:   {est['samples']:.2e} GPU samples, "
        f"{est['materialized_bytes'] / 1e6:.0f} MB materialized vs "
        f"{est['streamed_bytes'] / 1e6:.0f} MB streamed"
    )
    print(
        f"full scale: {full['samples']:.2e} GPU samples, "
        f"{full['materialized_bytes'] / 1e9:.0f} GB materialized vs "
        f"{full['streamed_bytes'] / 1e6:.0f} MB streamed "
        f"({full['ratio']:.0f}x)"
    )

    run = run_sharded_campaign(
        fleet_nodes=args.nodes,
        days=args.days,
        seed=0,
        shards=max(args.workers, 1),
        workers=args.workers,
    )
    cube = run.cube
    print(
        f"\njoined {cube.histogram.total_count:.2e} samples in "
        f"{run.wall_s:.1f} s ({run.samples_per_s:.2e} samples/s with "
        f"{args.workers} workers)\n"
    )

    print(report.render_table4(decompose_modes(cube)))
    print()
    table = project_savings(
        cube, measured_factors("frequency"), campaign_energy_mwh=16820.0
    )
    print(report.render_table5(table))

    hours_full = 9408 * 4 * units.days(91) / 3600
    eta = hours_full / (cube.total_gpu_hours / run.wall_s) / args.workers
    print(
        f"\nextrapolation: the full 9408-node, 91-day campaign would "
        f"stream through this pipeline in ~{eta / 60:.0f} min per worker "
        "wave at this rate."
    )


if __name__ == "__main__":
    main()
