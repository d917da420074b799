"""Command-line interface.

::

    python -m repro list
    python -m repro run fig4
    python -m repro run all --out results/   # the default config writes results/
    python -m repro run table5 --profile
    python -m repro obs profile --check
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .errors import ReproError
from .experiments import EXPERIMENT_IDS, ExperimentConfig, run


class _UsageError(Exception):
    """A flag combination argparse cannot express; ``main`` returns 2."""


def _require_one(args, local, what: str) -> None:
    """Exactly one of a local source and ``--url`` must be given."""
    if (local is None) == (args.url is None):
        raise _UsageError(
            f"obs {args.obs_command} needs exactly one of {what}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Exploring the Frontiers of Energy Efficiency "
            "using Power Management at System Scale' (SC 2024)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    run_p.add_argument(
        "--nodes", type=int, default=96,
        help="simulated fleet size (default 96; Frontier is 9408)",
    )
    run_p.add_argument(
        "--days", type=float, default=4.0,
        help="campaign length in days (default 4; the paper used 91)",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--graph-scale", type=float, default=0.02,
        help="Fig 7 network sizes relative to the paper (default 0.02)",
    )
    run_p.add_argument(
        "--out", default=None, help="directory for per-experiment .txt files"
    )
    run_p.add_argument(
        "--csv", action="store_true",
        help="also export numeric series as CSV (requires --out)",
    )
    run_p.add_argument(
        "--obs", action="store_true",
        help=(
            "enable observability: collect metrics + trace spans and "
            "write a run manifest (see docs/observability.md)"
        ),
    )
    run_p.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help=(
            "directory for manifest.json + metrics.prom (default: "
            "--out, else 'obs')"
        ),
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help=(
            "attach the span-linked sampling profiler and write "
            "flamegraph/Chrome-trace artifacts (implies observability; "
            "see docs/performance.md)"
        ),
    )
    run_p.add_argument(
        "--profile-dir", default=None, metavar="DIR",
        help=(
            "directory for profile.collapsed + trace.json + "
            "profile_timings.json (default: --out, else "
            "'profile-artifacts')"
        ),
    )

    advise_p = sub.add_parser(
        "advise",
        help=(
            "recommend per-job frequency caps from real data: a "
            "sacct-style job log plus CSV power telemetry"
        ),
    )
    advise_p.add_argument("sacct", help="sacct dump (JobID|Account|...)")
    advise_p.add_argument(
        "telemetry", help="telemetry CSV (time_s,node_id,gpu0_w..gpu3_w)"
    )
    advise_p.add_argument(
        "--max-slowdown", type=float, default=5.0,
        help="per-job slowdown budget, percent (default 5)",
    )
    advise_p.add_argument(
        "--top", type=int, default=20,
        help="how many jobs to print, largest energy first (default 20)",
    )

    campaign_p = sub.add_parser(
        "campaign",
        help=(
            "run a full campaign sharded by node range across worker "
            "processes; the merged cube is bitwise identical to the "
            "single-process fold"
        ),
    )
    campaign_p.add_argument(
        "--nodes", type=int, default=96,
        help="simulated fleet size (default 96; Frontier is 9408)",
    )
    campaign_p.add_argument(
        "--days", type=float, default=4.0,
        help="campaign length in days (default 4; the paper used 91)",
    )
    campaign_p.add_argument("--seed", type=int, default=0)
    campaign_p.add_argument(
        "--shards", type=int, default=1,
        help="work partition: contiguous node-range shards (default 1)",
    )
    campaign_p.add_argument(
        "--workers", type=int, default=0,
        help=(
            "process-pool width (<= 1 runs shards serially; the cube "
            "is identical either way)"
        ),
    )
    campaign_p.add_argument(
        "--unit-nodes", type=int, default=8,
        help=(
            "nodes per fold unit — fixes the merge tree, so changing "
            "it changes float rounding (default 8)"
        ),
    )
    campaign_p.add_argument(
        "--window-s", type=float, default=600.0,
        help="event-time window (seconds, default 600)",
    )
    campaign_p.add_argument(
        "--lateness-s", type=float, default=0.0,
        help="allowed lateness behind the newest event (default 0 s)",
    )
    campaign_p.add_argument(
        "--shuffle-s", type=float, default=0.0,
        help=(
            "deliver each unit's stream out of order within this "
            "horizon (set --lateness-s at least as large)"
        ),
    )
    campaign_p.add_argument(
        "--dup-fraction", type=float, default=0.0,
        help="inject this fraction of duplicate records per unit",
    )
    campaign_p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write per-shard npz checkpoints (shard_<i>.npz) here",
    )
    campaign_p.add_argument(
        "--resume", action="store_true",
        help="resume completed fold units from --checkpoint-dir",
    )
    campaign_p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint after every N completed units (default 1)",
    )
    campaign_p.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help=(
            "stop each shard after N units (bounded partial run; "
            "rerun with --resume to finish)"
        ),
    )
    campaign_p.add_argument(
        "--max-slowdown", type=float, default=5.0,
        help="slowdown budget for the fleet cap advice (default 5 %%)",
    )
    campaign_p.add_argument(
        "--campaign-energy-mwh", type=float, default=None,
        help=(
            "normalize MWh columns to this campaign total (default: "
            "the paper's 16820)"
        ),
    )
    campaign_p.add_argument(
        "--obs", action="store_true",
        help=(
            "enable observability: per-unit spans and counters fold "
            "back worker-count invariant, plus a run manifest"
        ),
    )
    campaign_p.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="directory for manifest.json + metrics.prom (default 'obs')",
    )

    # The flags `repro stream` and `repro serve` share.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "--from-file", default=None, metavar="PATH",
        help=(
            "ingest telemetry from an .npz store or CSV file "
            "(requires --sacct for the scheduler log); default is an "
            "in-process simulated fleet"
        ),
    )
    run_flags.add_argument(
        "--sacct", default=None,
        help="sacct-style job log to join against (with --from-file)",
    )
    run_flags.add_argument(
        "--nodes", type=int, default=32,
        help="simulated fleet size (default 32)",
    )
    run_flags.add_argument(
        "--days", type=float, default=1.0,
        help="simulated campaign length in days (default 1)",
    )
    run_flags.add_argument("--seed", type=int, default=0)
    run_flags.add_argument(
        "--window-s", type=float, default=600.0,
        help="event-time window (seconds, default 600)",
    )
    run_flags.add_argument(
        "--lateness-s", type=float, default=120.0,
        help="allowed lateness behind the newest event (default 120 s)",
    )
    run_flags.add_argument(
        "--max-chunks", type=int, default=None,
        help="stop ingest after N arrival chunks (live snapshot, no drain)",
    )
    run_flags.add_argument(
        "--max-slowdown", type=float, default=5.0,
        help="slowdown budget for the cap advice (default 5 %%)",
    )
    run_flags.add_argument(
        "--campaign-energy-mwh", type=float, default=None,
        help=(
            "normalize MWh columns to this campaign total (default: "
            "the paper's 16820 for simulated fleets, raw for files)"
        ),
    )
    run_flags.add_argument(
        "--rules", default=None, metavar="FILE",
        help=(
            "alert rules file (JSON, or TOML on python >= 3.11); "
            "default: the shipped ruleset "
            "(src/repro/obs/health/default_rules.json)"
        ),
    )
    run_flags.add_argument(
        "--drift-ref", default="paper", metavar="REF",
        help=(
            "power-mode drift reference: 'paper' (Table IV), 'off', or "
            "a JSON file with gpu_hours_pct (default paper)"
        ),
    )
    run_flags.add_argument(
        "--obs", action="store_true",
        help=(
            "enable observability: ingest-lag gauges, late-drop/dedup "
            "counters, spans, and a run manifest"
        ),
    )
    run_flags.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="directory for manifest.json + metrics.prom (default 'obs')",
    )
    run_flags.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help=(
            "persist every sealed window into an out-of-core columnar "
            "history store at DIR, in memory if DIR is '-' (query it "
            "later with 'repro obs query --dir DIR'; serve answers "
            "/v1/query + /v1/series from it)"
        ),
    )
    run_flags.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help=(
            "keep the structured event log (window seals, alerts, "
            "incidents, cap decisions) as rotated JSONL segments at "
            "DIR, in memory if DIR is '-' (query it later with 'repro "
            "obs logs --dir DIR'; serve answers /v1/logs from it)"
        ),
    )

    stream_p = sub.add_parser(
        "stream",
        parents=[run_flags],
        help=(
            "run the incremental ingestion engine over a telemetry "
            "source and print live Table IV/V/VI snapshots"
        ),
    )
    stream_p.add_argument(
        "--shuffle", action="store_true",
        help="deliver out of order within the lateness horizon",
    )
    stream_p.add_argument(
        "--dup-fraction", type=float, default=0.0,
        help="inject this fraction of duplicate records (with --shuffle)",
    )
    stream_p.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="print a live snapshot every N ingested chunks",
    )
    stream_p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write an npz checkpoint of the final engine state",
    )
    stream_p.add_argument(
        "--resume", default=None, metavar="PATH",
        help=(
            "resume from a checkpoint written by --checkpoint: feed "
            "only the chunks it had not ingested and reopen the "
            "--history-dir/--log-dir stores"
        ),
    )
    stream_p.add_argument(
        "--watch", action="store_true",
        help=(
            "render the live health dashboard in place (ingest, mode "
            "shares vs reference, savings, alerts) instead of plain "
            "snapshots; keeps in-memory history and event-log panes"
        ),
    )
    stream_p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help=(
            "serve /metrics, /health and /alerts on this port while "
            "streaming (0 picks an ephemeral port)"
        ),
    )

    from .serve.objectives import objective_names

    serve_p = sub.add_parser(
        "serve",
        parents=[run_flags],
        help=(
            "run the closed-loop control plane: ingest telemetry, tag "
            "it with job state, and serve live cap decisions over HTTP "
            "(/v1/fleet/cap, /v1/jobs/{id}/cap, ...; see docs/serving.md)"
        ),
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=9188,
        help="listen port (default 9188; 0 picks an ephemeral port)",
    )
    serve_p.add_argument(
        "--objective", default="slowdown", choices=objective_names(),
        help="cap-decision objective (default slowdown)",
    )
    serve_p.add_argument(
        "--chunk-delay-s", type=float, default=0.0,
        help="pace ingest: sleep this long between chunks (default 0)",
    )
    serve_p.add_argument(
        "--exit-after-drain", action="store_true",
        help=(
            "exit once the source is drained instead of serving until "
            "POST /v1/admin/shutdown"
        ),
    )

    obs_p = sub.add_parser(
        "obs",
        help="inspect run manifests written by --obs",
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    obs_sum = obs_sub.add_parser(
        "summary", help="summarize one manifest: provenance, spans, counters"
    )
    obs_sum.add_argument(
        "manifest", nargs="?", default=None,
        help="path to a .manifest.json (or use --url)",
    )
    obs_sum.add_argument(
        "--top", type=int, default=15,
        help="how many span rows to print (default 15)",
    )
    obs_sum.add_argument(
        "--url", default=None, metavar="URL",
        help=(
            "summarize a live exporter instead of a file: fetches "
            "URL/metrics (e.g. http://127.0.0.1:9109)"
        ),
    )
    obs_alerts = obs_sub.add_parser(
        "alerts",
        help=(
            "show alert state from a live /health endpoint or a "
            "health.json written by 'repro stream --obs'"
        ),
    )
    obs_alerts.add_argument(
        "source", nargs="?", default=None,
        help="path to a health.json (or use --url)",
    )
    obs_alerts.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a live health exporter",
    )
    obs_alerts.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any rule is firing",
    )
    obs_alerts.add_argument(
        "--history", type=int, default=20,
        help="how many recent transitions to print (default 20)",
    )
    obs_inc = obs_sub.add_parser(
        "incidents",
        help=(
            "list, show, or export flight-recorder incidents from a "
            "live /v1/incidents endpoint or an incidents.json"
        ),
    )
    obs_inc.add_argument(
        "action", nargs="?", default="list",
        choices=("list", "show", "export"),
        help=(
            "list the incident timeline, show one incident with its "
            "recorder slice, or export self-contained JSON bundles"
        ),
    )
    obs_inc.add_argument(
        "incident", nargs="?", default=None,
        help="incident id for show/export (e.g. inc-001)",
    )
    obs_inc.add_argument(
        "--from", dest="source", default=None, metavar="FILE",
        help=(
            "an incidents.json written by 'repro serve --obs', "
            "'repro stream --obs', or 'repro run ext_incidents --out', "
            "or one incident_<id>.json bundle"
        ),
    )
    obs_inc.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a live control plane (fetches /v1/incidents)",
    )
    obs_inc.add_argument(
        "--out", default="incident-artifacts", metavar="DIR",
        help=(
            "bundle output directory for 'export' "
            "(default incident-artifacts)"
        ),
    )
    obs_inc.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any incident is still open (the CI gate)",
    )
    obs_prof = obs_sub.add_parser(
        "profile",
        help=(
            "profile one experiment end to end: collapsed stacks for "
            "flamegraphs, a Chrome trace, per-span attribution, and "
            "perf-budget checks"
        ),
    )
    obs_prof.add_argument(
        "experiment", nargs="?", default="table5",
        help="experiment id to profile (default table5)",
    )
    obs_prof.add_argument(
        "--nodes", type=int, default=24,
        help="simulated fleet size (default 24, the CI reference)",
    )
    obs_prof.add_argument(
        "--days", type=float, default=1.0,
        help="campaign length in days (default 1)",
    )
    obs_prof.add_argument("--seed", type=int, default=3)
    obs_prof.add_argument(
        "--out", default="profile-artifacts", metavar="DIR",
        help="artifact directory (default profile-artifacts)",
    )
    obs_prof.add_argument(
        "--interval-ms", type=float, default=5.0,
        help="stack sampling interval in milliseconds (default 5)",
    )
    obs_prof.add_argument(
        "--memory", action="store_true",
        help=(
            "also record per-span tracemalloc deltas and the top "
            "allocation sites"
        ),
    )
    obs_prof.add_argument(
        "--exact", action="store_true",
        help="also run cProfile for exact per-function call counts",
    )
    obs_prof.add_argument(
        "--top", type=int, default=20,
        help="rows per attribution table (default 20)",
    )
    obs_prof.add_argument(
        "--budget", default=None, metavar="FILE",
        help=(
            "perf-budget JSON of named span limits (default "
            "benchmarks/perf_budget.json when --check is given)"
        ),
    )
    obs_prof.add_argument(
        "--check", action="store_true",
        help=(
            "check span totals against the perf budget and exit "
            "non-zero on any breach (the CI gate)"
        ),
    )
    obs_query = obs_sub.add_parser(
        "query",
        help=(
            "range-query a history store (written by --history-dir) or "
            "a live /v1/query endpoint; --check refolds every rollup "
            "bucket bitwise (the CI gate)"
        ),
    )
    obs_query.add_argument(
        "series", nargs="?", default=None,
        help="series name (see 'repro obs query --dir DIR' for a list)",
    )
    obs_query.add_argument(
        "--dir", dest="store_dir", default=None, metavar="DIR",
        help="history store directory written by --history-dir",
    )
    obs_query.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a live control plane (uses /v1/query)",
    )
    obs_query.add_argument(
        "--t0", type=float, default=None,
        help="range start, event seconds (default: first window)",
    )
    obs_query.add_argument(
        "--t1", type=float, default=None,
        help="range end, exclusive (default: past the last window)",
    )
    obs_query.add_argument(
        "--step", type=float, default=None,
        help="bucket width in seconds (default: ~60 buckets)",
    )
    obs_query.add_argument(
        "--agg", default=None,
        help="aggregation override (sum/min/max/last/mean/count)",
    )
    obs_query.add_argument(
        "--level", type=int, default=None,
        help="force a rollup level (default: automatic selection)",
    )
    obs_query.add_argument(
        "--json", action="store_true",
        help="print the raw query result as JSON",
    )
    obs_query.add_argument(
        "--check", action="store_true",
        help=(
            "verify every rollup bucket refolds bitwise from level 0 "
            "and exit non-zero on any mismatch (requires --dir)"
        ),
    )
    obs_hist = obs_sub.add_parser(
        "history",
        help=(
            "maintain a history store: info (levels, segments, bytes), "
            "compact (merge ragged segments), gc (drop old segments)"
        ),
    )
    obs_hist.add_argument(
        "action", choices=("info", "compact", "gc"),
        help="what to do with the store",
    )
    obs_hist.add_argument(
        "--dir", dest="store_dir", required=True, metavar="DIR",
        help="history store directory written by --history-dir",
    )
    obs_hist.add_argument(
        "--keep-s", type=float, default=None,
        help="gc: keep at least this much trailing event time (seconds)",
    )
    obs_logs = obs_sub.add_parser(
        "logs",
        help=(
            "query or tail a structured event log from a store written "
            "by --log-dir or a live /v1/logs endpoint; --check "
            "validates segment/manifest integrity (the CI gate)"
        ),
    )
    obs_logs.add_argument(
        "action", nargs="?", default="query", choices=("query", "tail"),
        help=(
            "query applies the filters below; tail shows only the "
            "newest records (default query)"
        ),
    )
    obs_logs.add_argument(
        "--dir", dest="store_dir", default=None, metavar="DIR",
        help="event-log store directory written by --log-dir",
    )
    obs_logs.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a live control plane (uses /v1/logs)",
    )
    obs_logs.add_argument(
        "--t0", type=float, default=None,
        help="range start, event seconds",
    )
    obs_logs.add_argument(
        "--t1", type=float, default=None,
        help="range end, event seconds",
    )
    obs_logs.add_argument(
        "--severity", default=None,
        help="minimum severity (debug/info/warning/error/critical)",
    )
    obs_logs.add_argument(
        "--event", default=None,
        help=(
            "event name, exact ('serve.decide_cap') or dotted prefix "
            "('serve.')"
        ),
    )
    obs_logs.add_argument(
        "--window", type=int, default=None,
        help="only records correlated to this window index",
    )
    obs_logs.add_argument(
        "--limit", "-n", type=int, default=None,
        help="newest N matches (default 200 for query, 20 for tail)",
    )
    obs_logs.add_argument(
        "--json", action="store_true",
        help="print raw records as JSON lines",
    )
    obs_logs.add_argument(
        "--check", action="store_true",
        help=(
            "validate segment files against the manifest (counts, seq "
            "monotonicity, time bounds) and exit non-zero on any "
            "problem (requires --dir)"
        ),
    )
    obs_diff = obs_sub.add_parser(
        "diff",
        help=(
            "compare two manifests and flag provenance drift (config, "
            "versions, git, output digests) and timing drift"
        ),
    )
    obs_diff.add_argument("a", help="baseline manifest")
    obs_diff.add_argument("b", help="candidate manifest")
    obs_diff.add_argument(
        "--timing-tolerance", type=float, default=25.0, metavar="PCT",
        help="per-span total-duration drift tolerance (default 25 %%)",
    )

    report_p = sub.add_parser(
        "report",
        help="run the full pipeline and write a single markdown report",
    )
    report_p.add_argument(
        "--out", default="REPORT.md", help="output path (default REPORT.md)"
    )
    report_p.add_argument("--nodes", type=int, default=96)
    report_p.add_argument("--days", type=float, default=4.0)
    report_p.add_argument("--seed", type=int, default=0)
    report_p.add_argument(
        "--graph-scale", type=float, default=0.02,
    )
    report_p.add_argument(
        "--no-extensions", action="store_true",
        help="limit the report to the paper's artifacts",
    )
    return parser


def _advise(args) -> int:
    from . import units
    from .core import measured_factors
    from .policy import CapAdvisor, fingerprint_jobs
    from .scheduler.sacct import read_sacct
    from .telemetry.io_csv import read_telemetry_csv_chunks

    log = read_sacct(args.sacct)
    fingerprints = fingerprint_jobs(
        read_telemetry_csv_chunks(args.telemetry), log
    )
    if not fingerprints:
        print("no jobs overlap the telemetry window", file=sys.stderr)
        return 1
    factors = measured_factors("frequency")
    advisor = CapAdvisor(factors, max_slowdown_pct=args.max_slowdown)

    total_energy = sum(fp.energy_j for fp in fingerprints.values())
    total_saving = 0.0
    rows = []
    for fp in sorted(
        fingerprints.values(), key=lambda f: f.energy_j, reverse=True
    ):
        rec = advisor.recommend(fp)
        total_saving += rec.expected_saving_j
        rows.append((fp, rec))

    print(
        f"{len(fingerprints)} jobs fingerprinted; "
        f"{units.to_mwh(total_energy):.2f} MWh of GPU energy; "
        f"expected saving {units.to_mwh(total_saving):.2f} MWh "
        f"({100 * total_saving / total_energy:.1f} %) at <= "
        f"{args.max_slowdown:g} % slowdown per job\n"
    )
    header = (
        f"{'job':>8} {'domain':<8} {'family':<18} {'MWh':>8} "
        f"{'cap':>9} {'save %':>7} {'dT %':>6}"
    )
    print(header)
    for fp, rec in rows[: args.top]:
        cap = f"{rec.cap:.0f} MHz" if rec.capped else "-"
        save_pct = (
            100 * rec.expected_saving_j / fp.energy_j if fp.energy_j else 0
        )
        print(
            f"{fp.job_id:>8} {fp.domain:<8} {fp.family:<18} "
            f"{units.to_mwh(fp.energy_j):8.3f} {cap:>9} "
            f"{save_pct:7.2f} {rec.expected_slowdown_pct:6.2f}"
        )
    if len(rows) > args.top:
        print(f"... and {len(rows) - args.top} more jobs")
    return 0


def _open_run(args, *, shuffle=False, resume=None):
    """The scheduler log, telemetry source, campaign MWh and engine.

    ``--from-file`` with ``--sacct`` reads recorded telemetry; anything
    else streams a simulated fleet, whose MWh columns default to the
    paper's campaign total.  ``shuffle`` delivers the source out of
    order.  With a
    ``resume`` checkpoint the engine is reloaded from it and the source
    skips the chunks that engine already ingested; otherwise the
    returned engine is ``None``.
    """
    from . import constants
    from .errors import TelemetryError
    from .stream import file_source, load_checkpoint, perturb, simulated_fleet

    if args.from_file is not None:
        if args.sacct is None:
            raise TelemetryError(
                "--from-file needs --sacct for the scheduler log"
            )
        from .scheduler.sacct import read_sacct

        log = read_sacct(args.sacct)
        source = file_source(args.from_file)
        campaign_mwh = args.campaign_energy_mwh
    else:
        log, source = simulated_fleet(
            fleet_nodes=args.nodes, days=args.days, seed=args.seed
        )
        campaign_mwh = (
            args.campaign_energy_mwh
            if args.campaign_energy_mwh is not None
            else constants.CAMPAIGN_GPU_ENERGY_MWH
        )
    if shuffle:
        source = perturb(
            source,
            seed=args.seed,
            lateness_s=args.lateness_s,
            dup_fraction=args.dup_fraction,
        )
    engine = None
    if resume is not None:
        import itertools

        engine = load_checkpoint(resume, log)
        source = itertools.islice(source, engine.chunks_in, None)
    return log, source, campaign_mwh, engine


def _build_health(args):
    """A HealthMonitor from the --rules and --drift-ref flags."""
    from .obs.health import DriftReference, HealthMonitor, load_rules

    rules = load_rules(args.rules) if args.rules else None
    drift = args.drift_ref != "off"
    if not drift:
        reference = None
    elif args.drift_ref == "paper":
        reference = DriftReference.paper()
    else:
        reference = DriftReference.from_file(args.drift_ref)
    return HealthMonitor(rules, reference=reference, drift=drift)


def _store_dir(path):
    """The directory a --history-dir/--log-dir value persists to."""
    return None if path in (None, "", "-") else path


def _open_stores(args, *, in_memory=False, resume=False):
    """The History and EventLog sinks a run asked for, or ``None``.

    A sink exists when its --history-dir/--log-dir flag is given, or
    always with ``in_memory``; '-' keeps it in memory.  A resumed run
    reopens both stores, any other run creates them — so an existing
    store is never appended to by accident.
    """
    from .obs.history import History, HistoryStore
    from .obs.log import EventLog, LogStore

    history = eventlog = None
    if in_memory or args.history_dir is not None:
        path = _store_dir(args.history_dir)
        history = (
            History(store=HistoryStore.open(path))
            if resume and path else History(dir=path)
        )
    if in_memory or args.log_dir is not None:
        path = _store_dir(args.log_dir)
        store = None
        if path:
            store = LogStore.open(path) if resume else LogStore(path)
        eventlog = EventLog(store=store)
    return history, eventlog


def _finalize_stores(history, eventlog) -> None:
    """Flush the stores of a run that stopped without draining."""
    for sink in (history, eventlog):
        if sink is not None:
            sink.finalize()


def _write_health_state(monitor, obs_dir) -> None:
    """Persist the final health/alert state for ``repro obs alerts``."""
    import json
    from pathlib import Path

    from .durable import write_text_durably

    obs_dir = Path(obs_dir)
    obs_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "health": monitor.to_health_dict(),
        "alerts": monitor.to_alerts_dict(),
    }
    path = obs_dir / "health.json"
    write_text_durably(path, json.dumps(payload, indent=2) + "\n")
    print(f"health state written to {path}")


def _report_sinks(args, command, monitor, forensics, history, eventlog,
                  *, packed=False) -> None:
    """End-of-run sink summaries, plus the --obs/--obs-dir artifacts.

    ``repro stream`` opens each summary with a blank line, lists the
    SLO budgets and writes each artifact after its summary; ``repro
    serve`` (``packed``) prints the summaries back to back and writes
    the artifacts last.
    """
    gap = "" if packed else "\n"
    obs_dir = (args.obs_dir or "obs") if (args.obs or args.obs_dir) else None
    artifacts = []

    def artifact(write):
        if obs_dir is None:
            return
        if packed:
            artifacts.append(write)
        else:
            write()

    def write_incidents():
        from .obs.forensics import write_forensics_artifacts

        paths = write_forensics_artifacts(
            obs_dir, forensics, command=command, monitor=monitor,
            registry=monitor.registry if monitor is not None else None,
        )
        print(f"incidents written to {paths['incidents'][0]}")

    if monitor is not None:
        doc = monitor.to_health_dict()
        print(
            f"{gap}health: {doc['status']} ({doc['firing']} firing / "
            f"{len(doc['rules'])} rules, {doc['evaluations']} evaluations)"
        )
        artifact(lambda: _write_health_state(monitor, obs_dir))
    if forensics is not None:
        summary = forensics.summary()
        print(
            f"{gap}incidents: {summary['incidents_open']} open / "
            f"{summary['incidents_total']} total "
            f"({summary['findings_total']} findings over "
            f"{summary['windows_recorded']} windows)"
        )
        if summary["incidents_total"]:
            print(forensics.timeline())
        artifact(write_incidents)
    if history is not None:
        summary = history.summary()
        print(
            f"{gap}history: {summary['windows_recorded']} windows "
            f"recorded, {summary['slo_transitions']} SLO transitions"
        )
        for row in summary["slos"] if not packed else ():
            print(
                f"  {row['name']:<16} budget "
                f"{100 * row['budget_remaining']:6.2f}% left  "
                f"burn {row['burn_fast']:.2f} (5m/1h) / "
                f"{row['burn_slow']:.2f} (6h/3d)"
            )
        if history.events():
            print(history.timeline())
        path = _store_dir(args.history_dir)
        if path and packed:
            print(f"history store written to {path}")
        elif path:
            print(
                f"history store written to {path} "
                f"({history.store.total_bytes():,} column bytes; "
                f"query with 'repro obs query --dir {path}')"
            )
    if eventlog is not None:
        summary = eventlog.summary()
        print(
            f"\nevents: {summary['events_total']} emitted "
            f"({summary['suppressed_total']} suppressed, "
            f"{summary['evicted_total']} evicted from the ring)"
        )
        path = _store_dir(args.log_dir)
        if path:
            store = summary["store"]
            print(
                f"event log written to {path} "
                f"({store['records']} records in {store['segments']} "
                f"segment(s); query with 'repro obs logs --dir {path}')"
            )
    for write in artifacts:
        write()


def _campaign(args) -> int:
    """``repro campaign``: the sharded campaign fold."""
    from . import constants
    from .stream.shard import ShardConfig, run_sharded_campaign

    cfg = ShardConfig(
        window_s=args.window_s,
        lateness_s=args.lateness_s,
        unit_nodes=args.unit_nodes,
        checkpoint_every=args.checkpoint_every,
        shuffle_s=args.shuffle_s,
        dup_fraction=args.dup_fraction,
    )
    result = run_sharded_campaign(
        fleet_nodes=args.nodes,
        days=args.days,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        cfg=cfg,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_units_per_shard=args.max_units,
    )
    campaign_mwh = (
        args.campaign_energy_mwh
        if args.campaign_energy_mwh is not None
        else constants.CAMPAIGN_GPU_ENERGY_MWH
    )
    snap = result.snapshot(
        max_slowdown_pct=args.max_slowdown, campaign_energy_mwh=campaign_mwh,
    )
    state = (
        "complete"
        if result.complete
        else f"partial, {result.units_done}/{result.n_units} units"
    )
    print(f"===== sharded campaign ({state}) =====")
    print(
        f"{result.shards} shards of {result.unit_nodes}-node fold "
        f"units ({result.n_units} units, {result.workers} workers): "
        f"{result.stats.samples_folded:,} samples folded in "
        f"{result.wall_s:.1f} s "
        f"({result.samples_per_s / 1e6:.2f}M GPU-samples/s)"
    )
    if not result.complete and args.checkpoint_dir is not None:
        print(
            f"rerun with --resume to continue from {args.checkpoint_dir}"
        )
    print(snap.render())
    return 0


def _stream(args) -> int:
    if args.dup_fraction and not args.shuffle:
        print("--dup-fraction needs --shuffle", file=sys.stderr)
        return 1

    from . import constants
    from .stream import StreamEngine, save_checkpoint

    log, source, campaign_mwh, engine = _open_run(
        args, shuffle=args.shuffle, resume=args.resume
    )
    if engine is None:
        engine = StreamEngine(
            log,
            interval_s=constants.TELEMETRY_INTERVAL_S,
            window_s=args.window_s,
            lateness_s=args.lateness_s,
        )

    monitor = server = dashboard = None
    # A drift-reference file asks for the drift check as --rules asks
    # for the rules: either builds the monitor, reading (and so
    # validating) its file before the run starts.
    if (
        args.watch
        or args.serve is not None
        or args.rules is not None
        or args.drift_ref not in ("paper", "off")
    ):
        monitor = _build_health(args)
        if args.watch:
            from .obs.health import Dashboard

            dashboard = Dashboard()
    # The window sinks ride along whenever someone is watching or
    # artifacts were requested; none of them changes the fold itself.
    # Stores persist when --history-dir/--log-dir name a directory and
    # stay in memory for the --watch panes.
    forensics = None
    if args.watch or args.obs or args.obs_dir:
        from .obs.forensics import Forensics

        reference = (
            monitor.drift.reference
            if monitor is not None and monitor.drift is not None
            else None
        )
        forensics = Forensics(reference=reference, log=log)
    history, eventlog = _open_stores(
        args, in_memory=args.watch, resume=args.resume is not None
    )
    engine.attach(
        health=monitor, forensics=forensics, history=history,
        event_log=eventlog,
    )
    if args.serve is not None:
        from .obs.health import HealthServer

        server = HealthServer(monitor=monitor, port=args.serve).start()
        print(f"health exporter on {server.url} (/metrics /health /alerts)")
    # --watch refreshes at the snapshot cadence; plain snapshots stay
    # opt-in via --snapshot-every as before.
    watch_every = args.snapshot_every or 20

    try:
        for i, chunk in enumerate(source):
            if args.max_chunks is not None and i >= args.max_chunks:
                break
            engine.ingest(chunk)
            if dashboard is not None and (i + 1) % watch_every == 0:
                dashboard.update(
                    engine.snapshot(
                        max_slowdown_pct=args.max_slowdown,
                        campaign_energy_mwh=campaign_mwh,
                    ),
                    monitor,
                    forensics=forensics,
                    history=history,
                    eventlog=eventlog,
                )
            elif args.snapshot_every and (i + 1) % args.snapshot_every == 0:
                snap = engine.snapshot(
                    max_slowdown_pct=args.max_slowdown,
                    campaign_energy_mwh=campaign_mwh,
                )
                print(f"--- snapshot after chunk {i + 1} ---")
                print(snap.render())
                print()
        if args.max_chunks is None:
            # Completed sources drain: every buffered window seals.
            engine.drain()
        else:
            _finalize_stores(history, eventlog)

        if args.checkpoint is not None:
            save_checkpoint(engine, args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}\n")

        snap = engine.snapshot(
            max_slowdown_pct=args.max_slowdown,
            campaign_energy_mwh=campaign_mwh,
        )
        if dashboard is not None:
            dashboard.update(
                snap, monitor, forensics=forensics, history=history,
                eventlog=eventlog,
            )
        label = (
            "live (stream paused)" if args.max_chunks else "final (drained)"
        )
        print(f"===== {label} snapshot =====")
        print(snap.render())
        _report_sinks(
            args, "repro stream", monitor, forensics, history, eventlog
        )
    finally:
        if server is not None:
            server.close()
    return 0


def _serve(args) -> int:
    """``repro serve``: the closed-loop control-plane service."""
    from .serve import ControlPlane

    log, source, campaign_mwh, _ = _open_run(args)
    monitor = _build_health(args)
    history, eventlog = _open_stores(args)
    plane = ControlPlane(
        log,
        objective=args.objective,
        max_slowdown_pct=args.max_slowdown,
        campaign_energy_mwh=campaign_mwh,
        window_s=args.window_s,
        lateness_s=args.lateness_s,
        monitor=monitor,
        history=history,
        event_log=eventlog,
    )
    server = plane.serve(host=args.host, port=args.port)
    print(f"control plane serving on {server.url}")
    print(
        "endpoints: /v1/fleet/cap /v1/fleet/savings /v1/jobs "
        "/v1/incidents /v1/policy"
        + (" /v1/series /v1/query" if history is not None else "")
        + (" /v1/logs" if eventlog is not None else "")
        + " /metrics /health /alerts"
    )
    sys.stdout.flush()
    try:
        plane.run(
            source,
            max_chunks=args.max_chunks,
            drain=args.max_chunks is None,
            chunk_delay_s=args.chunk_delay_s,
        )
        if args.exit_after_drain:
            plane.request_stop()
        if not plane.stop_event.is_set():
            print(
                "ingest complete; serving until POST /v1/admin/shutdown "
                "(or Ctrl-C)"
            )
            sys.stdout.flush()
            plane.wait_until_stopped()
    except KeyboardInterrupt:
        plane.request_stop()
    finally:
        plane.close()
    # Idempotent after a drain; covers runs stopped before it.
    _finalize_stores(plane.history, plane.event_log)

    view = plane.cache.view
    stats = plane.engine.stats
    print("===== control plane shut down =====")
    print(
        f"published {view.version if view else 0} snapshots; "
        f"{stats.samples_folded:,} samples folded into "
        f"{stats.windows_folded} windows; "
        f"{len(view.jobs.active_job_ids()) if view else 0} jobs seen"
    )
    if view is not None:
        decision = view.decision
        if decision.capped:
            print(
                f"final advice [{decision.objective}]: cap at "
                f"{decision.cap:.0f} ({decision.knob}) -> "
                f"{decision.savings_pct:.2f} % saving at "
                f"{decision.runtime_increase_pct:.2f} % runtime increase"
            )
        else:
            print(
                f"final advice [{decision.objective}]: leave uncapped"
            )
    _report_sinks(
        args, "repro serve", monitor, plane.forensics, plane.history,
        plane.event_log, packed=True,
    )
    return 0


def _obs_alerts(args) -> int:
    import json
    from pathlib import Path

    from .errors import HealthError
    from .obs.health import fetch_url, render_events

    _require_one(args, args.source, "a health.json path or --url")
    if args.url is not None:
        base = args.url.rstrip("/")
        health = json.loads(fetch_url(base + "/health")[1])
        alerts = json.loads(fetch_url(base + "/alerts")[1])
        origin = base
    else:
        try:
            doc = json.loads(Path(args.source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise HealthError(
                f"cannot read health state {args.source}: {exc}"
            ) from exc
        health = doc.get("health") or {}
        alerts = doc.get("alerts") or {}
        origin = args.source
    firing = alerts.get("firing") or []
    print(
        f"alerts from {origin}: status {health.get('status', '?')}, "
        f"{len(firing)} firing"
    )
    for row in firing:
        value = row.get("value")
        shown = "-" if value is None else f"{value:g}"
        print(
            f"  ! {row['name']} [{row.get('severity', '?')}] "
            f"value={shown} — {row.get('summary', '')}"
        )
    history = (alerts.get("history") or [])[-args.history:]
    if history:
        print(render_events(history, title="recent transitions:"))
    return 1 if (args.check and firing) else 0


def _get_json(args, route: str, *params: str, flags=()) -> dict:
    """GET ``route`` from the live ``--url`` server and parse its JSON.

    ``params`` plus each of ``flags`` that was given form the query
    string; any answer but 200 raises.
    """
    import json

    from .errors import ObservabilityError
    from .obs.health import fetch_url

    params += tuple(
        f"{key}={getattr(args, key)}" for key in flags
        if getattr(args, key) is not None
    )
    url = args.url.rstrip("/") + route
    if params:
        url += "?" + "&".join(params)
    status, body = fetch_url(url)
    if status != 200:
        raise ObservabilityError(f"GET {url} -> {status}: {body.strip()}")
    return json.loads(body)


def _fetch_incidents(args) -> dict:
    """One live /v1/incidents poll, reshaped like an incidents.json."""
    import json

    from .obs.health import fetch_url

    base = args.url.rstrip("/")
    doc = _get_json(args, "/v1/incidents")
    # Per-incident recorder slices live behind /v1/incidents/{id}; fold
    # them into a "records" list so bundle slicing works identically on
    # live and file sources.
    records = {}
    for incident in doc.get("incidents") or []:
        status, body = fetch_url(
            base + "/v1/incidents/" + incident["id"]
        )
        if status != 200:
            continue
        for record in json.loads(body).get("records") or []:
            records[record["index"]] = record
    doc["records"] = [records[i] for i in sorted(records)]
    doc["command"] = f"GET {base}/v1/incidents"
    return doc


def _obs_incidents(args) -> int:
    from pathlib import Path

    from .obs.forensics import build_bundle, load_forensics, render_timeline
    from .obs.forensics.bundle import write_bundles

    _require_one(args, args.source, "--from FILE or --url")
    if args.action == "show" and args.incident is None:
        raise _UsageError("obs incidents show needs an incident id")

    if args.url is not None:
        origin = args.url.rstrip("/")
        doc = _fetch_incidents(args)
    else:
        origin = args.source
        doc = load_forensics(args.source)
    incidents = doc.get("incidents") or []
    open_ids = [i["id"] for i in incidents if i.get("status") == "open"]

    if args.action == "list":
        summary = doc.get("summary") or {}
        head = (
            f"incidents from {origin}: {len(open_ids)} open / "
            f"{len(incidents)} total"
        )
        if summary.get("windows_recorded") is not None:
            head += (
                f" ({summary['windows_recorded']} windows recorded, "
                f"{summary.get('findings_total', 0)} findings)"
            )
        print(head)
        print(render_timeline(incidents))
    elif args.action == "show":
        bundle = build_bundle(doc, args.incident)
        incident = bundle["incident"]
        print(render_timeline(
            [incident], title=f"incident {args.incident} from {origin}:"
        ))
        findings = incident.get("findings") or []
        if findings:
            print("findings:")
            for f in findings:
                print(
                    f"  window {f['window_index']:>5}  "
                    f"[{f['t_start_s']:>9,.0f} s .. "
                    f"{f['t_end_s']:>9,.0f} s] "
                    f"value={f['value']:g} (threshold {f['threshold']:g})"
                )
        records = bundle.get("records") or []
        if records:
            print(
                f"recorder slice: {len(records)} windows "
                f"({records[0]['index']}..{records[-1]['index']}), "
                f"energy {sum(r['energy_j'] for r in records):,.0f} J"
            )
    else:  # export
        written = write_bundles(
            args.out, doc, [args.incident] if args.incident else None
        )
        print(
            f"exported {len(written)} bundle(s) from {origin} to "
            f"{Path(args.out)}"
        )
        for path in written:
            print(f"  {path}")

    if args.check and open_ids:
        print(
            f"CHECK FAILED: {len(open_ids)} incident(s) still open: "
            f"{', '.join(open_ids)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _render_query_result(doc: dict) -> str:
    """Plain-text table of one /v1/query-shaped result dict."""
    lines = [
        f"{doc['series']} [{doc['agg']}] level {doc['level']} "
        f"step {doc['step_s']:g} s over "
        f"[{doc['t0_s']:,.0f}, {doc['t1_s']:,.0f}) — "
        f"{doc['rows_scanned']} rows scanned",
    ]
    for t, value in zip(doc["t_s"], doc["values"]):
        shown = "-" if value is None else f"{value:,.6g}"
        lines.append(f"  {t:>14,.0f}  {shown}")
    return "\n".join(lines)


def _obs_query(args) -> int:
    import json

    if args.check and args.store_dir is None:
        raise _UsageError("obs query --check needs --dir")
    _require_one(args, args.store_dir, "--dir DIR or --url URL")

    if args.url is not None:
        if args.series is None:
            doc = _get_json(args, "/v1/series")
            print(f"series @ {args.url.rstrip('/')} ({len(doc['series'])}):")
            for row in doc["series"]:
                print(f"  {row['name']:<28} [{row['agg']}]")
            return 0
        result = _get_json(
            args, "/v1/query", f"series={args.series}",
            flags=("t0", "t1", "step", "agg", "level"),
        )["query"]
        print(json.dumps(result) if args.json
              else _render_query_result(result))
        return 0

    from .obs.history import HistoryStore, HistoryView, verify_rollups

    store = HistoryStore.open(args.store_dir)
    try:
        if args.check:
            mismatches = verify_rollups(store)
            rollup_rows = sum(
                store.rows(level) for level in range(1, store.n_levels)
            )
            if mismatches:
                print(
                    f"CHECK FAILED: {len(mismatches)} rollup "
                    f"bucket(s) differ from their level-0 refold:",
                    file=sys.stderr,
                )
                for m in mismatches:
                    print(
                        f"  L{m['level']} bucket {m['bucket']} "
                        f"{m['series']} [{m['agg']}]: stored "
                        f"{m['stored']!r} != refold {m['refold']!r}",
                        file=sys.stderr,
                    )
                return 1
            print(
                f"rollups OK: {rollup_rows} rollup rows across "
                f"{store.n_levels - 1} level(s) refold bitwise from "
                f"{store.rows(0)} level-0 rows"
            )
            if args.series is None:
                return 0
        if args.series is None:
            print(f"series in {args.store_dir} ({len(store.columns)}):")
            for name, agg in store.columns:
                print(f"  {name:<28} [{agg}]")
            return 0
        result = HistoryView(store).query(
            args.series, t0=args.t0, t1=args.t1, step=args.step,
            agg=args.agg, level=args.level,
        )
        if result is None:
            print("history store has no rows", file=sys.stderr)
            return 1
        print(json.dumps(result.to_dict()) if args.json
              else _render_query_result(result.to_dict()))
        return 0
    finally:
        store.close()


def _obs_logs(args) -> int:
    """``repro obs logs``: query/tail/validate a structured event log."""
    import json

    if args.check and args.store_dir is None:
        raise _UsageError("obs logs --check needs --dir")
    _require_one(args, args.store_dir, "--dir DIR or --url URL")
    limit = (
        args.limit if args.limit is not None
        else (20 if args.action == "tail" else 200)
    )

    from .obs.log import render_records

    if args.url is not None:
        doc = _get_json(
            args, "/v1/logs", f"limit={limit}",
            flags=("t0", "t1", "severity", "event", "window"),
        )
        records = doc["logs"]
        if args.json:
            for rec in records:
                print(json.dumps(rec, sort_keys=True))
            return 0
        summary = doc["summary"]
        print(
            f"events @ {args.url.rstrip('/')}: {summary['emitted']} emitted "
            f"({summary['suppressed']} suppressed, "
            f"{summary['evicted']} evicted); showing {len(records)}"
        )
        if records:
            print(render_records(records))
        return 0

    from .obs.log import LogStore, select, tail

    store = LogStore.open(args.store_dir)
    try:
        if args.check:
            problems = store.check()
            if problems:
                print(
                    f"CHECK FAILED: {len(problems)} problem(s) in "
                    f"{args.store_dir}:",
                    file=sys.stderr,
                )
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            print(
                f"log store OK: {store.records_resident()} records "
                f"across {store.segment_count()} segment(s), "
                f"{store.total_bytes():,} bytes"
            )
            return 0
        records = select(
            store.iter_records(args.t0, args.t1),
            min_severity=args.severity,
            event=args.event,
            window=args.window,
            limit=None if args.action == "tail" else limit,
        )
        if args.action == "tail":
            records = tail(records, limit)
        if args.json:
            for rec in records:
                print(json.dumps(rec, sort_keys=True))
            return 0
        summary = store.summary()
        print(
            f"event log {args.store_dir}: {summary['records']} records "
            f"in {summary['segments']} segment(s); showing "
            f"{len(records)}"
        )
        if records:
            print(render_records(records))
        return 0
    finally:
        store.close()


def _obs_history(args) -> int:
    from .obs.history import HistoryStore

    store = HistoryStore.open(args.store_dir)
    try:
        if args.action == "info":
            summary = store.summary()
            print(
                f"history store {args.store_dir}: "
                f"{store.rows(0)} windows, "
                f"{store.segment_count()} segments, "
                f"{summary['bytes']:,} bytes"
            )
            for level in summary["levels"]:
                span = level["span_s"]
                shown = "-" if span is None else f"{span:g} s"
                print(
                    f"  L{level['level']}: {level['rows']:>8} rows "
                    f"(+{level['dropped_rows']} gc'd) @ {shown}"
                )
            return 0
        if args.action == "compact":
            result = store.compact()
            print(
                f"compacted {args.store_dir}: "
                f"{result['rewritten_segments']} segment(s) rewritten, "
                f"{result['removed_files']} file(s) removed"
            )
            return 0
        # gc
        if args.keep_s is None:
            raise _UsageError("obs history gc needs --keep-s")
        result = store.gc(args.keep_s)
        dropped = sum(result["dropped_rows"].values())
        print(
            f"gc'd {args.store_dir}: {dropped} row(s) dropped across "
            f"{len(result['dropped_rows'])} level(s), "
            f"{result['removed_files']} file(s) removed"
        )
        return 0
    finally:
        store.close()


def _obs_summary_url(url: str) -> int:
    from .obs.health import fetch_url
    from .obs.metrics import (
        histogram_quantile,
        parse_histograms,
        parse_prometheus_text,
    )

    base = url.rstrip("/")
    text = fetch_url(base + "/metrics")[1]
    values = parse_prometheus_text(text)
    print(f"live metrics @ {base} ({len(values)} series):")
    if values:
        width = max(len(k) for k in values)
        for key, value in sorted(values.items()):
            print(f"  {key:<{width}} {value:>14g}")
    histograms = parse_histograms(text)
    if histograms:
        print()
        print("histogram quantiles:")
        print(
            f"  {'series':<52} {'count':>8} {'p50':>10} "
            f"{'p90':>10} {'p99':>10}"
        )
        for name, series in sorted(histograms.items()):
            for key, entry in sorted(series.items()):
                labels = (
                    "{" + ",".join(f"{k}={v}" for k, v in key) + "}"
                    if key else ""
                )
                shown = f"{name}{labels}"
                quantiles = [
                    histogram_quantile(entry["buckets"], q)
                    for q in (0.5, 0.9, 0.99)
                ]
                cells = " ".join(
                    f"{q:>10.4g}" if q is not None else f"{'-':>10}"
                    for q in quantiles
                )
                print(
                    f"  {shown:<52} {entry['count']:>8g} {cells}"
                )
    return 0


def _render_exact(exact, *, top: int) -> str:
    """Plain-text table of the cProfile per-function rows."""
    lines = ["exact per-function profile (cProfile):"]
    lines.append(
        f"  {'function':<48} {'ncalls':>8} {'self s':>9} {'cum s':>9}"
    )
    for row in exact.function_table(top=top):
        lines.append(
            f"  {row['function']:<48.48} {row['ncalls']:>8} "
            f"{row['self_s']:>9.4f} {row['cum_s']:>9.4f}"
        )
    return "\n".join(lines)


def _obs_profile(args) -> int:
    from .obs import runtime as obs_runtime
    from .obs.profiling import (
        DEFAULT_BUDGET_PATH,
        ExactProfiler,
        check_budget,
        load_budget,
        render_attribution,
        render_hot_stacks,
        render_memory_sites,
        write_profile_artifacts,
    )

    config = ExperimentConfig(
        fleet_nodes=args.nodes, days=args.days, seed=args.seed,
    )
    command = (
        f"repro obs profile {args.experiment} --nodes {args.nodes} "
        f"--days {args.days:g} --seed {args.seed}"
    )
    exact = ExactProfiler() if args.exact else None
    obs_runtime.start_profiling(
        interval_s=args.interval_ms / 1000.0, memory=args.memory,
    )
    try:
        if exact is not None:
            exact.start()
        try:
            result = run(args.experiment, config)
        finally:
            if exact is not None:
                exact.stop()
        profiler = obs_runtime.stop_profiling()
        spans = obs_runtime.state().tracer.finished
        paths = write_profile_artifacts(
            args.out, spans=spans, profiler=profiler, command=command,
        )
        print(f"===== profile: {args.experiment} ({result.title}) =====")
        print(render_attribution(spans, top=args.top))
        if profiler.samples:
            print()
            print("hottest sampled stacks:")
            print(render_hot_stacks(profiler.samples))
        if profiler.memory_sites:
            print()
            print("top allocation sites (tracemalloc):")
            print(render_memory_sites(profiler.memory_sites))
        if exact is not None:
            print()
            print(_render_exact(exact, top=args.top))
        print()
        print(f"collapsed stacks : {paths['collapsed']}")
        print(f"chrome trace     : {paths['chrome_trace']}")
        print(f"span timings     : {paths['timings']}")
        if args.check or args.budget is not None:
            budget = load_budget(args.budget or DEFAULT_BUDGET_PATH)
            verdict = check_budget(spans, budget)
            print()
            print(verdict.render())
            if args.check and not verdict.ok:
                return 1
        return 0
    finally:
        obs_runtime.disable()


def _obs_summary(args) -> int:
    from .obs import manifest as obs_manifest

    if args.url is not None:
        return _obs_summary_url(args.url)
    if args.manifest is None:
        raise _UsageError("obs summary needs a manifest path or --url")
    doc = obs_manifest.load_manifest(args.manifest)
    print(obs_manifest.summarize_manifest(doc, top=args.top))
    return 0


def _obs_diff(args) -> int:
    from .obs import manifest as obs_manifest

    diff = obs_manifest.diff_manifests(
        obs_manifest.load_manifest(args.a),
        obs_manifest.load_manifest(args.b),
        timing_tolerance_pct=args.timing_tolerance,
    )
    print(diff.render())
    return 0 if diff.clean else 1


_OBS_COMMANDS = {
    "alerts": _obs_alerts,
    "diff": _obs_diff,
    "history": _obs_history,
    "incidents": _obs_incidents,
    "logs": _obs_logs,
    "profile": _obs_profile,
    "query": _obs_query,
    "summary": _obs_summary,
}

#: The run commands sharing ``main``'s observability wrapper: each
#: one's handler, the flags its manifest records as ``config``, and the
#: flags naming files it lists as outputs.
_RUN_COMMANDS = {
    "campaign": (_campaign, (
        "nodes", "days", "seed", "shards", "workers", "unit_nodes",
        "window_s", "lateness_s", "shuffle_s", "dup_fraction",
    ), ()),
    "stream": (_stream, (
        "nodes", "days", "seed", "window_s", "lateness_s", "shuffle",
        "dup_fraction",
    ), ("checkpoint",)),
    "serve": (_serve, (
        "nodes", "days", "seed", "window_s", "lateness_s", "objective",
        "max_slowdown",
    ), ()),
}


def _run_command(args) -> int:
    """Run one ``_RUN_COMMANDS`` entry; with --obs, write its manifest."""
    from .obs import runtime as obs_runtime

    handler, config_keys, output_keys = _RUN_COMMANDS[args.command]
    outputs = [getattr(args, key) for key in output_keys]
    if args.obs:
        obs_runtime.enable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        return handler(args)
    except (ReproError, OSError) as exc:
        print(f"{args.command} FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.obs and obs_runtime.enabled():
            _finish_obs(
                f"repro {args.command}",
                {key: getattr(args, key) for key in config_keys},
                [path for path in outputs if path],
                args.obs_dir or "obs",
                wall0, cpu0,
            )
            obs_runtime.disable()


def _finish_obs(command: str, config: dict, outputs, obs_dir,
                wall0: float, cpu0: float) -> None:
    """Write manifest.json + metrics.prom and print the run summary."""
    from .obs import manifest as obs_manifest

    paths = obs_manifest.write_run_artifacts(
        obs_dir,
        command=command,
        config=config,
        outputs=outputs,
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.process_time() - cpu0,
    )
    doc = obs_manifest.load_manifest(paths["manifest"])
    print(f"===== observability ({paths['manifest']}) =====")
    print(obs_manifest.summarize_manifest(doc))


def _finish_profile(command: str, profile_dir) -> None:
    """Stop the profiler, write its artifacts, print the hot spans."""
    from .obs import runtime as obs_runtime
    from .obs.profiling import (
        render_attribution,
        render_memory_sites,
        write_profile_artifacts,
    )

    profiler = obs_runtime.stop_profiling()
    st = obs_runtime.state()
    if profiler is None or st is None:
        return
    spans = st.tracer.finished
    paths = write_profile_artifacts(
        profile_dir, spans=spans, profiler=profiler, command=command,
    )
    print(f"===== profile ({profile_dir}) =====")
    print(render_attribution(spans))
    if profiler.memory_sites:
        print()
        print("top allocation sites (tracemalloc):")
        print(render_memory_sites(profiler.memory_sites))
    print()
    print(f"collapsed stacks : {paths['collapsed']}")
    print(f"chrome trace     : {paths['chrome_trace']}")
    print(f"span timings     : {paths['timings']}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for exp_id in EXPERIMENT_IDS:
            print(exp_id)
        return 0

    if args.command == "obs":
        try:
            return _OBS_COMMANDS[args.obs_command](args)
        except _UsageError as exc:
            print(exc, file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"obs FAILED: {exc}", file=sys.stderr)
            return 1

    if args.command == "advise":
        try:
            return _advise(args)
        except (ReproError, OSError) as exc:
            print(f"advise FAILED: {exc}", file=sys.stderr)
            return 1

    if args.command in _RUN_COMMANDS:
        return _run_command(args)

    if args.command == "report":
        from .experiments.bundle import write_report

        config = ExperimentConfig(
            fleet_nodes=args.nodes,
            days=args.days,
            seed=args.seed,
            graph_scale=args.graph_scale,
        )
        try:
            path = write_report(
                args.out, config,
                include_extensions=not args.no_extensions,
            )
        except ReproError as exc:
            print(f"report FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {path}")
        return 0

    config = ExperimentConfig(
        fleet_nodes=args.nodes,
        days=args.days,
        seed=args.seed,
        graph_scale=args.graph_scale,
        out_dir=args.out,
    )
    targets = (
        list(EXPERIMENT_IDS)
        if args.experiment == "all"
        else [args.experiment]
    )
    from .obs import runtime as obs_runtime

    if args.obs:
        obs_runtime.enable()
    if args.profile:
        # Implies observability: samples are tagged with tracer spans.
        obs_runtime.start_profiling()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    status = 0
    outputs = []
    for exp_id in targets:
        t0 = time.time()
        try:
            result = run(exp_id, config)
        except ReproError as exc:
            print(f"[{exp_id}] FAILED: {exc}", file=sys.stderr)
            status = 1
            continue
        elapsed = time.time() - t0
        if args.out:
            outputs.append(f"{args.out}/{exp_id}.txt")
        if getattr(args, "csv", False) and args.out:
            from .experiments.export import export_csv

            export_csv(result, args.out)
        print(f"===== {exp_id}: {result.title} ({elapsed:.1f} s) =====")
        print(result.text)
        print()
    if args.profile and obs_runtime.enabled():
        _finish_profile(
            f"repro run {args.experiment}",
            args.profile_dir or args.out or "profile-artifacts",
        )
    if args.obs and obs_runtime.enabled():
        _finish_obs(
            f"repro run {args.experiment}",
            {
                "fleet_nodes": args.nodes, "days": args.days,
                "seed": args.seed, "graph_scale": args.graph_scale,
                "out_dir": args.out,
            },
            outputs,
            args.obs_dir or args.out or "obs",
            wall0, cpu0,
        )
    if (args.obs or args.profile) and obs_runtime.enabled():
        obs_runtime.disable()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
