"""The two streaming workloads.

stream-generated — the ``repro stream`` default path: ``simulated_fleet``
(16 nodes x 0.5 day, time-major ``replay_generator``) into a bare
``StreamEngine``, drained, then one snapshot.  Set-up is the scheduler
simulation, the factors and the engine; the source renders telemetry
inside the timed region, which is where its cost belongs.

stream-sinks — telemetry for 16 nodes x 1 day rendered in set-up
(``generate()``), delivered through ``perturb`` (lateness 4 ticks, 1 %
duplicates) in one-slab chunks into a ``ControlPlane`` wired like
``repro serve --history-dir D --log-dir D``: health monitor, forensics,
disk-backed ``History`` and ``EventLog``.  The run drains and writes a
checkpoint.  The window sinks, publication, the reorder buffer's dedup
and late paths and the persistence writes do the work.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter

import common
from common import Metric, Outcome

WINDOW_S = 600.0            # the repro stream / serve default window
LATENESS_S = 120.0          # ... and allowed lateness
CHUNK_TICKS = 20            # one live arrival slab
#: Fleet size.
GENERATED = dict(nodes=16, days=0.5)
SINKS = dict(nodes=16, days=1.0)
PERTURB_LATENESS_TICKS = 4
DUP_FRACTION = 0.01


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    common.use_source_tree()
    # Import every layer up front: a first import inside the timed set-up
    # would be counted as set-up time.
    import repro.obs.health  # noqa: F401
    import repro.obs.history.query  # noqa: F401
    import repro.obs.log  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.stream  # noqa: F401

    return Stream(workload, seed).measure(seconds, trace)


class Stream:
    """One streaming workload: set-up, a timed repetition, its checks."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro import constants

        self.workload = workload
        self.seed = seed
        self.sinks = workload == "stream-sinks"
        self.size = SINKS if self.sinks else GENERATED
        self.interval_s = constants.TELEMETRY_INTERVAL_S
        self.campaign_mwh = constants.CAMPAIGN_GPU_ENERGY_MWH
        self.tracer = None
        self.counts = Counter()
        #: One list of window-sealing chunk latencies per repetition.
        self.setups, self.times, self.latencies_ms = [], [], []
        self.wall_clock = []
        self.speed = common.HostSpeed()
        self.rows, self.checks, self.layer_counts = [], [], Counter()
        self.peak_resident = 0

    # -- one repetition ----------------------------------------------------------------

    def _setup(self, scratch, seed: int):
        from repro import units
        from repro.core import characterization
        from repro.scheduler import SlurmSimulator, default_mix
        from repro.stream import StreamEngine, perturb, simulated_fleet
        from repro.telemetry import FleetTelemetryGenerator

        nodes, days = self.size["nodes"], self.size["days"]
        factors = characterization.measured_factors("frequency")
        if not self.sinks:
            log, source = simulated_fleet(
                fleet_nodes=nodes, days=days, seed=seed,
                chunk_ticks=CHUNK_TICKS,
            )
            engine = StreamEngine(
                log, interval_s=self.interval_s, window_s=WINDOW_S,
                lateness_s=LATENESS_S,
            )
            return dict(log=log, source=source, engine=engine,
                        factors=factors)

        from repro.obs.health import DriftReference, HealthMonitor
        from repro.obs.history import History
        from repro.obs.log import EventLog, LogStore
        from repro.serve import ControlPlane

        mix = default_mix(fleet_nodes=nodes)
        log = SlurmSimulator(mix).run(units.days(days), rng=seed)
        store = FleetTelemetryGenerator(
            log, mix, seed=seed + 1000
        ).generate()
        chunks = list(perturb(
            store,
            seed=seed,
            lateness_s=PERTURB_LATENESS_TICKS * self.interval_s,
            dup_fraction=DUP_FRACTION,
            rows_per_chunk=nodes * CHUNK_TICKS,
        ))
        monitor = HealthMonitor(
            None, reference=DriftReference.paper(), drift=True
        )
        history = History(dir=scratch / "history")
        eventlog = EventLog(store=LogStore(scratch / "logs"))
        plane = ControlPlane(
            log,
            factors=factors,
            campaign_energy_mwh=self.campaign_mwh,
            window_s=WINDOW_S,
            lateness_s=LATENESS_S,
            monitor=monitor,
            history=history,
            event_log=eventlog,
        )
        return dict(log=log, store=store, source=chunks, plane=plane,
                    engine=plane.engine, history=history, eventlog=eventlog,
                    checkpoint=scratch / "checkpoint.npz",
                    injected=int(round(DUP_FRACTION * len(store))))

    def _timed(self, s) -> list:
        """Source to complete result; returns the delivered chunks."""
        import repro.stream.checkpoint as checkpoint

        tracer = self.tracer
        source = (
            tracer.iterate(s["source"], "sources.next") if tracer
            else iter(s["source"])
        )
        delivered = []
        consume = s["plane"].ingest if self.sinks else s["engine"].ingest
        lat = []
        self.latencies_ms.append(lat)
        while True:
            t0 = common.clock()
            chunk = next(source, None)
            if chunk is None:
                break
            if consume(chunk):
                lat.append(1e3 * (common.clock() - t0))
            delivered.append(chunk)
        if self.sinks:
            s["plane"].drain()
            checkpoint.save_checkpoint(s["engine"], s["checkpoint"])
        else:
            s["engine"].drain()
            s["snapshot"] = s["engine"].snapshot(
                factors=s["factors"], campaign_energy_mwh=self.campaign_mwh,
            )
        return delivered

    def _check(self, s, delivered) -> None:
        from repro.core import join_campaign
        from repro.obs.history.query import verify_rollups
        from repro.obs.log import LogStore
        from repro.stream import canonical_windows

        engine = s["engine"]
        stats = engine.stats
        rows = s["store"] if self.sinks else delivered
        want = join_campaign(
            canonical_windows(rows, window_s=WINDOW_S), s["log"]
        )
        bad = common.cube_mismatches(engine.cube(), want)
        checks = [(
            "drained cube == join_campaign(canonical_windows(rows))",
            not bad, ", ".join(bad) or "bitwise equal",
        )]
        if self.sinks:
            checks += [
                (
                    "duplicates dropped == duplicates injected",
                    stats.duplicates == s["injected"],
                    common.fmt_ratio(stats.duplicates, s["injected"]),
                ),
                (
                    "no late drops (injected lateness < allowed)",
                    stats.late_dropped == 0,
                    f"{stats.late_dropped} dropped of 0 injected beyond "
                    f"{LATENESS_S:g} s",
                ),
            ]
            # The store as a later reader finds it: closed, then reopened.
            s["eventlog"].store.close()
            problems = LogStore.open(s["eventlog"].store.dir).check()
            checks.append((
                "LogStore.check() clean (closed, reopened)", not problems,
                "; ".join(problems[:3]) or "no problems",
            ))
            mismatches = verify_rollups(s["history"].store)
            checks.append((
                "history rollups == refold of level 0", not mismatches,
                f"{len(mismatches)} mismatching buckets",
            ))
            view = s["plane"].cache.view
            checks.append((
                "final view covers every folded window",
                view.snap.stats.windows_folded == stats.windows_folded,
                f"view v{view.version}: {view.snap.stats.windows_folded} / "
                f"{stats.windows_folded} windows",
            ))
        elif s["snapshot"].table5 is None:
            checks.append(("snapshot has Table V", False, "none"))
        self.checks.append(checks)

    def _count(self, s, delivered) -> None:
        """Per-layer counters read off the finished repetition."""
        stats = s["engine"].stats
        c = self.layer_counts
        c["sources.rows_delivered"] += sum(len(ch) for ch in delivered)
        c["buffer.duplicates"] += stats.duplicates
        c["buffer.late_dropped"] += stats.late_dropped
        self.peak_resident = max(self.peak_resident,
                                 stats.peak_resident_samples)
        if self.sinks:
            plane = s["plane"]
            c["buffer.duplicates_injected"] += s["injected"]
            c["forensics.incidents"] += len(
                plane.forensics.incidents.incidents
            )
            c["history.bytes_written"] += s["history"].store.total_bytes()
            c["log.records"] += s["eventlog"].emitted
            c["log.bytes_written"] += s["eventlog"].store.total_bytes()
            c["checkpoint.bytes"] += s["checkpoint"].stat().st_size
            c["serve.views_published"] += plane.cache.version

    def rep(self, i: int) -> None:
        tracer = self.tracer
        self.speed.sample()
        with common.Scratch() as scratch:
            t0 = common.clock()
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                s = self._setup(scratch, common.rep_seed(self.seed, i))
            self.setups.append(common.clock() - t0)
            t0, w0 = common.clock(), time.perf_counter()
            with tracer.span("run") if tracer else contextlib.nullcontext():
                delivered = self._timed(s)
            self.times.append(common.clock() - t0)
            self.wall_clock.append(time.perf_counter() - w0)
            self.rows.append(s["engine"].stats.samples_folded)
            with tracer.paused() if tracer else contextlib.nullcontext():
                self._check(s, delivered)
            self._count(s, delivered)
            if self.sinks:
                s["history"].store.close()

    # -- the run ----------------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> Outcome:
        untraced = None
        if trace:
            from layers import install
            from tracing import Tracer

            self.tracer = Tracer()
            install(self.tracer, self.counts)
        try:
            common.repeat(seconds, self.rep)
        finally:
            if self.tracer:
                self.tracer.restore()
        if trace:
            # One more repetition, untraced, prices the tracing itself.
            tracer, self.tracer = self.tracer, None
            kept = len(self.latencies_ms), dict(self.layer_counts)
            self.rep(len(self.times) - 1)   # the last traced one's input
            untraced = self.times.pop()
            self.setups.pop(), self.rows.pop(), self.wall_clock.pop()
            del self.latencies_ms[kept[0]:]
            self.layer_counts = Counter(kept[1])
            self.tracer = tracer
        return self._outcome(untraced)

    def _outcome(self, untraced) -> Outcome:
        reps = len(self.times)
        attempted = len(self.checks)        # the untraced extra one too
        failed = sum(
            not all(ok for _, ok, _ in checks) for checks in self.checks
        )
        # Report each distinct (check, verdict) once.
        seen, checks = set(), []
        for rep_checks in self.checks:
            for name, ok, detail in rep_checks:
                if (name, ok) not in seen:
                    seen.add((name, ok))
                    checks.append((name, ok, detail))
        what = (
            "publish latency (chunk handed to ControlPlane.ingest -> "
            "new view published)"
            if self.sinks
            else "chunk latency (asked of the source -> windows folded)"
        )
        # Every time in reference-host seconds (see common.HostSpeed).
        scale = self.speed.scale
        lat = [scale * ms for rep in self.latencies_ms for ms in rep]
        # The tail of each repetition, then their median: a spell of load
        # on the host lengthens a few repetitions' tails, not the run's.
        tails = [
            scale * common.percentile(rep, 90) for rep in self.latencies_ms
        ]
        fewest = min(len(rep) for rep in self.latencies_ms)
        metrics = {
            common.SETUP_S: Metric(
                scale * common.median(self.setups),
                f"median of {len(self.setups)} set-ups",
            ),
            common.THROUGHPUT: Metric(
                self.rows[0] / (scale * common.median(self.times)),
                f"{self.rows[0]} rows reached the fold per repetition / "
                f"median time of {reps} repetitions (rows/s)",
            ),
            common.LATENCY_P50: Metric(
                common.median(lat),
                f"{what}, median of {len(lat)} window-sealing chunks",
            ),
            common.LATENCY_TAIL: Metric(
                common.median(tails),
                f"{what}, p90 of each repetition's chunks (at least "
                f"{fewest - math.ceil(0.9 * fewest)} beyond it), median of "
                f"{len(tails)} repetitions",
            ),
            common.PEAK_RSS: Metric(
                common.peak_rss_mb(), "peak RSS of the worker process"
            ),
        }
        out = Outcome(
            workload=self.workload, metrics=metrics, attempted=attempted,
            failed=failed, checks=checks,
            notes=[
                self.speed.note(),
                common.clock_note(self.times, self.wall_clock),
            ],
        )
        if untraced is not None:
            self._trace_report(out, untraced)
        return out

    def _trace_report(self, out, untraced) -> None:
        from layers import layer_metrics, per_call_notes, per_repetition
        from tracing import layer_rows, render_table

        reps = len(self.times)
        layers = layer_metrics(self.tracer, self.counts, root="run")
        layers.update(self.layer_counts)
        layers["buffer.peak_resident_samples"] = float(self.peak_resident)
        if layers["sources.rows_delivered"]:
            layers["sources.render_ratio"] = (
                layers["telemetry.rows_rendered"]
                / layers["sources.rows_delivered"]
            )
        if layers["buffer.duplicates_injected"]:
            layers["buffer.duplicate_ratio"] = (
                layers["buffer.duplicates"]
                / layers["buffer.duplicates_injected"]
            )
        traced = self.times[-1]
        layers["trace.overhead_s"] = reps * (traced - untraced)
        out.layers = per_repetition(layers, reps)
        wall, rows, unattributed = layer_rows(self.tracer.spans, "run")
        out.table = render_table(
            f"layer table: {reps} traced repetitions (seconds summed)",
            wall, rows, unattributed,
        )
        out.notes.append(
            f"tracing overhead: {traced:.4f} s traced vs {untraced:.4f} s "
            "untraced, one repetition each on the same input"
        )
        out.notes.extend(per_call_notes(self.tracer))
        out.notes.append(
            "ratios: sources.render_ratio = "
            + common.fmt_ratio(layers["telemetry.rows_rendered"],
                               layers["sources.rows_delivered"])
            + " (rows rendered / rows delivered)"
        )
        if self.sinks:
            out.notes.append(
                "ratios: buffer.duplicate_ratio = "
                + common.fmt_ratio(layers["buffer.duplicates"],
                                   layers["buffer.duplicates_injected"])
                + " (dropped / injected); late dropped "
                f"{layers['buffer.late_dropped']:g} of 0 injected"
            )
            hot = "serve.refresh"
        else:
            hot = "sources.next"
        out.notes.append(
            f"hot spot: {hot} = {100.0 * layers[hot + '_share']:.1f} % of "
            "the traced wall"
        )
