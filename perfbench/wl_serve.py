"""serve-poll: reads beside writes on the control plane.

A server process builds the ``repro serve`` default plane (health
monitor + forensics) over telemetry for 24 nodes x 1 day rendered in
set-up, and warms it on the first half of the day; it builds six,
from six schedules drawn from the seed.  Each step then
forks a copy of that warmed process, which serves HTTP while it ingests
hours 12 to 15 of the day at a fixed wall-clock pace (open-loop
writes).  Every step therefore starts from the same state and replays
the same ingest segment, however far refresh cost grows along it.

The load generator (``loadgen.py``) runs in this, separate, process and
offers the poller mix open loop at the reference rate over two
keep-alive connections.  Each step's report says whether it met the
live p99 limit; a traced run adds one step offered more than the server
can answer, whose answer rate is the sustainable rate.

Run as a script (``wl_serve.py --server SEED TRACE``) it is the server
process; it speaks one JSON object per line on stdin/stdout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from common import Metric, Outcome  # noqa: E402

FLEET_NODES = 24
DAYS = 1.0
CHUNK_TICKS = 20
WINDOW_S = 600.0
LATENESS_S = 120.0
#: Planes built per run, each from its own schedule (``rep_seed``);
#: steps take turns on them, and set-up time is the builds' median.
SETUPS = 6
#: Wall time over which each step replays hours 12-15 of the day.  The
#: writer is then busy for about a sixth of a step, which keeps the
#: median request clear of refresh stalls.
STEP_S = 3.0
#: Offered rate of the latency figures (req/s).
REFERENCE_RPS = 500.0
#: p99 limit of a passing step: ``LIVE_P99_LIMIT_MS`` of bench_serve.py.
P99_LIMIT_MS = 50.0
#: A step keeps up when it completes this share of the offered rate.
KEEP_UP = 0.98
#: Offered rate of the capacity step: above what the server can answer.
OVERLOAD_RPS = 8000.0


# -- the server process ---------------------------------------------------------------


def _send(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _recv() -> dict:
    line = sys.stdin.readline()
    if not line:
        raise EOFError("orchestrator closed the pipe")
    return json.loads(line)


def _build(seed: int):
    """One warmed plane plus the ingest segment every step replays."""
    from repro import constants, units
    from repro.core import characterization
    from repro.obs.health import DriftReference, HealthMonitor
    from repro.scheduler import SlurmSimulator, default_mix
    from repro.serve import ControlPlane
    from repro.stream import replay_store
    from repro.telemetry import FleetTelemetryGenerator

    mix = default_mix(fleet_nodes=FLEET_NODES)
    log = SlurmSimulator(mix).run(units.days(DAYS), rng=seed)
    store = FleetTelemetryGenerator(log, mix, seed=seed + 1000).generate()
    chunks = list(replay_store(store, chunk_ticks=CHUNK_TICKS))
    plane = ControlPlane(
        log,
        factors=characterization.measured_factors("frequency"),
        campaign_energy_mwh=constants.CAMPAIGN_GPU_ENERGY_MWH,
        window_s=WINDOW_S,
        lateness_s=LATENESS_S,
        monitor=HealthMonitor(
            None, reference=DriftReference.paper(), drift=True
        ),
    )
    half, eighth = len(chunks) // 2, len(chunks) // 8
    for chunk in chunks[:half]:
        plane.ingest(chunk)
    return plane, chunks[half:half + eighth]


def _step(plane, segment, cmd, tracer, counts) -> None:
    """Body of one forked step: serve while replaying the segment."""
    traced = bool(cmd["trace"])
    if tracer is not None:
        if traced:
            tracer.spans.clear()
            counts.clear()
        else:
            tracer.restore()
            tracer = None
    version0 = plane.cache.version
    server = plane.serve(port=0)
    _send({"port": server.port})
    t0 = _recv()["t0"]
    pace = STEP_S / len(segment)
    publish_ms, lag_ms, busy = [], 0.0, 0.0
    root = tracer.span("serve.step") if tracer else contextlib.nullcontext()
    with root:
        for i, chunk in enumerate(segment):
            due = t0 + i * pace
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
            start = time.monotonic()
            folded = plane.ingest(chunk)
            end = time.monotonic()
            busy += end - start
            lag_ms = max(lag_ms, 1e3 * (start - due))
            if folded:
                publish_ms.append(1e3 * (end - start))
    _recv()  # the load generator is done
    plane.close()
    doc = {
        "views_published": plane.cache.version - version0,
        "publish_ms": publish_ms,
        "writer_busy_s": busy,
        "writer_lag_ms": lag_ms,
        "rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = dict(counts)
        doc["incidents"] = len(plane.forensics.incidents.incidents)
    _send(doc)


def server_main(seed: int, trace: bool) -> None:
    common.use_source_tree()
    import repro.obs.health  # noqa: F401  (imports stay out of set-up time)
    import repro.serve  # noqa: F401
    import repro.stream  # noqa: F401

    tracer = counts = None
    if trace:
        from layers import install
        from tracing import Tracer

        tracer, counts = Tracer(), Counter()
        install(tracer, counts)
    setups, planes = [], []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            planes.append(_build(common.rep_seed(seed, i)))
        setups.append(time.perf_counter() - t0)
    _send({
        "setup_s": setups,
        "rss_mb": common.peak_rss_mb(),
        "setup_spans": tracer.spans if tracer else [],
        "setup_counts": dict(counts) if counts else {},
    })
    while True:
        try:
            cmd = _recv()
        except EOFError:
            return
        if cmd["cmd"] == "quit":
            return
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                _step(*planes[cmd["plane"]], cmd, tracer, counts)
            except BaseException:  # report, then leave the fork quietly
                _send({"error": traceback.format_exc()})
                code = 1
            finally:
                sys.stdout.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        _send({"exit": os.waitstatus_to_exitcode(status)})


# -- the orchestrator / load-generator process ----------------------------------------


class Server:
    """The server process, driven over its stdin/stdout."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--server",
             str(seed), str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Give the server and the load generator a processor each, so
        # neither migrates onto the other's (its step forks inherit it).
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            os.sched_setaffinity(self.proc.pid, {cpus[1]})

    def send(self, doc) -> None:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process ended (exit {self.proc.wait()})"
            )
        doc = json.loads(line)
        if "error" in doc:
            raise RuntimeError("server step failed:\n" + doc["error"])
        return doc

    def step(self, plane: int, rate: float, mix_seed: int, *,
             trace: bool = False, cut_off: bool = False):
        import loadgen

        self.send({"cmd": "step", "plane": plane, "trace": trace})
        port = self.recv()["port"]
        t0 = time.monotonic() + 0.25
        self.send({"cmd": "go", "t0": t0})
        result = loadgen.run_step(
            "127.0.0.1", port, rate=rate, duration_s=STEP_S, seed=mix_seed,
            t0=t0, cut_off=cut_off,
        )
        self.send({"cmd": "stop"})
        stats = self.recv()
        code = self.recv()["exit"]
        if code != 0:
            raise RuntimeError(f"server step exited {code}")
        return result, stats

    def close(self) -> None:
        """Stop the server and wait for it.

        Closing its stdin ends it even mid-step: a step fork reads EOF
        where it waits for the orchestrator and exits, then the server
        does the same.
        """
        if self.proc.poll() is None:
            try:
                self.send({"cmd": "quit"})
            except OSError:
                pass
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Step:
    """The verdict on one offered rate, pooled over its repeated steps."""

    def __init__(self, runs) -> None:
        self.runs = list(runs)                  # [(StepResult, stats)]
        self.rate = self.runs[0][0].rate
        lat = [x for r, _ in self.runs for x in r.latencies_ms]
        self.n = len(lat)
        self.p50 = common.percentile(lat, 50) if lat else math.inf
        self.p99 = common.percentile(lat, 99) if lat else math.inf
        self.achieved = common.median([r.achieved_rps for r, _ in self.runs])
        self.failed = sum(r.failed for r, _ in self.runs)
        self.keeps_up = self.achieved >= KEEP_UP * self.rate
        self.ok = (
            self.failed == 0 and self.keeps_up and self.p99 <= P99_LIMIT_MS
        )

    def line(self, label: str) -> str:
        late = [x for r, _ in self.runs for x in r.late_ms]
        views = min(s["views_published"] for _, s in self.runs)
        return (
            f"  {label:<9} offered {self.rate:8.1f}  achieved "
            f"{self.achieved:8.1f}  p50 {self.p50:8.2f} ms  p99 "
            f"{self.p99:8.2f} ms  late p99 "
            f"{common.percentile(late, 99):6.2f} ms  views {views:3d}  "
            f"x{len(self.runs)}  {'PASS' if self.ok else 'FAIL'}"
        )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """``seconds`` of reference steps; figures are medians over steps.

    The median keeps one step disturbed by the host from moving a
    figure.  A traced run first makes one untraced reference step, which
    prices the tracing, and one untraced overload step, which gives the
    sustainable rate.
    """
    steps = max(2, round(seconds / STEP_S))
    refs = []
    untraced = overload = None
    server = Server(seed, trace)
    try:
        ready = server.recv()
        # Step k replays plane k % SETUPS with a request sequence of its
        # own: with one sequence for all, where its slow routes fall
        # against the refresh stalls would be the same in every step.
        mixes = [common.rep_seed(seed, k) for k in range(steps)]
        if trace:
            untraced = Step([server.step(0, REFERENCE_RPS, mixes[0])])
            # Offered more than the server can answer: its answers per
            # second while the ingest runs are the sustainable rate, the
            # service rate behind a backlog that grows all step long.
            # Requests still unsent when the step ends are abandoned.
            overload = Step(
                [server.step(0, OVERLOAD_RPS, mixes[0], cut_off=True)]
            )
            steps = max(2, steps - 2)
        for k in range(steps):
            refs.append(Step([server.step(
                k % SETUPS, REFERENCE_RPS, mixes[k], trace=trace,
            )]))
    finally:
        server.close()
    return _outcome(workload, ready, refs, overload, untraced)


def _outcome(workload, ready, refs, overload, untraced):
    reference = Step([run for step in refs for run in step.runs])
    extra = [overload] if overload else []
    runs = [run for step in refs + extra for run in step.runs]
    attempted = sum(r.attempted for r, _ in runs)
    failed = sum(r.failed for r, _ in runs)
    rss = max([ready["rss_mb"]] + [s["rss_mb"] for _, s in runs])
    capacity = Metric(
        common.median([s.achieved for s in refs]),
        f"answered req/s while {REFERENCE_RPS:g} req/s were offered, "
        f"median of {len(refs)} steps",
    )
    n = reference.n
    metrics = {
        common.SETUP_S: Metric(
            common.median(ready["setup_s"]),
            f"median of {len(ready['setup_s'])} plane builds "
            "(scheduler, render, plane, warm-up on half a day)",
        ),
        common.THROUGHPUT: capacity,
        # Pooled over every step: the tail is set by the longest of the
        # steps' refresh stalls, and one step holds too few of them.
        common.LATENCY_P50: Metric(
            reference.p50,
            f"request latency from its due time at {REFERENCE_RPS:g} "
            f"req/s, median of {n} over {len(refs)} steps",
        ),
        common.LATENCY_TAIL: Metric(
            reference.p99,
            f"request latency from its due time, p99 of {n} "
            f"({n - math.ceil(0.99 * n)} beyond it)",
        ),
        common.PEAK_RSS: Metric(rss, "peak RSS of the server process"),
    }
    views = min(s["views_published"] for _, s in runs)
    checks = [
        (
            "every request answered 200 with a JSON body",
            failed == 0,
            f"{failed} failed / {attempted} attempted",
        ),
        (
            "views published during every step", views > 0,
            f"min {views} per step",
        ),
    ]
    out = Outcome(
        workload=workload, metrics=metrics, attempted=attempted,
        failed=failed, checks=checks,
    )
    out.notes.append(
        f"rate steps ({STEP_S:g} s each, hours 12-15 of the day "
        "re-ingested from a warmed plane, the planes in turn; PASS = p99 <= "
        f"{P99_LIMIT_MS:g} ms with >= {KEEP_UP:.0%} of the offered rate "
        "answered):"
    )
    out.notes.extend(step.line("reference") for step in refs)
    out.notes.extend(step.line("overload") for step in extra)
    publish = [x for _, s in reference.runs for x in s["publish_ms"]]
    lag = max(s["writer_lag_ms"] for _, s in reference.runs)
    out.notes.append(
        f"publish latency at the reference rate: p50 "
        f"{common.percentile(publish, 50):.2f} ms, p90 "
        f"{common.percentile(publish, 90):.2f} ms of {len(publish)}; "
        f"writer lag max {lag:.1f} ms"
    )
    if untraced is not None:
        _trace_report(out, ready, reference, untraced)
        out.notes.append(
            f"sustainable rate: {overload.achieved:.1f} req/s answered "
            f"while {overload.rate:g} req/s were offered (backlog growing "
            "throughout)"
        )
    return out


def _trace_report(out, ready, reference, untraced) -> None:
    from layers import layer_metrics, per_call_notes, per_repetition
    from tracing import Tracer, layer_rows, render_table

    tracer = Tracer()
    # Of set-up's counters only telemetry's belong to the report: the
    # rest counted the warm-up, not a step.
    counts = Counter({
        name: n for name, n in ready["setup_counts"].items()
        if name.startswith("telemetry.")
    })
    tracer.spans = [tuple(s) for s in ready["setup_spans"]]
    # Each step is a fork of the same process, so span ids repeat from
    # step to step: shift each step's ids into a range of its own.
    for k, (_, stats) in enumerate(reference.runs, start=1):
        shift = k << 40
        tracer.spans.extend(
            (sid + shift, parent + shift if parent else 0, *rest)
            for sid, parent, *rest in stats["spans"]
        )
        counts.update(stats["counts"])
    reps = len(reference.runs)
    layers = layer_metrics(tracer, counts, root="serve.step")
    layers["serve.views_published"] = sum(
        s["views_published"] for _, s in reference.runs
    )
    layers["forensics.incidents"] = sum(
        s["incidents"] for _, s in reference.runs
    )
    # The untraced step replayed plane 0, like the first traced one.
    busy = reference.runs[0][1]["writer_busy_s"]
    untraced_busy = untraced.runs[0][1]["writer_busy_s"]
    layers["trace.overhead_s"] = reps * (busy - untraced_busy)
    layers = per_repetition(layers, reps)
    # Set-up ran SETUPS times per run, not once per step.
    for name in ("scheduler.simulate_s", "characterization.factors_s",
                 "telemetry.render_s", "telemetry.node_chunk_calls",
                 "telemetry.rows_rendered"):
        layers[name] = layers[name] * reps / len(ready["setup_s"])
    out.layers = layers
    wall, rows, unattributed = layer_rows(tracer.spans, "serve.step")
    out.table = render_table(
        f"layer table: ingest thread of {reps} traced steps "
        "(unattributed = pacing idle)",
        wall, rows, unattributed,
    )
    wall, rows, unattributed = layer_rows(tracer.spans, "serve.http_request")
    out.table += "\n" + render_table(
        "HTTP handler threads (busy beside the ingest thread; "
        "unattributed = request parsing and framing)",
        wall, rows, unattributed,
    )
    out.notes.append(
        f"tracing overhead: writer busy {busy:.4f} s traced vs "
        f"{untraced_busy:.4f} s untraced, one step each on the same plane"
    )
    out.notes.extend(per_call_notes(tracer))
    out.notes.append(
        "ratios: serve.body_hit_ratio = "
        + common.fmt_ratio(counts["serve.body_hits"],
                           counts["serve.body_calls"])
        + " (memoized / all ServeView.body calls)"
    )


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--server":
        server_main(int(sys.argv[2]), bool(int(sys.argv[3])))
    else:
        sys.exit("usage: wl_serve.py --server SEED TRACE")
