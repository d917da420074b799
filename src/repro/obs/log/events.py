"""Process-safe structured event log with correlation enrichment.

The :class:`EventLog` is the third pillar of the observability triad:
a bounded ring of schema'd event records that every layer of the system
emits into — window seals, cap decisions, policy mutations, alert
transitions, incident lifecycles.  Records are plain
dicts (JSON- and pickle-ready) carrying correlation ids that join the
log back to the other pillars: ``trace_id``/``span_id`` from the active
:class:`~repro.obs.trace.Tracer` span, ``window`` for the event-time
window index, ``cap_version`` for the published decision in force, and
``incident`` for forensic bundles.

Determinism contract
--------------------
Every record gets a global ``seq`` (emission order) and a per-event
occurrence id ``{event}:{n}``.  Window-correlated events (window seals,
detector findings, incident open/resolve) occur once per window in fold
order, so their ids — and therefore the log slice a forensic bundle
embeds — are invariant under rerun and re-chunking.
Cadence-driven events (snapshot publishes, requests) are not, which is
why bundle slices select only records carrying a ``window`` id.

Rate limiting and sampling are event-time driven and clock-free: the
token bucket refills from the ``t_s`` carried by each emission, and the
deterministic sampler hashes the per-event occurrence number, so two
identical runs keep and drop exactly the same records.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from typing import List, Optional, Tuple

from ...errors import LogError
from .. import runtime as _runtime
from .store import LogStore

#: Severity names, least to most severe.
SEVERITIES = ("debug", "info", "warning", "error", "critical")
#: Name -> numeric code (higher = more severe).
SEVERITY_CODE = {name: code * 10 + 10 for code, name in enumerate(SEVERITIES)}

#: Default per-event token buckets ``{event: (rate_per_s, burst)}`` for
#: the spiky emitters; one line per event-time minute with small bursts.
DEFAULT_RATE_LIMITS = {
    "stream.late_drop": (1.0 / 60.0, 5.0),
    "stream.duplicates": (1.0 / 60.0, 5.0),
    "serve.request": (1.0, 20.0),
}

#: Correlation-id keyword arguments accepted by :meth:`EventLog.emit`,
#: stored under the same key when not ``None``.
_CORRELATION_KEYS = ("trace_id", "span_id", "window", "node", "job",
                     "shard", "unit", "incident", "cap_version")


class TokenBucket:
    """Event-time token bucket: clock-free, deterministic, per-key.

    Refills ``rate`` tokens per *event-time* second from the ``t_s``
    stamped on each emission, capped at ``burst``.  Out-of-order event
    times never drain the bucket backwards: elapsed time below zero
    counts as zero.
    """

    __slots__ = ("rate", "burst", "tokens", "t_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst < 1:
            raise LogError("token bucket needs rate > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.t_last: Optional[float] = None

    def allow(self, t_s: float) -> bool:
        if self.t_last is not None:
            elapsed = t_s - self.t_last
            if elapsed > 0.0:
                self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
                self.t_last = t_s
        else:
            self.t_last = t_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class LogView:
    """Frozen read handle over the ring at publish time.

    Served ``/v1/logs`` responses are built from the view a
    :class:`~repro.serve.cache.ServeView` captured at refresh, so the
    bytes a route returns stay stable until the next publish even while
    the live log keeps emitting.
    """

    __slots__ = ("records", "emitted", "suppressed", "sampled_out",
                 "evicted")

    def __init__(self, records: Tuple[dict, ...], *, emitted: int,
                 suppressed: int, sampled_out: int, evicted: int) -> None:
        self.records = records
        self.emitted = emitted
        self.suppressed = suppressed
        self.sampled_out = sampled_out
        self.evicted = evicted


class EventLog:
    """Bounded, rate-limited, correlation-enriched event ring.

    Thread-safe: one lock serializes emission, so request handlers,
    the ingest loop, and the refresh thread can all emit concurrently.
    Attach to a :class:`~repro.stream.engine.StreamEngine` via
    ``engine.attach(event_log=log)`` — the facade then emits window-seal
    and late-drop/duplicate-spike events from each sealed window's
    record and contributes ``log_*`` metric values.  An optional
    :class:`LogStore` persists every kept record to rotated JSONL
    segments.
    """

    def __init__(self, *, capacity: int = 4096, level: str = "debug",
                 store: Optional[LogStore] = None,
                 rate_limits: Optional[dict] = None,
                 sample: Optional[dict] = None,
                 enabled: bool = True) -> None:
        if level not in SEVERITY_CODE:
            raise LogError(
                f"unknown severity {level!r}; choose from {SEVERITIES}"
            )
        if capacity < 1:
            raise LogError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.level = level
        self.level_code = SEVERITY_CODE[level]
        self.store = store
        self.enabled = enabled
        limits = DEFAULT_RATE_LIMITS if rate_limits is None else rate_limits
        self._limits = {k: (float(r), float(b)) for k, (r, b) in limits.items()}
        self._sample = {k: int(n) for k, n in (sample or {}).items()}
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        # A reopened store continues its seq order.
        self._seq = store.next_seq() if store is not None else 0
        self._attempts: dict = {}      # event -> emission attempts (ids)
        self._buckets: dict = {}       # event -> TokenBucket
        self._pending_suppressed: dict = {}
        self.emitted = 0
        self.suppressed = 0
        self.sampled_out = 0
        self.evicted = 0
        self.filtered = 0

    # -- emission -----------------------------------------------------

    def emit(self, severity: str, event: str, msg: str = "", *,
             t_s: float = 0.0, trace_id=None, span_id=None, window=None,
             node=None, job=None, shard=None, unit=None, incident=None,
             cap_version=None, **fields) -> Optional[dict]:
        """Emit one record; returns it, or ``None`` when dropped.

        Drops happen for four reasons, each counted separately:
        disabled log, severity below ``level`` (``filtered``),
        deterministic sampling (``sampled_out``), and token-bucket rate
        limiting (``suppressed``).  The first record accepted after a
        suppression run carries a ``suppressed`` count so readers can
        see the gap.
        """
        if not self.enabled:
            return None
        sev = SEVERITY_CODE.get(severity)
        if sev is None:
            raise LogError(
                f"unknown severity {severity!r}; choose from {SEVERITIES}"
            )
        with self._lock:
            if sev < self.level_code:
                self.filtered += 1
                return None
            attempt = self._attempts.get(event, 0) + 1
            self._attempts[event] = attempt
            keep_1_in = self._sample.get(event)
            if keep_1_in is not None and keep_1_in > 1:
                if zlib.crc32(f"{event}:{attempt}".encode()) % keep_1_in:
                    self.sampled_out += 1
                    return None
            limit = self._limits.get(event)
            if limit is not None:
                bucket = self._buckets.get(event)
                if bucket is None:
                    bucket = self._buckets[event] = TokenBucket(*limit)
                if not bucket.allow(t_s):
                    self.suppressed += 1
                    self._pending_suppressed[event] = (
                        self._pending_suppressed.get(event, 0) + 1
                    )
                    return None
            if trace_id is None and span_id is None:
                st = _runtime._STATE
                if st is not None:
                    span_id = st.tracer.active_span_id
                    trace_id = st.tracer.trace_id
            record = {
                "seq": self._seq,
                "id": f"{event}:{attempt}",
                "t_s": float(t_s),
                "severity": severity,
                "event": event,
                "msg": msg,
            }
            for key, value in (
                ("trace_id", trace_id), ("span_id", span_id),
                ("window", window), ("node", node), ("job", job),
                ("shard", shard), ("unit", unit), ("incident", incident),
                ("cap_version", cap_version),
            ):
                if value is not None:
                    record[key] = value
            if fields:
                record["fields"] = fields
            pending = self._pending_suppressed.pop(event, 0)
            if pending:
                record["suppressed"] = pending
            self._append(record)
            return record

    def _append(self, record: dict) -> None:
        self._seq += 1
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(record)
        self.emitted += 1
        if self.store is not None:
            self.store.append(record)

    # -- engine facade ------------------------------------------------

    def observe_window(self, window, record) -> None:
        """Per sealed window: a seal event plus late/duplicate spikes.

        Everything is read from the engine's ``record`` of the window:
        its fold index, the decision in force and the ingest deltas.
        """
        index, t_end = record.index, record.t_end_s
        self.emit(
            "info", "stream.window_seal",
            f"window {index} sealed ({record.samples} samples)",
            t_s=t_end, window=index, cap_version=record.published_version,
            samples=record.samples,
            **({} if record.cap is None else {"cap_w": float(record.cap)}),
        )
        late, dup = record.late_dropped_delta, record.duplicates_delta
        if late > 0:
            self.emit("warning", "stream.late_drop",
                      f"{late} late samples dropped", t_s=t_end,
                      window=index, dropped=int(late))
        if dup > 0:
            self.emit("warning", "stream.duplicates",
                      f"{dup} duplicate samples discarded", t_s=t_end,
                      window=index, duplicates=int(dup))

    def alert_transition(self, event: dict) -> None:
        """AlertEngine transition listener -> one log record."""
        severity = "critical" if event.get("severity") == "page" else "warning"
        if event.get("transition") == "resolved":
            severity = "info"
        self.emit(
            severity, "alert.transition",
            f"{event.get('rule')} {event.get('transition')}",
            t_s=float(event.get("t_s", 0.0)),
            rule=event.get("rule"),
            transition=event.get("transition"),
            value=event.get("value"),
        )

    def metric_values(self) -> dict:
        values = {
            "log_events_total": float(self.emitted),
            "log_suppressed_total": float(self.suppressed),
            "log_sampled_out_total": float(self.sampled_out),
            "log_evicted_total": float(self.evicted),
        }
        if self.store is not None:
            values.update(self.store.metric_values())
        return values

    def finalize(self) -> None:
        """Flush the attached store (drain-time hook)."""
        if self.store is not None:
            self.store.sync()

    # -- reading ------------------------------------------------------

    def records(self) -> List[dict]:
        """Snapshot of the resident ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def reader_view(self) -> LogView:
        """Freeze the current ring for byte-stable serving."""
        with self._lock:
            return LogView(
                tuple(self._ring),
                emitted=self.emitted,
                suppressed=self.suppressed,
                sampled_out=self.sampled_out,
                evicted=self.evicted,
            )

    def summary(self) -> dict:
        with self._lock:
            doc = {
                "events_total": self.emitted,
                "resident": len(self._ring),
                "capacity": self.capacity,
                "level": self.level,
                "suppressed_total": self.suppressed,
                "sampled_out_total": self.sampled_out,
                "evicted_total": self.evicted,
                "filtered_total": self.filtered,
            }
        if self.store is not None:
            doc["store"] = self.store.summary()
        return doc
