"""Structured event-log pillar: correlated, durable, queryable.

Completes the metrics/traces/logs observability triad.  The pieces:

* :class:`EventLog` — process-safe bounded ring with severity levels,
  event-time token-bucket rate limiting, deterministic sampling, and
  correlation enrichment (trace/span ids, window index, shard unit,
  cap decision version, incident id).
* :class:`LogStore` — JSONL segment rotation with a manifested
  retention/GC scheme riding the ``obs.history`` segment idioms;
  reopen-resume is bitwise-equal to one continuous run.
* :func:`select` / :func:`render_records` — the pure query engine
  behind ``/v1/logs`` and ``repro obs logs``.

Attach an :class:`EventLog` to a stream engine with
``engine.attach(event_log=log)`` — the last of its window sinks, after
forensics and history, each fed the one record the engine builds per
sealed window — or pass one to the control plane as
``ControlPlane(..., event_log=log)``.
"""

from .events import (
    DEFAULT_RATE_LIMITS,
    SEVERITIES,
    SEVERITY_CODE,
    EventLog,
    LogView,
    TokenBucket,
)
from .query import render_record, render_records, select, tail
from .store import DEFAULT_SEGMENT_RECORDS, LogStore

__all__ = [
    "DEFAULT_RATE_LIMITS",
    "DEFAULT_SEGMENT_RECORDS",
    "SEVERITIES",
    "SEVERITY_CODE",
    "EventLog",
    "LogStore",
    "LogView",
    "TokenBucket",
    "render_record",
    "render_records",
    "select",
    "tail",
]
