"""Versioned read-through snapshot cache for the control plane.

Serving thousands of concurrent pollers must not contend with ingest.
The contract here:

* Ingest publishes an immutable :class:`ServeView` — a frozen copy of
  everything the API answers from (the fold frame, ingest and per-job
  stats, policy, cap decisions) — by **atomic reference swap** into
  :class:`SnapshotCache`.  Readers grab the reference once per request
  and never see a half-updated state: torn reads are impossible by
  construction, not by locking.  Tables V/VI and the fleet advice
  (:attr:`ServeView.snap`) are derived from the frozen frame on a
  view's first read.
* Responses are **read-through cached as serialized bytes** on the
  view: the first request for a route renders JSON (sorted keys,
  deterministic float repr) and every later request for the same route
  and view returns the identical byte string.  A publish pre-renders
  only the routes a request read on the previous view, so pollers find
  their bodies ready (the steady-state request path is one attribute
  read and one dict lookup — the sub-millisecond budget in
  ``benchmarks/bench_serve.py``) and a view nobody reads renders
  nothing.
* Version numbers increase by one per publish; a response's ``version``
  field tells a poller whether anything changed since its last poll.

Bitwise stability per sealed window is asserted in ``tests/serve/``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Dict, Optional, Set, Tuple

from ..errors import HistoryError, LogError
from ..obs.httpd import parse_query
from ..obs.log.query import select as select_logs
from ..stream.engine import FoldFrame, IngestStats, StreamSnapshot
from .analytics import JobStats
from .http import ROUTES
from .jobs import JobStateIndex
from .objectives import OBJECTIVES, CapDecision, decide_cap


class _NotFound(Exception):
    """A builder's 404: the route exists, what it names does not."""


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: non-finite sentinels become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def render_body(doc: dict) -> bytes:
    """The canonical serialization: sorted keys, newline-terminated."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class ServeView:
    """One immutable published state of the control plane.

    Everything a request might read hangs off this object; nothing on
    it mutates after construction except the internal body cache, which
    only ever gains entries whose content is a pure function of the
    frozen state.
    """

    def __init__(
        self,
        *,
        version: int,
        policy: dict,
        frame: FoldFrame,
        stats: IngestStats,
        jobs: JobStats,
        index: JobStateIndex,
        factors,
        decision: CapDecision,
        policy_version: int = 1,
        published_wall_s: Optional[float] = None,
        incidents=None,
        history=None,
        logs=None,
    ) -> None:
        self.version = version
        self.policy = dict(policy)
        #: The fold state published (cube + Table IV) and the ingest
        #: stats at publish; :attr:`snap` derives Tables V/VI from them.
        self.frame = frame
        self.stats = stats
        self.jobs = jobs
        self.index = index
        self.factors = factors
        self.decision = decision
        self.policy_version = policy_version
        self._snap: Optional[StreamSnapshot] = None
        #: Frozen flight-recorder read handle
        #: (:class:`~repro.obs.forensics.ForensicsView`): the incident
        #: documents, summary and resident records at publish time.
        #: ``None`` when the plane runs without a flight recorder.
        self.incidents = incidents
        #: Frozen history read handle
        #: (:class:`~repro.obs.history.HistoryView`): the store plus
        #: the per-level row counts at publish time, so ``/v1/query``
        #: answers stay byte-stable however far ingest advances after
        #: this view was published.  ``None`` without a history store.
        self.history = history
        #: Frozen event-log read handle
        #: (:class:`~repro.obs.log.events.LogView`): the ring snapshot
        #: at publish time, so ``/v1/logs`` answers stay byte-stable
        #: while the live log keeps emitting.  ``None`` without a log.
        self.logs = logs
        self.published_wall_s = (
            published_wall_s if published_wall_s is not None else time.time()
        )
        self.sealed_until_s = stats.sealed_until_s
        self.watermark_s = stats.watermark_s
        self._bodies: Dict[str, Tuple[int, bytes]] = {}
        #: Memoized routes a request has read (the next publish
        #: pre-renders exactly these); grows only under the lock.
        self._read: Set[str] = set()
        self._render_lock = threading.Lock()

    @property
    def snap(self) -> StreamSnapshot:
        """Live Tables IV/V/VI + fleet advice of this view's fold state.

        Computed on first read, once per view (a view nobody reads
        never projects), under the render lock; equal to
        :meth:`StreamEngine.snapshot` at the same fold state and policy.
        """
        snap = self._snap
        if snap is None:
            with self._render_lock:
                snap = self._snap
                if snap is None:
                    snap = self._snap = self.frame.snapshot(
                        self.stats,
                        factors=self.factors,
                        campaign_energy_mwh=self.policy[
                            "campaign_energy_mwh"
                        ],
                        max_slowdown_pct=self.policy["max_slowdown_pct"],
                    )
        return snap

    # -- request path -------------------------------------------------------------

    def body(self, route: str) -> Tuple[int, bytes]:
        """(status, bytes) for one canonical route key, memoized.

        A memoized route is marked read, so the next publish pre-renders
        it.
        """
        hit = self._bodies.get(route)
        if hit is None:
            return self._render(route, read=True)
        if route not in self._read:
            with self._render_lock:
                self._read.add(route)
        return hit

    def _render(self, route: str, *, read: bool) -> Tuple[int, bytes]:
        status, doc = self._build(route)
        payload = render_body(doc)
        if status != 200 or len(self._bodies) >= 8192:
            # Only successful bodies are memoized (404 routes are
            # request-controlled and would grow the cache without
            # bound); the size guard caps worst-case memory per view.
            return status, payload
        with self._render_lock:
            hit = self._bodies.setdefault(route, (status, payload))
            if read:
                self._read.add(route)
        return hit

    def read_routes(self) -> Tuple[str, ...]:
        """The memoized routes requests have read so far."""
        with self._render_lock:
            return tuple(self._read)

    def prerender(self, routes) -> "ServeView":
        """Render ``routes`` ahead of any request (not marked as read)."""
        for route in routes:
            self._render(route, read=False)
        return self

    # -- document builders: ``(params, *path args) -> (status, doc)`` ------------

    def _build(self, key: str) -> Tuple[int, dict]:
        """(status, document) for one canonical key, from :data:`ROUTES`."""
        match = ROUTES.match("GET", "/v1/" + key)
        build = match.route.build
        if build is None:
            return 404, {"error": f"no endpoint /v1/{key}"}
        try:
            return getattr(self, build)(parse_query(match.query), *match.args)
        except _NotFound as exc:
            return 404, {"error": str(exc)}

    def _job_id(self, text: str) -> int:
        try:
            job_id = int(text)
        except ValueError:
            raise _NotFound(f"bad job id {text!r}") from None
        if self.index.get(job_id) is None:
            raise _NotFound(f"no job {job_id}")
        return job_id

    def _head(self) -> dict:
        stats = self.stats
        return {
            "version": self.version,
            "sealed_until_s": _finite(self.sealed_until_s),
            "watermark_s": _finite(self.watermark_s),
            "windows_folded": stats.windows_folded,
            "samples_folded": stats.samples_folded,
        }

    def _advisor_dict(self) -> Optional[dict]:
        rec = self.snap.recommendation
        if rec is None:
            return None
        return {
            "knob": rec.knob,
            "cap": rec.cap,
            "expected_saving_mwh": rec.expected_saving_mwh,
            "savings_pct": rec.savings_pct,
            "runtime_increase_pct": rec.runtime_increase_pct,
        }

    def _fleet_cap_doc(self, params) -> Tuple[int, dict]:
        doc = self._head()
        doc["policy"] = self.policy
        doc["decision"] = self.decision.to_dict()
        # The stream-layer Table V advisor, for parity with `repro
        # stream` output (identical under the slowdown objective).
        doc["advisor"] = self._advisor_dict()
        return 200, doc

    def _fleet_savings_doc(self, params) -> Tuple[int, dict]:
        cube = self.frame.cube
        doc = self._head()
        doc["policy"] = self.policy
        doc["energy"] = {
            "total_j": cube.total_energy_j,
            "by_region_j": [float(x) for x in cube.region_energy_j()],
            "gpu_hours": cube.total_gpu_hours,
        }
        doc["decision"] = self.decision.to_dict()
        doc["advisor"] = self._advisor_dict()
        return 200, doc

    def _policy_doc(self, params) -> Tuple[int, dict]:
        doc = self._head()
        doc["policy"] = self.policy
        doc["policy_version"] = self.policy_version
        doc["objectives"] = {
            name: obj.description for name, obj in sorted(OBJECTIVES.items())
        }
        return 200, doc

    def _job_row(self, job_id: int) -> dict:
        meta = self.index.meta(job_id)
        row = meta.to_dict()
        row["energy_j"] = self.jobs.job_energy_j(job_id)
        row["gpu_hours"] = float(self.jobs.gpu_hours[job_id].sum())
        row["samples"] = int(self.jobs.samples[job_id])
        return row

    def _jobs_doc(self, params) -> Tuple[int, dict]:
        try:
            limit = max(0, int(params["limit"]))
        except (KeyError, ValueError):
            limit = None
        ids = self.jobs.active_job_ids()
        ids = [j for j in ids if self.index.get(j) is not None]
        ids.sort(key=lambda j: (-self.jobs.job_energy_j(j), j))
        doc = self._head()
        doc["count"] = len(ids)
        if limit is not None:
            ids = ids[:limit]
        doc["jobs"] = [self._job_row(j) for j in ids]
        return 200, doc

    def _job_decision(self, job_id: int) -> CapDecision:
        return decide_cap(
            self.jobs.energy_j[job_id],
            self.factors,
            objective=self.policy["objective"],
            max_slowdown_pct=self.policy["max_slowdown_pct"],
        )

    def _job_doc(self, params, job: str) -> Tuple[int, dict]:
        job_id = self._job_id(job)
        doc = self._head()
        doc["job"] = self._job_row(job_id)
        doc["job"]["by_region_j"] = [
            float(x) for x in self.jobs.energy_j[job_id]
        ]
        doc["job"]["first_seen_s"] = _finite(self.jobs.first_seen_s[job_id])
        doc["job"]["last_seen_s"] = _finite(self.jobs.last_seen_s[job_id])
        doc["decision"] = self._job_decision(job_id).to_dict()
        return 200, doc

    def _job_cap_doc(self, params, job: str) -> Tuple[int, dict]:
        job_id = self._job_id(job)
        doc = self._head()
        doc["job_id"] = job_id
        doc["policy"] = self.policy
        doc["decision"] = self._job_decision(job_id).to_dict()
        return 200, doc

    def _forensics(self):
        if self.incidents is None:
            raise _NotFound("forensics disabled (no flight recorder)")
        return self.incidents

    def _history(self):
        if self.history is None:
            raise _NotFound("history disabled (no history store)")
        return self.history

    def _incidents_doc(self, params) -> Tuple[int, dict]:
        frozen = self._forensics().doc
        doc = self._head()
        for key in ("summary", "open", "total", "incidents"):
            doc[key] = frozen[key]
        return 200, doc

    def _incident_doc(self, params, incident_id: str) -> Tuple[int, dict]:
        forensics = self._forensics()
        for incident in forensics.doc["incidents"]:
            if incident["id"] == incident_id:
                doc = self._head()
                doc["incident"] = incident
                doc["records"] = forensics.incident_records(incident)
                return 200, doc
        return 404, {"error": f"no incident {incident_id}"}

    def _series_doc(self, params) -> Tuple[int, dict]:
        history = self._history()
        doc = self._head()
        doc.update(history.series_doc())
        return 200, doc

    def _query_doc(self, params) -> Tuple[int, dict]:
        """Answer ``/v1/query?series=...`` from the frozen history view.

        Time-range and step parameters default from the view's frozen
        span (:meth:`~repro.obs.history.HistoryView.query`), so the
        rendered body is a pure function of the canonical route key
        plus the view — cacheable like every other route.
        """
        history = self._history()
        series = params.get("series")
        if not series:
            return 400, {"error": "query requires series=<name>"}
        try:
            bounds = {
                key: float(params[key])
                for key in ("t0", "t1", "step") if key in params
            }
            level = (
                int(params["level"]) if "level" in params else None
            )
        except ValueError as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        try:
            result = history.query(
                series, agg=params.get("agg"), level=level, **bounds
            )
        except HistoryError as exc:
            return 400, {"error": str(exc)}
        if result is None:
            return 404, {"error": "no history rows yet"}
        doc = self._head()
        doc["query"] = result.to_dict()
        return 200, doc

    def _logs_doc(self, params) -> Tuple[int, dict]:
        """Answer ``/v1/logs`` from the frozen log view.

        Filters ride :func:`repro.obs.log.query.select`, a pure
        function of the frozen record tuple, so rendered bodies are
        cacheable like every other route.  ``limit`` keeps the newest
        matches and defaults to 200.
        """
        logs = self.logs
        if logs is None:
            raise _NotFound("logging disabled (no event log)")
        try:
            t0 = float(params["t0"]) if "t0" in params else None
            t1 = float(params["t1"]) if "t1" in params else None
            window = (
                int(params["window"]) if "window" in params else None
            )
            limit = max(0, int(params.get("limit", 200)))
        except ValueError as exc:
            return 400, {"error": f"bad logs parameter: {exc}"}
        try:
            records = select_logs(
                logs.records,
                t0=t0, t1=t1,
                min_severity=params.get("severity"),
                event=params.get("event"),
                window=window, limit=limit,
            )
        except LogError as exc:
            return 400, {"error": str(exc)}
        doc = self._head()
        doc["summary"] = {
            "emitted": logs.emitted,
            "suppressed": logs.suppressed,
            "sampled_out": logs.sampled_out,
            "evicted": logs.evicted,
            "resident": len(logs.records),
        }
        doc["count"] = len(records)
        doc["logs"] = records
        return 200, doc

    def _job_savings_doc(self, params, job: str) -> Tuple[int, dict]:
        job_id = self._job_id(job)
        decision = self._job_decision(job_id)
        fleet_j = self.frame.cube.total_energy_j
        doc = self._head()
        doc["job_id"] = job_id
        doc["energy_j"] = decision.baseline_energy_j
        doc["saving_j"] = decision.saving_j
        doc["savings_pct"] = decision.savings_pct
        doc["runtime_increase_pct"] = decision.runtime_increase_pct
        doc["fleet_share_pct"] = (
            100.0 * decision.baseline_energy_j / fleet_j
            if fleet_j > 0 else 0.0
        )
        return 200, doc


class SnapshotCache:
    """Atomic publish/read of the current :class:`ServeView`."""

    def __init__(self) -> None:
        self._view: Optional[ServeView] = None
        self._publish_lock = threading.Lock()
        self._version = 0

    @property
    def view(self) -> Optional[ServeView]:
        # A bare attribute read: atomic under CPython, no reader lock.
        return self._view

    @property
    def version(self) -> int:
        return self._version

    def publish(self, build) -> ServeView:
        """Build and swap in the next view; ``build(version) -> ServeView``.

        The new view pre-renders the routes requests read on the view it
        replaces; every other route renders on its first request.
        """
        with self._publish_lock:
            version = self._version + 1
            view = build(version)
            if self._view is not None:
                view.prerender(self._view.read_routes())
            self._version = version
            self._view = view
            return view
