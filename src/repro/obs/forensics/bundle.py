"""Self-contained JSON forensic bundles for incidents.

Two artifact shapes:

* ``incidents.json`` (:func:`forensics_doc`) — the whole forensic
  state of one run: every incident, the resident flight-recorder
  records, a metrics snapshot, active alerts, and run-manifest-style
  provenance (package versions + git revision).  Written by
  ``ext_incidents`` and ``repro stream/serve`` under ``--obs``.
* one bundle per incident (:func:`build_bundle`) — the incident plus
  the recorder slice spanning its window range (padded one window each
  side), carrying the same provenance block, so a single file explains
  a single episode.  This is what ``repro obs incidents export`` writes
  and CI uploads.

Bundles are deterministic given the run: serialization is sorted-key
JSON and every field traces back to event-time state.  Every file is
written through :func:`repro.durable.write_text_durably`, so a crash leaves
the previous file or the new one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ...durable import write_text_durably
from ...errors import ForensicsError
from ..manifest import _git_revision, _package_versions
from ..metrics import WALL_CLOCK_METRICS

SCHEMA_VERSION = 1


def _provenance() -> dict:
    return {
        "versions": _package_versions(),
        "git": _git_revision(),
    }


def forensics_doc(
    forensics,
    *,
    command: Optional[str] = None,
    registry=None,
    monitor=None,
) -> dict:
    """The full forensic state of one run as a JSON-ready document.

    Incidents, summary and records are those of
    :meth:`~repro.obs.forensics.Forensics.reader_view`, the frozen
    state ``/v1/incidents`` renders.
    """
    metrics_text = (
        registry.to_prometheus(skip=WALL_CLOCK_METRICS)
        if registry is not None else None
    )
    alerts = monitor.to_alerts_dict() if monitor is not None else None
    event_log = getattr(forensics, "event_log", None)
    view = forensics.reader_view()
    return {
        "schema": SCHEMA_VERSION,
        "kind": "forensics",
        "command": command,
        "provenance": _provenance(),
        "summary": view.doc["summary"],
        "incidents": view.doc["incidents"],
        "records": [forensics.recorder.record_doc(r) for r in view.records],
        # Window-correlated log records only: their per-event occurrence
        # ids are rerun- and chunking-invariant, so the slice a bundle
        # embeds is exactly reproducible (cadence-driven records, e.g.
        # snapshot publishes, are deliberately excluded).
        "logs": (
            None if event_log is None
            else [dict(r) for r in event_log.records()
                  if r.get("window") is not None]
        ),
        "metrics": metrics_text,
        "alerts": alerts,
    }


def build_bundle(doc: dict, incident_id: str, *, pad: int = 1) -> dict:
    """One incident's self-contained bundle, sliced from a full doc."""
    incidents = {i["id"]: i for i in doc.get("incidents", [])}
    incident = incidents.get(incident_id)
    if incident is None:
        raise ForensicsError(
            f"no incident {incident_id!r} "
            f"(have: {', '.join(sorted(incidents)) or 'none'})"
        )
    first = incident["first_window"] - pad
    last = incident["last_window"] + pad
    records = [
        r for r in doc.get("records", [])
        if first <= r["index"] <= last
    ]
    logs = doc.get("logs")
    return {
        "schema": SCHEMA_VERSION,
        "kind": "incident_bundle",
        "command": doc.get("command"),
        "provenance": doc.get("provenance", _provenance()),
        "incident": incident,
        "records": records,
        "logs": (
            None if logs is None
            else [r for r in logs if first <= r.get("window", -1) <= last]
        ),
        "metrics": doc.get("metrics"),
        "alerts": doc.get("alerts"),
    }


def render_doc(doc: dict) -> str:
    """Canonical serialization (sorted keys, newline-terminated)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_bundles(out_dir, doc: dict,
                  ids: Optional[Sequence[str]] = None) -> List[Path]:
    """Write one ``incident_<id>.json`` bundle per incident of ``doc``
    (or per id of ``ids``) into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if ids is None:
        ids = [incident["id"] for incident in doc.get("incidents") or []]
    paths = []
    for incident_id in ids:
        path = out / f"incident_{incident_id}.json"
        write_text_durably(path, render_doc(build_bundle(doc, incident_id)))
        paths.append(path)
    return paths


#: Fields every incident of a loaded document must carry: the ones the
#: timeline and the incident listing read.
_INCIDENT_KEYS = (
    "id", "detector", "severity", "status", "first_window", "last_window",
    "t_start_s", "t_end_s", "windows_firing",
)


def load_forensics(path) -> dict:
    """Read an ``incidents.json`` (or bundle) back; validates the shape.

    A bundle reads as a one-incident document (``incidents:
    [incident]``) with its records, logs, metrics, alerts and
    provenance, so a reader of ``incidents`` sees its incident and
    :func:`build_bundle` over it gives the bundle back.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ForensicsError(
            f"cannot read forensics doc {path}: {exc}"
        ) from exc
    if not isinstance(doc, dict) or (
        "incidents" not in doc and "incident" not in doc
    ):
        raise ForensicsError(f"{path} is not a forensics document")
    if "incidents" not in doc:
        doc["incidents"] = [doc["incident"]]
    incidents = doc["incidents"]
    if not isinstance(incidents, list):
        raise ForensicsError(f"{path}: 'incidents' is not a list")
    for i, incident in enumerate(incidents):
        if not isinstance(incident, dict):
            raise ForensicsError(f"{path}: incident {i} is not an object")
        missing = [k for k in _INCIDENT_KEYS if k not in incident]
        if missing:
            raise ForensicsError(
                f"{path}: incident {i} lacks {', '.join(missing)}"
            )
    return doc


def write_forensics_artifacts(
    out_dir,
    forensics,
    *,
    command: Optional[str] = None,
    registry=None,
    monitor=None,
) -> Dict[str, List[Path]]:
    """Write ``incidents.json`` plus one bundle per incident.

    Returns ``{"incidents": [path], "bundles": [paths...]}``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = forensics_doc(
        forensics, command=command, registry=registry, monitor=monitor,
    )
    incidents_path = out / "incidents.json"
    write_text_durably(incidents_path, render_doc(doc))
    return {
        "incidents": [incidents_path],
        "bundles": write_bundles(out, doc),
    }
