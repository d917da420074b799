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
JSON and every field traces back to event-time state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

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
    """The full forensic state of one run as a JSON-ready document."""
    metrics_text = (
        registry.to_prometheus(skip=WALL_CLOCK_METRICS)
        if registry is not None else None
    )
    alerts = monitor.to_alerts_dict() if monitor is not None else None
    event_log = getattr(forensics, "event_log", None)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "forensics",
        "command": command,
        "provenance": _provenance(),
        "summary": forensics.summary(),
        "incidents": [
            i.to_dict(top_k=forensics.incidents.top_k)
            for i in forensics.incidents.incidents
        ],
        "records": [r.to_dict() for r in forensics.recorder.records],
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


def load_forensics(path) -> dict:
    """Read an ``incidents.json`` (or bundle) back; validates the shape."""
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
    return doc


def write_forensics_artifacts(
    out_dir,
    forensics,
    *,
    command: Optional[str] = None,
    registry=None,
    monitor=None,
    bundles: bool = True,
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
    incidents_path.write_text(render_doc(doc))
    paths: Dict[str, List[Path]] = {
        "incidents": [incidents_path], "bundles": [],
    }
    if bundles:
        for incident in doc["incidents"]:
            bundle = build_bundle(doc, incident["id"])
            path = out / f"incident_{incident['id']}.json"
            path.write_text(render_doc(bundle))
            paths["bundles"].append(path)
    return paths
