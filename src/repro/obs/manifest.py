"""Run manifests: provenance, timings, digests, metrics, and trace.

A manifest is one JSON document answering "what exactly produced this
artifact": the experiment configuration and seed, the package versions
and git revision the code ran at, wall/CPU time, a SHA-256 digest of
every output file, the metric snapshot, and the finished spans.  One is
written alongside every experiment artifact when observability is on,
so a wrong Table V number (or a perf regression) can be traced without
re-running anything.

:func:`diff_manifests` compares two runs and flags *provenance drift*
(config, versions, git revision, or output digests changed) and
*timing drift* (per-span-name total durations moved beyond a
tolerance) — the substance of ``repro obs diff``.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from . import runtime
from .trace import aggregate_spans

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

_TRACKED_PACKAGES = ("numpy", "scipy", "networkx")


def _package_versions() -> Dict[str, str]:
    """Interpreter, repro and tracked package versions.

    Read from the installed distributions' metadata, so recording a
    version never imports the package itself.
    """
    versions = {
        "python": platform.python_version(),
    }
    try:
        from .. import __version__

        versions["repro"] = __version__
    except Exception:
        pass
    for name in _TRACKED_PACKAGES:
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = "absent"
    return versions


def _git_revision() -> Dict[str, object]:
    """Best-effort git provenance of the source tree (never raises)."""
    root = Path(__file__).resolve().parent
    out: Dict[str, object] = {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5,
        )
        if sha.returncode == 0:
            out["sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=root,
                capture_output=True, text=True, timeout=5,
            )
            if status.returncode == 0:
                out["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return out


def digest_file(path) -> Dict[str, object]:
    """SHA-256 + size of one output artifact."""
    data = Path(path).read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _sanitize(obj):
    """Replace non-finite floats (watermark sentinels) for strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return _finite(obj)


@dataclass
class RunManifest:
    """In-memory form of one manifest document."""

    command: str
    config: dict = field(default_factory=dict)
    outputs: Dict[str, dict] = field(default_factory=dict)
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    metrics: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    spans_dropped: int = 0
    created_unix: float = field(default_factory=time.time)
    versions: Dict[str, str] = field(default_factory=_package_versions)
    git: Dict[str, object] = field(default_factory=_git_revision)
    platform: str = field(default_factory=platform.platform)
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> dict:
        return _sanitize({
            "schema": self.schema,
            "command": self.command,
            "created_unix": self.created_unix,
            "config": self.config,
            "versions": self.versions,
            "git": self.git,
            "platform": self.platform,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "outputs": self.outputs,
            "metrics": self.metrics,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        })

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def build_manifest(
    *,
    command: str,
    config: Optional[dict] = None,
    outputs: Sequence = (),
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    spans: Optional[List[dict]] = None,
) -> RunManifest:
    """Assemble a manifest from the current observability state.

    ``outputs`` are artifact paths to digest.  ``spans`` restricts the
    trace to an explicit slice (per-experiment manifests); by default
    the full finished-span list of the live tracer is embedded.
    """
    st = runtime.state()
    metrics = st.registry.to_dict() if st is not None else {}
    if spans is None:
        spans = list(st.tracer.finished) if st is not None else []
    dropped = st.tracer.dropped if st is not None else 0
    digests = {}
    for path in outputs:
        p = Path(path)
        if p.exists():
            digests[p.name] = digest_file(p)
    return RunManifest(
        command=command,
        config=dict(config or {}),
        outputs=digests,
        wall_s=wall_s,
        cpu_s=cpu_s,
        metrics=metrics,
        spans=spans,
        spans_dropped=dropped,
    )


def load_manifest(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ObservabilityError(f"{path} is not a run manifest")
    if doc["schema"] > MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"manifest schema {doc['schema']} is newer than this code "
            f"understands ({MANIFEST_SCHEMA})"
        )
    return doc


# -- reporting -------------------------------------------------------------------


def _counter_lines(metrics: dict) -> List[str]:
    lines = []
    for name, fam in sorted(metrics.items()):
        if fam["kind"] == "histogram":
            for entry in fam["series"]:
                label = "".join(
                    f"{{{k}={v}}}" for k, v in sorted(
                        entry["labels"].items()
                    )
                )
                lines.append(
                    f"  {name}{label:<30} count {entry['count']:>10} "
                    f"sum {entry['sum']:.3f}"
                )
            continue
        for entry in fam["series"]:
            label = "".join(
                f"{{{k}={v}}}" for k, v in sorted(entry["labels"].items())
            )
            value = entry["value"]
            if value is None:
                continue
            lines.append(f"  {name}{label:<30} {value:>14g}")
    return lines


def summarize_manifest(doc: dict, *, top: int = 15) -> str:
    """Human-readable digest: provenance, slowest spans, counters."""
    lines = [
        f"manifest: {doc.get('command', '?')}",
        f"  created   {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(doc.get('created_unix', 0)))}",
        f"  git       {doc.get('git', {}).get('sha') or 'unknown'}"
        + (" (dirty)" if doc.get("git", {}).get("dirty") else ""),
        f"  platform  {doc.get('platform', '?')}",
        "  versions  " + ", ".join(
            f"{k} {v}" for k, v in sorted(doc.get("versions", {}).items())
        ),
    ]
    if doc.get("wall_s") is not None:
        lines.append(
            f"  time      {doc['wall_s']:.2f} s wall"
            + (
                f", {doc['cpu_s']:.2f} s cpu"
                if doc.get("cpu_s") is not None
                else ""
            )
        )
    config = doc.get("config") or {}
    if config:
        lines.append("  config    " + ", ".join(
            f"{k}={v}" for k, v in sorted(config.items())
        ))
    outputs = doc.get("outputs") or {}
    if outputs:
        lines.append("outputs:")
        for name, meta in sorted(outputs.items()):
            lines.append(
                f"  {name:<28} {meta['bytes']:>9} B  sha256 "
                f"{meta['sha256'][:16]}…"
            )
    spans = doc.get("spans") or []
    if spans:
        aggs = aggregate_spans(spans)
        lines.append(
            f"slowest spans ({len(spans)} recorded"
            + (
                f", {doc['spans_dropped']} dropped"
                if doc.get("spans_dropped")
                else ""
            )
            + "):"
        )
        lines.append(
            f"  {'span':<26} {'count':>7} {'total s':>10} "
            f"{'self s':>10} {'mean s':>10} {'max s':>10}"
        )
        for agg in aggs[:top]:
            lines.append(
                f"  {agg['name']:<26} {agg['count']:>7} "
                f"{agg['total_s']:>10.4f} {agg['self_s']:>10.4f} "
                f"{agg['mean_s']:>10.4f} {agg['max_s']:>10.4f}"
            )
        # The attribution view: exclusive time names the span whose own
        # code burns the cycles, not the ancestor that contains it.
        hot = sorted(aggs, key=lambda a: a["self_s"], reverse=True)
        hot = [agg for agg in hot if agg["self_s"] > 0.0][: min(top, 5)]
        if hot:
            lines.append("hottest spans (self time):")
            for agg in hot:
                share = (
                    100.0 * agg["self_s"] / agg["total_s"]
                    if agg["total_s"] > 0
                    else 0.0
                )
                lines.append(
                    f"  {agg['name']:<26} {agg['self_s']:>10.4f} s "
                    f"({share:5.1f} % of its own total)"
                )
    metrics = doc.get("metrics") or {}
    counter_lines = _counter_lines(metrics)
    if counter_lines:
        lines.append("metrics:")
        lines.extend(counter_lines)
    return "\n".join(lines)


@dataclass
class ManifestDiff:
    """Outcome of comparing two manifests."""

    provenance_drift: List[str] = field(default_factory=list)
    timing_drift: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.provenance_drift and not self.timing_drift

    def render(self) -> str:
        if self.clean and not self.notes:
            return "manifests match: no provenance or timing drift"
        lines = []
        if self.provenance_drift:
            lines.append("provenance drift:")
            lines.extend(f"  {line}" for line in self.provenance_drift)
        if self.timing_drift:
            lines.append("timing drift:")
            lines.extend(f"  {line}" for line in self.timing_drift)
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  {line}" for line in self.notes)
        return "\n".join(lines)


def diff_manifests(a: dict, b: dict, *,
                   timing_tolerance_pct: float = 25.0) -> ManifestDiff:
    """Flag provenance and timing drift between two manifests.

    Provenance drift: differing config values, package versions, git
    revision, or output digests.  Timing drift: a span name whose total
    duration moved by more than ``timing_tolerance_pct`` (only spans
    totalling >= 1 ms are compared; faster ones are timer noise).
    """
    diff = ManifestDiff()

    for field_name in ("config", "versions"):
        av, bv = a.get(field_name) or {}, b.get(field_name) or {}
        for key in sorted(set(av) | set(bv)):
            if av.get(key) != bv.get(key):
                diff.provenance_drift.append(
                    f"{field_name}.{key}: {av.get(key)!r} -> {bv.get(key)!r}"
                )
    a_sha, b_sha = (m.get("git", {}).get("sha") for m in (a, b))
    if a_sha != b_sha:
        diff.provenance_drift.append(f"git.sha: {a_sha} -> {b_sha}")

    a_out, b_out = a.get("outputs") or {}, b.get("outputs") or {}
    for name in sorted(set(a_out) | set(b_out)):
        if name not in a_out:
            diff.provenance_drift.append(f"output {name}: only in second run")
        elif name not in b_out:
            diff.provenance_drift.append(f"output {name}: only in first run")
        elif a_out[name]["sha256"] != b_out[name]["sha256"]:
            diff.provenance_drift.append(
                f"output {name}: digest changed "
                f"({a_out[name]['sha256'][:12]}… -> "
                f"{b_out[name]['sha256'][:12]}…)"
            )

    a_spans = {x["name"]: x for x in aggregate_spans(a.get("spans") or [])}
    b_spans = {x["name"]: x for x in aggregate_spans(b.get("spans") or [])}
    for name in sorted(set(a_spans) | set(b_spans)):
        if name not in a_spans or name not in b_spans:
            diff.notes.append(
                f"span {name}: only in "
                + ("second" if name not in a_spans else "first")
                + " run"
            )
            continue
        at, bt = a_spans[name]["total_s"], b_spans[name]["total_s"]
        if max(at, bt) < 1e-3:
            continue
        change_pct = 100.0 * (bt - at) / at if at > 0 else float("inf")
        if abs(change_pct) > timing_tolerance_pct:
            diff.timing_drift.append(
                f"span {name}: total {at:.4f} s -> {bt:.4f} s "
                f"({change_pct:+.1f} %)"
            )
    return diff


def write_run_artifacts(
    obs_dir,
    *,
    command: str,
    config: Optional[dict] = None,
    outputs: Sequence = (),
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    basename: str = "manifest",
) -> Dict[str, Path]:
    """Write ``<basename>.json`` + ``metrics.prom`` under ``obs_dir``.

    The Prometheus text dump duplicates the manifest's metric snapshot
    in the format scrapers and CI artifact viewers expect.
    """
    obs_dir = Path(obs_dir)
    obs_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        command=command, config=config, outputs=outputs,
        wall_s=wall_s, cpu_s=cpu_s,
    )
    paths = {"manifest": manifest.write(obs_dir / f"{basename}.json")}
    st = runtime.state()
    if st is not None:
        prom = obs_dir / "metrics.prom"
        prom.write_text(st.registry.to_prometheus())
        paths["metrics"] = prom
    return paths
