"""Pinned transcripts of the run commands and the artifacts they write.

``repro stream``, ``repro serve`` and ``repro campaign`` run in-process
on small fleets, followed by the ``repro obs`` readers over what they
wrote and over a live control plane's ``/v1`` routes.  Each command's
stdout and exit code — with tmp paths, ephemeral ports and wall-clock
figures masked — and each artifact (manifest ``config``,
``health.json``, ``incidents.json`` without its provenance, history and
event-log segment bytes) hash to the SHA-256 digests pinned below.
The two profile printers (``repro run --profile`` and ``repro obs
profile``) are pinned to their skeleton: figures and sampled-stack
lines masked, sections, span names and artifact paths kept.  The
option strings of every subcommand are pinned too, so no flag is added,
removed or renamed by accident.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.obs.history import History
from repro.obs.log import EventLog
from repro.serve import ControlPlane
from repro.stream import simulated_fleet

#: SHA-256 of each masked transcript or artifact (see the docstring).
DIGESTS = {
    "config:campaign": (
        "2a7a2b2e947c684d7b435d1ac1709279d241acca635190d612b12c7659fc0fc4"
    ),
    "config:serve": (
        "b0c08a6cde4b55787829b29eed508a0c552a45b6475831271a87bad3895e41bc"
    ),
    "config:stream": (
        "3ddc021effc6ac87e7ae4b3e802dc40044c776fe01e133ff37a43784406c1ee3"
    ),
    "health:serve": (
        "f4b91f9ddcaf2c1997a5608fac330e7306418618b89a47001f410476ab34c9c3"
    ),
    "history-segments": (
        "efaba3f95d7fbc7651af1ce39bc399cd61f12838e34e786f2894a5cffdbec525"
    ),
    "incidents:serve": (
        "331626165759e22d22bce6e502a1e2b8f3ff2e41db383e16b2fa32d921e07b11"
    ),
    "incidents:stream": (
        "48cba36d03eada60e1d70569b3bf953d3875e386548e87af146a1d4ed7bfe405"
    ),
    "log-segments": (
        "fcda01b4fc6df511eec94df26c9c8d4d23286fc62a49ea7b6b27037fd40dad2f"
    ),
    "stdout:campaign": (
        "e1bdb28050e1781d56cf728420acba666055c02d5c383a7d0036607ddb9cfdc0"
    ),
    "stdout:obs-alerts": (
        "4a85c3197a7a7b95db5e0bc5bfb41d4f3ab7030b5959d3361bd2608d561cb22b"
    ),
    "stdout:obs-history-info": (
        "4966b3cb0978fa194e65949edc5b804e0f45068cb8776d805939524e27783d63"
    ),
    "stdout:obs-incidents": (
        "74890dd7764079a17cb6a5c5003b058bf327d289dafcdc2ece8984824d1a8b8c"
    ),
    "stdout:obs-incidents-url": (
        "10374cac797ef2ff32ee4b0a5c14671ea7eaa2699ecf3060a6fcaa84cf23882a"
    ),
    "stdout:obs-profile": (
        "a88b83a584128d8f1afabe0e43d30bd3f1d45ecda9575da84373ff3964ee9b80"
    ),
    "stdout:obs-logs-check": (
        "c130b754ac6adf4c72c374d074017a678bf9f8feaf0355174a0fd889bf16b784"
    ),
    "stdout:obs-logs-url": (
        "e0718379db040070187be19ffd48a680dc9fb9cb5a4637c19cec4e968c32d6d7"
    ),
    "stdout:obs-logs-url-bad": (
        "91d957f8f2748a950526d4d21e0d5cd3bf5518e6c60b1beb470a13be1f978b1d"
    ),
    "stdout:obs-query-check": (
        "d901fc5d1dd44a3dd3d37ce884f2bc95a2751dcde5036c2592d19624e76fa24b"
    ),
    "stdout:obs-query-url": (
        "8d91be8060a331427aad830e7d85e15e2b37a1d581437b16631034c453c50644"
    ),
    "stdout:obs-query-url-bad": (
        "91d957f8f2748a950526d4d21e0d5cd3bf5518e6c60b1beb470a13be1f978b1d"
    ),
    "stdout:obs-query-url-series": (
        "fdc895749dc449f69ad10c63ae5ad36b0127ce8e4d3e5be93e4f95371abeb773"
    ),
    "stdout:run-profile": (
        "6764e911ce389d9c83dc1ac1d13a2396f8646334f0c23f611b6f5b0e6f1ee134"
    ),
    "stdout:serve": (
        "3bb2d24da6c79856b59b212a3707c8325f6b21a215fed11cc34b615acab20f9f"
    ),
    "stdout:stream": (
        "ecd595e06dd949822110730fca81a2c17724235b47f52ea0de79da2e5c2ffc35"
    ),
    "stdout:stream-obs": (
        "b5bba79ce512f24123257ca00e1a98ce7ad6b4872be987dfd5f8eb917fb74e6d"
    ),
    "stdout:stream-sinks": (
        "82e97387aef6c9e59aaebf3c7ad0dcdae9c90dbf1dc604027002f5224a4b5876"
    ),
}

#: Every subcommand's option strings, space-separated and sorted.
OPTIONS = {
    "": "--help -h",
    "advise": "--help --max-slowdown --top -h",
    "campaign": (
        "--campaign-energy-mwh --checkpoint-dir --checkpoint-every "
        "--days --dup-fraction --help --lateness-s --max-slowdown "
        "--max-units --nodes --obs --obs-dir --resume --seed --shards "
        "--shuffle-s --unit-nodes --window-s --workers -h"
    ),
    "list": "--help -h",
    "obs": "--help -h",
    "obs alerts": "--check --help --history --url -h",
    "obs diff": "--help --timing-tolerance -h",
    "obs history": "--dir --help --keep-s -h",
    "obs incidents": "--check --from --help --out --url -h",
    "obs logs": (
        "--check --dir --event --help --json --limit --severity --t0 "
        "--t1 --url --window -h -n"
    ),
    "obs profile": (
        "--budget --check --days --exact --help --interval-ms "
        "--memory --nodes --out --seed --top -h"
    ),
    "obs query": (
        "--agg --check --dir --help --json --level --step --t0 --t1 "
        "--url -h"
    ),
    "obs summary": "--help --top --url -h",
    "report": (
        "--days --graph-scale --help --no-extensions --nodes --out "
        "--seed -h"
    ),
    "run": (
        "--csv --days --graph-scale --help --nodes --obs --obs-dir "
        "--out --profile --profile-dir --seed -h"
    ),
    "serve": (
        "--campaign-energy-mwh --chunk-delay-s --days --drift-ref "
        "--exit-after-drain --from-file --help --history-dir --host "
        "--lateness-s --log-dir --max-chunks --max-slowdown --nodes "
        "--objective --obs --obs-dir --port --rules --sacct --seed "
        "--window-s -h"
    ),
    "stream": (
        "--campaign-energy-mwh --checkpoint --days --drift-ref "
        "--dup-fraction --from-file --help --history-dir --lateness-s "
        "--log-dir --max-chunks --max-slowdown --nodes --obs "
        "--obs-dir --resume --rules --sacct --seed --serve --shuffle "
        "--snapshot-every --watch --window-s -h"
    ),
}


def _mask(text: str, root: Path) -> str:
    text = text.split("===== observability", 1)[0]
    text = text.replace(str(root), "<tmp>")
    text = re.sub(r"127\.0\.0\.1:\d+", "127.0.0.1:<port>", text)
    return re.sub(
        r"folded in [\d.]+ s \([\d.]+M GPU-samples/s\)",
        "folded in <wall>", text,
    )


def _skeleton(text: str) -> str:
    # A profile's figures and sampled stacks vary run to run; its
    # sections, span names and artifact paths do not.
    text = re.sub(r"\nhottest sampled stacks:\n(?:  .*\n)+", "", text)
    return re.sub(r"\d+(?:\.\d+)?", "#", text)


def _run(argv, root: Path, *, skeleton: bool = False) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(a) for a in argv])
    text = _mask(out.getvalue(), root)
    if skeleton:
        text = _skeleton(text)
    return f"{text}rc={rc}\n"


def _mask_trace_ids(text: str) -> str:
    # With --obs, trace and span ids carry the process id and a counter.
    return re.sub(r'"(trace_id|span_id)": ?"[^"]*"', r'"\1": "<id>"', text)


def _json_file(path: Path, drop=()) -> str:
    doc = json.loads(path.read_text())
    for key in drop:
        doc.pop(key, None)
    return _mask_trace_ids(json.dumps(doc, sort_keys=True))


def _segments(store: Path, pattern: str) -> bytes:
    return b"".join(
        p.name.encode() + b"\0" + p.read_bytes()
        for p in sorted(store.glob(pattern))
    )


def _transcripts(root: Path) -> dict:
    s, v, c = root / "s", root / "v", root / "c"
    out = {}
    commands = {
        "stream": ["stream", "--nodes", "4", "--days", "0.2"],
        "stream-sinks": [
            "stream", "--nodes", "16", "--days", "1", "--shuffle",
            "--dup-fraction", "0.01", "--snapshot-every", "20",
            "--obs-dir", s, "--history-dir", s / "h", "--log-dir", s / "l",
        ],
        "stream-obs": [
            "stream", "--nodes", "16", "--days", "0.25", "--obs",
            "--obs-dir", root / "sh",
        ],
        "serve": [
            "serve", "--port", "0", "--exit-after-drain", "--nodes", "8",
            "--days", "0.25", "--history-dir", "-", "--log-dir", "-",
            "--obs", "--obs-dir", v,
        ],
        "campaign": [
            "campaign", "--nodes", "16", "--days", "0.25", "--shards", "2",
            "--obs", "--obs-dir", c,
        ],
        "obs-query-check": ["obs", "query", "--check", "--dir", s / "h"],
        "obs-logs-check": ["obs", "logs", "--check", "--dir", s / "l"],
        "obs-history-info": ["obs", "history", "info", "--dir", s / "h"],
        "obs-alerts": ["obs", "alerts", v / "health.json"],
        "obs-incidents": ["obs", "incidents", "--from", s / "incidents.json"],
    }
    for name, argv in commands.items():
        out[f"stdout:{name}"] = _run(argv, root)
    profiles = {
        "run-profile": [
            "run", "table1", "--obs", "--profile", "--out", root / "rp",
        ],
        "obs-profile": [
            "obs", "profile", "table1", "--nodes", "4", "--days", "0.1",
            "--out", root / "op",
        ],
    }
    for name, argv in profiles.items():
        out[f"stdout:{name}"] = _run(argv, root, skeleton=True)
    for name, d in (("stream", root / "sh"), ("serve", v), ("campaign", c)):
        doc = json.loads((d / "manifest.json").read_text())
        out[f"config:{name}"] = json.dumps(doc["config"], sort_keys=True)
    out["health:serve"] = _json_file(v / "health.json")
    for name, d in (("stream", s), ("serve", v)):
        out[f"incidents:{name}"] = _json_file(
            d / "incidents.json", drop=("provenance",)
        )
    out.update(_live_transcripts(root))
    out["history-segments"] = _segments(s / "h", "*.npy")
    out["log-segments"] = _segments(s / "l", "seg-*.jsonl")
    return out


def _live_transcripts(root: Path) -> dict:
    """The ``--url`` readers against a drained, still-serving plane."""
    log, source = simulated_fleet(fleet_nodes=8, days=0.25, seed=0)
    plane = ControlPlane(
        log, lateness_s=120.0, history=History(), event_log=EventLog(),
    )
    plane.run(source)
    url = plane.serve(port=0).url
    try:
        commands = {
            "query-url-series": ["obs", "query", "--url", url],
            "query-url": [
                "obs", "query", "energy_j", "--url", url, "--step", "3600",
            ],
            "logs-url": [
                "obs", "logs", "--url", url, "--event", "stream.",
                "--limit", "5",
            ],
            "incidents-url": ["obs", "incidents", "--url", url],
            "query-url-bad": ["obs", "query", "nope", "--url", url],
            "logs-url-bad": ["obs", "logs", "--url", url, "--severity", "x"],
        }
        return {
            f"stdout:obs-{name}": _run(argv, root)
            for name, argv in commands.items()
        }
    finally:
        plane.close()


def _digest(value) -> str:
    data = value if isinstance(value, bytes) else value.encode()
    return hashlib.sha256(data).hexdigest()


def _option_sets() -> dict:
    out = {}

    def walk(parser, name):
        opts = sorted(
            o for a in parser._actions for o in a.option_strings
        )
        out[name] = " ".join(opts)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub, child in action.choices.items():
                    walk(child, f"{name} {sub}".strip())

    walk(_build_parser(), "")
    return out


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    return _transcripts(tmp_path_factory.mktemp("transcripts"))


def test_every_output_is_pinned(transcripts):
    assert sorted(transcripts) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_transcript_digest(transcripts, name):
    assert _digest(transcripts[name]) == DIGESTS[name], transcripts[name]


def test_option_sets_unchanged():
    assert _option_sets() == OPTIONS
