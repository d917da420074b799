"""The engine's window-sink protocol: one attach, one record per window.

``StreamEngine.attach`` builds one :class:`WindowRecord` per sealed
window and hands that same object to forensics, history and the event
log in that order.  Its ingest deltas are taken against the buffer
counters at attach time, so an engine resumed from a checkpoint charges
its first record only the rows ingested since the resume.
"""

from __future__ import annotations

import itertools

import pytest

import repro.obs.forensics as forensics_module
import repro.stream.engine as engine_module
from repro.errors import ObservabilityError
from repro.obs.forensics import Forensics, make_record
from repro.obs.history import History
from repro.obs.log import EventLog
from repro.stream import (
    StreamEngine,
    load_checkpoint,
    save_checkpoint,
    simulated_fleet,
)


@pytest.fixture
def record_calls(monkeypatch):
    """Every record ``make_record`` builds, in call order."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(make_record(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(engine_module, "make_record", counting)
    monkeypatch.setattr(forensics_module, "make_record", counting)
    return calls


def _fleet(**kwargs):
    return simulated_fleet(fleet_nodes=4, days=0.1, seed=0, **kwargs)


class TestOneRecordPerWindow:
    def test_bare_engine_builds_no_record(self, record_calls):
        log, source = _fleet()
        engine = StreamEngine(log).run(source)
        assert engine.stats.windows_folded > 0
        assert record_calls == []

    def test_all_sinks_share_one_record_per_window(
        self, record_calls, monkeypatch
    ):
        log, source = _fleet()
        forensics, history, eventlog = Forensics(), History(), EventLog()
        seen_by_history = []
        observe = history.observe_window

        def spy(window, record):
            seen_by_history.append(record)
            observe(window, record)

        monkeypatch.setattr(history, "observe_window", spy)
        engine = StreamEngine(log)
        engine.attach(forensics=forensics, history=history,
                      event_log=eventlog)
        engine.run(source)
        windows = engine.stats.windows_folded
        assert len(record_calls) == windows
        ring = forensics.recorder.records
        assert len(ring) == len(seen_by_history) == windows
        assert all(a is b for a, b in zip(ring, seen_by_history))
        assert all(a is b for a, b in zip(ring, record_calls))

    def test_sinks_attach_once(self):
        log, _source = _fleet()
        engine = StreamEngine(log).attach(history=History())
        with pytest.raises(ObservabilityError):
            engine.attach(forensics=Forensics())


def test_resumed_engine_charges_only_rows_since_resume(tmp_path):
    log, source = _fleet()
    source = iter(source)
    engine = StreamEngine(log)
    for chunk in itertools.islice(source, 10):
        engine.ingest(chunk)
    assert engine.buffer.samples_in > 0
    save_checkpoint(engine, tmp_path / "ck.npz")

    resumed = load_checkpoint(tmp_path / "ck.npz", log)
    forensics, history = Forensics(), History()
    resumed.attach(forensics=forensics, history=history)
    rows = 0
    for chunk in source:
        rows += len(chunk)
        if resumed.ingest(chunk):
            break
    first = forensics.recorder.records[0]
    assert first.index == 0
    assert first.samples_in_delta == rows
    assert history.store.column_slice("samples_in_delta", 0, 0, 1)[0] == rows
