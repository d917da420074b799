"""Unit tests for the event-time reorder/dedup buffer."""

import numpy as np
import pytest

from repro import constants
from repro.errors import TelemetryError
from repro.stream import ReorderBuffer
from repro.telemetry.schema import TelemetryChunk

DT = constants.TELEMETRY_INTERVAL_S


def mk_chunk(times, nodes=None, gpu=100.0, cpu=300.0):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    if nodes is None:
        nodes = np.zeros(n, dtype=np.int32)
    return TelemetryChunk(
        time_s=times,
        node_id=np.asarray(nodes, dtype=np.int32),
        gpu_power_w=np.full(
            (n, constants.GPUS_PER_NODE), gpu, dtype=np.float32
        ),
        cpu_power_w=np.full(n, cpu, dtype=np.float32),
    )


def test_config_validation():
    with pytest.raises(TelemetryError):
        ReorderBuffer(interval_s=0.0)
    with pytest.raises(TelemetryError):
        ReorderBuffer(window_s=0.5 * DT)
    with pytest.raises(TelemetryError):
        ReorderBuffer(lateness_s=-1.0)


def test_in_order_window_sealing():
    buf = ReorderBuffer(interval_s=DT, window_s=4 * DT, lateness_s=0.0)
    out = buf.push(mk_chunk(np.arange(6) * DT))
    # Watermark at 5*DT seals exactly the [0, 4*DT) window.
    assert len(out) == 1
    assert np.array_equal(out[0].time_s, np.arange(4) * DT)
    assert buf.resident_samples == 2
    tail = buf.flush()
    assert len(tail) == 1
    assert np.array_equal(tail[0].time_s, np.array([4 * DT, 5 * DT]))
    assert buf.windows_emitted == 2
    assert buf.samples_out == 6
    assert buf.late_dropped == 0 and buf.duplicates == 0


def test_out_of_order_rows_come_back_canonical():
    buf = ReorderBuffer(interval_s=DT, window_s=8 * DT)
    buf.push(mk_chunk([3 * DT, DT, 0.0, 2 * DT], nodes=[1, 0, 1, 0]))
    (window,) = buf.flush()
    assert np.array_equal(window.time_s, [0.0, DT, 2 * DT, 3 * DT])
    assert np.array_equal(window.node_id, [1, 0, 0, 1])


def test_dedup_keeps_first_arrival():
    buf = ReorderBuffer(interval_s=DT, window_s=8 * DT)
    buf.push(mk_chunk([0.0], gpu=100.0))
    buf.push(mk_chunk([0.0], gpu=250.0))
    (window,) = buf.flush()
    assert len(window) == 1
    assert window.gpu_power_w[0, 0] == np.float32(100.0)
    assert buf.duplicates == 1
    assert buf.samples_in == 2 and buf.samples_out == 1


def test_late_samples_are_counted_and_dropped():
    buf = ReorderBuffer(interval_s=DT, window_s=4 * DT, lateness_s=0.0)
    buf.push(mk_chunk(np.arange(6) * DT))
    assert buf.sealed_until_s == 4 * DT
    buf.push(mk_chunk([2 * DT, 5 * DT]))  # one below the frontier
    assert buf.late_dropped == 1
    tail = buf.flush()
    assert sum(len(w) for w in tail) == 2  # 4*DT, 5*DT (deduped)
    # After flush everything is sealed: any further sample is late.
    buf.push(mk_chunk([100 * DT]))
    assert buf.late_dropped == 2
    assert buf.resident_samples == 0


def test_watermark_holds_back_sealing():
    buf = ReorderBuffer(interval_s=DT, window_s=4 * DT, lateness_s=2 * DT)
    out = buf.push(mk_chunk(np.arange(6) * DT))
    # Watermark is 5*DT - 2*DT = 3*DT: nothing seals yet.
    assert out == []
    assert buf.watermark_s == 3 * DT
    assert buf.watermark_lag_s == 5 * DT
    out = buf.push(mk_chunk([7 * DT]))  # watermark 5*DT -> seal [0, 4*DT)
    assert len(out) == 1 and len(out[0]) == 4
    assert buf.watermark_lag_s == 7 * DT - 4 * DT


def test_state_roundtrip_preserves_everything():
    buf = ReorderBuffer(interval_s=DT, window_s=4 * DT, lateness_s=DT)
    buf.push(mk_chunk(np.arange(7) * DT, nodes=np.arange(7) % 3))
    buf.push(mk_chunk([2 * DT], nodes=[2]))  # pending duplicate
    state = buf.state_arrays()
    clone = ReorderBuffer()
    clone.load_state_arrays(state)
    assert clone.resident_samples == buf.resident_samples
    assert clone.sealed_until_s == buf.sealed_until_s
    assert clone.max_event_time_s == buf.max_event_time_s
    a = TelemetryChunk.concatenate(buf.flush())
    b = TelemetryChunk.concatenate(clone.flush())
    assert np.array_equal(a.time_s, b.time_s)
    assert np.array_equal(a.node_id, b.node_id)
    assert np.array_equal(a.gpu_power_w, b.gpu_power_w)
    assert buf.duplicates == clone.duplicates
