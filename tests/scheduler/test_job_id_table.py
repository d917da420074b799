"""``SchedulerLog.job_id_table`` against the per-node ``job_id_grid``.

``job_id_table`` labels rows in ``(node, time)`` order (every node-major
chunk) by searching the log's label-change events into the rows, and any
other order by one search per row.  Both must give exactly what
``job_id_grid`` gives node by node, where they are most likely to part:
back-to-back and near-zero-length allocations, overlaps inside
``validate_no_overlap``'s 1e-9 tolerance, times exactly at a start or an
end and one float below it, node ids beyond the fleet, and empty input.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scheduler.log import NodeAllocation, SchedulerLog

TICK = 15.0

#: One allocation after the node's previous end: a gap (in ticks, 0 =
#: back to back), an overlap inside the tolerance, and a length (in
#: ticks; 0 = one float past the start).
_alloc = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.0, 0.0, 1e-10, 1e-9]),
    st.integers(min_value=0, max_value=6),
    st.booleans(),   # start off the tick grid
)


def _build_log(per_node, n_nodes):
    by_node = []
    job_id = 0
    for node, specs in enumerate(per_node):
        allocations = []
        start = end = 0.0
        for gap, overlap, length, off_grid in specs:
            # Never before the previous start: a near-zero-length
            # allocation overlapped by 1e-9 shares its start instead.
            start = max(end + gap * TICK - overlap, start)
            if off_grid:
                start += 0.37 * TICK
            stop = (
                start + length * TICK if length
                else np.nextafter(start, np.inf)
            )
            job_id += 1
            allocations.append(
                NodeAllocation(node, job_id, float(start), float(stop))
            )
            end = stop
        by_node.append(allocations)
    # Log order is not node order (but keeps each node's own order, so
    # a shared start sorts the near-zero-length allocation first).
    allocations = [a for allocs in reversed(by_node) for a in allocs]
    horizon = max((a.end_time_s for a in allocations), default=TICK)
    return SchedulerLog(
        jobs=[], allocations=allocations, n_nodes=n_nodes, horizon_s=horizon
    )


def _row_times(log):
    """Ticks, every start and end, and the float just below each."""
    edges = [a.start_time_s for a in log.allocations] + [
        a.end_time_s for a in log.allocations
    ]
    edges = np.array(edges + [0.0])
    ticks = np.arange(0.0, log.horizon_s + 2 * TICK, TICK)
    below = np.nextafter(edges, -np.inf)
    times = np.unique(np.concatenate([ticks, edges, below]))
    return times[times >= 0]


def _oracle(log, times, nodes):
    out = np.zeros(len(times), dtype=np.int64)
    for node in np.unique(nodes):
        rows = nodes == node
        out[rows] = log.job_id_grid(times[rows], int(node))
    return out


def _labelled(log, times, nodes):
    """``job_id_table`` and whether it took the sorted-row branch."""
    with mock.patch.object(
        SchedulerLog, "_label_sorted", autospec=True,
        side_effect=SchedulerLog._label_sorted,
    ) as sorted_branch:
        got = log.job_id_table(times, nodes)
    return got, sorted_branch.called


@given(
    per_node=st.lists(
        st.lists(_alloc, max_size=5), min_size=1, max_size=4
    ),
    extra_nodes=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(per_node=[[]], extra_nodes=1, seed=0)
@example(
    per_node=[[(0, 0.0, 2, False), (0, 1e-9, 0, False), (0, 0.0, 3, True)],
              [(1, 1e-10, 1, True), (0, 1e-9, 2, False)]],
    extra_nodes=1, seed=3,
)
# Three near-zero-length allocations back to back at time 0 on node 1:
# their composite keys all tie, so the per-row search must step back
# more than one allocation.
@example(per_node=[[], [(0, 0.0, 0, False)] * 3], extra_nodes=0, seed=0)
@settings(max_examples=150, deadline=None)
def test_both_branches_match_the_per_node_grid(per_node, extra_nodes, seed):
    log = _build_log(per_node, n_nodes=len(per_node))
    log.validate_no_overlap()
    times = _row_times(log)
    # Node-major rows, nodes beyond the fleet included.
    node_ids = np.arange(len(per_node) + extra_nodes)
    nodes = np.repeat(node_ids, len(times)).astype(np.int32)
    t = np.tile(times, len(node_ids))
    want = _oracle(log, t, nodes)

    got, fast = _labelled(log, t, nodes)
    np.testing.assert_array_equal(got, want)
    assert fast == bool(log.allocations)

    # Time-major rows take the per-row search.
    order = np.lexsort((nodes, t))
    got, fast = _labelled(log, t[order], nodes[order])
    np.testing.assert_array_equal(got, want[order])
    assert not fast or len(node_ids) == 1

    # Shuffled rows, too.
    perm = np.random.default_rng(seed).permutation(len(t))
    got, _ = _labelled(log, t[perm], nodes[perm])
    np.testing.assert_array_equal(got, want[perm])

    # One node's rows alone, and a slice starting mid-node.
    for lo, hi in ((0, len(times)), (len(times) // 2, len(t))):
        got, _ = _labelled(log, t[lo:hi], nodes[lo:hi])
        np.testing.assert_array_equal(got, want[lo:hi])


def test_empty_rows_and_empty_logs_label_nothing():
    log = _build_log([[(0, 0.0, 2, False)]], n_nodes=1)
    empty = np.array([], dtype=np.float64)
    assert log.job_id_table(empty, empty.astype(np.int64)).shape == (0,)
    no_allocs = _build_log([[]], n_nodes=1)
    times = np.arange(4) * TICK
    labels = no_allocs.job_id_table(times, np.zeros(4, dtype=np.int64))
    assert labels.tolist() == [0, 0, 0, 0]


def test_rows_at_a_shared_start_take_the_last_allocation():
    # Two allocations starting together: as in ``job_id_grid``, the one
    # later in the log wins from that start on.
    log = SchedulerLog(
        jobs=[],
        allocations=[
            NodeAllocation(0, 7, 30.0, 90.0),
            NodeAllocation(0, 8, 30.0, 60.0),
        ],
        n_nodes=1,
        horizon_s=120.0,
    )
    times = np.array([0.0, 30.0, 45.0, 60.0, 75.0, 90.0])
    nodes = np.zeros(len(times), dtype=np.int64)
    want = log.job_id_grid(times, 0)
    assert want.tolist() == [0, 8, 8, 0, 0, 0]
    np.testing.assert_array_equal(log.job_id_table(times, nodes), want)
    np.testing.assert_array_equal(
        log.job_id_table(times[::-1], nodes), want[::-1]
    )


def test_rows_whose_keys_tie_out_of_time_order_are_not_taken_as_sorted():
    # At node 3 the composite key of a start and of the float just below
    # it round to one value; rows listing them in the wrong time order
    # must not be labelled as if sorted.
    start = 1000.0 + 1.0 / 3.0
    log = SchedulerLog(
        jobs=[],
        allocations=[NodeAllocation(3, 5, start, start + 600.0)],
        n_nodes=4,
        horizon_s=4000.0,
    )
    below = np.nextafter(start, -np.inf)
    times = np.array([0.0, start, below, start + 15.0])
    nodes = np.full(len(times), 3, dtype=np.int64)
    k = log.horizon_s + 1.0
    assert 3 * k + start == 3 * k + below   # the keys tie
    want = log.job_id_grid(times, 3)
    assert want.tolist() == [0, 5, 0, 5]
    np.testing.assert_array_equal(log.job_id_table(times, nodes), want)
