"""Job-state index metadata, and the row join it serves job ids for."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import TELEMETRY_INTERVAL_S as INTERVAL_S
from repro.core.join import DerivedWindow
from repro.errors import ServeError
from repro.serve import JobStateIndex
from repro.serve.jobs import PARTITION_BY_CLASS, user_of_project


class TestIndex:
    def test_covers_every_logged_job(self, campaign):
        log, _store = campaign
        index = JobStateIndex(log)
        assert len(index) == len(log.jobs)
        for job in log.jobs:
            assert job.job_id in index
            meta = index.meta(job.job_id)
            assert meta.user == user_of_project(job.project_id)
            assert meta.account == job.project_id
            assert meta.partition == PARTITION_BY_CLASS[job.size_class]
            assert meta.domain == job.domain
            assert meta.num_nodes == job.num_nodes

    def test_meta_doc_round_trips(self, campaign):
        log, _store = campaign
        index = JobStateIndex(log)
        job_id = index.job_ids()[0]
        doc = index.meta(job_id).to_dict()
        assert doc["job_id"] == job_id
        assert set(doc) == {
            "job_id", "user", "account", "partition", "domain",
            "size_class", "num_nodes", "start_time_s", "end_time_s",
        }

    def test_unknown_job_id(self, campaign):
        log, _store = campaign
        index = JobStateIndex(log)
        assert index.get(10**9) is None
        with pytest.raises(ServeError, match="unknown job id"):
            index.meta(10**9)

    def test_unknown_size_class_rejected(self):
        fake_log = SimpleNamespace(jobs=[
            SimpleNamespace(job_id=7, size_class="Z"),
        ])
        with pytest.raises(ServeError, match="unknown size class"):
            JobStateIndex(fake_log)

    def test_partition_map_covers_table7_classes(self):
        assert set(PARTITION_BY_CLASS) == {"A", "B", "C", "D", "E"}


class TestTagging:
    """The one row join (``DerivedWindow.job_ids``) against the
    per-node ``job_id_grid`` oracle."""

    def test_tag_is_the_campaign_join_primitive(self, campaign, windows):
        log, _store = campaign
        # The t=0 window is all-idle; the mid-campaign ones carry jobs.
        window = windows[len(windows) // 2]
        tagged = DerivedWindow.of(window, log, INTERVAL_S).job_ids
        expected = np.zeros(len(window), dtype=np.int64)
        for node in np.unique(window.node_id):
            rows = window.node_id == node
            expected[rows] = log.job_id_grid(window.time_s[rows], int(node))
        assert np.array_equal(tagged, expected)
        # The campaign actually allocates jobs, so tags are non-trivial.
        assert tagged.max() > 0

    def test_tagged_ids_are_known_or_idle(self, campaign, windows):
        log, _store = campaign
        index = JobStateIndex(log)
        for window in windows[:5]:
            job_ids = DerivedWindow.of(window, log, INTERVAL_S).job_ids
            for jid in np.unique(job_ids):
                assert jid == 0 or int(jid) in index
