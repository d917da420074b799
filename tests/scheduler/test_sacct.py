"""Tests for the sacct-format scheduler-log adapter."""

import pytest

from repro import units
from repro.errors import ScheduleError
from repro.scheduler import SlurmSimulator, default_mix
from repro.scheduler.sacct import (
    domain_of_account,
    parse_nodelist,
    read_sacct,
    write_sacct,
)

SAMPLE = """JobID|Account|NNodes|Submit|Start|End|NodeList
1201|chm101|3|1680000000|1680000600|1680043200|frontier[0001-0003]
1202|cli204|2|1680000100|1680000700|1680010000|frontier[0005,0007]
1203|bio001|1|1680000200|1680044000|1680050000|frontier0002
"""


@pytest.fixture
def sacct_file(tmp_path):
    path = tmp_path / "sacct.txt"
    path.write_text(SAMPLE)
    return path


class TestParseNodelist:
    def test_range(self):
        assert parse_nodelist("frontier[0001-0003]") == [1, 2, 3]

    def test_mixed(self):
        assert parse_nodelist("frontier[0001-0002,0007]") == [1, 2, 7]

    def test_single_bare(self):
        assert parse_nodelist("node5") == [5]

    def test_invalid(self):
        with pytest.raises(ScheduleError):
            parse_nodelist("")
        with pytest.raises(ScheduleError):
            parse_nodelist("frontier[0003-0001]")
        with pytest.raises(ScheduleError):
            parse_nodelist("frontier")


class TestDomain:
    def test_prefix_rule(self):
        assert domain_of_account("chm101") == "CHM"
        assert domain_of_account("CLI204") == "CLI"

    def test_no_prefix(self):
        with pytest.raises(ScheduleError):
            domain_of_account("12345")


class TestReadSacct:
    def test_jobs_parsed(self, sacct_file):
        log = read_sacct(sacct_file)
        assert len(log.jobs) == 3
        by_id = log.job_by_id()
        assert by_id[1201].domain == "CHM"
        assert by_id[1201].num_nodes == 3
        # Times shifted so the campaign starts at zero.
        assert by_id[1201].submit_time_s == 0.0
        assert by_id[1202].submit_time_s == 100.0

    def test_allocations_expanded(self, sacct_file):
        log = read_sacct(sacct_file)
        nodes_1202 = sorted(
            a.node_id for a in log.allocations if a.job_id == 1202
        )
        assert nodes_1202 == [5, 7]

    def test_fleet_inferred(self, sacct_file):
        log = read_sacct(sacct_file)
        assert log.n_nodes == 8  # max node index 7

    def test_explicit_fleet_validated(self, sacct_file):
        with pytest.raises(ScheduleError):
            read_sacct(sacct_file, n_nodes=4)
        assert read_sacct(sacct_file, n_nodes=100).n_nodes == 100

    def test_nnodes_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "JobID|Account|NNodes|Submit|Start|End|NodeList\n"
            "1|chm1|5|0|1|2|frontier[0001-0003]\n"
        )
        with pytest.raises(ScheduleError):
            read_sacct(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("JobID|Account\n1|chm1\n")
        with pytest.raises(ScheduleError):
            read_sacct(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("JobID|Account|NNodes|Submit|Start|End|NodeList\n")
        with pytest.raises(ScheduleError):
            read_sacct(path)


class TestRoundtrip:
    def test_simulated_log_roundtrips(self, tmp_path):
        mix = default_mix(fleet_nodes=8)
        log = SlurmSimulator(mix).run(units.hours(6), rng=1)
        path = tmp_path / "sacct.txt"
        write_sacct(log, path)
        back = read_sacct(path, n_nodes=log.n_nodes)
        assert len(back.jobs) == len(log.jobs)
        back.validate_no_overlap()
        ours = {j.job_id: j for j in log.jobs}
        # read_sacct re-anchors the campaign at the earliest submit time.
        t0 = min(j.submit_time_s for j in log.jobs)
        for job in back.jobs:
            orig = ours[job.job_id]
            assert job.domain == orig.domain
            assert job.num_nodes == orig.num_nodes
            # sacct stores whole seconds; allow rounding.
            assert job.start_time_s == pytest.approx(
                orig.start_time_s - t0, abs=2.0
            )


class TestHostileRows:
    """Malformed rows raise ScheduleError naming the row, never a bare
    ValueError/TypeError, and nothing malformed is accepted."""

    HEADER = "JobID|Account|NNodes|Submit|Start|End|NodeList\n"
    GOOD = "1|chm1|1|100|200|300|node1\n"

    def _read(self, tmp_path, body):
        path = tmp_path / "sacct.txt"
        path.write_text(self.HEADER + body)
        return read_sacct(path)

    def test_iso_submit(self, tmp_path):
        with pytest.raises(ScheduleError, match=r"line 3 \(job '2'\)"):
            self._read(
                tmp_path,
                self.GOOD + "2|chm1|1|2023-04-01T00:00:00|200|300|node2\n",
            )

    def test_short_row(self, tmp_path):
        with pytest.raises(ScheduleError, match=r"line 2 .*short row"):
            self._read(tmp_path, "1|chm1|1|100\n")

    def test_duplicate_job_id(self, tmp_path):
        with pytest.raises(
            ScheduleError, match=r"line 3: duplicate JobID 1 \(first on line 2\)"
        ):
            self._read(tmp_path, self.GOOD + "1|chm1|1|400|500|600|node2\n")

    def test_non_numeric_node_range(self, tmp_path):
        with pytest.raises(ScheduleError, match="node\\[a-b\\]"):
            parse_nodelist("node[a-b]")
        with pytest.raises(ScheduleError, match=r"line 2 \(job '1'\)"):
            self._read(tmp_path, "1|chm1|1|100|200|300|node[a-b]\n")

    def test_non_finite_time(self, tmp_path):
        with pytest.raises(ScheduleError, match="non-finite"):
            self._read(tmp_path, "1|chm1|1|100|nan|300|node1\n")

    def test_account_without_domain_names_the_row(self, tmp_path):
        with pytest.raises(ScheduleError, match=r"line 2 \(job '1'\)"):
            self._read(tmp_path, "1|123|1|100|200|300|node1\n")
