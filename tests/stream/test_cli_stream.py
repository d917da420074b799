"""End-to-end `repro stream` CLI coverage."""

import numpy as np

from repro.cli import main
from repro.obs.history import HistoryStore

FLEET = ["--nodes", "8", "--days", "0.25"]


def test_stream_simulated_end_to_end(capsys):
    rc = main(
        [
            "stream", "--nodes", "4", "--days", "0.2", "--shuffle",
            "--dup-fraction", "0.05", "--snapshot-every", "20",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "final (drained) snapshot" in out
    assert "live Table IV" in out
    assert "ingest stats:" in out
    assert "duplicates dropped" in out


def test_stream_checkpoint_then_resume(capsys, tmp_path):
    ck = tmp_path / "ck.npz"
    rc = main(
        [
            "stream", "--nodes", "4", "--days", "0.2",
            "--max-chunks", "5", "--checkpoint", str(ck),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert ck.exists()
    assert "live (stream paused) snapshot" in out

    rc = main(["stream", "--nodes", "4", "--days", "0.2",
               "--resume", str(ck)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final (drained) snapshot" in out


def test_stream_flag_validation(capsys, tmp_path):
    # --dup-fraction without --shuffle is meaningless.
    assert main(["stream", "--nodes", "4", "--days", "0.2",
                 "--dup-fraction", "0.1"]) == 1
    # --from-file needs the scheduler log.
    assert main(["stream", "--from-file", str(tmp_path / "x.npz")]) == 1
    capsys.readouterr()


def _final_block(out: str) -> str:
    return out.split("===== final (drained) snapshot =====", 1)[1]


def test_resume_feeds_only_the_remaining_chunks(capsys, tmp_path):
    ck = tmp_path / "ck.npz"
    assert main(["stream", *FLEET]) == 0
    continuous = _final_block(capsys.readouterr().out)
    assert main(["stream", *FLEET, "--max-chunks", "5",
                 "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert main(["stream", *FLEET, "--resume", str(ck)]) == 0
    assert _final_block(capsys.readouterr().out) == continuous


def test_resume_reopens_the_sink_stores(capsys, tmp_path):
    ck = tmp_path / "ck.npz"
    whole, split = tmp_path / "whole", tmp_path / "split"

    def run(root, *extra):
        stores = ["--history-dir", root / "h", "--log-dir", root / "l"]
        assert main([str(a) for a in ["stream", *FLEET, *stores, *extra]]) == 0

    run(whole)
    run(split, "--max-chunks", "5", "--checkpoint", str(ck))
    run(split, "--resume", str(ck))
    capsys.readouterr()

    a, b = HistoryStore.open(whole / "h"), HistoryStore.open(split / "h")
    assert b.rows(0) == a.rows(0) == 36
    for name, _ in a.columns:
        np.testing.assert_array_equal(
            b.column_slice(name, 0, 0, b.rows(0)),
            a.column_slice(name, 0, 0, a.rows(0)),
            err_msg=name,
        )
    assert main(["obs", "logs", "--check", "--dir", str(split / "l")]) == 0
    # Without --resume an existing store is never appended to.
    assert main(["stream", *FLEET, "--log-dir", str(split / "l")]) == 1
    assert "already holds a log store" in capsys.readouterr().err


def test_dash_keeps_the_stores_in_memory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["stream", *FLEET, "--history-dir", "-",
                 "--log-dir", "-"]) == 0
    out = capsys.readouterr().out
    assert "history: 36 windows recorded" in out
    assert "events: " in out
    assert "written to -" not in out
    assert list(tmp_path.iterdir()) == []
