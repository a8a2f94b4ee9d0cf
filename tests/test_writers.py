"""Every file the package writes goes through ``errors.replacing``: a write
that fails part way leaves the previous file's bytes and no temporary file."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from reuseloop.engine import PROPOSED, ExecutorConfig, run_loop, write_records
from reuseloop.errors import replacing
from reuseloop.library import MethodLibrary
from reuseloop.metrics import aggregate, write_report_csv, write_report_json
from reuseloop.planner import MockPlanner
from reuseloop.tasks import generate_corpus, save_corpus
from reuseloop.trigger import TriggerThresholds


def _outputs(n_tasks: int) -> dict:
    """What each writer writes, for a small ``proposed`` run of ``n_tasks`` tasks."""
    events = generate_corpus(seed=4, n_tasks=n_tasks, n_repeats=2)
    library = MethodLibrary()
    records = run_loop(events, PROPOSED, library, MockPlanner(seed=1), TriggerThresholds(),
                       ExecutorConfig())
    return {"events": events, "records": records, "library": library, "report": aggregate(records)}


WRITERS = {
    "runs.jsonl": lambda out, path: write_records(out["records"], path),
    "library.json": lambda out, path: out["library"].save(path),
    "report.json": lambda out, path: write_report_json(out["report"], path),
    "report.csv": lambda out, path: write_report_csv(out["report"], path),
    "events.json": lambda out, path: save_corpus(out["events"], path),
}


def half_writing_open(real_open):
    """``Path.open`` whose files write half of each text and then fail."""

    def open_(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[: len(text) // 2])
            raise OSError("disk full")

        fh.write = write
        return fh

    return open_


@pytest.mark.parametrize("name", WRITERS)
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    WRITERS[name](_outputs(1), path)
    before = path.read_bytes()
    monkeypatch.setattr(Path, "open", half_writing_open(Path.open))
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](_outputs(2), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_replacing_writes_text_as_given(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(real_fsync(fd)))
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    with replacing(path) as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert synced == []
    with replacing(path, fsync=True) as fh:
        fh.write("c\n")
    assert path.read_bytes() == b"c\n"
    assert len(synced) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
