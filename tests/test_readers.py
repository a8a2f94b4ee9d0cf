"""Every file the package reads whole goes through ``errors.load_json``: the
cycle collector is paused while the file is read, parsed and built into its
value, and is left as it was found however the read ends."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from reuseloop import errors
from reuseloop.cli import _read_config
from reuseloop.errors import SchemaError
from reuseloop.library import MethodLibrary
from reuseloop.tasks import generate_corpus, load_corpus, save_corpus

from conftest import make_method

# Each reader, with a way to write a file it accepts.
READERS = {
    "library.json": (
        MethodLibrary.load,
        lambda path: MethodLibrary([make_method(f"m-{i}") for i in range(50)]).save(path),
    ),
    "events.json": (
        load_corpus,
        lambda path: save_corpus(generate_corpus(seed=4, n_tasks=5, n_repeats=2), path),
    ),
    "config": (
        lambda path: _read_config(str(path), []),
        lambda path: path.write_text(json.dumps({"seed": 1}), encoding="utf-8"),
    ),
}


def _written(name: str, tmp_path: Path) -> Path:
    path = tmp_path / "input.json"
    READERS[name][1](path)
    return path


@pytest.mark.parametrize("name", READERS)
def test_collector_paused_while_reading(tmp_path, monkeypatch, name):
    path = _written(name, tmp_path)
    seen: dict[str, set[bool]] = {}

    def spy(stage, real):
        def call(*args, **kwargs):
            seen.setdefault(stage, set()).add(gc.isenabled())
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(Path, "read_text", spy("read", Path.read_text))
    monkeypatch.setattr(json, "loads", spy("parse", json.loads))
    monkeypatch.setattr(errors, "_read", spy("build", errors._read))
    READERS[name][0](path)
    assert seen == {"read": {False}, "parse": {False}, "build": {False}}
    assert gc.isenabled()


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("text, error", [
    ("{", SchemaError),
    ("[]", SchemaError),
    (None, FileNotFoundError),
], ids=["malformed", "schema_violation", "missing"])
def test_collector_restored_after_a_failed_read(tmp_path, name, text, error):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error):
        READERS[name][0](path)
    assert gc.isenabled()


@pytest.mark.parametrize("name", READERS)
def test_collector_that_was_off_stays_off(tmp_path, name):
    path = _written(name, tmp_path)
    gc.disable()
    try:
        READERS[name][0](path)
        assert not gc.isenabled()
        with pytest.raises(FileNotFoundError):
            READERS[name][0](tmp_path / "missing.json")
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", READERS)
def test_read_leaves_no_cyclic_garbage(tmp_path, name):
    # Pausing the collector is safe only because a read builds no cycles.
    path = _written(name, tmp_path)
    gc.collect()
    loaded = READERS[name][0](path)
    assert gc.collect() == 0
    assert loaded is not None
