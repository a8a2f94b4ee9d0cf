"""The README's configuration reference loads and states the real defaults,
and its Layout block names every module."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from reuseloop.config import (
    RunConfig,
    build_corpus,
    config_from_dict,
    default_p_corrupt,
    reference_latency,
    resolve_executor,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_full_schema_loads():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Full schema with defaults:\n\n```json\n(.*?)\n```", text, re.S)
    assert match, "README lost its 'Full schema with defaults' block"
    config = config_from_dict(json.loads(match.group(1)))

    # The executor, latency and p_corrupt shown are the values a proposed run
    # resolves to at seed 7; every other value is its dataclass default.
    assert replace(
        config, executor=None, planner=replace(config.planner, latency_s=None, p_corrupt=None)
    ) == RunConfig()
    assert config.planner.latency_s == reference_latency("self")
    assert config.planner.p_corrupt == default_p_corrupt(config.mode)
    fitted = resolve_executor(RunConfig(), build_corpus(RunConfig()))
    assert vars(config.executor) == pytest.approx(vars(fitted), abs=0.005)


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Layout\n\n```\n(.*?)\n```", text, re.S)
    assert match, "README lost its Layout block"
    listed = set(re.findall(r"\w+", match.group(1)))
    modules = {p.stem for p in (ROOT / "src" / "reuseloop").glob("*.py")} - {"__init__"}
    assert modules <= listed, sorted(modules - listed)
