"""Whole-loop properties of ``run_loop`` on random configurations.

Random thresholds reach trigger branches that no bundled config does,
``learn_low_confidence`` among them, and ``p_corrupt`` above 0 makes
validation fail and refinement fire.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuseloop.config import corpus_mode_for
from reuseloop.engine import POLICY_MODES, PROPOSED, ExecutorConfig, run_loop, write_records
from reuseloop.library import MethodLibrary
from reuseloop.planner import MockPlanner
from reuseloop.tasks import generate_corpus
from reuseloop.trigger import TriggerThresholds

CFG = ExecutorConfig()
_unit = st.floats(0.0, 1.0)


def _run(events, cut, mode, thresholds, p_corrupt, seed, directory: Path):
    """``run_loop`` over ``events`` from an empty library, returning the
    records, the ``runs.jsonl`` bytes and the final ``library.json`` bytes.

    With a ``cut`` the stream runs as two ``run_loop`` calls, the library
    saved and loaded between them; one planner serves both.
    """
    planner = MockPlanner(seed=seed, p_corrupt=p_corrupt)
    library = MethodLibrary()
    library_path = directory / "library.json"
    records = []
    for i, part in enumerate([events] if cut is None else [events[:cut], events[cut:]]):
        if i:
            library.save(library_path)
            library = MethodLibrary.load(library_path)
        records += run_loop(part, mode, library, planner, thresholds, CFG)
    library.save(library_path)
    write_records(records, directory / "runs.jsonl")
    return records, (directory / "runs.jsonl").read_bytes(), library_path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(POLICY_MODES),
    seed=st.integers(0, 10_000),
    n_tasks=st.integers(1, 20),
    n_repeats=st.integers(1, 5),
    thresholds=st.builds(TriggerThresholds, _unit, _unit, _unit, _unit),
    p_corrupt=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    cut_at=_unit,
)
# tau_q 0.9 sends every round-2+ event down learn_low_confidence.
@example(PROPOSED, 7, 20, 5, TriggerThresholds(tau_q=0.9), 0.0, 0.5)
@example(PROPOSED, 7, 20, 5, TriggerThresholds(), 0.3, 0.3)
def test_save_and_load_between_rounds_changes_nothing(
    mode, seed, n_tasks, n_repeats, thresholds, p_corrupt, cut_at
):
    events = generate_corpus(seed, n_tasks, n_repeats, corpus_mode_for(mode))
    cut = round(cut_at * len(events))
    args = (mode, thresholds, p_corrupt, seed)
    with tempfile.TemporaryDirectory() as whole_dir, tempfile.TemporaryDirectory() as split_dir:
        whole, whole_runs, whole_library = _run(events, None, *args, Path(whole_dir))
        split, _, split_library = _run(events, cut, *args, Path(split_dir))
        again = _run(events, None, *args, Path(split_dir))

    assert split[:cut] == whole[:cut]
    # repeat_index counts per run_loop call, so it restarts after the cut.
    assert [dataclasses.replace(r, repeat_index=1) for r in split[cut:]] == [
        dataclasses.replace(r, repeat_index=1) for r in whole[cut:]
    ]
    assert split_library == whole_library
    assert again == (whole, whole_runs, whole_library)
