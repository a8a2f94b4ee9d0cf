"""``tests/mutants.py``'s list stays applicable: every entry's ``old`` text
occurs exactly once in its file, so a change that moves the code updates the
entry in the same diff. Running the mutants is the separate, slower gate."""

from __future__ import annotations

import pytest

import mutants


def test_ids_are_unique_and_entries_complete():
    ids = [entry[0] for entry in mutants.MUTANTS]
    assert len(ids) == len(set(ids))
    for mutant_id, file, old, new, tests, source in mutants.MUTANTS:
        assert old != new and tests and source, mutant_id


@pytest.mark.parametrize("entry", mutants.MUTANTS, ids=[entry[0] for entry in mutants.MUTANTS])
def test_old_text_occurs_exactly_once(entry):
    assert mutants.occurrences(entry) == 1


@pytest.mark.parametrize("entry", mutants.MUTANTS, ids=[entry[0] for entry in mutants.MUTANTS])
def test_named_tests_exist(entry):
    for node in entry[4]:
        path, *names = node.split("::")
        text = (mutants.ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {name}(" in text or f"class {name}" in text for name in names), node
