"""Mutation claims as a rerunnable gate: each entry is a small change to the
code that the tests it names must catch.

``MUTANTS`` lists ``(id, file, old, new, tests, source)`` entries: ``old``
is text that occurs exactly once in ``file``, ``new`` replaces it, ``tests``
are the pytest node ids that must fail on the mutant, and ``source`` quotes
the start of the CHANGES.md entry that claimed the mutation. Run from the
repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py --only ID  # one mutant; the flag may repeat

Each mutant runs in its own ``TemporaryDirectory``, which holds a copy of
``COPIED``: ``src/``, ``tests/``, ``pyproject.toml`` and the files the tests
read. There the entry's ``old`` is replaced by ``new``, and
``python -m pytest -q -x -p no:cacheprovider <tests>`` runs with
``PYTHONDONTWRITEBYTECODE=1``, so nothing is written in the checkout. A
mutant is killed when pytest reports a failed test (exit status 1). It
survives when the tests pass; any other status (a test id that is not
found, a collection error) is a broken entry. The exit status is nonzero if
any mutant survives, its ``old`` text does not occur exactly once, or its
entry is broken. This file's name has no ``test_`` prefix, so the tier-1
suite does not collect it; ``test_mutants_list.py`` checks there that every
``old`` still occurs once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# What the tests read: the package, the tests, pytest's settings, and the
# bundled configs, demos, README and perfbench that some tests run or parse.
COPIED = ("pyproject.toml", "README.md", "src", "tests", "configs", "demos", "perfbench")

MUTANTS = [
    (
        "deferred-fallback-all-methods",
        "src/reuseloop/library.py",
        "return _tie_winner(tied or self._slots[:n]), score",
        "return _tie_winner(tied or self._methods.values()), score",
        ["tests/test_library.py::TestIndexedRetrieval::test_zero_score_fallback_picks_among_the_methods_of_the_lookup",
         "tests/test_library.py::TestIndexedRetrieval::test_deferred_answer_is_the_lookups_property"],
        "[perf]: coverage first",
    ),
    (
        "phase-1-strict-floor",
        "src/reuseloop/library.py",
        "if bound < score or bound < floor:",
        "if bound < score or bound <= floor:",
        ["tests/test_library.py::TestIndexedRetrieval::test_a_score_at_the_threshold_is_covered",
         "tests/test_library.py::TestIndexedRetrieval::test_deferred_answer_is_the_lookups_property"],
        "[perf]: coverage first",
    ),
    (
        "schema-shared-default",
        "src/reuseloop/errors.py",
        "f.default if f.default_factory is MISSING else f)",
        "f.default if f.default_factory is MISSING else f.default_factory())",
        ["tests/test_schema.py::test_default_factories_are_called_on_every_read"],
        "[perf]: slotted library records",
    ),
    (
        "reader-finite-check-dropped",
        "src/reuseloop/errors.py",
        'f"if type({read}) is not float or not isfinite({v}):"',
        'f"if type({read}) is not float:"',
        ["tests/test_schema.py::test_the_reader_refuses_a_non_finite_number",
         "tests/test_schema.py::TestAgainstReference"],
        "[perf]: generated record readers",
    ),
    (
        "reader-unknown-field-check-dropped",
        "src/reuseloop/errors.py",
        '"    if not names.issuperset(doc):"',
        '"    if False:"',
        ["tests/test_config_cli.py::TestConfigDocuments::test_unknown_field_named",
         "tests/test_schema.py::TestAgainstReference"],
        "[perf]: generated record readers",
    ),
    (
        "reader-null-accepted-anywhere",
        "src/reuseloop/errors.py",
        "if value is None and nullable:",
        "if value is None:",
        ["tests/test_schema.py::test_null_refused_in_a_field_that_is_not_nullable",
         "tests/test_schema.py::TestAgainstReference"],
        "[perf]: generated record readers",
    ),
    (
        "observation-continues-numbering",
        "src/reuseloop/experience.py",
        "enumerate(event.action_sequence, 1)",
        "enumerate(event.action_sequence, len(self.obs_samples) + 1)",
        ["tests/test_experience.py::TestRolloutsVote::test_three_demonstrations_vote_by_majority"],
        "[simplicity]: every rollout restarts at step 1",
    ),
    (
        "bool-count-accepted",
        "src/reuseloop/library.py",
        "type(self.successes) is type(self.attempts) is type(self.created_cycle)\n"
        "                is type(self.last_used_cycle) is int",
        "True",
        ["tests/test_library.py::TestLibraryRecords::test_a_bool_count_is_refused"],
        "[simplicity]: every rollout restarts at step 1",
    ),
    (
        "rule-number-accepts-bool",
        "src/reuseloop/errors.py",
        "if type(value) is bool or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
        ["tests/test_trigger.py::test_thresholds_refuse_a_bool",
         "tests/test_config_cli.py::TestConfigDocuments::test_planner_settings_refuse_a_bool",
         "tests/test_costs.py::TestSingleTaskCost::test_bool_profile_rejected"],
        "[simplicity]: the field rules a record shares with its reader",
    ),
    (
        "rule-count-accepts-bool",
        "src/reuseloop/errors.py",
        "if type(value) is not int:",
        "if not isinstance(value, int):",
        ["tests/test_config_cli.py::TestConfigDocuments::test_run_config_refuses_what_its_reader_refuses",
         "tests/test_tasks.py::TestDescriptorInvariants::test_bool_refused_as_the_reader_refuses_it"],
        "[simplicity]: the field rules a record shares with its reader",
    ),
    (
        "rule-items-accepts-str",
        "src/reuseloop/errors.py",
        "if isinstance(value, str):",
        "if False:",
        ["tests/test_tasks.py::TestDescriptorInvariants::test_string_in_place_of_a_token_sequence_rejected",
         "tests/test_library.py::TestLibraryRecords::test_a_str_in_place_of_a_set_or_sequence_is_refused"],
        "[simplicity]: the field rules a record shares with its reader",
    ),
]


def occurrences(entry) -> int:
    """How often the entry's ``old`` text occurs in its file in the checkout."""
    _, file, old, *_ = entry
    return (ROOT / file).read_text(encoding="utf-8").count(old)


def run(entry) -> str:
    """``"killed"``, ``"survived"`` or what broke the entry, for one mutant."""
    mutant_id, file, old, new, tests, _ = entry
    if (found := occurrences(entry)) != 1:
        return f"old text found {found} times in {file}, not once"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant_id}-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp) / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(Path(tmp) / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True, check=False,
        )
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    tail = (result.stdout + result.stderr).strip().splitlines()[-1:]
    return f"pytest exited {result.returncode}: {' '.join(tail)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="ID",
                        help="run only the mutant with this id (may repeat)")
    args = parser.parse_args(argv)
    known = {entry[0] for entry in MUTANTS}
    if args.only and not known.issuperset(args.only):
        parser.error(f"unknown mutant id: {', '.join(sorted(set(args.only) - known))}")
    selected = [entry for entry in MUTANTS if not args.only or entry[0] in args.only]
    failed = 0
    for entry in selected:
        outcome = run(entry)
        failed += outcome != "killed"
        print(f"{entry[0]}: {outcome}", flush=True)
    print(f"{failed} of {len(selected)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
