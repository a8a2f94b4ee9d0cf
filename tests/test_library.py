from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuseloop import library as library_module
from reuseloop.config import RunConfig, build_corpus, build_planner, resolve_executor
from reuseloop.engine import run_loop
from reuseloop.errors import LibraryError, SchemaError, parse_json, read_dataclass, to_doc
from reuseloop.library import (
    Applicability,
    DataProfile,
    Method,
    MethodLibrary,
    Reliability,
    jaccard,
    matching_score,
)
from reuseloop.tasks import signature_of

from conftest import linear_scan_oracle, make_method, make_task, method_for_task

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestMatchingScore:
    def test_signature_membership_short_circuits(self, task):
        method = method_for_task(task)
        assert matching_score(task, method) == 1.0

    def test_jaccard_on_overlapping_goals(self, task):
        method = make_method(goal_tokens=("pick", "up", "blue", "cube"))
        # {pick, up, red, cube} vs {pick, up, blue, cube}: 3 shared of 5 total
        assert matching_score(task, method) == pytest.approx(3 / 5)

    def test_disjoint_tokens_score_zero(self, task):
        method = make_method(goal_tokens=("open", "door"))
        assert matching_score(task, method) == 0.0

    def test_step_budget_gate(self):
        task = make_task(max_steps=2, target=("move", "grasp"))
        method = make_method(procedure=("move", "grasp", "lift"), goal_tokens=("pick", "up", "red", "cube"))
        assert matching_score(task, method) == 0.0

    def test_jaccard_is_symmetric_and_bounded(self):
        rng = random.Random(4)
        tokens = ["pick", "up", "red", "cube", "ball", "open", "door", "blue"]
        for _ in range(200):
            a = set(rng.sample(tokens, rng.randint(0, len(tokens))))
            b = set(rng.sample(tokens, rng.randint(0, len(tokens))))
            assert jaccard(a, b) == jaccard(b, a)
            assert 0.0 <= jaccard(a, b) <= 1.0


class TestRetrieveBest:
    def test_empty_library(self, task, library):
        result = library.retrieve_best(task, 0.8)
        assert result.method is None
        assert result.score == 0.0
        assert not result.covered

    def test_best_of_two(self, task, library):
        # scores 0.6 and 0.9 against tau_r = 0.8 -> the 0.9 method, covered
        library.insert(make_method("m-a", goal_tokens=("pick", "up", "blue", "cube")))  # 3/5
        strong = method_for_task(task, method_id="m-b")
        library.insert(strong)
        result = library.retrieve_best(task, 0.8)
        assert result.method is strong
        assert result.covered

    def test_uncovered_still_returns_best(self, task, library):
        library.insert(make_method("m-a", goal_tokens=("pick", "up", "blue", "cube")))
        result = library.retrieve_best(task, 0.8)
        assert result.method is not None
        assert result.score == pytest.approx(0.6)
        assert not result.covered

    def test_scores_each_method_once(self, task, library, monkeypatch):
        library.insert(method_for_task(task))
        for i in range(4):
            library.insert(make_method(f"m-{i}", goal_tokens=("pick", "red", f"t{i}")))
        calls = []

        def counting(t, m):
            calls.append(m.id)
            return matching_score(t, m)

        monkeypatch.setattr(library_module, "matching_score", counting)
        result = library.retrieve_best(task, 0.8)
        assert result.score == 1.0 and result.covered
        # At most once per method: the index may leave some unscored.
        assert len(calls) == len(set(calls)) <= len(library)

    def test_tau_r_validated(self, task, library):
        with pytest.raises(ValueError):
            library.retrieve_best(task, 1.5)

    def test_matches_linear_scan_oracle_on_random_libraries(self):
        rng = random.Random(99)
        token_pool = ["pick", "up", "red", "cube", "ball", "sort", "tray", "blue", "stack"]
        for trial in range(300):
            library = MethodLibrary()
            max_steps = rng.choice([4, 8])
            task = make_task(
                goal=tuple(rng.sample(token_pool, rng.randint(1, 4))),
                target=("move",) * rng.randint(1, max_steps),
                max_steps=max_steps,
            )
            for m in range(rng.randint(0, 25)):
                sigs = {signature_of(task)} if rng.random() < 0.15 else {f"sig-{trial}-{m}"}
                attempts = rng.randint(0, 6)
                library.insert(
                    make_method(
                        method_id=f"m-{trial}-{m:02d}",
                        procedure=("move",) * rng.randint(1, 6),
                        signatures=sigs,
                        goal_tokens=tuple(rng.sample(token_pool, rng.randint(1, 5))),
                        successes=rng.randint(0, attempts),
                        attempts=attempts,
                        last_used_cycle=rng.randint(0, 50),
                    )
                )
            tau_r = rng.choice([0.0, 0.4, 0.8, 1.0])
            got = library.retrieve_best(task, tau_r)
            want_method, want_score, want_covered = linear_scan_oracle(library, task, tau_r)
            assert got.method is want_method
            assert got.score == want_score
            assert got.covered == want_covered


_TOKENS = ("pick", "up", "red", "cube", "door", "blue", "tray")
_WIDE_TOKENS = (*_TOKENS, "open", "left", "slow")


@st.composite
def retrieval_cases(draw, task_tokens=_TOKENS[:4], min_goal=1, tokens=_TOKENS):
    """A task, a library grown by random inserts and reliability updates, and a tau_r.

    The task's goal is ``min_goal`` or more of ``task_tokens``, and each
    method's token set is any proper subset of ``tokens``. With the defaults
    (goals of 1-4 tokens, method sets of up to six of seven), step budgets
    and procedures of 1-6 steps, and reliability counters of 0-2 make equal
    token sets with other lengths, overlaps with more or fewer method tokens
    than the task has, signature matches without shared tokens, all-zero
    libraries and full ties common.
    """
    max_steps = draw(st.integers(1, 6))
    task = make_task(
        goal=draw(st.lists(st.sampled_from(task_tokens), min_size=min_goal,
                           max_size=len(task_tokens), unique=True)),
        target=("move",) * draw(st.integers(1, max_steps)),
        max_steps=max_steps,
    )
    library = MethodLibrary()
    for step in range(draw(st.integers(0, 14))):
        if len(library) and draw(st.booleans()):
            method_id = draw(st.sampled_from([m.id for m in library.methods()]))
            library.update_reliability(method_id, draw(st.booleans()), draw(st.integers(0, 2)))
            continue
        attempts = draw(st.integers(0, 2))
        library.insert(
            make_method(
                # The letter makes id order differ from insertion order.
                method_id=f"m-{draw(st.sampled_from('zxa'))}{step:02d}",
                procedure=("move",) * draw(st.integers(1, 6)),
                signatures=draw(st.sampled_from([{f"sig-{step}"}] * 3 + [{task.signature}])),
                goal_tokens=draw(st.lists(st.sampled_from(tokens), max_size=len(tokens) - 1,
                                          unique=True)),
                successes=draw(st.integers(0, attempts)),
                attempts=attempts,
                last_used_cycle=draw(st.integers(0, 2)),
                max_steps=draw(st.integers(1, 6)),
            )
        )
    return task, library, draw(st.sampled_from([0.0, 0.5, 1.0]))


# tau_r at 0 and 1, at a ratio of small ints, as the scores o / q are, or anywhere.
_TAU_R = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(1, 8).flatmap(lambda n: st.integers(0, n).map(lambda k: k / n)),
    st.floats(0.0, 1.0),
)


def _assert_matches_oracle(library, task, tau_r):
    got = library.retrieve_best(task, tau_r)
    want_method, want_score, want_covered = linear_scan_oracle(library, task, tau_r)
    assert got.method is want_method
    assert got.score == want_score
    assert got.covered == want_covered
    if got.covered:
        assert got.method is not None
    return got


_NAMED_TASK = make_task(max_steps=4)
_PICK_UP_TASK = make_task(goal=("pick", "up"), max_steps=4)
_SIX_TOKENS = ("pick", "up", "red", "cube", "door", "blue")
_SIX_TOKEN_TASK = make_task(goal=_SIX_TOKENS, max_steps=4)


def _synthetic_library(n=2000):
    """``n`` methods over a 200-word vocabulary that no ``make_task`` default shares."""
    rng = random.Random(11)
    words = [f"w{k}" for k in range(200)]
    library = MethodLibrary()
    for i in range(n):
        attempts = rng.randint(0, 9)
        library.insert(
            make_method(
                method_id=f"m-{i:04d}",
                procedure=("move",) * rng.randint(1, 6),
                goal_tokens=rng.sample(words, 4),
                successes=rng.randint(0, attempts),
                attempts=attempts,
                last_used_cycle=rng.randint(0, 50),
            )
        )
    return library


class TestIndexedRetrieval:
    @settings(max_examples=400, deadline=None)
    @given(retrieval_cases())
    def test_matches_linear_scan_oracle_property(self, case):
        task, library, tau_r = case
        _assert_matches_oracle(library, task, tau_r)

    @settings(max_examples=200, deadline=None)
    @given(retrieval_cases(task_tokens=_WIDE_TOKENS[:8], min_goal=5, tokens=_WIDE_TOKENS))
    def test_long_goals_match_the_oracle_property(self, case):
        """Goals of 5-8 tokens against method sets of up to nine of ten, so
        overlaps reach every level from 1 to 8."""
        task, library, tau_r = case
        _assert_matches_oracle(library, task, tau_r)

    @settings(max_examples=400, deadline=None)
    @given(retrieval_cases(), _TAU_R, st.sampled_from(["read", "insert", "update"]), st.data())
    def test_deferred_answer_is_the_lookups_property(self, case, tau_r, then, data):
        """An answer equals the oracle's as of its lookup, read at once or
        after later inserts. Once ``update_reliability`` has run, a deferred
        (uncovered) answer refuses to be read, and a covered one, finished
        at the lookup, still reads as it was."""
        task, library, _ = case
        draw = data.draw
        want_method, want_score, want_covered = linear_scan_oracle(library, task, tau_r)
        stored = len(library)
        found = library.retrieve_best(task, tau_r)
        assert found.covered == want_covered
        # An update needs a method to update, so it follows at least one insert.
        for step in range(draw(st.integers(int(then == "update"), 3)) if then != "read" else 0):
            attempts = draw(st.integers(0, 2))
            library.insert(make_method(
                method_id=f"m-later-{step}",
                procedure=("move",) * draw(st.integers(1, 6)),
                signatures=draw(st.sampled_from([{f"sig-later-{step}"}, {task.signature}])),
                goal_tokens=draw(st.lists(st.sampled_from(_TOKENS), max_size=6, unique=True)),
                successes=draw(st.integers(0, attempts)),
                attempts=attempts,
                last_used_cycle=draw(st.integers(0, 3)),
            ))
        if then == "update":
            method_id = draw(st.sampled_from([m.id for m in library.methods()]))
            library.update_reliability(method_id, draw(st.booleans()), 3)
            if stored and not want_covered:
                for name in ("method", "score"):
                    with pytest.raises(LibraryError, match="after update_reliability"):
                        getattr(found, name)
                return
        assert found.method is want_method
        assert found.score == want_score
        assert found.covered == want_covered

    def test_long_goals_reach_the_high_overlap_levels(self):
        rng = random.Random(5)
        top_overlaps = set()
        for trial in range(200):
            goal = rng.sample(_WIDE_TOKENS, rng.randint(5, 8))
            task = make_task(goal=goal, target=("move",), max_steps=rng.randint(1, 6))
            library = MethodLibrary(
                make_method(
                    method_id=f"m-{trial}-{i:02d}",
                    procedure=("move",) * rng.randint(1, 6),
                    goal_tokens=rng.sample(_WIDE_TOKENS, rng.randint(1, 9)),
                    successes=rng.randint(0, 1),
                    attempts=1,
                )
                for i in range(rng.randint(1, 12))
            )
            got = _assert_matches_oracle(library, task, rng.choice([0.0, 0.5, 1.0]))
            top_overlaps.add(len(got.method.applicability.goal_tokens & task.goal_tokens))
        assert set(range(5, 9)) <= top_overlaps

    @pytest.mark.parametrize("tau_r", [0.0, 1.0])
    @pytest.mark.parametrize(
        "task, methods",
        [
            # same token set but a procedure too long for the budget, beside a
            # partial match: the twin scores 0, so the partial match wins
            (_NAMED_TASK,
             [dict(method_id="m-long", procedure=("move",) * 5, successes=2, attempts=2),
              dict(method_id="m-part", goal_tokens=("pick", "up"))]),
            # same token set under another max_steps, so another signature,
            # against an exact signature match with a worse record
            (_NAMED_TASK,
             [dict(method_id="m-sig", signatures={_NAMED_TASK.signature}, successes=0, attempts=1),
              dict(method_id="m-twin", max_steps=6, successes=1, attempts=1)]),
            # a signature match whose tokens do not overlap the task's
            (_NAMED_TASK,
             [dict(method_id="m-sig", signatures={_NAMED_TASK.signature},
                   goal_tokens=("open", "door")),
              dict(method_id="m-part", goal_tokens=("pick", "up"), successes=5, attempts=5)]),
            # every method scores 0: disjoint tokens, or shared tokens over budget
            (_NAMED_TASK,
             [dict(method_id="m-b", goal_tokens=("open", "door"), successes=1, attempts=2),
              dict(method_id="m-a", goal_tokens=("pick",), procedure=("move",) * 9,
                   successes=1, attempts=2, last_used_cycle=4),
              dict(method_id="m-c", goal_tokens=(), successes=1, attempts=2)]),
            # full reliability ties: the smallest id wins
            (_NAMED_TASK,
             [dict(method_id="m-z", goal_tokens=("pick", "up")),
              dict(method_id="m-y", goal_tokens=("pick", "up")),
              dict(method_id="m-x", goal_tokens=("door",))]),
            # overlap 1 of 1 token scores 1/2 and beats overlap 2 of 6 at 1/3,
            # so the highest overlap is not the best score
            (_PICK_UP_TASK,
             [dict(method_id="m-wide", goal_tokens=("pick", "up", "red", "cube", "door", "blue"),
                   successes=3, attempts=3),
              dict(method_id="m-one", goal_tokens=("pick",))]),
            # overlap 1 of 1 token and overlap 2 of 4 both score 1/2, and the
            # lower overlap wins the tie-break on its success ratio
            (_PICK_UP_TASK,
             [dict(method_id="m-two", goal_tokens=("pick", "up", "red", "cube"),
                   successes=0, attempts=1),
              dict(method_id="m-one", goal_tokens=("pick",), successes=1, attempts=1)]),
            # every method sharing both tokens is over budget, so overlap 1 wins
            (_PICK_UP_TASK,
             [dict(method_id="m-long", goal_tokens=("pick", "up"), procedure=("move",) * 5,
                   successes=2, attempts=2),
              dict(method_id="m-longer", goal_tokens=("pick", "up", "red"),
                   procedure=("move",) * 7, successes=2, attempts=2),
              dict(method_id="m-short", goal_tokens=("up", "door"))]),
            # six task tokens: every method at overlap 6 and one at 5 are over
            # budget, the one left at 5 has too many tokens of its own, so the
            # visit goes down to overlap 4, whose best wins; overlap 3 cannot
            # reach it
            (_SIX_TOKEN_TASK,
             [dict(method_id="m-six", goal_tokens=_SIX_TOKENS, procedure=("move",) * 5,
                   successes=2, attempts=2),
              dict(method_id="m-seven", goal_tokens=(*_SIX_TOKENS, "tray"),
                   procedure=("move",) * 6),
              dict(method_id="m-five", goal_tokens=_SIX_TOKENS[:5], procedure=("move",) * 9),
              dict(method_id="m-five-wide",
                   goal_tokens=(*_SIX_TOKENS[:5], "tray", "open", "left", "slow", "fast")),
              dict(method_id="m-four-wide", goal_tokens=(*_SIX_TOKENS[:4], "tray")),
              dict(method_id="m-four", goal_tokens=_SIX_TOKENS[:4]),
              dict(method_id="m-three", goal_tokens=_SIX_TOKENS[:3], successes=1, attempts=1)]),
            # two methods in the signature bucket, neither in the token-set
            # bucket: the later-inserted one wins on its success ratio
            (_NAMED_TASK,
             [dict(method_id="m-a", signatures={_NAMED_TASK.signature}, goal_tokens=("pick",),
                   successes=1, attempts=2, last_used_cycle=5),
              dict(method_id="m-b", signatures={_NAMED_TASK.signature}, goal_tokens=("door",),
                   successes=1, attempts=1)]),
            # the one signature method is over budget, which a signature match
            # ignores; its token-set twin fits and wins on its record
            (_NAMED_TASK,
             [dict(method_id="m-sig", signatures={_NAMED_TASK.signature}, goal_tokens=("pick",),
                   procedure=("move",) * 5, successes=0, attempts=1),
              dict(method_id="m-twin", max_steps=6, successes=1, attempts=1)]),
            # no signature match: the exact hit is in the token-set bucket only,
            # beside an over-budget twin and a partial match with better records
            (_NAMED_TASK,
             [dict(method_id="m-long", procedure=("move",) * 5, successes=2, attempts=2),
              dict(method_id="m-part", goal_tokens=("pick", "up"), successes=3, attempts=3),
              dict(method_id="m-twin", max_steps=6, successes=0, attempts=1)]),
            # cross-overlap-tie mirrored: both score 1/2, equal ratios, and the
            # higher overlap, visited first, wins on recency over a smaller id
            (_PICK_UP_TASK,
             [dict(method_id="m-one", goal_tokens=("pick",), successes=1, attempts=1),
              dict(method_id="m-two", goal_tokens=("pick", "up", "red", "cube"),
                   successes=1, attempts=1, last_used_cycle=3)]),
            # both score 1/2 with equal records: the smaller id, visited last, wins
            (_PICK_UP_TASK,
             [dict(method_id="m-a", goal_tokens=("up",), successes=1, attempts=2),
              dict(method_id="m-b", goal_tokens=("pick", "up", "red", "cube"),
                   successes=1, attempts=2)]),
        ],
        ids=["over-budget-twin", "other-max-steps", "disjoint-signature", "all-zero", "ties",
             "smaller-overlap-wins", "cross-overlap-tie", "top-overlap-over-budget",
             "top-levels-over-budget", "two-signature-methods", "over-budget-sole-signature",
             "token-set-bucket-only", "cross-overlap-tie-on-recency", "cross-overlap-tie-on-id"],
    )
    def test_named_cases_match_the_oracle(self, task, methods, tau_r):
        library = MethodLibrary(make_method(**spec) for spec in methods)
        _assert_matches_oracle(library, task, tau_r)

    def _count_calls(self, monkeypatch):
        calls = []

        def counting(t, m):
            calls.append(m.id)
            return matching_score(t, m)

        monkeypatch.setattr(library_module, "matching_score", counting)
        return calls

    def test_exact_hit_scores_only_its_exact_pool(self, task, monkeypatch):
        library = _synthetic_library()
        library.insert(method_for_task(task, method_id="m-exact", successes=1, attempts=2))
        # Same tokens, another step budget: another signature, still a 1.0 match.
        library.insert(make_method("m-twin", max_steps=7, successes=1, attempts=1))
        library.insert(make_method("m-long", procedure=("move",) * 9))  # over budget
        library.insert(make_method("m-part", goal_tokens=("pick", "w1")))
        calls = self._count_calls(monkeypatch)
        result = _assert_matches_oracle(library, task, 0.8)
        assert result.method.id == "m-twin" and result.score == 1.0
        # The scan, seeded with the signature bucket, finds the twin at level q.
        assert calls == []

    def test_sole_exact_hit_is_scored_once(self, task, monkeypatch):
        library = _synthetic_library()
        library.insert(method_for_task(task, method_id="m-exact"))
        library.insert(make_method("m-part", goal_tokens=("pick", "w1"), successes=1, attempts=1))
        calls = self._count_calls(monkeypatch)
        result = _assert_matches_oracle(library, task, 0.8)
        assert result.method.id == "m-exact" and result.score == 1.0
        # The shortcut returns it at 1.0 without scoring it.
        assert calls == []

    def test_partial_match_scores_only_methods_sharing_a_token(self, monkeypatch):
        library = _synthetic_library()
        task = make_task(goal=("w7", "w8", "zzz"))
        sharing = {
            m.id for m in library.methods() if m.applicability.goal_tokens & task.goal_tokens
        }
        calls = self._count_calls(monkeypatch)
        _assert_matches_oracle(library, task, 0.8)
        # Partial matches are scored from overlap counts, not matching_score.
        assert calls == []
        assert 0 < len(sharing) < len(library) // 10

    def test_loaded_library_answers_as_the_inserted_one(self, tmp_path):
        built = _synthetic_library()
        built.save(tmp_path / "library.json")
        loaded = MethodLibrary.load(tmp_path / "library.json")
        rng = random.Random(5)
        words = [f"w{k}" for k in range(200)]
        for _ in range(40):
            task = make_task(
                goal=rng.sample(words, rng.randint(1, 8)), target=("move",),
                max_steps=rng.randint(1, 6),
            )
            tau_r = rng.choice([0.0, 0.3, 0.8])
            want = built.retrieve_best(task, tau_r)
            got = _assert_matches_oracle(loaded, task, tau_r)
            assert (got.method.id, got.score, got.covered) == (
                want.method.id, want.score, want.covered)

    def test_disjoint_task_scores_nothing(self, monkeypatch):
        library = _synthetic_library()
        task = make_task(goal=("open", "the", "door"))
        winner = min(
            library.methods(),
            key=lambda m: (-m.reliability.success_ratio, -m.reliability.last_used_cycle, m.id),
        )
        calls = self._count_calls(monkeypatch)
        for tau_r in (0.0, 0.8):
            result = library.retrieve_best(task, tau_r)
            assert result.method is winner
            assert result.score == 0.0
            assert result.covered == (tau_r == 0.0)
        assert calls == []



@pytest.mark.parametrize("name", ["self_proposed", "proposed_observation"])
def test_bundled_exact_hits_all_take_the_shortcut(name, monkeypatch):
    """In the bundled 20 x 5 learning runs at seed 7, ``_tie_winner`` runs
    only for lookups with no signature match: every exact hit is returned
    by the shortcut, whose only reason is that traffic. Each answer is read
    before its tie-breaks are counted, as an uncovered one runs its
    tie-break only when read."""
    config = read_dataclass(RunConfig, parse_json((CONFIGS / f"{name}.json").read_text()))
    assert (config.seed, config.n_tasks, config.n_repeats) == (7, 20, 5)
    retrieve_best, tie_winner = MethodLibrary.retrieve_best, library_module._tie_winner
    tie_breaks = []
    lookups = []  # (signature matched, tie-breaks run, score)

    def counting_tie_winner(methods):
        tie_breaks.append(methods)
        return tie_winner(methods)

    def recording_retrieve_best(self, task, tau_r):
        matched = any(task.signature in m.applicability.signatures for m in self.methods())
        before = len(tie_breaks)
        found = retrieve_best(self, task, tau_r)
        score = found.score  # an uncovered answer finishes on its first read
        lookups.append((matched, len(tie_breaks) - before, score))
        return found

    monkeypatch.setattr(library_module, "_tie_winner", counting_tie_winner)
    monkeypatch.setattr(MethodLibrary, "retrieve_best", recording_retrieve_best)
    events = build_corpus(config)
    run_loop(events, config.mode, MethodLibrary(), build_planner(config), config.thresholds,
             resolve_executor(config, events))
    exact = [(runs, score) for matched, runs, score in lookups if matched]
    assert exact and set(exact) == {(0, 1.0)}
    assert any(runs for matched, runs, _ in lookups if not matched)


@pytest.mark.parametrize(
    "name, size",
    [("self_proposed", (20, 5)), ("proposed_observation", (20, 5)), ("self_proposed", (384, 3))],
    ids=["self_proposed", "proposed_observation", "proposed-384x3"],
)
def test_runs_never_finish_a_deferred_answer(name, size, monkeypatch):
    """The engine reads ``method`` and ``score`` only of a covered lookup, so
    in the bundled learning runs, and at reuse-384's 384 x 3, no uncovered
    lookup runs the rest of its visit or its tie-break. The spy counts only
    tie-breaks reached from a deferred answer's first read."""
    config = read_dataclass(RunConfig, parse_json((CONFIGS / f"{name}.json").read_text()))
    config = dataclasses.replace(config, n_tasks=size[0], n_repeats=size[1])
    tie_winner, retrieve_best = library_module._tie_winner, MethodLibrary.retrieve_best
    first_read = library_module.RetrievalResult.__getattr__.__code__
    finished, uncovered = [], []

    def spying_tie_winner(methods):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not first_read:
            frame = frame.f_back
        if frame is not None:
            finished.append(methods)
        return tie_winner(methods)

    def counting_retrieve_best(self, task, tau_r):
        found = retrieve_best(self, task, tau_r)
        uncovered.append(not found.covered)
        return found

    monkeypatch.setattr(library_module, "_tie_winner", spying_tie_winner)
    monkeypatch.setattr(MethodLibrary, "retrieve_best", counting_retrieve_best)
    events = build_corpus(config)
    library = MethodLibrary()
    run_loop(events, config.mode, library, build_planner(config), config.thresholds,
             resolve_executor(config, events))
    assert len(uncovered) == len(events) and sum(uncovered) >= size[0]
    assert finished == []
    # The spy sees a deferred answer finish when one is read.
    assert library.retrieve_best(make_task(goal=("zzz",)), 0.5).method is not None
    assert len(finished) == 1


class TestInsertAndReliability:
    def test_insert_grows_by_one(self, library):
        library.insert(make_method("m-a"))
        assert len(library) == 1

    def test_insert_then_retrieve_exact(self, task, library):
        library.insert(method_for_task(task, method_id="m-new"))
        result = library.retrieve_best(task, 0.8)
        assert result.covered
        assert result.score == 1.0

    def test_duplicate_id_rejected(self, library):
        library.insert(make_method("m-a"))
        with pytest.raises(LibraryError):
            library.insert(make_method("m-a"))
        assert len(library) == 1

    def test_update_fresh_success(self, library):
        library.insert(make_method("m-a"))
        library.update_reliability("m-a", True, cycle=3)
        rel = library.get("m-a").reliability
        assert (rel.successes, rel.attempts, rel.last_used_cycle) == (1, 1, 3)

    def test_update_failure_counts_attempt(self, library):
        library.insert(make_method("m-a", successes=3, attempts=4))
        library.update_reliability("m-a", False, cycle=9)
        rel = library.get("m-a").reliability
        assert (rel.successes, rel.attempts) == (3, 5)

    def test_success_ratio_replays_update_log(self, library):
        rng = random.Random(5)
        library.insert(make_method("m-a"))
        wins = 0
        for i in range(50):
            ok = rng.random() < 0.7
            wins += ok
            library.update_reliability("m-a", ok, cycle=i)
        assert library.get("m-a").reliability.success_ratio == pytest.approx(wins / 50)

    def test_unknown_id_rejected(self, library):
        with pytest.raises(LibraryError):
            library.update_reliability("missing", True, 0)

    def test_reliability_invariant(self):
        with pytest.raises(ValueError):
            Reliability(successes=2, attempts=1)


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


def _library_records():
    """One record of each of the four library classes, from one method."""
    method = make_method(successes=2, attempts=3, created_cycle=1, last_used_cycle=4)
    return [method.data_profile, method.applicability, method.reliability, method]


class TestLibraryRecords:
    """The four records a method is made of are slotted: none carries an
    instance ``__dict__``, so a loaded library keeps none per method. Every
    way of copying one gives an equal record."""

    @pytest.mark.parametrize("record", _library_records(), ids=lambda r: type(r).__name__)
    def test_slotted_with_no_instance_dict(self, record):
        cls = type(record)
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "x"

    @pytest.mark.parametrize("record", _library_records(), ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize(
        "build", [dataclasses.replace, copy.copy, copy.deepcopy, _pickled],
        ids=["replace", "copy", "deepcopy", "pickle"],
    )
    def test_every_way_of_copying_gives_an_equal_record(self, record, build):
        twin = build(record)
        assert type(twin) is type(record) and twin is not record
        assert twin == record and not hasattr(twin, "__dict__")

    def test_applicability_stores_frozensets(self):
        appl = Applicability(signatures=["s-1", "s-2"], goal_tokens=["pick", "cube"], max_steps=3)
        assert type(appl.signatures) is frozenset and appl.signatures == {"s-1", "s-2"}
        assert type(appl.goal_tokens) is frozenset and appl.goal_tokens == {"pick", "cube"}
        assert dataclasses.replace(appl, goal_tokens=["ring"]).goal_tokens == frozenset({"ring"})

    def test_update_reliability_updates_in_place(self, library):
        method = make_method("m-a", successes=1, attempts=2)
        rel = method.reliability
        library.insert(method)
        library.update_reliability("m-a", True, cycle=7)
        assert library.get("m-a").reliability is rel
        assert (rel.successes, rel.attempts, rel.last_used_cycle) == (2, 3, 7)


def _method_to_dict(m: Method) -> dict:
    """Oracle for one ``library.json`` entry, built as plain JSON values."""
    return {
        "id": m.id,
        "procedure": list(m.procedure),
        "step_params": list(m.step_params) if m.step_params is not None else None,
        "params": dict(m.params),
        "data_profile": {
            "n_self_samples": m.data_profile.n_self_samples,
            "n_obs_samples": m.data_profile.n_obs_samples,
            "episodes": m.data_profile.episodes,
        },
        "applicability": {
            "signatures": sorted(m.applicability.signatures),
            "goal_tokens": sorted(m.applicability.goal_tokens),
            "max_steps": m.applicability.max_steps,
        },
        "reliability": {
            "successes": m.reliability.successes,
            "attempts": m.reliability.attempts,
            "created_cycle": m.reliability.created_cycle,
            "last_used_cycle": m.reliability.last_used_cycle,
        },
    }


def saved_doc(library: MethodLibrary, tmp_path: Path) -> dict:
    """The ``library.json`` document ``save`` writes, parsed back."""
    path = tmp_path / "saved.json"
    library.save(path)
    return json.loads(path.read_text(encoding="utf-8"))


def _oracle_text(library: MethodLibrary) -> str:
    doc = {"version": 1, "methods": [_method_to_dict(m) for m in library.methods()]}
    return json.dumps(doc, indent=2) + "\n"


# Strings with what JSON must escape or may mangle: quotes, backslashes,
# control characters, non-ASCII, astral characters and U+2028.
_json_strings = st.text(
    st.sampled_from('ab"\\\x00\x1f\x7f\n\té€\u2028\u2029\U0001f916') | st.characters(),
    max_size=6,
)
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([-0.0, 1e308, -1e308, 5e-324, float("nan"), float("inf"), float("-inf")])
    | _json_strings
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=3),
    max_leaves=12,
)
_counts = st.integers(min_value=0, max_value=2**70)
_names = _json_strings.filter(bool)


@st.composite
def _methods(draw, method_id):
    procedure = tuple(draw(st.lists(_names, min_size=1, max_size=4)))
    step_params = draw(
        st.none()
        | st.lists(
            st.dictionaries(_json_strings, _json_values, max_size=3),
            min_size=len(procedure), max_size=len(procedure),
        ).map(tuple)
    )
    attempts = draw(_counts)
    return Method(
        id=method_id,
        procedure=procedure,
        params=draw(st.dictionaries(_json_strings, _json_values, max_size=4)),
        data_profile=DataProfile(draw(_counts), draw(_counts), draw(_counts)),
        applicability=Applicability(
            signatures=draw(st.frozensets(_names, min_size=1, max_size=3)),
            goal_tokens=draw(st.frozensets(_json_strings, max_size=4)),
            max_steps=draw(st.integers(min_value=1, max_value=2**70)),
        ),
        reliability=Reliability(
            successes=draw(st.integers(min_value=0, max_value=attempts)),
            attempts=attempts,
            created_cycle=draw(_counts),
            last_used_cycle=draw(_counts),
        ),
        step_params=step_params,
    )


_libraries = st.lists(_names, max_size=4, unique=True).flatmap(
    lambda ids: st.tuples(*(_methods(i) for i in ids)).map(MethodLibrary)
)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path, library):
        path = tmp_path / "lib.json"
        library.save(path)
        assert len(MethodLibrary.load(path)) == 0

    def test_full_round_trip(self, tmp_path):
        rng = random.Random(7)
        library = MethodLibrary()
        for i in range(20):
            attempts = rng.randint(0, 9)
            library.insert(
                make_method(
                    method_id=f"m-{i:02d}",
                    procedure=tuple(rng.choice(["move", "grasp", "lift"]) for _ in range(rng.randint(1, 5))),
                    signatures={f"sig-{i}", f"sig-extra-{i}"},
                    goal_tokens=("pick", f"tok{i}"),
                    successes=rng.randint(0, attempts),
                    attempts=attempts,
                    created_cycle=i,
                    last_used_cycle=i + rng.randint(0, 4),
                )
            )
        path = tmp_path / "lib.json"
        library.save(path)
        loaded = MethodLibrary.load(path)
        loaded.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()
        for original, copy in zip(library.methods(), loaded.methods()):
            assert original == copy

    def test_generic_codec_agrees_with_the_library_codec(self, library, tmp_path):
        # library.json keeps its hand-written writer for speed; the generic
        # to_doc writes the same entries, sets and free-form mappings included.
        method = dataclasses.replace(
            make_method("m-a", signatures={"sig-b", "sig-a"}, successes=1, attempts=2),
            step_params=({"speed": 0.5},) * 3,
        )
        library.insert(method)
        (entry,) = saved_doc(library, tmp_path)["methods"]
        assert to_doc(method) == entry
        assert read_dataclass(Method, entry) == method

    def test_successes_exceeding_attempts_rejected(self, tmp_path):
        library = MethodLibrary()
        library.insert(make_method("m-a", successes=1, attempts=1))
        doc = saved_doc(library, tmp_path)
        doc["methods"][0]["reliability"]["successes"] = 5
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            MethodLibrary.load(path)
        assert err.value.field == "methods[0].reliability.successes"
        assert err.value.message == "must not exceed attempts"

    def test_duplicate_ids_named(self, tmp_path):
        doc = saved_doc(MethodLibrary([make_method("m-a"), make_method("m-b")]), tmp_path)
        doc["methods"].append(doc["methods"][0])
        with pytest.raises(SchemaError) as err:
            MethodLibrary.from_doc(doc)
        assert err.value.field == "methods[2].id"
        assert "duplicate method id 'm-a'" in str(err.value)

    @pytest.mark.parametrize("name, entries, field, repeat", [
        ("signatures", ["s", "s"], "signatures[1]", "'s'"),
        ("goal_tokens", ["a", "a", "b"], "goal_tokens[1]", "'a'"),
        ("goal_tokens", ["a", "b", "c", "b"], "goal_tokens[3]", "'b'"),
    ], ids=["signature", "goal_token", "goal_token_after_others"])
    def test_repeated_set_entry_named(self, name, entries, field, repeat, tmp_path):
        # Read as a set, the repeat would vanish and the next save drop it.
        doc = saved_doc(MethodLibrary([make_method("m-a")]), tmp_path)
        doc["methods"][0]["applicability"][name] = entries
        with pytest.raises(SchemaError) as err:
            MethodLibrary.from_doc(doc)
        assert err.value.field == f"methods[0].applicability.{field}"
        assert err.value.message == f"duplicate entry {repeat}"

    def test_malformed_field_named(self, tmp_path):
        library = MethodLibrary()
        library.insert(make_method("m-a", successes=1, attempts=1))
        missing = object()
        cases = [
            (("procedure",), missing, "methods[0].procedure"),
            (("procedure",), ["move", 3], "methods[0].procedure[1]"),
            (("reliability", "successes"), True, "methods[0].reliability.successes"),
            (("reliability", "attempts"), True, "methods[0].reliability.attempts"),
            (("data_profile", "n_self_samples"), True, "methods[0].data_profile.n_self_samples"),
            (("extra_key",), 1, "methods[0].extra_key"),
            (("data_profile", "bogus"), 1, "methods[0].data_profile.bogus"),
            (("applicability", "bogus"), 1, "methods[0].applicability.bogus"),
            (("reliability", "bogus"), 1, "methods[0].reliability.bogus"),
        ]
        for keys, value, field in cases:
            doc = saved_doc(library, tmp_path)
            node = doc["methods"][0]
            for key in keys[:-1]:
                node = node[key]
            if value is missing:
                del node[keys[-1]]
            else:
                node[keys[-1]] = value
            path = tmp_path / "lib.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError) as err:
                MethodLibrary.load(path)
            assert err.value.field == field
        # An unknown root key, and an unknown method key in place of the
        # optional step_params.
        doc = saved_doc(library, tmp_path)
        doc["zz"] = 1
        with pytest.raises(SchemaError) as err:
            MethodLibrary.from_doc(doc)
        assert err.value.field == "zz"
        doc = saved_doc(library, tmp_path)
        del doc["methods"][0]["step_params"]
        doc["methods"][0]["extra_key"] = None
        with pytest.raises(SchemaError) as err:
            MethodLibrary.from_doc(doc)
        assert err.value.field == "methods[0].extra_key"

    @settings(max_examples=100, deadline=None)
    @given(_libraries)
    @example(MethodLibrary())
    def test_text_is_json_dumps_indent_2_property(self, tmp_path_factory, library):
        path = tmp_path_factory.getbasetemp() / "property-library.json"
        library.save(path)
        text = path.read_text(encoding="utf-8")
        assert text == _oracle_text(library)
        # save -> load -> save writes the same bytes
        MethodLibrary.load(path).save(path)
        assert path.read_text(encoding="utf-8") == text

    def test_params_keys_and_unserializable_values_as_json(self, tmp_path, library):
        method = dataclasses.replace(
            make_method("m-a"), params={3: "a", 2.5: [], True: {}, None: (), "x": -0.0}
        )
        library.insert(method)
        library.save(tmp_path / "lib.json")
        assert (tmp_path / "lib.json").read_text(encoding="utf-8") == _oracle_text(library)
        for bad in ({"k": object()}, {("tuple", "key"): 1}):
            unserializable = MethodLibrary([dataclasses.replace(method, params=bad)])
            with pytest.raises(TypeError):
                unserializable.save(tmp_path / "bad.json")
            assert not (tmp_path / "bad.json").exists()

    def test_save_encodes_each_distinct_value_once(self, tmp_path, monkeypatch):
        # CPython's json runs its pure-Python _make_iterencode once per
        # json.dumps call with indent set.
        methods = [
            dataclasses.replace(
                m,
                params=[{"model_family": "sequence"}, {"nested": {"gains": [0.5, 1, None, True]}}][i % 2],
                step_params=({"speed": 0.5},) * len(m.procedure) if i % 3 == 0 else None,
            )
            for i, m in enumerate(_synthetic_library().methods())
        ]
        library = MethodLibrary(methods)
        distinct = {repr(value) for m in methods for value in (m.params, m.step_params)}
        expected = _oracle_text(library)
        calls = []
        real_make_iterencode = json.encoder._make_iterencode

        def counting_make_iterencode(*args, **kwargs):
            calls.append(args)
            return real_make_iterencode(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting_make_iterencode)
        library.save(tmp_path / "lib.json")
        assert (tmp_path / "lib.json").read_text(encoding="utf-8") == expected
        assert len(calls) <= len(distinct) < 2 * len(methods)

    def test_not_json(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            MethodLibrary.load(path)


def test_method_invariants():
    with pytest.raises(ValueError):
        make_method(procedure=())
    with pytest.raises(ValueError):
        Method(
            id="m",
            procedure=("move",),
            params={},
            data_profile=make_method().data_profile,
            applicability=make_method().applicability.__class__(
                signatures=set(), goal_tokens={"a"}, max_steps=3
            ),
            reliability=Reliability(),
        )
