from __future__ import annotations

import dataclasses
import json
import logging
import random
import threading
import types
import typing
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuseloop.errors import PlannerError, PlanningFailedError, SchemaError, to_doc
from reuseloop.planner import (
    DEFAULT_MOCK_LATENCY_S,
    HISTORY_MAX_ENTRIES,
    PLAN_SCHEMA_DOC,
    EpisodeOutcome,
    HttpPlanner,
    LearningPlan,
    MockPlanner,
    PlannerCall,
    PlannerFeedback,
    PlannerHistory,
    StrategyStep,
    parse_plan,
)
from reuseloop.tasks import DEFAULT_ACTIONS, generate_corpus

from conftest import make_task


class TestMockDeterminism:
    def test_same_seed_same_call_sequence(self, task):
        a = MockPlanner(seed=5)
        b = MockPlanner(seed=5)
        assert a.plan(task) == b.plan(task)
        assert a.plan(task) == b.plan(task)

    def test_history_does_not_change_output(self, task):
        a = MockPlanner(seed=5)
        b = MockPlanner(seed=5)
        history = PlannerHistory(recent_tasks=["sig-1", "sig-2"])
        assert a.plan(task, history) == b.plan(task, None)

    def test_history_keeps_the_newest_entries(self):
        history = PlannerHistory()
        for i in range(HISTORY_MAX_ENTRIES + 5):
            history.record_task(f"sig-{i}")
            history.record_method(f"m-{i}", 1.0)
        assert len(history.recent_tasks) == len(history.recent_methods) == HISTORY_MAX_ENTRIES
        assert history.recent_tasks[0] == "sig-5"
        assert history.recent_methods[-1]["id"] == f"m-{HISTORY_MAX_ENTRIES + 4}"

    def test_latency_default_and_override(self, task):
        assert MockPlanner(seed=1).plan(task).latency_s == DEFAULT_MOCK_LATENCY_S
        assert MockPlanner(seed=1, latency_s=0.25).plan(task).latency_s == 0.25

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_latency_rejected(self, value):
        with pytest.raises(ValueError, match="^latency_s must be finite"):
            MockPlanner(seed=1, latency_s=value)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_call_latency_rejected(self, task, value):
        plan = MockPlanner(seed=1).plan(task).plan
        with pytest.raises(ValueError, match="^latency_s must be finite"):
            PlannerCall(latency_s=value, plan=plan)

    def test_solution_is_target_when_uncorrupted(self, task):
        planner = MockPlanner(seed=1, p_corrupt=0.0)
        call = planner.plan(task)
        assert call.plan.direct_solution == task.target_sequence
        assert call.plan.candidate_models[0].family == "sequence"
        assert [s.kind for s in call.plan.strategy] == ["execute"] * len(task.target_sequence)

    def test_corruption_frequency_within_binomial_band(self):
        # 10,000 seeded calls; corrupted fraction should sit inside the
        # 3-sigma band around p_corrupt = 0.05: 500 +- 3*sqrt(10000*.05*.95).
        task = make_task()
        planner = MockPlanner(seed=123, p_corrupt=0.05)
        corrupted = 0
        for _ in range(10_000):
            solution = planner.plan(task).plan.direct_solution
            if solution != task.target_sequence:
                corrupted += 1
                assert len(solution) == len(task.target_sequence)
        assert 500 - 66 <= corrupted <= 500 + 66

    def test_corruption_changes_exactly_one_step(self, task):
        planner = MockPlanner(seed=9, p_corrupt=1.0)
        solution = planner.plan(task).plan.direct_solution
        diffs = sum(a != b for a, b in zip(solution, task.target_sequence))
        assert diffs == 1


class TestMockReplan:
    def test_failed_step_gets_observe_directive(self, task):
        planner = MockPlanner(seed=1, p_corrupt=0.0)
        feedback = PlannerFeedback(episode_outcomes=[EpisodeOutcome(False, failed_step=2)])
        call = planner.replan(task, None, feedback)
        # one observe inserted immediately before the second execute step
        kinds = ["execute"] * len(task.target_sequence)
        kinds.insert(1, "observe")
        assert [s.kind for s in call.plan.strategy] == kinds

    def test_empty_feedback_rejected(self, task):
        planner = MockPlanner(seed=1)
        with pytest.raises(PlannerError):
            planner.replan(task, None, PlannerFeedback(episode_outcomes=[]))

    def test_replan_after_success_is_a_fixed_point(self, task):
        a = MockPlanner(seed=1, p_corrupt=0.0)
        b = MockPlanner(seed=1, p_corrupt=0.0)
        plain = a.plan(task).plan
        replanned = b.replan(
            task, None, PlannerFeedback(episode_outcomes=[EpisodeOutcome(True)])
        ).plan
        assert replanned == plain
        assert replanned.update_criteria == plain.update_criteria


# Four tasks of one signature: the signature ignores the target, the
# observations and the goal's case, and each of these changes the plan.
_BASE = make_task()
SAME_SIGNATURE_TASKS = (
    _BASE,
    make_task(target=("lift", "grasp", "move")),
    dataclasses.replace(_BASE, observations=("vision",)),
    make_task(goal=("Pick", "Up", "Red", "Cube")),
)
OTHER_TASK = make_task(goal=("stack", "blue", "block"), target=("move", "place"), task_id="t-1")


def reference_plan(seed, p_corrupt, task, call_index, feedback=None):
    """The documented mock plan, written out independently of the planner."""
    rng = random.Random(f"{seed}:{task.signature}:{call_index}")
    solution = list(task.target_sequence)
    if rng.random() < p_corrupt:
        idx = rng.randrange(len(solution))
        solution[idx] = rng.choice([a for a in DEFAULT_ACTIONS if a != solution[idx]])
    failed = set()
    if feedback is not None:
        failed = {o.failed_step for o in feedback.episode_outcomes if not o.success}
    strategy = []
    for step_no in range(1, len(solution) + 1):
        if step_no in failed:
            strategy.append({"kind": "observe"})
        strategy.append({"kind": "execute"})
    return {
        "candidate_models": [{"family": "sequence"}, {"family": "hybrid"}],
        "subproblems": [
            f"ground goal '{' '.join(task.goal)}' to actuator primitives",
            "order primitives into an executable chain",
            "define a per-step success check",
        ],
        "data_requirements": [{"channel": ch, "min_samples": 1} for ch in task.observations],
        "strategy": strategy,
        "update_criteria": {"validation_threshold": 0.5, "max_episodes": 3},
        "direct_solution": solution,
    }


class TestMockCache:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2, 0, 1)])
    def test_same_signature_tasks_get_their_own_plans(self, order):
        assert len({t.signature for t in SAME_SIGNATURE_TASKS}) == 1
        planner = MockPlanner(seed=3, p_corrupt=0.0)
        for i in order:
            task = SAME_SIGNATURE_TASKS[i]
            plan = planner.plan(task).plan
            assert plan.direct_solution == task.target_sequence
            assert [s.kind for s in plan.strategy] == ["execute"] * len(task.target_sequence)
            assert [r.channel for r in plan.data_requirements] == list(task.observations)
            goal = " ".join(task.goal)
            assert plan.subproblems[0] == f"ground goal '{goal}' to actuator primitives"

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p_corrupt=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        calls=st.lists(
            st.tuples(
                st.integers(0, len(SAME_SIGNATURE_TASKS)),
                st.sampled_from(["plan", "plan_with_feedback", "replan"]),
                st.lists(
                    st.builds(EpisodeOutcome, st.booleans(), st.none() | st.integers(0, 4)),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=25,
        ),
    )
    def test_matches_reference_over_interleaved_calls(self, seed, p_corrupt, calls):
        tasks = (*SAME_SIGNATURE_TASKS, OTHER_TASK)
        planner = MockPlanner(seed=seed, p_corrupt=p_corrupt)
        first_clean = {}
        not_clean = []  # corrupted or feedback calls; kept alive so ids stay unique
        for call_index, (task_no, how, outcomes) in enumerate(calls):
            task = tasks[task_no]
            feedback = None if how == "plan" else PlannerFeedback(episode_outcomes=outcomes)
            if how == "replan":
                call = planner.replan(task, None, feedback)
            else:
                call = planner.plan(task, None, feedback)
            assert call.latency_s == DEFAULT_MOCK_LATENCY_S
            expected = reference_plan(seed, p_corrupt, task, call_index, feedback)
            assert to_doc(call.plan) == expected
            clean = feedback is None and tuple(expected["direct_solution"]) == task.target_sequence
            if not clean:
                not_clean.append(call)
                continue
            assert all(call is not other for other in not_clean)
            if p_corrupt == 0.0:
                assert first_clean.setdefault(task_no, call) is call

    def test_clean_call_is_shared_at_zero_corruption(self, task):
        planner = MockPlanner(seed=1, p_corrupt=0.0)
        assert planner.plan(task) is planner.plan(task)


class TestParsePlan:
    def test_minimal_document_fills_defaults(self):
        plan = parse_plan('{"candidate_models": [{"family": "sequence"}]}')
        assert plan.candidate_models[0].family == "sequence"
        assert plan.subproblems == ()
        assert plan.update_criteria.validation_threshold == 0.5
        assert plan.update_criteria.max_episodes >= 1
        assert plan.direct_solution is None
        steps = parse_plan(
            '{"candidate_models": [{"family": "sequence"}], "strategy": [{"kind": "observe"}]}'
        ).strategy
        assert steps == (StrategyStep("observe"),)

    def test_missing_candidate_models_named(self):
        with pytest.raises(SchemaError) as err:
            parse_plan('{"subproblems": []}')
        assert "candidate_models" in str(err.value)

    def test_zero_max_episodes_rejected(self):
        doc = {
            "candidate_models": [{"family": "sequence"}],
            "update_criteria": {"max_episodes": 0},
        }
        with pytest.raises(SchemaError) as err:
            parse_plan(json.dumps(doc))
        assert "update_criteria" in str(err.value)

    def test_unknown_family_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_plan('{"candidate_models": [{"family": "quantum"}]}')
        assert "quantum" in str(err.value)
        assert err.value.field == "candidate_models[0].family"
        # Misspelled keys are unknown fields too, named by dotted path.
        cases = [
            ({"direct_soluton": ["move"]}, "direct_soluton"),
            ({"update_criteria": {"validation_treshold": 0.9}}, "update_criteria.validation_treshold"),
            ({"candidate_models": [{"family": "sequence", "rationle": "x"}]},
             "candidate_models[0].rationle"),
        ]
        for extra, field in cases:
            doc = {"candidate_models": [{"family": "sequence"}], **extra}
            with pytest.raises(SchemaError) as err:
                parse_plan(json.dumps(doc))
            assert err.value.field == field

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_plan("produce a plan: step 1 ...")

    def test_round_trip_identity(self, task):
        plan = MockPlanner(seed=3, p_corrupt=0.0).plan(task).plan
        assert parse_plan(json.dumps(to_doc(plan))) == plan

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        task_seed=st.integers(0, 10_000),
        p_corrupt=st.floats(0.0, 1.0),
        outcomes=st.lists(
            st.builds(EpisodeOutcome, st.booleans(), st.none() | st.integers(0, 8)), max_size=4
        ),
    )
    def test_round_trip_property(self, seed, task_seed, p_corrupt, outcomes):
        task = generate_corpus(seed=task_seed, n_tasks=1, n_repeats=1)[0].task
        planner = MockPlanner(seed=seed, p_corrupt=p_corrupt)
        for feedback in (None, PlannerFeedback(episode_outcomes=outcomes)):
            plan = planner.plan(task, None, feedback).plan
            assert parse_plan(json.dumps(to_doc(plan))) == plan

    def test_schema_doc_names_every_field(self):
        # The prompt's schema must name exactly the keys the reader accepts,
        # at every level, or every live call would fail validation.
        def check(doc, cls):
            hints = typing.get_type_hints(cls)
            assert set(doc) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
            for name, kind in hints.items():
                entry = doc[name]
                if isinstance(kind, types.UnionType):
                    (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
                if typing.get_origin(kind) is tuple:
                    kind, entry = typing.get_args(kind)[0], entry[0]
                if dataclasses.is_dataclass(kind):
                    check(entry, kind)

        check(PLAN_SCHEMA_DOC, LearningPlan)

    def test_round_trip_without_solution(self):
        plan = LearningPlan(candidate_models=(parse_plan(
            '{"candidate_models": [{"family": "hybrid"}]}'
        ).candidate_models[0],))
        assert parse_plan(json.dumps(to_doc(plan))) == plan


# ---------------------------------------------------------------------------
# HTTP planner against a scripted local server
# ---------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        server.requests.append(
            {"body": body, "authorization": self.headers.get("Authorization")}
        )
        index = min(len(server.requests) - 1, len(server.script) - 1)
        status, content = server.script[index]
        payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextmanager
def scripted_server(script):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = script
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()


VALID_PLAN_TEXT = json.dumps(
    {
        "candidate_models": [{"family": "sequence"}],
        "direct_solution": ["move", "grasp", "lift"],
    }
)


class TestHttpPlanner:
    def test_malformed_twice_then_valid_succeeds_after_two_retries(self, task):
        script = [(200, "not a plan"), (200, '{"wrong": true}'), (200, VALID_PLAN_TEXT)]
        with scripted_server(script) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model", retries=2)
            call = planner.plan(task)
        assert call.plan.direct_solution == ("move", "grasp", "lift")
        assert len(server.requests) == 3
        assert call.latency_s > 0
        assert planner.failed_calls == 0

    def test_schema_violation_appended_to_retry_conversation(self, task):
        misspelled = json.dumps(
            {"candidate_models": [{"family": "sequence"}], "direct_soluton": ["move"]}
        )
        for first, named in [("not a plan", "<root>"), (misspelled, "direct_soluton")]:
            with scripted_server([(200, first), (200, VALID_PLAN_TEXT)]) as (server, url):
                call = HttpPlanner(endpoint=url, model="test-model", retries=2).plan(task)
            retry_messages = server.requests[1]["body"]["messages"]
            assert any(
                "failed validation" in m["content"] and named in m["content"]
                for m in retry_messages
            )
            assert call.plan.direct_solution == ("move", "grasp", "lift")

    def test_exhausted_retries_raise(self, task):
        script = [(200, "junk")]
        with scripted_server(script) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model", retries=2)
            with pytest.raises(PlanningFailedError):
                planner.plan(task)
        assert len(server.requests) == 3
        assert planner.failed_calls == 1

    def test_null_content_retried(self, task):
        with scripted_server([(200, None), (200, VALID_PLAN_TEXT)]) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model", retries=2)
            call = planner.plan(task)
        assert call.plan.direct_solution == ("move", "grasp", "lift")
        assert len(server.requests) == 2
        assert planner.failed_calls == 0

    @pytest.mark.parametrize(
        "content", [None, 7, {"direct_solution": ["move"]}], ids=["null", "number", "object"]
    )
    def test_non_string_content_exhausts_retries(self, task, caplog, content):
        with scripted_server([(200, content)] * 3) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model", retries=2)
            with pytest.raises(PlanningFailedError, match="not a string"):
                planner.plan(task)
        assert len(server.requests) == 3
        assert planner.failed_calls == 1
        warnings = [r for r in caplog.records if r.name == "reuseloop.planner"]
        assert [r.levelname for r in warnings] == ["WARNING"] * 3
        for attempt, record in enumerate(warnings, start=1):
            message = record.getMessage()
            assert message.startswith(f"planner request failed (attempt {attempt}): ")
            assert message.endswith("not a string")

    def test_http_error_retried(self, task):
        script = [(500, "oops"), (200, VALID_PLAN_TEXT)]
        with scripted_server(script) as (server, url):
            call = HttpPlanner(endpoint=url, model="test-model", retries=2).plan(task)
        assert call.plan.direct_solution == ("move", "grasp", "lift")
        assert len(server.requests) == 2

    def test_first_message_embeds_schema_and_task(self, task):
        with scripted_server([(200, VALID_PLAN_TEXT)]) as (server, url):
            HttpPlanner(endpoint=url, model="test-model").plan(task)
        body = server.requests[0]["body"]
        assert body["model"] == "test-model"
        first = body["messages"][0]["content"]
        assert "plan_schema" in first
        assert task.instruction in first

    def test_bearer_token_from_environment(self, task, monkeypatch):
        monkeypatch.setenv("REUSELOOP_API_KEY", "secret-token")
        with scripted_server([(200, VALID_PLAN_TEXT)]) as (server, url):
            HttpPlanner(endpoint=url, model="test-model").plan(task)
        assert server.requests[0]["authorization"] == "Bearer secret-token"

    def test_no_header_without_credential(self, task, monkeypatch):
        monkeypatch.delenv("REUSELOOP_API_KEY", raising=False)
        with scripted_server([(200, VALID_PLAN_TEXT)]) as (server, url):
            HttpPlanner(endpoint=url, model="test-model").plan(task)
        assert server.requests[0]["authorization"] is None

    @pytest.mark.parametrize("name, value", [
        ("retries", -1), ("timeout_s", 0.0), ("timeout_s", -1.0), ("timeout_s", float("inf")),
        ("timeout_s", float("nan")), ("temperature", -3.0), ("temperature", float("nan")),
    ])
    def test_bad_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            HttpPlanner(endpoint="http://127.0.0.1:1/x", model="m", **{name: value})

    def test_feedback_goes_through_plan(self, task):
        failed = PlannerFeedback(episode_outcomes=[EpisodeOutcome(False, failed_step=2)])
        with scripted_server([(200, VALID_PLAN_TEXT)]) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model")
            planner.plan(task, None, failed)
            planner.plan(task, None, PlannerFeedback())
        revise, plain = (request["body"]["messages"] for request in server.requests)
        assert revise[-1]["content"].startswith(
            "Revise the plan using the execution feedback above."
        )
        assert '"failed_step": 2' in revise[0]["content"]
        assert plain[-1]["content"] == "Return only the learning-plan JSON document."
        assert not hasattr(planner, "replan")

    def test_feedback_without_outcome_is_no_feedback(self, task):
        # As MockPlanner reads it: nothing to revise from, so no feedback block.
        feedbacks = [None, PlannerFeedback(), PlannerFeedback(notes="stored method decayed")]
        with scripted_server([(200, VALID_PLAN_TEXT)] * len(feedbacks)) as (server, url):
            planner = HttpPlanner(endpoint=url, model="test-model")
            for feedback in feedbacks:
                planner.plan(task, None, feedback)
        none, empty, notes_only = (request["body"]["messages"] for request in server.requests)
        assert empty == none
        assert notes_only == none
        assert '"feedback"' not in none[0]["content"]

    def test_credential_never_logged(self, task, caplog, monkeypatch):
        # A failed request and an invalid plan each log a warning; the
        # bearer token reaches the server and no log record.
        monkeypatch.setenv("REUSELOOP_API_KEY", "secret-token")
        caplog.set_level(logging.DEBUG)
        script = [(500, "oops"), (200, "junk"), (200, VALID_PLAN_TEXT)]
        with scripted_server(script) as (server, url):
            HttpPlanner(endpoint=url, model="test-model", retries=2).plan(task)
        assert server.requests[0]["authorization"] == "Bearer secret-token"
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) >= 2
        assert not any("secret-token" in message for message in messages)
