from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
import pickle
import random
import re
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuseloop.config import corpus_mode_for
from reuseloop.engine import POLICY_MODES, ExecutorConfig, run_loop
from reuseloop.errors import SchemaError, read_dataclass, to_doc
from reuseloop.library import MethodLibrary
from reuseloop.planner import MockPlanner
from reuseloop.tasks import (
    CORPUS_MODES,
    DEFAULT_ACTIONS,
    OBSERVATION_FIRST,
    OBSERVED_EVENT,
    SELF_TASK,
    ObservedEvent,
    TaskConstraints,
    TaskDescriptor,
    TaskEvent,
    corpus_from_doc,
    corpus_to_doc,
    generate_corpus,
    load_corpus,
    mean_target_length,
    normalize_goal,
    normalize_token,
    save_corpus,
    signature_of,
)
from reuseloop.trigger import TriggerThresholds

from conftest import make_task

# Goal tokens mixing plain ASCII with characters whose lowercase or digit
# class differs from ASCII: superscript two, a fullwidth digit, the Kelvin
# sign, a dotted capital I and sharp s.
_TOKENS = st.lists(
    st.one_of(
        st.sampled_from(["x²", "１", "\u212a", "İ", "ß", "Pick", "UP!", "9", " ", "-"]),
        st.text(max_size=3),
    ),
    max_size=4,
).map("".join)

# Goal tokens for normalize_goal's canonical-goal shortcut: canonical ones,
# and one case at each edge of its guard: an empty token, upper case, digits
# only (whose islower() is false), punctuation and whitespace, and non-ASCII
# letters: the Kelvin sign, whose lower() is ASCII "k", a dotted capital I
# and sharp s, which is lower-case and alphanumeric.
_GOAL_TOKENS = st.one_of(
    st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True),
    st.sampled_from(["", "Pick", "RED", "42", "up!", "a b", " ", "-", "\u212a", "İ", "ß"]),
)


def _regex_rule(goal):
    """The per-token rule, written out: lowercase, strip outside ``[a-z0-9]``,
    drop the empties."""
    return tuple(t for t in (re.sub(r"[^a-z0-9]+", "", tok.lower()) for tok in goal) if t)


def _json_dumps_digest(goal, constraints):
    """The signature's independent oracle: the first 16 hex digits of the
    SHA-256 of ``json.dumps`` over the regex-normalized goal and the
    constraints, or None when no goal token survives normalization."""
    tokens = _regex_rule(goal)
    if not tokens:
        return None
    deadline = constraints.deadline_s
    payload = {
        "goal": tokens,
        "max_steps": int(constraints.max_steps),
        "deadline_s": None if deadline is None else float(deadline) + 0.0,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stored(task, name):
    """The value in ``task``'s slot ``name``, read through the slot's member
    descriptor itself, not through any property of the class."""
    slot = inspect.getattr_static(TaskDescriptor, name)
    assert type(slot) is types.MemberDescriptorType
    return slot.__get__(task)


class TestSignature:
    def test_identical_tasks_share_a_signature(self):
        a = make_task(goal=("pick", "up", "red", "cube"))
        b = make_task(goal=("pick", "up", "red", "cube"), task_id="task-001")
        assert signature_of(a) == signature_of(b)

    def test_normalization_ignores_case_and_punctuation(self):
        a = make_task(goal=("Pick", "UP!", "red", "cube."))
        b = make_task(goal=("pick", "up", "red", "cube"))
        assert signature_of(a) == signature_of(b)

    def test_different_goals_differ(self):
        a = make_task(goal=("pick", "up", "red", "cube"))
        b = make_task(goal=("pick", "up", "blue", "cube"))
        assert signature_of(a) != signature_of(b)

    def test_matches_token_list_comparison_oracle(self):
        # Signatures agree exactly when normalized goals and constraints agree.
        rng = random.Random(11)
        vocab = ["pick", "Pick", "up", "red", "BLUE", "cube", "ball!"]
        for _ in range(300):
            goal_a = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            goal_b = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            steps_a = rng.choice([6, 8])
            steps_b = rng.choice([6, 8])
            if not normalize_goal(goal_a) or not normalize_goal(goal_b):
                continue
            a = make_task(goal=goal_a, max_steps=steps_a, target=("move",) * 3)
            b = make_task(goal=goal_b, max_steps=steps_b, target=("move",) * 3)
            should_match = normalize_goal(goal_a) == normalize_goal(goal_b) and steps_a == steps_b
            assert (signature_of(a) == signature_of(b)) == should_match

    def test_descriptor_key_matches_free_functions(self, tmp_path):
        fresh = make_task(goal=("Pick", "UP!", "red", "cube"))
        assert signature_of(fresh) == _json_dumps_digest(fresh.goal, fresh.constraints)
        replaced = dataclasses.replace(fresh, goal=("stack", "blue", "ring"))
        events = generate_corpus(seed=3, n_tasks=4, n_repeats=1)
        save_corpus(events, tmp_path / "corpus.json")
        loaded = [event.task for event in load_corpus(tmp_path / "corpus.json")]
        assert [task.signature for task in loaded] == [event.task.signature for event in events]
        for task in [fresh, replaced, *loaded]:
            assert signature_of(task) == _json_dumps_digest(task.goal, task.constraints)
            assert task.goal_tokens == set(normalize_goal(task.goal))
        assert replaced.signature != fresh.signature
        # A task holds its key from construction on, and equality ignores it.
        cold = make_task(goal=fresh.goal)
        assert _stored(cold, "signature") == _json_dumps_digest(cold.goal, cold.constraints)
        assert cold == fresh and fresh == cold

    def test_constraints_participate(self):
        a = make_task(max_steps=8)
        b = make_task(max_steps=6)
        assert signature_of(a) != signature_of(b)

    @pytest.mark.parametrize(
        "left, right",
        [
            (TaskConstraints(8, 0.0), TaskConstraints(8, -0.0)),
            (TaskConstraints(8, 5), TaskConstraints(8, 5.0)),
        ],
        ids=["signed-zero", "int-deadline"],
    )
    def test_equal_constraints_sign_alike(self, left, right):
        assert left == right
        a = dataclasses.replace(make_task(target=("move",)), constraints=left)
        b = dataclasses.replace(make_task(target=("move",)), constraints=right)
        assert a == b
        assert a.signature == b.signature == signature_of(a) == signature_of(b)

    def test_int_deadline_keeps_its_signature_through_a_file(self, tmp_path):
        task = dataclasses.replace(make_task(), constraints=TaskConstraints(8, 5))
        save_corpus([TaskEvent(0, SELF_TASK, task)], tmp_path / "corpus.json")
        (loaded,) = load_corpus(tmp_path / "corpus.json")
        assert loaded.task.constraints.deadline_s == 5.0
        assert type(loaded.task.constraints.deadline_s) is float
        assert loaded.task == task
        assert loaded.task.signature == task.signature

    def test_pinned_signatures(self):
        # Fixed digests: any change to the key text or its hash moves them.
        assert signature_of(make_task(goal=("pick", "red", "cube"), max_steps=8)) == "14d4cb9f79706850"
        task = dataclasses.replace(make_task(goal=("Pick", "RED!", "cube.")), constraints=TaskConstraints(8, 5))
        assert signature_of(task) == "ce20cf6fe8295a1c"

    @settings(max_examples=400, deadline=None)
    @given(token=_TOKENS)
    def test_normalize_token_is_the_regex_property(self, token):
        assert normalize_token(token) == re.sub(r"[^a-z0-9]+", "", token.lower())

    @settings(max_examples=400, deadline=None)
    @given(goal=st.lists(_GOAL_TOKENS, max_size=4), form=st.sampled_from(["tuple", "list", "generator"]))
    # One goal at each edge of the guard: dropping any of its terms fails one.
    @example(goal=["pick", ""], form="tuple")
    @example(goal=["ß"], form="tuple")
    @example(goal=["up!"], form="list")
    @example(goal=["Pick", "red"], form="generator")
    @example(goal=["42"], form="tuple")
    @example(goal=["\u212a", "ing"], form="tuple")
    def test_normalize_goal_is_the_regex_rule_property(self, goal, form):
        tokens = {"tuple": tuple, "list": list, "generator": lambda g: (t for t in g)}[form](goal)
        got = normalize_goal(tokens)
        assert type(got) is tuple
        assert got == _regex_rule(goal)

    @settings(max_examples=200, deadline=None)
    @given(
        goal=st.lists(_TOKENS, min_size=1, max_size=4),
        max_steps=st.integers(1, 12),
        deadline=st.sampled_from([None, 5, -0.0, 1e-7, 1e16, 5e-324, sys.float_info.max]),
    )
    def test_signature_is_the_json_dumps_digest_property(self, goal, max_steps, deadline):
        constraints = TaskConstraints(max_steps, deadline)
        want = _json_dumps_digest(goal, constraints)
        base = make_task(target=("move",))
        if want is None:
            with pytest.raises(ValueError, match="^goal must contain at least one non-empty token$"):
                dataclasses.replace(base, goal=tuple(goal), constraints=constraints)
            return
        task = dataclasses.replace(base, goal=tuple(goal), constraints=constraints)
        assert signature_of(task) == task.signature == want

    @settings(max_examples=150, deadline=None)
    @given(
        goal=st.lists(
            st.one_of(
                st.text(alphabet="aZ9éß ,.!-_\t", min_size=0, max_size=6),
                st.sampled_from(["Pick", "UP!", "  ", "--", "Ünïcode", "x"]),
            ),
            min_size=1,
            max_size=5,
        ),
        max_steps=st.integers(1, 12),
        deadline=st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
        other_goal=st.lists(st.sampled_from(["stack", "Blue", "ring!"]), min_size=1, max_size=3),
    )
    def test_key_is_built_at_construction_property(self, goal, max_steps, deadline, other_goal):
        base = make_task(target=("move",))
        constraints = TaskConstraints(max_steps, deadline)
        if not normalize_goal(goal):
            with pytest.raises(ValueError, match="^goal must contain at least one non-empty token$"):
                dataclasses.replace(base, goal=tuple(goal), constraints=constraints)
            return
        task = dataclasses.replace(base, goal=tuple(goal), constraints=constraints)
        assert _stored(task, "signature") == _json_dumps_digest(goal, constraints)
        assert _stored(task, "goal_tokens") == frozenset(normalize_goal(task.goal))
        # Equality ignores the key: a copy with a different stored key is equal.
        twin = dataclasses.replace(task)
        object.__setattr__(twin, "signature", "0" * 16)
        object.__setattr__(twin, "goal_tokens", frozenset())
        assert twin == task
        # ``replace`` builds a new task, and with it a new key.
        moved = dataclasses.replace(task, goal=tuple(other_goal))
        assert moved.signature == _json_dumps_digest(other_goal, constraints)
        assert moved.goal_tokens == frozenset(normalize_goal(other_goal))
        assert (moved.signature == task.signature) == (normalize_goal(other_goal) == normalize_goal(goal))


class TestDescriptorInvariants:
    def test_goal_must_be_non_empty(self):
        with pytest.raises(ValueError):
            make_task(goal=())

    def test_target_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^target_sequence must be non-empty$"):
            make_task(target=())

    def test_target_must_fit_max_steps(self):
        with pytest.raises(ValueError):
            make_task(target=("move",) * 9, max_steps=8)

    def test_deadline_must_be_nonnegative(self):
        for deadline in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^deadline_s must be finite and nonnegative"):
                TaskConstraints(max_steps=4, deadline_s=deadline)
        assert TaskConstraints(max_steps=4, deadline_s=0.0).deadline_s == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [("goal", "pick red cube"), ("observations", "vision"), ("target_sequence", "move")],
    )
    def test_string_in_place_of_a_token_sequence_rejected(self, field, value):
        # Read as a sequence, a str would be one-letter tokens: a goal keyed
        # on letters, or a target no execution's tuple can equal.
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of strings, not a str$"):
            dataclasses.replace(make_task(), **{field: value})

    @pytest.mark.parametrize("max_steps", [8.5, 8.0, float("nan"), float("inf")])
    def test_max_steps_must_be_an_integer(self, max_steps):
        with pytest.raises(ValueError, match="^max_steps must be a positive integer$"):
            TaskConstraints(max_steps)

    @pytest.mark.parametrize(
        "field, kind, build",
        [
            ("max_steps", "an integer", lambda: TaskConstraints(True)),
            ("deadline_s", "a number", lambda: TaskConstraints(8, True)),
            ("max_steps", "an integer",
             lambda: dataclasses.replace(TaskConstraints(8), max_steps=True)),
            ("deadline_s", "a number",
             lambda: dataclasses.replace(TaskConstraints(8, 5.0), deadline_s=True)),
        ],
        ids=["direct-max-steps", "direct-deadline", "replace-max-steps", "replace-deadline"],
    )
    def test_bool_refused_as_the_reader_refuses_it(self, field, kind, build):
        # A bool passes isinstance(int) and isfinite, so TaskConstraints(True)
        # used to equal, and sign as, TaskConstraints(1).
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, not a bool$"):
            build()
        with pytest.raises(SchemaError, match=f"^{field}: expected {kind}, got bool$"):
            read_dataclass(TaskConstraints, {"max_steps": 8} | {field: True})


_FIELDS = [field.name for field in dataclasses.fields(TaskDescriptor)]


def _pickled(task):
    return pickle.loads(pickle.dumps(task))


def _sequence_twins(task):
    """``task`` rebuilt with its three sequences as lists, then as generators."""
    values = {name: getattr(task, name) for name in _FIELDS}
    names = ("goal", "observations", "target_sequence")
    return [
        TaskDescriptor(**{**values, **{name: list(values[name]) for name in names}}),
        TaskDescriptor(**{**values, **{name: (item for item in values[name]) for name in names}}),
    ]


class TestDescriptorRecord:
    """A task is a slotted frozen record that stores its own fields. Every
    way of building one runs its checks and gives an equal task with an
    equal key."""

    def test_fields_and_key_cannot_be_assigned_or_deleted(self):
        task = make_task()
        for name in (*_FIELDS, "goal_tokens", "signature", "note"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(task, name, ("move",))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(task, name)
        assert not hasattr(task, "__dict__")
        assert task == make_task() and task.signature == make_task().signature

    def test_slots_are_the_fields_then_the_key(self):
        assert TaskDescriptor.__slots__ == (*_FIELDS, "goal_tokens", "signature")
        assert list(inspect.signature(TaskDescriptor).parameters) == _FIELDS

    def test_every_way_of_building_gives_an_equal_task(self, tmp_path):
        events = generate_corpus(seed=3, n_tasks=2, n_repeats=1)
        task = events[1].task
        values = [getattr(task, name) for name in _FIELDS]
        save_corpus(events, tmp_path / "corpus.json")
        built = {
            "positional": TaskDescriptor(*values),
            "keyword": TaskDescriptor(**dict(zip(_FIELDS, values))),
            "replace": dataclasses.replace(task),
            "load_corpus": load_corpus(tmp_path / "corpus.json")[1].task,
            "copy": copy.copy(task),
            "deepcopy": copy.deepcopy(task),
            "pickle": _pickled(task),
        }
        for way, twin in built.items():
            assert type(twin) is TaskDescriptor and twin is not task, way
            assert twin == task and repr(twin) == repr(task), way
            assert (twin.signature, twin.goal_tokens) == (task.signature, task.goal_tokens), way
            assert not hasattr(twin, "__dict__"), way

    def test_equal_tasks_hash_alike(self, tmp_path):
        # environment is a dict; the dataclass's own hash would hash it.
        events = generate_corpus(seed=3, n_tasks=2, n_repeats=1)
        task = events[1].task
        values = [getattr(task, name) for name in _FIELDS]
        save_corpus(events, tmp_path / "corpus.json")
        twins = [
            TaskDescriptor(*values),
            dataclasses.replace(task),
            copy.copy(task),
            copy.deepcopy(task),
            _pickled(task),
            load_corpus(tmp_path / "corpus.json")[1].task,
        ]
        assert {hash(twin) for twin in twins} == {hash(task)}
        assert len({task, *twins}) == 1
        # Equality still reads environment: a task that differs only there
        # hashes alike but stays a second entry.
        moved = dataclasses.replace(task, environment={**task.environment, "room": "lab"})
        assert hash(moved) == hash(task) and len({task, moved, events[0].task}) == 3

    @pytest.mark.parametrize(
        "build", [dataclasses.replace, copy.copy, copy.deepcopy, _pickled],
        ids=["replace", "copy", "deepcopy", "pickle"],
    )
    def test_every_way_of_building_runs_the_checks(self, build):
        # A target stored past the checks, through its slot, is refused
        # when the task is rebuilt.
        task = make_task(max_steps=8)
        inspect.getattr_static(TaskDescriptor, "target_sequence").__set__(task, ("move",) * 9)
        with pytest.raises(ValueError, match="^target_sequence longer than constraints.max_steps$"):
            build(task)

    @pytest.mark.parametrize("changes, message", [
        ({"goal": "pick"}, "goal must be a sequence of strings, not a str"),
        ({"observations": "vision"}, "observations must be a sequence of strings, not a str"),
        ({"target_sequence": "move"}, "target_sequence must be a sequence of strings, not a str"),
        ({"goal": ()}, "goal must be non-empty"),
        ({"goal": ("!", " ")}, "goal must contain at least one non-empty token"),
        ({"target_sequence": ()}, "target_sequence must be non-empty"),
        ({"target_sequence": ("move",) * 9}, "target_sequence longer than constraints.max_steps"),
        # Several faults at once: the first check names the first of them.
        ({"goal": "", "observations": "vision"}, "goal must be a sequence of strings, not a str"),
        ({"observations": "vision", "target_sequence": "move"},
         "observations must be a sequence of strings, not a str"),
        ({"goal": (), "target_sequence": "move"},
         "target_sequence must be a sequence of strings, not a str"),
        ({"goal": (), "target_sequence": ()}, "goal must be non-empty"),
        ({"goal": ("!",), "target_sequence": ()}, "goal must contain at least one non-empty token"),
        ({"goal": (), "target_sequence": ("move",) * 9}, "goal must be non-empty"),
    ])
    def test_refusal_messages(self, changes, message):
        task = make_task(max_steps=8)
        values = {name: getattr(task, name) for name in _FIELDS}
        values.update(changes)
        builds = {
            "positional": lambda: TaskDescriptor(*values.values()),
            "keyword": lambda: TaskDescriptor(**values),
            "replace": lambda: dataclasses.replace(task, **changes),
        }
        for way, build in builds.items():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    def test_sequences_are_stored_as_tuples(self):
        twin = make_task(goal=("pick", "red", "cube"), target=("move", "grasp", "lift"))
        assert TaskDescriptor(*[getattr(twin, name) for name in _FIELDS]).goal is twin.goal
        for task in _sequence_twins(twin):
            for name in ("goal", "observations", "target_sequence"):
                assert type(getattr(task, name)) is tuple and getattr(task, name) == getattr(twin, name)
            assert task == twin and task.signature == twin.signature
            assert task.goal_tokens == twin.goal_tokens

    @pytest.mark.parametrize("mode", POLICY_MODES)
    def test_list_and_generator_built_tasks_run_as_their_twin(self, mode):
        twin = make_task(goal=("pick", "red", "cube"), target=("move", "grasp", "lift"))

        def run(task):
            first = (
                TaskEvent(0, OBSERVED_EVENT, task, ObservedEvent(task.target_sequence, True))
                if corpus_mode_for(mode) == OBSERVATION_FIRST
                else TaskEvent(0, SELF_TASK, task)
            )
            events = [first, TaskEvent(1, SELF_TASK, task), TaskEvent(2, SELF_TASK, task)]
            return run_loop(events, mode, MethodLibrary(), MockPlanner(seed=7), TriggerThresholds(),
                            ExecutorConfig())

        want = run(twin)
        for task in _sequence_twins(twin):
            assert run(task) == want


class TestGenerateCorpus:
    def test_reference_shape(self):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5)
        assert len(events) == 100
        sigs = [signature_of(e.task) for e in events]
        assert len(set(sigs)) == 20
        for sig in set(sigs):
            assert sigs.count(sig) == 5

    def test_minimal_corpus(self):
        events = generate_corpus(seed=7, n_tasks=1, n_repeats=1)
        assert len(events) == 1
        assert events[0].kind == SELF_TASK

    def test_observation_first_layout(self):
        events = generate_corpus(seed=7, n_tasks=3, n_repeats=2, mode=OBSERVATION_FIRST)
        assert [e.kind for e in events[:3]] == [OBSERVED_EVENT] * 3
        assert [e.kind for e in events[3:]] == [SELF_TASK] * 3
        for observed, self_ev in zip(events[:3], events[3:]):
            assert signature_of(observed.task) == signature_of(self_ev.task)
            assert observed.observed is not None
            assert observed.observed.success
            assert observed.observed.action_sequence == observed.task.target_sequence

    def test_observed_events_precede_matching_self_events(self):
        events = generate_corpus(seed=3, n_tasks=6, n_repeats=4, mode=OBSERVATION_FIRST)
        observed_cycle = {}
        for e in events:
            if e.kind == OBSERVED_EVENT:
                observed_cycle[signature_of(e.task)] = e.cycle
        assert len(observed_cycle) == 6
        for e in events:
            if e.kind == SELF_TASK:
                assert e.cycle > observed_cycle[signature_of(e.task)]

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            generate_corpus(seed=7, n_tasks=0, n_repeats=5)
        with pytest.raises(ValueError):
            generate_corpus(seed=7, n_tasks=5, n_repeats=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown corpus mode 'bogus'$"):
            generate_corpus(7, 2, 1, mode="bogus")

    def test_referentially_transparent(self):
        a = generate_corpus(seed=42, n_tasks=10, n_repeats=3)
        b = generate_corpus(seed=42, n_tasks=10, n_repeats=3)
        assert json.dumps(corpus_to_doc(a)) == json.dumps(corpus_to_doc(b))

    def test_tasks_depend_only_on_seed_and_n_tasks(self):
        # So the 384x3 events.json digests in test_golden_outputs.py also pin
        # the draws of baseline-384's 384x10 corpora.
        short = [event.task for event in generate_corpus(7, 384, 3)[:384]]
        long = [event.task for event in generate_corpus(7, 384, 10, OBSERVATION_FIRST)[:384]]
        assert short == long
        assert [task.signature for task in short] == [task.signature for task in long]

    def test_different_seeds_differ(self):
        a = generate_corpus(seed=1, n_tasks=10, n_repeats=1)
        b = generate_corpus(seed=2, n_tasks=10, n_repeats=1)
        assert json.dumps(corpus_to_doc(a)) != json.dumps(corpus_to_doc(b))

    def test_targets_drawn_from_default_actions(self):
        events = generate_corpus(seed=9, n_tasks=30, n_repeats=2)
        for e in events:
            assert all(a in DEFAULT_ACTIONS for a in e.task.target_sequence)
            assert len(e.task.target_sequence) <= e.task.constraints.max_steps

    def test_cycles_strictly_increase(self):
        events = generate_corpus(seed=5, n_tasks=4, n_repeats=3)
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)

    def test_mean_target_length(self):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5)
        lengths = {signature_of(e.task): len(e.task.target_sequence) for e in events}
        assert mean_target_length(events) == pytest.approx(sum(lengths.values()) / 20)

    def test_mean_target_length_counts_each_signature_once_at_its_first_task(self):
        # ``a`` repeats as one object; ``a_copy`` is a distinct object with
        # ``a``'s signature and a longer target; ``b`` has its own signature.
        a = make_task(goal=("pick", "red", "cube"), target=("move",) * 2)
        a_copy = make_task(goal=("Pick", "RED", "cube!"), target=("move",) * 6, task_id="task-009")
        b = make_task(goal=("stack", "blue", "ring"), target=("move",) * 5)
        assert a is not a_copy and a.signature == a_copy.signature != b.signature
        stream = [a, a, a_copy, b, a_copy, a]
        events = [TaskEvent(cycle, SELF_TASK, task) for cycle, task in enumerate(stream)]
        assert mean_target_length(events) == (2 + 5) / 2
        # The first task to carry a signature sets its length, whichever object it is.
        assert mean_target_length(events[2:]) == (6 + 5) / 2
        assert mean_target_length(iter(events)) == (2 + 5) / 2

    def test_mean_target_length_of_no_events_rejected(self):
        with pytest.raises(ValueError, match="^empty event stream$"):
            mean_target_length([])


class TestCorpusPersistence:
    def test_round_trip(self, tmp_path):
        events = generate_corpus(seed=13, n_tasks=5, n_repeats=2, mode=OBSERVATION_FIRST)
        path = tmp_path / "corpus.json"
        save_corpus(events, path)
        loaded = load_corpus(path)
        assert corpus_to_doc(loaded) == corpus_to_doc(events)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_tasks=st.integers(1, 12),
        n_repeats=st.integers(1, 3),
        mode=st.sampled_from(CORPUS_MODES),
    )
    def test_round_trip_property(self, seed, n_tasks, n_repeats, mode):
        events = generate_corpus(seed=seed, n_tasks=n_tasks, n_repeats=n_repeats, mode=mode)
        assert corpus_from_doc(json.loads(json.dumps(corpus_to_doc(events)))) == events

    def test_version_checked(self):
        with pytest.raises(SchemaError) as err:
            corpus_from_doc({"version": 99, "events": []})
        assert "version" in str(err.value)

    def test_missing_task_field_named(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        del doc["events"][0]["task"]["goal"]
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert "goal" in str(err.value)

    def test_empty_target_sequence_named(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        doc["events"][0]["task"]["target_sequence"] = []
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert err.value.field == "events[0].task.target_sequence"
        assert err.value.message == "must be non-empty"

    def test_string_sequences_rejected(self):
        events = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)
        cases = [
            (("task", "goal"), "pick red cube"),
            (("task", "target_sequence"), "move"),
            (("observed", "action_sequence"), "move"),
            # Misspelled keys are unknown fields; environment values are strings.
            (("task", "constraints", "deadline"), 5.0),
            (("observed", "contxt"), {}),
            (("task", "environment", "object"), 3),
        ]
        for path, value in cases:
            doc = corpus_to_doc(events)
            node = doc["events"][0]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with pytest.raises(SchemaError) as err:
                corpus_from_doc(doc)
            assert err.value.field == "events[0]." + ".".join(path)

    @pytest.mark.parametrize("environment, field", [
        ({"workspace": 1}, "environment.workspace"),
        ({"a b": 1}, 'environment["a b"]'),
        ({"": 1}, 'environment[""]'),
    ], ids=["identifier", "spaced", "empty"])
    def test_bad_environment_value_named_by_its_key(self, environment, field):
        # The rule unknown keys follow: a key that is not a name is bracketed.
        doc = corpus_to_doc(generate_corpus(seed=7, n_tasks=1, n_repeats=1))
        doc["events"][0]["task"]["environment"] = environment
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert err.value.field == f"events[0].task.{field}"
        assert err.value.message == "expected a string, got int"

    def test_observed_object_is_action_sequence_and_success(self):
        events = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)
        observed = corpus_to_doc(events)["events"][0]["observed"]
        assert observed == {"action_sequence": list(events[0].task.target_sequence), "success": True}

    def test_old_observation_format_rejected(self):
        # Before ObservedEvent lost its copies, each observation also held
        # the task's signature and a context object.
        event = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)[0]
        doc = corpus_to_doc([event])
        doc["events"][0]["observed"] = {
            "task_signature": event.task.signature,
            "action_sequence": list(event.task.target_sequence),
            "success": True,
            "context": {"source": "external-agent"},
        }
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert err.value.field == "events[0].observed.task_signature"
        assert err.value.message == "unknown field"

    def test_non_increasing_cycles_rejected(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=2, n_repeats=1))
        doc["events"][1]["cycle"] = doc["events"][0]["cycle"]
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert "cycle" in str(err.value)


def test_event_kind_and_payload_consistency():
    task = make_task()
    with pytest.raises(ValueError):
        # observed payload missing for an observed_event
        TaskEvent(cycle=0, kind=OBSERVED_EVENT, task=task, observed=None)


class TestEventRecords:
    """An event is an immutable ``NamedTuple`` record that no way of
    building skips the checks of, as a frozen dataclass was."""

    def test_fields_cannot_be_assigned(self):
        event = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)[0]
        with pytest.raises(AttributeError):
            event.cycle = 5
        with pytest.raises(AttributeError):
            event.observed.success = False
        with pytest.raises(AttributeError):
            event.note = "x"

    def test_replace_and_make_run_the_checks(self):
        event = TaskEvent(0, SELF_TASK, make_task())
        kinds = f"kind must be one of {SELF_TASK}, {OBSERVED_EVENT}, not 'bogus'"
        with pytest.raises(ValueError, match=f"^{kinds}$"):
            event._replace(kind="bogus")
        with pytest.raises(ValueError, match="^cycle must be nonnegative$"):
            TaskEvent._make((-1, SELF_TASK, event.task))
        with pytest.raises(ValueError, match="^an observed payload is required iff kind is observed_event$"):
            event._replace(kind=OBSERVED_EVENT)
        assert event._replace(cycle=3) == TaskEvent(3, SELF_TASK, event.task)
        assert type(TaskEvent._make(event)) is TaskEvent

        failed = ObservedEvent((), success=False)
        message = "^successful observation must carry a non-empty action_sequence$"
        with pytest.raises(ValueError, match=message):
            failed._replace(success=True)
        with pytest.raises(ValueError, match=message):
            ObservedEvent._make(((), True))

    def test_string_in_place_of_an_action_sequence_rejected(self):
        # Unpacked, "move" would be four one-letter actions m, o, v, e.
        message = "^action_sequence must be a sequence of strings, not a str$"
        with pytest.raises(ValueError, match=message):
            ObservedEvent("move", True)
        with pytest.raises(ValueError, match=message):
            ObservedEvent._make(("move", True))
        with pytest.raises(ValueError, match=message):
            ObservedEvent(("move",), True)._replace(action_sequence="move")
        # The corpus reader refuses it by type first, with its own message.
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST))
        doc["events"][0]["observed"]["action_sequence"] = "move"
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert str(err.value) == "events[0].observed.action_sequence: expected a list, got str"

    @pytest.mark.parametrize("changes, error", [
        ({"cycle": -1}, "events[0].cycle: must be nonnegative"),
        ({"kind": "dream"},
         f"events[0].kind: must be one of {SELF_TASK}, {OBSERVED_EVENT}, not 'dream'"),
        ({"kind": OBSERVED_EVENT, "observed": {"action_sequence": [], "success": True}},
         "events[0].observed: successful observation must carry a non-empty action_sequence"),
    ], ids=["cycle", "kind", "observed"])
    def test_reader_names_each_check_at_its_path(self, changes, error):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        doc["events"][0].update(changes)
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert str(err.value) == error

    def test_reader_takes_the_observed_default(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        del doc["events"][0]["observed"]
        assert corpus_from_doc(doc)[0].observed is None

    def test_written_as_objects_in_field_order(self):
        event = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)[0]
        doc = to_doc(event)
        assert type(doc) is dict and list(doc) == ["cycle", "kind", "task", "observed"]
        assert type(doc["observed"]) is dict and list(doc["observed"]) == ["action_sequence", "success"]
        assert to_doc(TaskEvent(2, SELF_TASK, event.task))["observed"] is None

    def test_load_corpus_returns_event_records(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(generate_corpus(seed=3, n_tasks=2, n_repeats=2, mode=OBSERVATION_FIRST), path)
        events = load_corpus(path)
        assert {type(event) for event in events} == {TaskEvent}
        assert [type(event.observed) for event in events] == [ObservedEvent] * 2 + [type(None)] * 2
