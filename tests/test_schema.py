"""Mutation properties of the shared dataclass reader, one per document type.

Each property draws a valid document, checks that it reads back equal, then
applies one mutation and checks that loading raises ``SchemaError`` whose
``field`` is the mutated dotted path. The mutations are: drop a required
key, add an unknown key, give a field (or a list item or mapping value) the
wrong JSON type, put ``null`` in a non-nullable field, put a non-finite
number in a float field, and repeat an entry of a set-typed list. The sites
are found by walking the document against the dataclass annotations,
independently of the reader. A table test then checks that each loader
names a value its dataclass rejects at that value's field. The last tests
check what the reader's positional build assumes of every record class.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import typing
from collections.abc import Mapping
from functools import partial
from types import NoneType, UnionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuseloop.config import PlannerSettings, RunConfig
from reuseloop.costs import CostProfile
from reuseloop.engine import POLICY_MODES, ExecutorConfig, RunRecord
from reuseloop.errors import SchemaError, _schema, read_dataclass, to_doc
from reuseloop.library import (
    Applicability,
    DataProfile,
    Method,
    MethodLibrary,
    Reliability,
    _LibraryDoc,
)
from reuseloop.planner import DataRequirement, LearningPlan, UpdateCriteria
from reuseloop.tasks import (
    CORPUS_MODES,
    DEFAULT_ACTIONS,
    ObservedEvent,
    TaskDescriptor,
    TaskEvent,
    _CorpusDoc,
    corpus_from_doc,
    corpus_to_doc,
    generate_corpus,
)
from reuseloop.trigger import TriggerThresholds

from conftest import make_method

_DROP = object()
_WRONG = {str: 3, int: "1", float: "1.5", bool: 1, dict: [], list: {}}
_NON_FINITE = (float("nan"), float("inf"), float("-inf"), 10**400)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _is_record(kind) -> bool:
    """A dataclass or a ``NamedTuple`` class."""
    return dataclasses.is_dataclass(kind) or hasattr(kind, "_field_defaults")


def _record_fields(cls) -> list[tuple[str, bool]]:
    """``(name, required)`` for each field of the record ``cls``."""
    if dataclasses.is_dataclass(cls):
        return [
            (f.name, f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)
        ]
    return [(name, name not in cls._field_defaults) for name in cls._fields]


def _json_kind(kind):
    """``(nullable, JSON type, item annotation or None)`` of a field annotation."""
    nullable = type(kind) is UnionType and NoneType in kind.__args__
    if nullable:
        (kind,) = (arg for arg in kind.__args__ if arg is not NoneType)
    if _is_record(kind):
        return nullable, dict, kind
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (tuple, set, frozenset):
        return nullable, list, args[0]
    if origin in (dict, Mapping):
        return nullable, dict, args[1]
    return nullable, kind, None


def _sites(cls, doc: dict, path: str = "", at: tuple = ()) -> list[tuple]:
    """Every single mutation of the object ``doc`` read as ``cls``, and below it,
    as ``(expected field, keys from the root, key, new value or _DROP)``."""
    sites = [(_join(path, "zz_unknown"), at, "zz_unknown", 1)]
    hints = typing.get_type_hints(cls)
    for name, required in _record_fields(cls):
        fpath, value = _join(path, name), doc[name]
        nullable, kind, item = _json_kind(hints[name])
        if required:
            sites.append((fpath, at, name, _DROP))
        sites.append((fpath, at, name, _WRONG[kind]))
        if not nullable:
            sites.append((fpath, at, name, None))
        if kind is float:
            sites.extend((fpath, at, name, x) for x in _NON_FINITE)
        if value is None:
            continue
        inner = (*at, name)
        if kind is dict and _is_record(item):
            sites.extend(_sites(item, value, fpath, inner))
        elif kind is list and _is_record(item):
            for i, entry in enumerate(value):
                sites.extend(_sites(item, entry, f"{fpath}[{i}]", (*inner, i)))
        elif kind is list:
            sites.extend((f"{fpath}[{i}]", inner, i, _WRONG[item]) for i in range(len(value)))
            if value and typing.get_origin(hints[name]) in (set, frozenset):
                # The first repeat is the appended copy.
                sites.append((f"{fpath}[{len(value)}]", at, name, [*value, value[0]]))
        elif kind is dict and item in _WRONG:
            sites.extend((_join(fpath, key), inner, key, _WRONG[item]) for key in value)
    return sites


def _mutated(doc: dict, site: tuple) -> dict:
    _, keys, key, value = site
    out = copy.deepcopy(doc)
    node = out
    for k in keys:
        node = node[k]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return out


def _check(cls, doc: dict, read, data) -> None:
    """``read(doc)`` gives back a ``cls`` whose document is ``doc``; each drawn
    mutation raises ``SchemaError`` at its path."""
    doc = json.loads(json.dumps(doc))
    assert to_doc(read(doc)) == doc
    sites = _sites(cls, doc)
    for site in data.draw(st.lists(st.sampled_from(sites), min_size=1, max_size=8)):
        with pytest.raises(SchemaError) as err:
            read(_mutated(doc, site))
        assert err.value.field == site[0], site


_names = st.text("abcxyz-_", min_size=1, max_size=6)
_text = st.text(max_size=6)
_counts = st.integers(0, 2**40)


def _floats(low=0.0, high=1e6):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _methods(draw, method_id):
    procedure = tuple(draw(st.lists(st.sampled_from(DEFAULT_ACTIONS), min_size=1, max_size=4)))
    attempts = draw(st.integers(0, 9))
    scalars = st.none() | st.booleans() | st.integers() | _floats(-1e6) | _text
    return Method(
        id=method_id,
        procedure=procedure,
        params=draw(st.dictionaries(_names, scalars | st.lists(scalars, max_size=2), max_size=3)),
        data_profile=DataProfile(draw(_counts), draw(_counts), draw(_counts)),
        applicability=Applicability(
            signatures=frozenset(draw(st.lists(_names, min_size=1, max_size=3))),
            goal_tokens=frozenset(draw(st.lists(_names, max_size=3))),
            max_steps=draw(st.integers(1, 9)),
        ),
        reliability=Reliability(
            draw(st.integers(0, attempts)), attempts, draw(_counts), draw(_counts)
        ),
        step_params=draw(st.none() | st.just(tuple({"speed": 0.5} for _ in procedure))),
    )


_libraries = st.lists(_names, min_size=1, max_size=3, unique=True).flatmap(
    lambda ids: st.tuples(*(_methods(i) for i in ids)).map(MethodLibrary)
)


@st.composite
def _run_records(draw):
    phases = draw(st.lists(_floats(), min_size=6, max_size=6))
    hit = draw(st.booleans())
    return RunRecord(
        draw(st.sampled_from(POLICY_MODES)), draw(_text), draw(st.integers(1, 99)),
        draw(_counts), *phases, total_s=sum(phases), llm_calls=draw(_counts),
        llm_time_s=phases[1], success=draw(st.booleans()), hit=hit,
        learned=not hit and draw(st.booleans()),
    )


_configs = st.builds(
    RunConfig,
    seed=_counts,
    n_tasks=st.integers(1, 99),
    n_repeats=st.integers(1, 9),
    mode=st.sampled_from(POLICY_MODES),
    thresholds=st.builds(TriggerThresholds, *[_floats(0.0, 1.0)] * 4),
    executor=st.none() | st.builds(ExecutorConfig, *[_floats()] * 7),
    planner=st.builds(
        PlannerSettings,
        latency_s=st.none() | _floats(),
        p_corrupt=st.none() | _floats(0.0, 1.0),
    ),
    library_path=st.none() | _text,
    output_dir=_text,
)

_plans = st.builds(
    LearningPlan,
    candidate_models=st.lists(st.sampled_from(("sequence", "hybrid")), min_size=1, max_size=2).map(tuple),
    subproblems=st.lists(_text, max_size=2).map(tuple),
    data_requirements=st.lists(st.builds(DataRequirement, _names, _counts), max_size=2).map(tuple),
    strategy=st.lists(st.sampled_from(("execute", "observe")), max_size=2).map(tuple),
    update_criteria=st.builds(UpdateCriteria, _floats(0.0, 1.0), st.integers(1, 9)),
    direct_solution=st.none()
    | st.lists(st.sampled_from(DEFAULT_ACTIONS), min_size=1, max_size=3).map(tuple),
)


@st.composite
def _corpus_docs(draw):
    events = generate_corpus(
        seed=draw(st.integers(0, 10_000)),
        n_tasks=draw(st.integers(1, 2)),
        n_repeats=draw(st.integers(1, 2)),
        mode=draw(st.sampled_from(CORPUS_MODES)),
    )
    doc = corpus_to_doc(events)
    # A deadline puts a float field in the corpus.
    for entry in doc["events"]:
        entry["task"]["constraints"]["deadline_s"] = draw(st.none() | _floats())
    return doc


_EXAMPLES = 100


class TestMutations:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(_libraries, st.data())
    def test_method_entries(self, tmp_path_factory, library, data):
        def read(doc):
            return _LibraryDoc(1, tuple(MethodLibrary.from_doc(doc).methods()))

        path = tmp_path_factory.getbasetemp() / "schema-library.json"
        library.save(path)
        _check(_LibraryDoc, json.loads(path.read_text(encoding="utf-8")), read, data)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(_run_records(), st.data())
    def test_run_record_lines(self, record, data):
        _check(RunRecord, to_doc(record), partial(read_dataclass, RunRecord), data)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(_configs, st.data())
    def test_run_config(self, config, data):
        _check(RunConfig, to_doc(config), partial(read_dataclass, RunConfig), data)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(_plans, st.data())
    def test_learning_plan(self, plan, data):
        _check(LearningPlan, to_doc(plan), partial(read_dataclass, LearningPlan), data)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(_corpus_docs(), st.data())
    def test_corpus_events(self, doc, data):
        _check(_CorpusDoc, doc, lambda d: _CorpusDoc(1, tuple(corpus_from_doc(d))), data)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(st.builds(CostProfile, *[_floats()] * 7), st.data())
    def test_cost_profile(self, profile, data):
        _check(CostProfile, to_doc(profile), partial(read_dataclass, CostProfile), data)


def _with(doc: dict, keys: tuple, value) -> dict:
    """A copy of ``doc`` with the entry at ``keys`` set to ``value``."""
    return _mutated(doc, (None, keys[:-1], keys[-1], value))


_LIBRARY_DOC = to_doc(_LibraryDoc(1, (make_method("m-a", successes=1, attempts=1),)))
_CORPUS_DOC = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
_RECORD_DOC = to_doc(RunRecord(
    POLICY_MODES[0], "t-0", 1, 0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, total_s=5.0, llm_calls=0,
    llm_time_s=0.0, success=True, hit=False, learned=False,
))


_NAMED_AT_FIELD = [
    (partial(read_dataclass, RunConfig), {"executor": {"base_s": -1}}, "executor.base_s"),
    (partial(read_dataclass, RunConfig), {"thresholds": {"tau_r": 2}}, "thresholds.tau_r"),
    (partial(read_dataclass, RunConfig), {"n_tasks": 1000}, "n_tasks"),
    (partial(read_dataclass, RunConfig), {"mode": "yolo"}, "mode"),
    (partial(read_dataclass, RunConfig), {"planner": {"latency_s": -1}}, "planner.latency_s"),
    (partial(read_dataclass, CostProfile), {"c_train": -1}, "c_train"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "reliability", "successes"), 2),
     "methods[0].reliability.successes"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "reliability", "attempts"), -1),
     "methods[0].reliability.attempts"),
    (MethodLibrary.from_doc,
     _with(_LIBRARY_DOC, ("methods", 0, "reliability", "created_cycle"), -3),
     "methods[0].reliability.created_cycle"),
    (MethodLibrary.from_doc,
     _with(_LIBRARY_DOC, ("methods", 0, "reliability", "last_used_cycle"), -9),
     "methods[0].reliability.last_used_cycle"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "data_profile", "episodes"), -1),
     "methods[0].data_profile.episodes"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "applicability", "max_steps"), 0),
     "methods[0].applicability.max_steps"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "id"), ""), "methods[0].id"),
    (MethodLibrary.from_doc, _with(_LIBRARY_DOC, ("methods", 0, "step_params"), [{}]),
     "methods[0].step_params"),
    (corpus_from_doc, _with(_CORPUS_DOC, ("events", 0, "task", "target_sequence"), []),
     "events[0].task.target_sequence"),
    (corpus_from_doc, _with(_CORPUS_DOC, ("events", 0, "kind"), "dream"), "events[0].kind"),
    (corpus_from_doc, _with(_CORPUS_DOC, ("events", 0, "cycle"), -1), "events[0].cycle"),
    (partial(read_dataclass, RunRecord), {**_RECORD_DOC, "policy": "bogus"}, "policy"),
]


@pytest.mark.parametrize("read, doc, field", [pytest.param(*case, id=case[2]) for case in _NAMED_AT_FIELD])
def test_value_errors_named_at_field(read, doc, field):
    """A value its dataclass rejects is named at its field, and the message
    no longer repeats the field name."""
    with pytest.raises(SchemaError) as err:
        read(doc)
    assert err.value.field == field
    assert err.value.message.startswith("must ")


# The settings of the deleted HTTP planner, with values an old config held.
_HTTP_SETTINGS = {
    "kind": "http", "endpoint": "http://x/v1", "model": "m",
    "temperature": 0.0, "timeout_s": 30.0, "retries": 2,
}


@pytest.mark.parametrize("field", [f"planner.{name}" for name in _HTTP_SETTINGS])
def test_removed_planner_settings_are_unknown_fields(field):
    """Each is refused by name, so an old config fails loudly instead of
    running the mock."""
    name = field.partition(".")[2]
    with pytest.raises(SchemaError) as err:
        read_dataclass(RunConfig, {"planner": {name: _HTTP_SETTINGS[name]}})
    assert (err.value.field, err.value.message) == (field, "unknown field")


def test_successful_observation_without_actions_named_at_its_object():
    # The check spans two fields, so it names the object that holds them.
    doc = _with(_CORPUS_DOC, ("events", 0, "kind"), "observed_event")
    doc = _with(doc, ("events", 0, "observed"), {"action_sequence": [], "success": True})
    with pytest.raises(SchemaError) as err:
        corpus_from_doc(doc)
    assert err.value.field == "events[0].observed"
    assert "non-empty action_sequence" in err.value.message
    # A failed observation may carry no actions.
    doc["events"][0]["observed"]["success"] = False
    assert corpus_from_doc(doc)[0].observed.action_sequence == ()


@pytest.mark.parametrize("read", [MethodLibrary.from_doc, corpus_from_doc])
@pytest.mark.parametrize("doc", [[], "library", None, 1])
def test_versioned_root_must_be_an_object(read, doc):
    with pytest.raises(SchemaError) as err:
        read(doc)
    assert (err.value.field, err.value.message) == ("<root>", "expected a JSON object")


def _records_read_from(root) -> list:
    """``root`` and every record class below it, walked through the fields
    ``_schema`` lists: the classes a loader of ``root`` builds."""
    found = [root]
    for cls in found:
        hints = typing.get_type_hints(cls)
        for name, *_ in _schema(cls)[1]:
            item = _json_kind(hints[name])[2]
            if _is_record(item) and item not in found:
                found.append(item)
    return found


_LOADED_RECORDS = list(dict.fromkeys(
    cls for root in (_LibraryDoc, _CorpusDoc, RunConfig, RunRecord, CostProfile)
    for cls in _records_read_from(root)
))


@pytest.mark.parametrize("cls", _LOADED_RECORDS, ids=lambda cls: cls.__name__)
def test_constructors_take_fields_positionally_in_field_order(cls):
    """The reader builds each record by one positional call, a missing field
    passed as its default; so every constructor a loader calls takes the
    fields in field order, as positional parameters, each defaulting to the
    field's own default. A ``default_factory`` shows no value in the
    signature; ``test_default_factories_are_called_on_every_read`` covers it."""
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [name for name, *_ in _schema(cls)[1]]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    if dataclasses.is_dataclass(cls):
        plain = {f.name: f.default for f in dataclasses.fields(cls)
                 if f.default_factory is dataclasses.MISSING}
    else:
        plain = {name: cls._field_defaults.get(name, dataclasses.MISSING) for name in cls._fields}
    for p in params:
        if p.name in plain:
            want = p.empty if plain[p.name] is dataclasses.MISSING else plain[p.name]
            assert p.default is want, p.name


def test_the_loaded_records_include_the_hand_written_constructors():
    assert {TaskDescriptor, TaskEvent, ObservedEvent, Method, PlannerSettings} <= set(_LOADED_RECORDS)


def test_default_factories_are_called_on_every_read():
    # PlannerSettings is mutable: two configs must not share one.
    first, second = read_dataclass(RunConfig, {}), read_dataclass(RunConfig, {})
    assert first == second == RunConfig()
    assert first.planner == second.planner and first.planner is not second.planner
    first.planner.p_corrupt = 0.5
    assert second.planner.p_corrupt is None and read_dataclass(RunConfig, {}).planner == PlannerSettings()
