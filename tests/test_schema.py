"""Mutation properties of the shared dataclass reader, one per document type.

Each property draws a valid document, checks that it reads back equal, then
applies one mutation and checks that loading raises ``SchemaError`` whose
``field`` is the mutated dotted path. The mutations are: drop a required
key, add an unknown key, give a field (or a list item or mapping value) the
wrong JSON type, put ``null`` in a non-nullable field, put a non-finite
number in a float field, and repeat an entry of a set-typed list. The sites
are found by walking the document against the dataclass annotations,
independently of the reader. A table test then checks that each loader
names a value its dataclass rejects at that value's field.
"""

from __future__ import annotations

import copy
import dataclasses
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
from reuseloop.errors import SchemaError, read_dataclass, to_doc
from reuseloop.library import (
    Applicability,
    DataProfile,
    Method,
    MethodLibrary,
    Reliability,
    _LibraryDoc,
)
from reuseloop.planner import (
    MODEL_FAMILIES,
    STRATEGY_KINDS,
    CandidateModel,
    DataRequirement,
    LearningPlan,
    StrategyStep,
    UpdateCriteria,
)
from reuseloop.tasks import (
    CORPUS_MODES,
    DEFAULT_ACTIONS,
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


def _json_kind(kind):
    """``(nullable, JSON type, item annotation or None)`` of a field annotation."""
    nullable = type(kind) is UnionType and NoneType in kind.__args__
    if nullable:
        (kind,) = (arg for arg in kind.__args__ if arg is not NoneType)
    if dataclasses.is_dataclass(kind):
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
    for f in dataclasses.fields(cls):
        fpath, value = _join(path, f.name), doc[f.name]
        nullable, kind, item = _json_kind(hints[f.name])
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            sites.append((fpath, at, f.name, _DROP))
        sites.append((fpath, at, f.name, _WRONG[kind]))
        if not nullable:
            sites.append((fpath, at, f.name, None))
        if kind is float:
            sites.extend((fpath, at, f.name, x) for x in _NON_FINITE)
        if value is None:
            continue
        inner = (*at, f.name)
        if kind is dict and dataclasses.is_dataclass(item):
            sites.extend(_sites(item, value, fpath, inner))
        elif kind is list and dataclasses.is_dataclass(item):
            for i, entry in enumerate(value):
                sites.extend(_sites(item, entry, f"{fpath}[{i}]", (*inner, i)))
        elif kind is list:
            sites.extend((f"{fpath}[{i}]", inner, i, _WRONG[item]) for i in range(len(value)))
            if value and typing.get_origin(hints[f.name]) in (set, frozenset):
                # The first repeat is the appended copy.
                sites.append((f"{fpath}[{len(value)}]", at, f.name, [*value, value[0]]))
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
        endpoint=st.none() | _text,
        model=st.none() | _text,
        temperature=_floats(),
        timeout_s=st.floats(0.0, 1e6, exclude_min=True),
        retries=st.integers(0, 9),
    ),
    library_path=st.none() | _text,
    output_dir=_text,
)

_plans = st.builds(
    LearningPlan,
    candidate_models=st.lists(
        st.builds(CandidateModel, st.sampled_from(MODEL_FAMILIES)), min_size=1, max_size=2
    ).map(tuple),
    subproblems=st.lists(_text, max_size=2).map(tuple),
    data_requirements=st.lists(st.builds(DataRequirement, _names, _counts), max_size=2).map(tuple),
    strategy=st.lists(st.builds(StrategyStep, st.sampled_from(STRATEGY_KINDS)), max_size=2).map(tuple),
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
    (partial(read_dataclass, RunConfig), {"planner": {"timeout_s": 0}}, "planner.timeout_s"),
    (partial(read_dataclass, RunConfig), {"n_tasks": 1000}, "n_tasks"),
    (partial(read_dataclass, RunConfig), {"mode": "yolo"}, "mode"),
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
    (corpus_from_doc, _with(_CORPUS_DOC, ("events", 0, "task", "target_sequence"), []),
     "events[0].task.target_sequence"),
    (corpus_from_doc, _with(_CORPUS_DOC, ("events", 0, "kind"), "dream"), "events[0].kind"),
    (partial(read_dataclass, LearningPlan),
     {"candidate_models": [{"family": "sequence"}], "update_criteria": {"validation_threshold": 2}},
     "update_criteria.validation_threshold"),
    (partial(read_dataclass, LearningPlan), {"candidate_models": [{"family": "quantum"}]},
     "candidate_models[0].family"),
    (partial(read_dataclass, LearningPlan),
     {"candidate_models": [{"family": "sequence"}], "strategy": [{"kind": "nap"}]}, "strategy[0].kind"),
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
