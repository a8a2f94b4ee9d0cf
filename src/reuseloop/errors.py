"""Exception types, the JSON and typed-field readers every loader uses, ``to_doc``
and ``number_text``."""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from functools import cache, partial
from types import GenericAlias, NoneType, UnionType
from typing import Any, get_args, get_origin, get_type_hints


class ReuseLoopError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(ReuseLoopError):
    """A document violated its schema.

    ``field`` names the offending entry with a dotted path, e.g.
    ``methods[3].reliability.successes``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


_REQUIRED = object()

# List kinds for ``typed_field``, built once: a ``list[str]`` written at the
# call site would construct a new alias on every call of a hot loader.
STR_LIST = list[str]
DICT_LIST = list[dict]

_EXPECTED = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    dict: "an object",
    STR_LIST: "a list of strings",
    DICT_LIST: "a list of objects",
}


def typed_field(doc: dict, key: str, kind, where: str = "", default: Any = _REQUIRED) -> Any:
    """Return ``doc[key]`` after checking, without coercion, that it is of ``kind``.

    ``kind`` is ``str``, ``int``, ``float``, ``bool``, ``dict``, ``STR_LIST`` or
    ``DICT_LIST``. Types match exactly, so ``bool`` is never a number and
    ``str`` never a list; a ``float`` also takes an int.
    A missing field yields ``default``, or is an error without one; a field
    whose default is ``None`` may be ``null``. A violation raises
    ``SchemaError`` naming ``where.key``, or the first bad list item.
    """
    value = doc.get(key, default)
    if type(value) is kind:
        return value
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        return value
    if type(kind) is GenericAlias and type(value) is list:
        item = kind.__args__[0]
        for i, entry in enumerate(value):
            if type(entry) is not item:
                key, kind, value = f"{key}[{i}]", item, entry
                break
        else:
            return value
    path = f"{where}.{key}" if where else key
    if value is _REQUIRED:
        raise SchemaError(path, "missing field")
    raise SchemaError(path, f"expected {_EXPECTED[kind]}, got {type(value).__name__}")


def _reader(kind) -> tuple:
    """``(JSON kind, finish)`` for a field annotation.

    ``typed_field`` checks a value against the JSON kind; ``finish(value,
    path)``, unless None, then builds the field from it: a dataclass from an
    object, a tuple, set or frozenset from a list, a dict from an object
    whose values are checked against the annotation's value type unless it
    is ``Any``.
    """
    if is_dataclass(kind):
        return dict, partial(read_dataclass, kind)
    origin, args = get_origin(kind), get_args(kind)
    if origin in (tuple, set, frozenset):
        item = args[0]
        if is_dataclass(item):
            return DICT_LIST, lambda value, path: origin(
                read_dataclass(item, entry, f"{path}[{i}]") for i, entry in enumerate(value)
            )
        return list[item], lambda value, path: origin(value)
    if origin in (dict, Mapping):
        return dict, partial(_read_mapping, args[1])
    return kind, None


def _read_mapping(item, value: dict, path: str) -> dict:
    if item is not Any:
        for key, entry in value.items():
            if type(entry) is not item:
                raise SchemaError(
                    f"{path}.{key}", f"expected {_EXPECTED[item]}, got {type(entry).__name__}"
                )
    return dict(value)


@cache
def _schema(cls) -> dict[str, tuple]:
    """``name -> (JSON kind, finish, typed_field default, required)`` per field of ``cls``."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        kind, default = hints[f.name], _REQUIRED
        if type(kind) is UnionType and NoneType in kind.__args__:
            (kind,) = (arg for arg in kind.__args__ if arg is not NoneType)
            default = None
        required = f.default is MISSING and f.default_factory is MISSING
        schema[f.name] = (*_reader(kind), default, required)
    return schema


def typed_fields(cls, doc: dict, where: str = "") -> dict:
    """Read every field of the dataclass ``cls`` from ``doc`` into constructor kwargs.

    Each field's kind is its annotation, read through ``typed_field``; an
    ``X | None`` field may be ``null``, and an int in a ``float`` field is
    widened to float. A nested dataclass is read with ``read_dataclass``,
    alone or as the items of a ``tuple[X, ...]``, at paths such as
    ``where.name[2]``; other tuples and sets are lists of ``X``, and a
    ``Mapping[str, X]`` or ``dict[str, X]`` is an object. A missing field is
    left to the dataclass default; one without a default is required. An
    unknown key raises ``SchemaError`` naming ``where.key``.
    """
    schema = _schema(cls)
    for key in doc:
        if key not in schema:
            raise SchemaError(f"{where}.{key}" if where else key, "unknown field")
    kwargs = {}
    for name, (kind, finish, default, required) in schema.items():
        if name not in doc and not required:
            continue
        value = typed_field(doc, name, kind, where, default)
        if finish is not None and value is not None:
            value = finish(value, f"{where}.{name}" if where else name)
        elif kind is float and type(value) is int:
            value = float(value)
        kwargs[name] = value
    return kwargs


def read_dataclass(cls, doc: Any, where: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``doc`` via ``typed_fields``.

    ``where`` is the object's path, empty at the root. A non-object, or a
    ``ValueError`` from ``cls`` itself, raises ``SchemaError`` there
    (``<root>`` at the root).
    """
    at = where or "<root>"
    if type(doc) is not dict:
        raise SchemaError(at, "expected a JSON object")
    try:
        return cls(**typed_fields(cls, doc, where))
    except ValueError as exc:
        raise SchemaError(at, str(exc)) from exc


def to_doc(value: Any) -> Any:
    """The JSON form of ``value``, as ``read_dataclass`` reads it back.

    A dataclass becomes an object of its fields in declaration order, a
    tuple or list a list, a set a sorted list and a mapping an object;
    scalars and anything else are returned as they are.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [to_doc(entry) for entry in value]
    if is_dataclass(value):
        return {name: to_doc(getattr(value, name)) for name in _schema(type(value))}
    if isinstance(value, (set, frozenset)):
        return [to_doc(entry) for entry in sorted(value)]
    if isinstance(value, Mapping):
        return {key: to_doc(entry) for key, entry in value.items()}
    return value


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def number_text(x: float) -> str:
    """A float or int as ``json.dumps`` writes it: its repr, with ``NaN``,
    ``Infinity`` and ``-Infinity`` for the non-finite floats."""
    text = repr(x)
    return _NONFINITE.get(text, text)


def parse_json(text: str) -> Any:
    """Parse a JSON document; malformed text raises ``SchemaError`` at ``<root>``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<root>", f"not valid JSON: {exc}") from exc


class LibraryError(ReuseLoopError):
    """Invalid operation against the method library (duplicate or unknown id)."""


class PlannerError(ReuseLoopError):
    """Base class for planning failures."""


class PlanningFailedError(PlannerError):
    """The planner could not produce a schema-valid plan within its retry budget."""


class RecordStreamError(ReuseLoopError):
    """A run-record stream contained a malformed line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
