"""Exception types, and the JSON and typed-field readers every loader uses."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import GenericAlias, NoneType, UnionType
from typing import Any, get_type_hints


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


@cache
def _schema(cls) -> dict[str, tuple]:
    """``name -> (kind, typed_field default, required, nested)`` for each field of ``cls``."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        kind, default = hints[f.name], _REQUIRED
        if type(kind) is UnionType and NoneType in kind.__args__:
            (kind,) = (arg for arg in kind.__args__ if arg is not NoneType)
            default = None
        required = f.default is MISSING and f.default_factory is MISSING
        schema[f.name] = (kind, default, required, is_dataclass(kind))
    return schema


def typed_fields(cls, doc: dict, where: str = "") -> dict:
    """Read every field of the dataclass ``cls`` from ``doc`` into constructor kwargs.

    Each field's kind is its annotation, read through ``typed_field``; an
    ``X | None`` field may be ``null``, and an int in a ``float`` field is
    widened to float. A nested dataclass is read as an object the same way
    and built, its ``ValueError`` reported at its path. A missing field is
    left to the dataclass default; one without a default is required. An
    unknown key raises ``SchemaError`` naming ``where.key``.
    """
    schema = _schema(cls)
    for key in doc:
        if key not in schema:
            raise SchemaError(f"{where}.{key}" if where else key, "unknown field")
    kwargs = {}
    for name, (kind, default, required, nested) in schema.items():
        if name not in doc and not required:
            continue
        if nested:
            value = typed_field(doc, name, dict, where, default)
            if value is not None:
                path = f"{where}.{name}" if where else name
                try:
                    value = kind(**typed_fields(kind, value, path))
                except ValueError as exc:
                    raise SchemaError(path, str(exc)) from exc
        else:
            value = typed_field(doc, name, kind, where, default)
            if kind is float and type(value) is int:
                value = float(value)
        kwargs[name] = value
    return kwargs


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
