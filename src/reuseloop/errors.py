"""Exception types shared across the package, and the typed-field check every loader uses."""

from __future__ import annotations

from types import GenericAlias
from typing import Any


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
