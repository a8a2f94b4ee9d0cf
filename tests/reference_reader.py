"""The record reader as an interpretive loop over each class's schema, kept
as the reference that ``errors.read_dataclass``'s generated readers are
checked against (``tests/test_schema.py::TestAgainstReference``).

This is the package's reader as it was before each class's reader was
generated: ``_read`` walks ``_schema(cls)``'s entries one field per turn,
and a nested record is read by ``partial(_read, ...)``. Only the violation
type, the mismatch message and the key-step rule come from
``reuseloop.errors``, so a fault in a generated reader or in the helpers it
calls does not show up here too.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, Field, fields, is_dataclass
from functools import cache, partial
from math import isfinite
from types import NoneType, UnionType
from typing import Any, get_args, get_origin, get_type_hints

from reuseloop.errors import SchemaError, _is_record, _key_step, _mismatch, _Violation


def _check_items(item: type, container: type, value: list):
    """``container(value)`` once every entry of ``value`` is exactly an
    ``item``; a set or frozenset also takes no entry twice."""
    for entry in value:
        if type(entry) is not item:
            i = [type(e) is item for e in value].index(False)
            raise _mismatch(item, entry, f"[{i}]")
    result = container(value)
    if len(result) != len(value):  # a set dropped a repeat
        i = next(i for i in range(len(value)) if value[i] in value[:i])
        raise _Violation(f"[{i}]", f"duplicate entry {value[i]!r}")
    return result


def _read_items(read, container: type, value: list):
    """``container`` of ``read(entry)`` for each entry of ``value``."""
    done = []
    try:
        for entry in value:
            done.append(read(entry))
    except _Violation as exc:
        exc.path = f"[{len(done)}]{exc.path}"
        raise
    return container(done)


def _check_values(item: type, value: dict) -> dict:
    """A copy of ``value`` once every value in it is exactly an ``item``."""
    for key, entry in value.items():
        if type(entry) is not item:
            raise _mismatch(item, entry, _key_step(key))
    return dict(value)


def _reader(kind) -> tuple:
    """``(JSON type, converter or None)`` for a field annotation.

    The value is first checked to be exactly of the JSON type; the converter,
    if any, then builds the field from it: a record from an object, a
    tuple, set or frozenset from a list, a dict from an object whose values
    are checked against the annotation's value type unless it is ``Any``.
    """
    if _is_record(kind):
        return dict, partial(_read, _schema(kind), kind)
    origin, args = get_origin(kind), get_args(kind)
    if origin in (tuple, set, frozenset):
        item = args[0]
        if _is_record(item):
            return list, partial(_read_items, partial(_read, _schema(item), item), origin)
        return list, partial(_check_items, item, origin)
    if origin in (dict, Mapping):
        return dict, dict if args[1] is Any else partial(_check_values, args[1])
    return kind, None


@cache
def _schema(cls) -> tuple[frozenset[str], tuple[tuple, ...]]:
    """The field names of the record ``cls``, and per field in field order
    ``(name, JSON type, converter or None, nullable, default)``. The default
    is ``MISSING`` for a required field. For a dataclass field with a
    ``default_factory`` it is the ``Field`` itself, whose factory each read
    that misses the field calls, so no two records share a mutable default.
    Otherwise it is the default value, from the dataclass field or the
    ``NamedTuple``'s ``_field_defaults``."""
    hints = get_type_hints(cls)
    if is_dataclass(cls):
        names = [(f.name, f.default if f.default_factory is MISSING else f) for f in fields(cls)]
    else:
        names = [(name, cls._field_defaults.get(name, MISSING)) for name in cls._fields]
    entries = []
    for name, default in names:
        kind = hints[name]
        nullable = type(kind) is UnionType and NoneType in kind.__args__
        if nullable:
            (kind,) = (arg for arg in kind.__args__ if arg is not NoneType)
        entries.append((name, *_reader(kind), nullable, default))
    return frozenset(entry[0] for entry in entries), tuple(entries)


def _read(schema, build, doc: Any):
    """``build(*values)``, the fields in ``schema``, ``_schema(cls)``'s
    result, read from ``doc`` in field order, a missing one as its default;
    a violation, a ``ValueError`` from ``build`` included, raises
    ``_Violation``. A ``ValueError`` whose message starts with a field name
    is placed at that field."""
    if type(doc) is not dict:
        raise _Violation("", "expected a JSON object")
    names, entries = schema
    if not names.issuperset(doc):
        unknown = next(key for key in doc if key not in names)
        raise _Violation(_key_step(unknown), "unknown field")
    values = []
    try:
        for name, kind, convert, nullable, default in entries:
            try:
                value = doc[name]
            except KeyError:
                if default is MISSING:
                    raise _Violation("", "missing field") from None
                values.append(default.default_factory() if type(default) is Field else default)
                continue
            if type(value) is not kind:
                if value is None and nullable:
                    values.append(None)
                    continue
                if kind is not float or type(value) is not int:
                    raise _mismatch(kind, value)
                value = _widen(value)
            elif kind is float and not isfinite(value):
                raise _Violation("", f"expected a finite number, got {json.dumps(value)}")
            values.append(value if convert is None else convert(value))
    except _Violation as exc:
        exc.path = f".{name}{exc.path}"
        raise
    try:
        return build(*values)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in names:
            raise _Violation(f".{name}", rest) from exc
        raise _Violation("", str(exc)) from exc


def _widen(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        raise _Violation("", "expected a finite number, got an integer too large for a float") from None


def read_reference(cls, doc: Any):
    """``read_dataclass(cls, doc)`` by the reference loop: the record, or
    the same ``SchemaError``."""
    try:
        return _read(_schema(cls), cls, doc)
    except _Violation as exc:
        raise SchemaError(exc.path.lstrip(".") or "<root>", exc.message) from exc.__cause__
