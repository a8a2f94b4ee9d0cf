"""Exception types, the one record reader (``read_dataclass``, with
``read_versioned`` built on it), ``to_doc``, ``parse_json``, the one file
reader, ``load_json``, and the one file writer, ``replacing``.

A record is a dataclass or a ``NamedTuple`` class; the reader takes both
alike, by their fields and annotations.

Every loader reads its document through ``read_dataclass``, and
``engine.write_records`` checks each record with it before writing, so the
run-record writer refuses exactly what its reader refuses. Every file the
package reads whole, all but the line-by-line ``runs.jsonl``, is read through
``load_json``, and every file it writes is written through ``replacing``."""

from __future__ import annotations

import gc
import json
import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, Field, fields, is_dataclass
from functools import cache, partial
from math import isfinite
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, TextIO, get_args, get_origin, get_type_hints


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


_EXPECTED = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    dict: "an object",
    list: "a list",
}


class _Violation(Exception):
    """A schema violation at ``path`` below the value being read: ``""`` for
    the value itself, else ``.key`` and ``[index]`` steps. A key that is not
    an identifier is a ``["key"]`` step, in its JSON text (``_key_step``)."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message


def _key_step(key: str) -> str:
    return f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"


def _mismatch(kind: type, value: Any, path: str = "") -> _Violation:
    return _Violation(path, f"expected {_EXPECTED[kind]}, got {type(value).__name__}")


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


def _is_record(cls) -> bool:
    """Whether ``cls`` is a record: a dataclass or a ``NamedTuple`` class."""
    return is_dataclass(cls) or (
        isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
    )


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


def read_dataclass(cls, doc: Any):
    """Build the record ``cls``, a dataclass or a ``NamedTuple`` class alike,
    from the JSON object ``doc``, its fields passed positionally in field
    order, a missing one as its default.

    Each field is read against its annotation, with exact types: ``bool`` is
    never a number and ``str`` never a list. A ``float`` field takes an int,
    widened, and rejects NaN and the infinities; an ``X | None`` field may be
    ``null``. A nested record is read the same way, alone or as the items
    of a ``tuple[X, ...]``; other tuples and sets are lists of ``X``, and a
    set's list may not repeat an entry. A ``Mapping[str, X]`` or
    ``dict[str, X]`` is an object whose values are ``X``, any JSON value for
    ``Any``. A missing field takes the record's default; one without a
    default is required.

    A violation raises ``SchemaError`` naming its dotted path from the root,
    e.g. ``events[2].task.constraints.max_steps``: a non-object, an unknown
    key (named in brackets as JSON text when it is not an identifier,
    ``planner[""]`` or ``["a.b"]``), a missing or mistyped field, a repeated
    set entry, or a ``ValueError`` from a record. Such an error whose
    message starts with one of the record's field names is named at that
    field, with the rest of the message (``executor.base_s: must be
    nonnegative``); any other is named at the object it builds (``<root>`` at
    the root). So a bad value,
    worded ``"<field> must ..."``, is named at its field, and a check that
    spans fields, worded otherwise (a successful observation without
    actions, at ``events[0].observed``), at its object. Paths are built
    only when raising.
    """
    try:
        return _read(_schema(cls), cls, doc)
    except _Violation as exc:
        raise SchemaError(exc.path.lstrip(".") or "<root>", exc.message) from exc.__cause__


def read_versioned(cls, doc: Any, version: int):
    """``read_dataclass(cls, doc)`` for a root document whose ``version``
    must equal ``version``, checked before any other field."""
    if type(doc) is not dict:
        raise SchemaError("<root>", "expected a JSON object")
    if "version" not in doc:
        raise SchemaError("version", "missing field")
    found = doc["version"]
    if type(found) is not int or found != version:
        raise SchemaError("version", f"expected {version}, got {found!r}")
    return read_dataclass(cls, doc)


def to_doc(value: Any) -> Any:
    """The JSON form of ``value``, as ``read_dataclass`` reads it back.

    A record, a dataclass or a ``NamedTuple``, becomes an object of its
    fields in declaration order, another tuple or a list a list, a set a
    sorted list and a mapping an object; scalars and anything else are
    returned as they are.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if _is_record(type(value)):
        return {name: to_doc(getattr(value, name)) for name, *_ in _schema(type(value))[1]}
    if isinstance(value, (tuple, list)):
        return [to_doc(entry) for entry in value]
    if isinstance(value, (set, frozenset)):
        return [to_doc(entry) for entry in sorted(value)]
    if isinstance(value, Mapping):
        return {key: to_doc(entry) for key, entry in value.items()}
    return value


def parse_json(text: str) -> Any:
    """Parse a JSON document; malformed text raises ``SchemaError`` at ``<root>``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<root>", f"not valid JSON: {exc}") from exc


def load_json(path: str | Path, read: Callable[[Any], Any]) -> Any:
    """``read`` of the JSON document in the UTF-8 file at ``path``, parsed by
    ``parse_json``, with CPython's cycle collector paused throughout.

    Parsing and building a document makes many short-lived containers and
    no reference cycles, so the collections they would start free nothing:
    a young collection per 700 net new containers, ~50 collections on a
    2,000-method library. The collector's previous state is restored however
    the read ends, and a collector that was off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return read(parse_json(Path(path).read_text(encoding="utf-8")))
    finally:
        if enabled:
            gc.enable()


@contextmanager
def replacing(path: str | Path, fsync: bool = False) -> Iterator[TextIO]:
    """A UTF-8 text file, opened with ``newline=""``, whose contents replace
    ``path`` when the block ends.

    The text goes to a temporary file beside ``path``, ``.<name>.tmp``,
    which ``os.replace`` renames over ``path`` once the block completes, so
    a refused or interrupted write leaves the previous file intact. On any
    exception the temporary file is deleted. With ``fsync`` its bytes reach
    the disk before the rename.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class LibraryError(ReuseLoopError):
    """Invalid operation against the method library (duplicate or unknown id)."""


class PlannerError(ReuseLoopError):
    """A planning call refused: ``MockPlanner.replan`` without an episode outcome."""


class RecordStreamError(ReuseLoopError):
    """A run-record stream contained a malformed line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
