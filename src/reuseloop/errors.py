"""Exception types, the one record reader (``read_dataclass``, with
``read_versioned`` built on it), ``to_doc``, ``parse_json``, the one file
reader, ``load_json``, and the one file writer, ``replacing``.

A record is a dataclass or a ``NamedTuple`` class; the reader takes both
alike, by their fields and annotations. Each class is read by a function of
its own, whose Python text is generated once, on the class's first read,
from the class's schema (``_schema``): no loop over fields runs per read.

Every loader reads its document through ``read_dataclass``, and
``engine.write_records`` checks each record with it before writing, so the
run-record writer refuses exactly what its reader refuses. Every file the
package reads whole, all but the line-by-line ``runs.jsonl``, is read through
``load_json``, and every file it writes is written through ``replacing``.

A record built in code refuses what its reader refuses by five field rules
held here: ``check_count`` (exactly an ``int``), ``check_number`` (an int or
a float, never a bool), ``check_duration`` (a finite, nonnegative number),
``check_fraction`` (a number in [0, 1]) and ``check_items`` (a set or
sequence, never a ``str``)."""

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


def _item_violation(item: type, value: list) -> _Violation:
    """The first fault of the list ``value`` read as a collection of
    ``item``: an entry that is not exactly an ``item``, else an entry that
    repeats an earlier one, which a set or frozenset would drop."""
    for i, entry in enumerate(value):
        if type(entry) is not item:
            return _mismatch(item, entry, f"[{i}]")
    i = next(i for i in range(len(value)) if value[i] in value[:i])
    return _Violation(f"[{i}]", f"duplicate entry {value[i]!r}")


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
    """``(JSON type, converter or None, item type or None)`` for a field
    annotation.

    The value is first checked to be exactly of the JSON type; the converter,
    if any, then builds the field from it: a record from an object, by the
    record's own reader, a tuple of records from a list, a dict from an
    object whose values are checked against the annotation's value type
    unless it is ``Any``. For a tuple, set or frozenset of any other item
    type, the item type is given and the converter is the container, built
    from the list once each entry is exactly an item.
    """
    if _is_record(kind):
        return dict, _record_reader(kind), None
    origin, args = get_origin(kind), get_args(kind)
    if origin in (tuple, set, frozenset):
        item = args[0]
        if _is_record(item):
            return list, partial(_read_items, _record_reader(item), origin), None
        return list, origin, item
    if origin in (dict, Mapping):
        return dict, dict if args[1] is Any else partial(_check_values, args[1]), None
    return kind, None, None


@cache
def _schema(cls) -> tuple[frozenset[str], tuple[tuple, ...]]:
    """The field names of the record ``cls``, and per field in field order
    ``(name, JSON type, converter or None, item type or None, nullable,
    default)``, as ``_reader`` gives the middle three. The default
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


def _unknown(names: frozenset[str], doc: dict) -> _Violation:
    """The violation of the first key of ``doc``, in its order, not in ``names``."""
    return _Violation(_key_step(next(key for key in doc if key not in names)), "unknown field")


def _loose(value: Any, kind: type, nullable: bool):
    """``value``, not exactly of the JSON type ``kind`` or a non-finite
    float, as its field takes it: ``None`` in a nullable field, an int
    widened in a ``float`` field. Any other value raises: NaN or an
    infinity, or the mismatch."""
    if value is None and nullable:
        return None
    if kind is float and type(value) is float:
        raise _Violation("", f"expected a finite number, got {json.dumps(value)}")
    if kind is not float or type(value) is not int:
        raise _mismatch(kind, value)
    return _widen(value)


def _widen(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        raise _Violation("", "expected a finite number, got an integer too large for a float") from None


def _misbuilt(names: frozenset[str], exc: ValueError) -> _Violation:
    """A ``ValueError`` from a record's build, placed at the field its
    message starts with, else at the object."""
    name, _, rest = str(exc).partition(" ")
    if name in names:
        return _Violation(f".{name}", rest)
    return _Violation("", str(exc))


# What a generated reader's text names besides ``names``, ``build`` and its
# fields' own bindings.
_READER_SCOPE = {
    "_Violation": _Violation, "_unknown": _unknown, "_loose": _loose,
    "_item_violation": _item_violation, "_misbuilt": _misbuilt, "isfinite": isfinite,
}


def _field_text(i: int, name: str, kind: type, convert, item, nullable: bool, default) -> str:
    """The lines of a reader that read field ``name``, entry ``i`` of its
    class's ``_schema``, into ``v{i}``, first setting ``field`` to its
    name. They name the entry's objects as ``k{i}`` (JSON type), ``c{i}``
    (converter), ``i{i}`` (item type) and ``d{i}`` (default, or default
    factory). Only the accepting path is inline: each refusal raises, or
    calls a helper that raises, a ``_Violation`` at the field's own path.
    A required field that is absent raises ``KeyError`` at ``doc[name]``,
    which the reader's handler names."""
    v = f"v{i}"
    read = f"{v} := doc[{name!r}]"
    loose = f"    {v} = _loose({v}, k{i}, {nullable})"
    if kind is float:
        check = [f"if type({read}) is not float or not isfinite({v}):", loose]
    elif convert is None:
        check = [f"if type({read}) is not k{i}:", loose]
    elif item is None:
        check = [f"if type({read}) is k{i}:", f"    {v} = c{i}({v})", "else:", loose]
    else:
        check = [f"if type({read}) is k{i}:",
                 f"    for entry in {v}:",
                 f"        if type(entry) is not i{i}:",
                 f"            raise _item_violation(i{i}, {v})"]
        if convert is tuple:
            check.append(f"    {v} = c{i}({v})")
        else:  # a set drops a repeat
            check += [f"    built = c{i}({v})",
                      f"    if len(built) != len({v}):",
                      f"        raise _item_violation(i{i}, {v})",
                      f"    {v} = built"]
        check += ["else:", loose]
    lines = [f"field = {name!r}"]
    if default is not MISSING:
        taken = f"d{i}()" if type(default) is Field else f"d{i}"
        lines += [f"if {name!r} not in doc:", f"    {v} = {taken}"]
        check[0] = "el" + check[0]
    return "\n".join(" " * 8 + line for line in [*lines, *check])


@cache
def _record_reader(cls) -> Callable[[Any], Any]:
    """The reader of the record ``cls``: a function of one JSON value that
    returns ``cls(*values)``, its fields read in field order, a missing one
    as its default, or raises ``_Violation`` at the path of the first fault.

    Its Python text is generated once per class, on first use, from
    ``_schema(cls)``, and compiled, as ``dataclasses`` builds ``__init__``:
    one straight-line block per field, with no loop over the schema and a
    nested record read by its own reader. A ``KeyError`` raised while a
    field is read names that field as missing only when the field is
    absent; any other passes through.

    Building a reader costs ~0.2-0.6 ms, nearly all of it ``compile``, once
    per process: with its schema, ~0.9 ms for ``RunRecord`` against
    ~0.25 ms for the schema alone, and ~1.9 ms against ~0.35 ms for the
    five record classes of ``library.json`` (fresh processes, 2-vCPU Xeon,
    Python 3.11.7).
    """
    names, entries = _schema(cls)
    scope = {**_READER_SCOPE, "names": names, "build": cls}
    blocks = []
    for i, (name, kind, convert, item, nullable, default) in enumerate(entries):
        scope.update({f"k{i}": kind, f"c{i}": convert, f"i{i}": item,
                      f"d{i}": default.default_factory if type(default) is Field else default})
        blocks.append(_field_text(i, name, kind, convert, item, nullable, default))
    values = ", ".join(f"v{i}" for i in range(len(entries)))
    text = "\n".join([
        "def read(doc):",
        "    if type(doc) is not dict:",
        '        raise _Violation("", "expected a JSON object")',
        "    if not names.issuperset(doc):",
        "        raise _unknown(names, doc)",
        "    try:",
        *(blocks or ["        pass"]),
        "    except KeyError:",
        "        if field in doc:  # not the lookup of an absent field",
        "            raise",
        '        raise _Violation(f".{field}", "missing field") from None',
        "    except _Violation as exc:",
        '        exc.path = f".{field}{exc.path}"',
        "        raise",
        "    try:",
        f"        return build({values})",
        "    except ValueError as exc:",
        "        raise _misbuilt(names, exc) from exc",
    ])
    exec(compile(text, f"<reader of {cls.__qualname__}>", "exec"), scope)
    return scope["read"]


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

    Each class is read by its own reader, ``_record_reader(cls)``:
    straight-line Python code built from ``_schema(cls)`` on the class's
    first read, once per process, at ~0.2-0.6 ms a class.
    """
    try:
        return _record_reader(cls)(doc)
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


# The field rules a record shares with the reader, so that one built in code
# refuses what its reader refuses: to Python a bool is an int and a number,
# and a str a sequence, and the reader takes neither in their place. Each
# refusal is a ValueError worded "<field> must ...", which the reader places
# at the field. check_count, check_number and check_items return the value
# they accept, so that a caller can go on to test or convert it.


def _kind(value: Any) -> str:
    return "a bool" if type(value) is bool else type(value).__name__


def check_count(name: str, value: Any) -> int:
    """``value``, exactly an ``int``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {_kind(value)}")
    return value


def check_number(name: str, value: Any) -> float:
    """``value``, an int or a float but not a bool."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {_kind(value)}")
    return value


def check_duration(name: str, value: Any) -> None:
    """Refuse ``value`` unless it is a finite, nonnegative number."""
    if not isfinite(check_number(name, value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


def check_fraction(name: str, value: Any) -> None:
    """Refuse ``value`` unless it is a number in [0, 1]."""
    if not 0.0 <= check_number(name, value) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def check_items(name: str, value: Any, items: str = "sequence of strings") -> Any:
    """``value``, a set or sequence of ``items``, so anything but a ``str``,
    which would read as one-letter items."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a {items}, not a str")
    return value


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
