"""Every top-level name and public method in ``src/reuseloop`` is read
somewhere other than its own definition.

The readers:

- the ``src/reuseloop`` modules, the CLI included, matched by identifier.
  ``__init__.py`` is not a reader: a re-export alone keeps nothing alive.
- ``perfbench/*.py``, parsed as text and never imported, and the code block
  under README's "Quick start (library)". These read a top-level name only
  where they pin its module: they import it from ``reuseloop`` (a
  re-export, resolved through ``__init__.py``) or from
  ``reuseloop.<module>``, load it as ``<module>.<name>`` on a module they
  imported, or name it as a string right after that module in a tuple, as
  the tracer's ``(tasks, "signature_of", "count")`` does. So a reader's own
  constant that shares a name with one in ``src/`` keeps nothing alive.
  Methods they match by identifier, perfbench's string constants included,
  since its tracer names the methods it wraps as strings.

Tests and demos are not readers. Within ``src/``, a top-level name is read
by a name, an attribute or an import; a method only by an attribute. An
imported name must be read in the module that imports it. Matching ignores
scope, so two definitions in ``src/`` that share an identifier keep each
other alive: the check errs toward passing.

Every field of a dataclass or a ``NamedTuple`` is read too. A field counts
as read when ``src/`` or ``perfbench/*.py`` loads its name as an
attribute, when its name appears in backticks in README's "File formats"
section (a field written by name into an output), or when it is in
``ALLOWED_FIELDS``. A load in a dataclass's own ``__post_init__`` of one
of its own field names is a check, not a read, even where another class
declares a field of that name: a field that only checks look at is still
unread. A field built and written but never read fails, named
``module.Class.field``.

The package root re-exports only what its own readers import from it: the
README quick start, ``demos/*.py`` and ``perfbench/*.py``. A root export
that none of them names in a ``from reuseloop import ...`` fails.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reuseloop"

# Unread by the program on purpose, each for the reason given. A name goes
# here only when it is part of the paper's model or a documented interface.
ALLOWED = {
    "costs.single_task_cost": "the paper's analytic model; README 'Cost model', demo 05",
    "costs.expected_task_cost": "the paper's analytic model; README 'Cost model', demo 05",
    "costs.delay_comparison": "the paper's analytic model; README 'Cost model', demo 05",
    "tasks.load_corpus": "the events.json reader; README 'File formats'",
    "trigger.TriggerDecision.z": "the paper's learning indicator, which demo 02 prints",
}

# Dataclass fields unread on purpose, each for the reason given.
ALLOWED_FIELDS = {
    "costs.DelayComparison.delayed_total": "the paper's cost model; README 'Cost model', demo 05",
    "costs.DelayComparison.quasi_total": "the paper's cost model; README 'Cost model', demo 05",
    "planner.LearningPlan.subproblems": "the paper's task analysis; ROADMAP item 4 reads it",
    "planner.LearningPlan.data_requirements":
        "the paper's data collection planning; ROADMAP item 4 reads it",
    "planner.DataRequirement.channel":
        "the paper's data collection planning; ROADMAP item 4 reads it",
    "planner.DataRequirement.min_samples":
        "the paper's data collection planning; ROADMAP item 4 reads it",
    "planner.UpdateCriteria.max_episodes":
        "the plan's episode budget; ROADMAP item 3's retry loop reads it",
}


# Field names that more than one class in ``src/`` declares. The field
# check matches by identifier, so a read of one of these keeps every field
# of that name alive (ROADMAP item 16). A name new to this set is a homonym
# to review: give each of its fields a reader of its own, then add it here.
SHARED_FIELD_NAMES = {
    "avg_llm_calls", "avg_total_s", "collect_s", "cycle", "hit_rate", "id", "latency_s",
    "max_steps", "n_runs", "retrieve_s", "store_s", "success", "train_s", "version",
}


def _reads(tree: ast.AST, strings: bool = False) -> tuple[Counter, Counter]:
    """How often ``tree`` reads each identifier as a name (imports included)
    and as an attribute. With ``strings``, a string constant counts as both."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
            attrs[node.value] += 1
    return names, attrs


def _bound(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines, imports excluded."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unread(modules: dict[str, str], outside: tuple[Counter, Counter]) -> list[str]:
    """The qualified names in ``modules`` (module name -> source) that
    nothing reads but their own definition. ``outside`` is what the readers
    beyond ``modules`` read: top-level names as ``module.name``, and
    attributes by identifier, as ``outside_readers`` counts them."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names += n
        attrs += a
    found = []
    for module, tree in trees.items():
        local = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in local:
                        found.append(f"{module}.{name}")
                continue
            own_names, own_attrs = _reads(stmt)
            for name in _bound(stmt):
                if name.startswith("__"):
                    continue
                inside = own_names[name] + own_attrs[name]
                if names[name] + attrs[name] == inside and f"{module}.{name}" not in outside[0]:
                    found.append(f"{module}.{name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = item.name
                if name.startswith("_") or name in outside[1]:
                    continue
                if attrs[name] == _reads(item)[1][name]:
                    found.append(f"{module}.{stmt.name}.{name}")
    return sorted(found)


def quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S)
    assert match, "README lost its quick start code block"
    return match.group(1)


def pinned_reads(tree: ast.AST, homes: dict[str, str]) -> Counter:
    """The top-level names an outside reader reads with their module pinned,
    as ``module.name``; ``homes`` maps each root re-export to its home."""
    modules = {}  # local name -> the reuseloop module it is bound to
    read = Counter()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and not node.level
                and node.module.partition(".")[0] == "reuseloop"):
            continue
        home = node.module.partition(".")[2]
        for alias in node.names:
            if home:
                read[f"{home}.{alias.name}"] += 1
            elif alias.name in homes:
                read[homes[alias.name]] += 1
            else:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            read[f"{modules[node.value.id]}.{node.attr}"] += 1
        elif isinstance(node, ast.Tuple):
            for first, then in zip(node.elts, node.elts[1:]):
                if (isinstance(first, ast.Name) and first.id in modules
                        and isinstance(then, ast.Constant) and isinstance(then.value, str)):
                    read[f"{modules[first.id]}.{then.value}"] += 1
    return read


def outside_readers(perfbench: bool = True) -> tuple[Counter, Counter]:
    """What the quick start and, with ``perfbench``, ``perfbench/*.py`` read:
    top-level names as ``pinned_reads`` counts them, and attributes (with
    perfbench's string constants) by identifier."""
    homes = root_homes()
    tree = ast.parse(quick_start())
    pinned, attrs = pinned_reads(tree, homes), _reads(tree)[1]
    if perfbench:
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            pinned += pinned_reads(tree, homes)
            attrs += _reads(tree, strings=True)[1]
    return pinned, attrs


def src_modules() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _is_dataclass(stmt: ast.stmt) -> bool:
    """A class decorated with ``dataclass``, or one whose bases include
    ``NamedTuple``: both declare their fields as annotations."""
    if not isinstance(stmt, ast.ClassDef):
        return False
    if any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in stmt.bases):
        return True
    for decorator in stmt.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def _fields(stmt: ast.ClassDef) -> list[str]:
    """The field names a dataclass or ``NamedTuple`` declares, ``ClassVar``
    annotations excluded."""
    return [
        item.target.id for item in stmt.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
    ]


def unread_fields(modules: dict[str, str], read: set[str]) -> list[str]:
    """The dataclass and ``NamedTuple`` fields in ``modules`` (module name ->
    source), as ``module.Class.field``, whose name no module loads as an
    attribute and ``read`` does not hold. A load in a class's own
    ``__post_init__`` of one of that class's own field names is its check,
    never a read, whichever class declares a field of that name; a load
    there of any other name is a read."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    loaded = Counter()
    for tree in trees.values():
        loaded += _reads(tree)[1]
    classes = [
        (module, stmt, _fields(stmt))
        for module, tree in trees.items() for stmt in filter(_is_dataclass, tree.body)
    ]
    for _, stmt, names in classes:
        for item in stmt.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                checks = _reads(item)[1]
                loaded -= Counter({name: checks[name] for name in names})
    return sorted(
        f"{module}.{stmt.name}.{name}"
        for module, stmt, names in classes for name in names
        if name not in read and not loaded[name]
    )


def field_readers() -> set[str]:
    """What reads a field beyond ``src/``: attribute loads in
    ``perfbench/*.py``, and every identifier in backticks in README's "File
    formats" section."""
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read.update(_reads(ast.parse(path.read_text(encoding="utf-8")))[1])
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"\n## File formats\n(.*?)\n## ", text, re.S)
    assert match, "README lost its File formats section"
    for span in re.findall(r"`([^`]*)`", match.group(1)):
        read.update(re.findall(r"\w+", span))
    return read


def root_homes() -> dict[str, str]:
    """The names ``__init__.py`` imports from its submodules, each mapped to
    its home as ``module.name``."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: f"{stmt.module}.{alias.name}"
        for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }


def root_imports() -> set[str]:
    """The names the quick start, the demos and perfbench import from the
    package root."""
    sources = [quick_start()] + [
        path.read_text(encoding="utf-8")
        for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    return {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "reuseloop" and not node.level
        for alias in node.names
    }


def test_every_root_export_is_imported():
    assert sorted(root_homes().keys() - root_imports()) == []


def test_every_name_is_read():
    found = unread(src_modules(), outside_readers())
    assert [name for name in found if name not in ALLOWED] == []


def test_every_allowed_name_exists_and_is_unread():
    # A name that is now read, or gone, leaves the list.
    found = unread(src_modules(), outside_readers())
    assert [name for name in ALLOWED if name not in found] == []


def test_perfbench_keeps_its_traced_names_alive():
    found = unread(src_modules(), outside_readers(perfbench=False))
    assert {"learner.quasi_adjust", "library.matching_score", "planner.MockPlanner.replan",
            "tasks.signature_of"} <= set(found)


def test_flags_unread_functions_methods_and_imports():
    modules = {
        "a": (
            "import os\n"
            "from json import dumps\n"
            "def used(): return dumps\n"
            "def dead(): return dead()\n"
            "class C:\n"
            "    def live(self): return self\n"
            "    def gone(self): return self.gone()\n"
        ),
        "b": "from .a import C, used\nused()\nC().live()\n",
    }
    assert unread(modules, (Counter(), Counter())) == ["a.C.gone", "a.dead", "a.os"]
    assert unread(modules, (Counter(["a.dead"]), Counter(["gone"]))) == ["a.os"]
    # An outside top-level read names its module: "b.dead" is another name.
    found = unread(modules, (Counter(["dead", "b.dead"]), Counter()))
    assert found == ["a.C.gone", "a.dead", "a.os"]


def test_outside_homonym_keeps_no_name_alive():
    # trigger.BRANCHES was once kept alive only by perfbench's own BRANCHES.
    modules = {"trigger": "BRANCHES = ('reuse',)\n"}
    homes = {"BRANCHES": "trigger.BRANCHES"}

    def unread_beside(reader):
        tree = ast.parse("from reuseloop import trigger\n" + reader)
        return unread(modules, (pinned_reads(tree, homes), _reads(tree, strings=True)[1]))

    assert unread_beside("BRANCHES = ('reuse', 'learn')\nlen(BRANCHES)\n") == ["trigger.BRANCHES"]
    assert unread_beside("(engine, 'BRANCHES', 'count')\nengine.BRANCHES\n") == ["trigger.BRANCHES"]
    for reader in (
        "from reuseloop import BRANCHES\n",
        "from reuseloop.trigger import BRANCHES\n",
        "trigger.BRANCHES\n",
        "(trigger, 'BRANCHES', 'count')\n",
    ):
        assert unread_beside(reader) == [], reader


def test_every_field_is_read():
    found = unread_fields(src_modules(), field_readers())
    assert [name for name in found if name not in ALLOWED_FIELDS] == []


def test_every_allowed_field_exists_and_is_unread():
    # A field that is now read, or gone, leaves the list; each keeps a reason.
    found = unread_fields(src_modules(), field_readers())
    assert [name for name in ALLOWED_FIELDS if name not in found] == []
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())


def test_shared_field_names_are_reviewed():
    # Every class counts, not only dataclasses: a Protocol's annotated
    # attribute (planner.Planner.latency_s) shares the identifier too.
    declared = Counter(
        name
        for source in src_modules().values()
        for stmt in ast.parse(source).body if isinstance(stmt, ast.ClassDef)
        for name in set(_fields(stmt))
    )
    assert {name for name, n in declared.items() if n > 1} == SHARED_FIELD_NAMES


def test_write_only_field_on_method_is_named():
    modules = src_modules()
    field = "    reliability: Reliability\n"
    assert modules["library"].count(field) == 1
    modules["library"] = modules["library"].replace(field, field + '    note: str = ""\n')
    found = unread_fields(modules, field_readers())
    assert [name for name in found if name not in ALLOWED_FIELDS] == ["library.Method.note"]


def test_flags_unread_dataclass_fields():
    modules = {
        "a": (
            "import dataclasses\n"
            "import typing\n"
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    read: int\n"
            "    written: int = 0\n"
            "    checked: int = 0\n"
            "    LIMIT: ClassVar[int] = 3\n"
            "    def __post_init__(self):\n"
            "        assert self.checked >= 0 and self.read >= 0\n"
            "@dataclasses.dataclass\n"
            "class B:\n"
            "    documented: str\n"
            "class Plain:\n"
            "    hint: int\n"
            "class N(typing.NamedTuple):\n"
            "    read: int\n"
            "    dropped: str\n"
        ),
        "b": "def f(a): return a.read\n",
    }
    assert unread_fields(modules, set()) == [
        "a.A.checked", "a.A.written", "a.B.documented", "a.N.dropped",
    ]
    assert unread_fields(modules, {"documented"}) == ["a.A.checked", "a.A.written", "a.N.dropped"]

    # Two classes share a field name and each checks it only in its own
    # __post_init__: neither check is a read of the other's field. A load
    # there of a name the class does not declare still reads it.
    modules = {
        "c": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Limits:\n"
            "    deadline: float\n"
            "@dataclass\n"
            "class Event:\n"
            "    kind: str\n"
            "    limits: Limits\n"
            "    def __post_init__(self):\n"
            "        assert self.kind and self.limits.deadline >= 0\n"
            "@dataclass\n"
            "class Step:\n"
            "    kind: str\n"
            "    def __post_init__(self):\n"
            "        assert self.kind\n"
        ),
    }
    assert unread_fields(modules, set()) == ["c.Event.kind", "c.Event.limits", "c.Step.kind"]
