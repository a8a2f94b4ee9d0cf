"""Every top-level name and public method in ``src/reuseloop`` is read
somewhere other than its own definition.

The readers, matched by identifier:

- the ``src/reuseloop`` modules, the CLI included. ``__init__.py`` is not a
  reader: a re-export alone keeps nothing alive.
- ``perfbench/*.py``, parsed as text and never imported. Its string
  constants count too, because its tracer names the functions it wraps as
  strings.
- the code block under README's "Quick start (library)".

Tests and demos are not readers. A top-level name is read by a name, an
attribute or an import; a method only by an attribute. An imported name
must be read in the module that imports it. Matching ignores scope, so two
definitions that share an identifier keep each other alive: the check errs
toward passing.

Every dataclass field is read too. A field counts as read when ``src/`` or
``perfbench/*.py`` loads its name as an attribute, when its name appears in
backticks in README's "File formats" section (a field written by name into
an output), or when it is in ``ALLOWED_FIELDS``. A field built and written
but never read fails, named ``module.Class.field``.

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
    nothing reads but their own definition; ``outside`` is what the readers
    beyond ``modules`` read, as ``_reads`` counts it."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names += n
        attrs += a
    read_outside = outside[0] | outside[1]
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
                if names[name] + attrs[name] == inside and name not in read_outside:
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


def outside_readers(perfbench: bool = True) -> tuple[Counter, Counter]:
    names, attrs = _reads(ast.parse(quick_start()))
    if perfbench:
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            n, a = _reads(ast.parse(path.read_text(encoding="utf-8")), strings=True)
            names += n
            attrs += a
    return names, attrs


def src_modules() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _is_dataclass(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.ClassDef):
        return False
    for decorator in stmt.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(modules: dict[str, str], read: set[str]) -> list[str]:
    """The dataclass fields in ``modules`` (module name -> source), as
    ``module.Class.field``, whose name no module loads as an attribute and
    ``read`` does not hold. ``ClassVar`` annotations are not fields."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    loaded = set(read)
    for tree in trees.values():
        loaded.update(_reads(tree)[1])
    found = []
    for module, tree in trees.items():
        for stmt in filter(_is_dataclass, tree.body):
            for item in stmt.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)
                        and item.target.id not in loaded):
                    found.append(f"{module}.{stmt.name}.{item.target.id}")
    return sorted(found)


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


def root_exports() -> set[str]:
    """The names ``__init__.py`` imports from its submodules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
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
    assert sorted(root_exports() - root_imports()) == []


def test_every_name_is_read():
    found = unread(src_modules(), outside_readers())
    assert [name for name in found if name not in ALLOWED] == []


def test_every_allowed_name_exists_and_is_unread():
    # A name that is now read, or gone, leaves the list.
    found = unread(src_modules(), outside_readers())
    assert [name for name in ALLOWED if name not in found] == []


def test_perfbench_keeps_its_traced_names_alive():
    found = unread(src_modules(), outside_readers(perfbench=False))
    assert {"learner.quasi_adjust", "planner.MockPlanner.replan"} <= set(found)


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
    assert unread(modules, (Counter(["dead"]), Counter(["gone"]))) == ["a.os"]


def test_every_field_is_read():
    found = unread_fields(src_modules(), field_readers())
    assert [name for name in found if name not in ALLOWED_FIELDS] == []


def test_every_allowed_field_exists_and_is_unread():
    # A field that is now read, or gone, leaves the list; each keeps a reason.
    found = unread_fields(src_modules(), field_readers())
    assert [name for name in ALLOWED_FIELDS if name not in found] == []
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())


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
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    read: int\n"
            "    written: int = 0\n"
            "    LIMIT: ClassVar[int] = 3\n"
            "@dataclasses.dataclass\n"
            "class B:\n"
            "    documented: str\n"
            "class Plain:\n"
            "    hint: int\n"
        ),
        "b": "def f(a): return a.read\n",
    }
    assert unread_fields(modules, set()) == ["a.A.written", "a.B.documented"]
    assert unread_fields(modules, {"documented"}) == ["a.A.written"]
