"""Every imported name in the package and the tests is used and imported
once, and the package imports nothing outside the standard library.

A name counts as used when it is read anywhere in its module or listed in
the module's `__all__`; `from __future__` imports are skipped.
"""

import ast
import sys
from pathlib import Path

from test_tracer_names import load_tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "latdel").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each import of a name that is never used, and of each
    import of a name that an earlier import in the module already bound."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    seen = set()
    flagged = []
    for line, name in sorted(imported):
        if name not in used or name in seen:
            flagged.append((line, name))
        seen.add(name)
    return flagged


def test_the_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .x import kept\n"
        "from collections import Counter\n"
        "from collections import Counter\n"
        "__all__ = ['kept']\n"
        "print(least(2, 3), Counter())\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "gcd"), (6, "Counter")]


def test_no_unused_imports():
    unused = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in MODULES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def reads(tree):
    """The names a syntax tree reads: loaded names and attribute names."""
    nodes = list(ast.walk(tree))
    return {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def top_level(source):
    """(statement, the names it binds) for each top-level statement: the name
    of a def or class, the names an (annotated) assignment binds, else none."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt, [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield stmt, [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            yield stmt, []


def unreached(sources, roots):
    """The top-level names "module.name" of the sources that no root reaches.

    A top-level def, class or (annotated) assignment to a name reaches each
    top-level name, of any module, that its body reads; the other top-level
    statements run on import, so what they read is a root."""
    roots, defined, edges = set(roots), set(), {}
    for module, source in sources.items():
        for stmt, names in top_level(source):
            if not names:
                roots |= reads(stmt)
            for name in names:
                defined.add((module, name))
                edges.setdefault(name, set()).update(reads(stmt))
    reached, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(edges.get(name, ()))
    return {"%s.%s" % (module, name) for module, name in defined if name not in reached}


def test_the_reachability_check_finds_names_nothing_calls():
    sources = {
        "a": (
            "from .b import kept\n"
            "def root():\n"
            "    return helper(kept)\n"
            "def helper(x):\n"
            "    return LIMIT + b.by_attribute()\n"
            "LIMIT: int = 1\n"
            "def dead():\n"
            "    return only_dead_calls()\n"
            "def only_dead_calls():\n"
            "    pass\n"
            "class Unused:\n"
            "    pass\n"
        ),
        "b": (
            "def kept():\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def on_import():\n"
            "    pass\n"
            "on_import()\n"
        ),
    }
    assert unreached(sources, {"root"}) == {"a.dead", "a.only_dead_calls", "a.Unused"}


def test_src_holds_no_name_that_only_tests_use():
    # roots: the CLI, the package exports, the demos, the benchmark and the
    # names its tracer wraps; the two catalog checks wait for a suite that
    # reports them
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    roots = set()
    for module in ("cli", "__init__"):
        for stmt, names in top_level(sources[module]):
            roots.update(names)
            if isinstance(stmt, ast.ImportFrom):
                roots.update(alias.name for alias in stmt.names)
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        roots |= reads(ast.parse(path.read_text(encoding="utf-8")))
    tracer = load_tracer()
    roots |= {name for table in (tracer.SPANNED, tracer.COUNTED) for names in table.values() for name in names}
    assert unreached(sources, roots) == {
        "catalog.verify_matrix_identities",
        "catalog.check_generator_semidefiniteness",
    }


def absolute_imports(source):
    """The top-level names of the absolute imports in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    assert absolute_imports("import os.path\nfrom numpy import array\nfrom . import x\n") == {
        "os",
        "numpy",
    }
    outside = [
        "%s: %s" % (path.relative_to(ROOT), name)
        for path in PACKAGE
        for name in sorted(absolute_imports(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    ]
    assert outside == []
