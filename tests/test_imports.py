"""Every imported name in the package and the tests is used and imported
once, and the package imports nothing outside the standard library.

A name counts as used when it is read anywhere in its module or listed in
the module's `__all__`; `from __future__` imports are skipped.
"""

import ast
import sys
from pathlib import Path

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
