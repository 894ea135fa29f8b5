"""Every module-level import in the package is used by the module that makes it:
an unused one costs compile and import time on every command that loads it."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quasiq"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    Exempt: names in __all__, `from __future__` imports, and an alias whose
    own line carries `# noqa: F401` (a binding kept for outside callers)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_its_exemptions():
    source = ("from __future__ import annotations\n"
              "import os, re\n"
              "from sys import (\n    argv,\n    path,  # noqa: F401 -- kept for callers\n)\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(os.sep, argv)\n")
    assert unused_imports(source) == ["re (line 2)", "d (line 7)"]
