"""Source hygiene: every name a library module imports is used there."""
import ast
from pathlib import Path

import pytest

import chbsim

MODULES = sorted(p for p in Path(chbsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # the package re-exports names


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom numpy import array, zeros as z\n\nz(3)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: array"]
