"""Source hygiene: every name a library module imports is used there, and
every function and class it defines is used by the program or the benchmark."""
import ast
import re
from pathlib import Path

import pytest

import chbsim

PACKAGE = Path(chbsim.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")   # the package re-exports names
BENCH = PACKAGE.parent.parent / "perfbench"
# top-level names that nothing in the package reads, kept on purpose
KEPT = {
    "materialize_dense": "the dense oracle the tests check every stencil against",
    "weak_residuals": "the only check of the scheme against the continuous weak form",
    "save_config": "the public writer of the config format",
}


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


def unread_definitions(sources: dict[str, str], bench_text: str) -> list[str]:
    """Top-level functions and classes of the modules in `sources` that no
    module reads (by name or as an attribute) and `bench_text` never names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read
            and not re.search(rf"\b{node.name}\b", bench_text)]


def test_every_definition_is_used_by_the_program_or_the_benchmark():
    # the deliberate keeps are exactly what is left, so a stale keep fails too
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    bench_text = "\n".join(p.read_text(encoding="utf-8")
                           for p in sorted(BENCH.glob("*.py")))
    unread = unread_definitions(sources, bench_text)
    assert sorted(line.split(": ")[1] for line in unread) == sorted(KEPT), unread


def test_the_scan_sees_an_unread_definition():
    sources = {"a.py": "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
                       "class Named:\n    pass\n",
               "b.py": "from .a import dead\n\nused()\n"}
    assert unread_definitions(sources, "Named.run()") == ["a.py: dead"]
