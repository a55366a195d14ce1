"""Source hygiene: the package imports only the standard library and numpy,
every name a library module imports is used there, no module imports a
private name of another, every function and class it defines is used by the
program or the benchmark, no module reads the name the benchmark alone
keeps, and every cache holds functions of sizes and scalars only."""
import ast
import re
import sys
from pathlib import Path

import pytest

import chbsim
from chbsim import elliptic

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


# what the package may import beside itself: numpy is its one dependency
# (scipy and sympy may be installed, but the package must not need them)
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """The top-level packages the absolute imports of `source` name that are
    neither the standard library, numpy nor chbsim itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [f"line {line}: {name.split('.')[0]}" for line, name in sorted(found)
            if name.split(".")[0] not in ALLOWED | {"chbsim"}]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_foreign_import():
    source = ("import os.path\nimport numpy as np\nfrom . import core\n"
              "from scipy.linalg import solve\n\n\ndef f():\n    import sympy\n")
    assert foreign_imports(source) == ["line 4: scipy", "line 8: sympy"]


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


def private_imports(source: str) -> list[str]:
    """The `_name`s a module imports from a chbsim module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "chbsim")
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_sees_a_private_import():
    source = ("from .a import _x, y\nfrom chbsim.b import _z\n"
              "from numpy import _w\nfrom . import c\n")
    assert private_imports(source) == ["_x", "_z"]


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


def reads_of(name: str, source: str) -> list[int]:
    """The lines where `source` reads `name`: as a variable, an attribute, an
    imported name or a string (as getattr takes it)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == name
                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.Constant) and node.value == name)
                  or (isinstance(node, (ast.Import, ast.ImportFrom))
                      and any(alias.name == name for alias in node.names)))


def test_no_module_reads_the_benchmark_binding_solve_spd():
    # elliptic.solve_spd is solve_minres under the name perfbench/spans.py
    # counts as `cg`; read by the package it would become a second solver
    # path, and the zero-CG-iteration gates of the traced runs would count it
    assert elliptic.solve_spd is elliptic.solve_minres
    found = [f"{path.name}: line {line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in reads_of("solve_spd", path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_sees_a_read_of_a_name():
    source = ("from .a import x\nfrom . import a\nx = a.x\ny = x\n"
              "z = getattr(a, 'x')\n")
    assert reads_of("x", source) == [1, 3, 4, 5]


# what a cached function's parameters may be: a cache outlives the run that
# fills it, so it may hold only functions of sizes and scalars, never of a
# run's fields
CACHEABLE = {"int", "float", "str", "Grid"}


def cached_parameters(source: str) -> dict[str, list[str]]:
    """Per function that `functools.lru_cache` decorates (bare, called or as
    an attribute), its parameters whose annotation is not in CACHEABLE, as
    "name: annotation" ("name: None" when not annotated)."""
    def is_cache(dec) -> bool:
        target = dec.func if isinstance(dec, ast.Call) else dec
        return (isinstance(target, ast.Name) and target.id == "lru_cache"
                or isinstance(target, ast.Attribute) and target.attr == "lru_cache")

    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                is_cache(dec) for dec in node.decorator_list):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            found[node.name] = [
                f"{p.arg}: {ast.unparse(p.annotation) if p.annotation else None}"
                for p in params
                if p.annotation is None or ast.unparse(p.annotation) not in CACHEABLE]
    return found


def test_caches_hold_functions_of_sizes_and_scalars_only():
    found = {f"{path.stem}.{name}": bad for path in MODULES
             for name, bad in cached_parameters(path.read_text(encoding="utf-8")).items()}
    assert {"elliptic.trig_table", "elliptic.laplacian_basis", "elliptic.robin_basis",
            "io._csv_prefixes"} <= set(found)
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_the_scan_sees_a_cached_array_parameter():
    source = ("import functools\nfrom functools import lru_cache\n\n\n"
              "@lru_cache(maxsize=4)\ndef table(n: int, kind: str, g: Grid) -> int:\n"
              "    return n\n\n\n@functools.lru_cache\n"
              "def scaled(a: np.ndarray, c: float, d) -> float:\n    return c\n\n\n"
              "def plain(a: np.ndarray) -> None:\n    pass\n")
    assert cached_parameters(source) == {"table": [], "scaled": ["a: np.ndarray", "d: None"]}
