"""Every module of the package, of the test suite and of the benchmark
(``perfbench``, read only) reads each name it imports. ``__init__.py`` files
are skipped: their imports are re-exports. Every module-level function and
class of the package is read somewhere outside its own definition.
Only ``sampling.py`` reads the context-code powers ``pows``, so the code
format stays private to ``_ContextCache``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "guidesampler", ROOT / "tests", ROOT / "perfbench")


def _annotations(tree):
    """The annotation expressions of a module's functions and assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, as a name or inside a string
    annotation, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return sorted(imported - read)


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "def f(x: 'Sequence') -> np.ndarray:\n    return pi\n"
        "from typing import Sequence\n"
    )
    assert unused_imports(source) == ["os", "tau"]


def test_no_unused_imports():
    found = {}
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(path.read_text())
                if names:
                    found[str(path.relative_to(ROOT))] = names
    assert found == {}


def attributes_read(source: str, attr: str) -> list:
    """Line numbers where a module reads attribute ``attr`` of any object."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == attr)


def test_attribute_scan_finds_reads():
    assert attributes_read("x = cache.pows[d]\ny = pows\nz = a.b.pows @ r\n", "pows") == [1, 3]


def test_only_sampling_reads_code_powers():
    found = {}
    for path in sorted((ROOT / "src" / "guidesampler").rglob("*.py")):
        lines = attributes_read(path.read_text(), "pows")
        if lines and path.name != "sampling.py":
            found[path.name] = lines
    assert found == {}


def _defs_and_reads(source: str):
    """(module-level function and class names, reads) of a module: a read is
    (name, enclosing module-level definition or None) for each name, attribute
    and imported name the module reads."""
    tree = ast.parse(source)
    defs, reads = [], set()
    for stmt in tree.body:
        owner = None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(stmt.name)
            owner = stmt.name
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                reads.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                reads.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                reads.add((node.name.split(".")[-1], owner))
    return defs, reads


def unread_definitions(sources: dict, package: set) -> list:
    """(module, name) of each module-level function or class of a module in
    ``package`` that no module of ``sources`` ({module: source}) reads
    outside the definition itself, sorted."""
    parsed = {path: _defs_and_reads(src) for path, src in sources.items()}
    found = []
    for path in sorted(package):
        for name in parsed[path][0]:
            if not any(n == name and (other, owner) != (path, name)
                       for other, (_, reads) in parsed.items() for n, owner in reads):
                found.append((path, name))
    return found


def test_definition_scan_finds_unread_names():
    sources = {
        "a.py": "def f(n):\n    return f(n - 1)\ndef g():\n    pass\nclass C:\n    pass\n",
        "b.py": "from a import g\nx = mod.C\n",
    }
    assert unread_definitions(sources, {"a.py"}) == [("a.py", "f")]


def test_every_package_definition_is_read():
    sources, package = {}, set()
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            name = str(path.relative_to(ROOT))
            sources[name] = path.read_text()
            if base == SCANNED[0]:
                package.add(name)
    assert unread_definitions(sources, package) == []
