"""Every import is read in its module; every private definition in the package.

Stdlib AST scans stand in for a linter.  An import left behind by a deletion
is reported with its module and line; ``__init__.py`` is skipped because its
imports are the package's public re-exports.  A private function, method or
class (one leading underscore) that no module of the package reads, as a name
or an attribute, is reported the same way: a helper orphaned by a deletion.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jointgibbs"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unread_private_definitions(sources: dict) -> list:
    """``(module, line, name)`` of each private definition no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_scan_flags_an_unread_import():
    source = "import math\nfrom typing import Mapping, Sequence\nx: Mapping = math.pi\n"
    assert unused_imports(source) == [(2, "Sequence")]


def test_library_modules_read_every_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.name}:{line}: {name}")
    assert found == []


def test_scan_flags_an_unread_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    pass\n\nclass _Kept:\n"
                "    def _helper(self):\n        return _used()\n"
                "    def __repr__(self):\n        return ''\n",
        "b.py": "from a import _Kept\n",
    }
    assert unread_private_definitions(sources) == [("a.py", 4, "_orphan"), ("a.py", 8, "_helper")]


def test_library_reads_every_private_definition():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = [f"{module}:{line}: {name}" for module, line, name in unread_private_definitions(sources)]
    assert found == []
