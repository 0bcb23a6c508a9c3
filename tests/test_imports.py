"""Every import is read in its module; every definition in the package is read.

Stdlib AST scans stand in for a linter.  An import left behind by a deletion
is reported with its module and line; ``__init__.py`` is skipped because its
imports are the package's public re-exports.  A private function, method or
class (one leading underscore) that no module of the package reads, as a name
or an attribute, is reported the same way: a helper orphaned by a deletion.

A public one is reported unless something that a user's run reaches reads it:
the package itself (``src/``), the benchmark (``perfbench/``), the acceptance
criteria (``tests/test_acceptance.py``), the brute-force oracles
(``tests/oracles.py``), or a word of README's code: its fenced blocks and
inline code spans (a prose word is English, not a read).  A re-export in
``__init__.py`` is not a read, and neither is a unit test's: code that only
its own unit tests call is not part of the package.  ``EXEMPT`` names the
few public definitions kept without a reader, each with its reason, and a
companion test fails once an exempt name is deleted or gains a reader, so
no exemption outlives its reason.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "jointgibbs"

# Public definitions that no reader reads, kept on purpose: (name, reason).
_ITEM_8 = "the regrouping block, which the exact decay measurement of ROADMAP item 8 reads"
EXEMPT = (
    ("interval", _ITEM_8),
    ("shell", _ITEM_8),
    ("validate", _ITEM_8),
    ("regroup", _ITEM_8),
    ("class_value_via_energy", _ITEM_8),
    ("telescope_logq", _ITEM_8),
    ("shell_cell_terms", _ITEM_8),
    ("spiral", "the site order of " + _ITEM_8),
)


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


def definitions(source: str) -> list:
    """``(line, name)`` of every function, method and class defined in ``source``."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def names_read(source: str, imports: bool = True) -> set:
    """Names ``source`` loads or reads as attributes; with ``imports``, the
    names its ``from`` imports take too."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            read.update(alias.name for alias in node.names)
    return read


def unread_private_definitions(sources: dict) -> list:
    """``(module, line, name)`` of each private definition no source reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for line, name in definitions(source)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def markdown_code(text: str) -> str:
    """The fenced blocks and inline code spans of a markdown text, joined."""
    fence = re.compile(r"^```.*?^```", flags=re.M | re.S)
    return "\n".join(fence.findall(text) + re.findall(r"`([^`\n]+)`", fence.sub("", text)))


def unread_public_definitions(package: dict, readers: dict, readme: str) -> list:
    """``(module, line, name)`` of each public definition of ``package`` that
    no source of ``readers`` reads and no word of ``readme``'s code names.

    ``readers`` maps a path to its source; the re-exports of an
    ``__init__.py`` there do not count as reads.
    """
    read = set(re.findall(r"\w+", markdown_code(readme))).union(
        *(names_read(source, Path(path).name != "__init__.py") for path, source in readers.items())
    )
    return sorted(
        (module, line, name)
        for module, source in package.items()
        for line, name in definitions(source)
        if not name.startswith("_") and name not in read
    )


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


def test_scan_flags_an_unread_public_definition():
    package = {
        "a.py": "def used():\n    pass\n\ndef orphan():\n    pass\n\ndef exported():\n    pass\n\n"
                "def documented():\n    pass\n\nclass Table:\n    def size(self):\n        return 0\n"
                "    def width(self):\n        return 0\n",
        "__init__.py": "from .a import exported\n",
    }
    readers = dict(package, **{"tests/t.py": "from a import used\nprint(Table().size())\n"})
    found = unread_public_definitions(package, readers, "Call `documented()` first.")
    assert found == [("a.py", 4, "orphan"), ("a.py", 7, "exported"), ("a.py", 16, "width")]
    # a prose word is not a read; a code span or a fenced block is
    readme = "An orphan `width` stays.\n\n```sh\nexported --now\n```\n"
    found = unread_public_definitions(package, readers, readme)
    assert found == [("a.py", 4, "orphan"), ("a.py", 10, "documented")]


def repo_unread_public_definitions() -> list:
    """The scan over the package, with the readers a user's run reaches."""
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    paths = [
        *sorted((REPO / "src").rglob("*.py")),
        *sorted((REPO / "perfbench").rglob("*.py")),
        REPO / "tests" / "test_acceptance.py",
        REPO / "tests" / "oracles.py",
    ]
    readers = {str(path): path.read_text() for path in paths}
    return unread_public_definitions(package, readers, (REPO / "README.md").read_text())


def test_repo_reads_every_public_definition():
    exempt = {name for name, _ in EXEMPT}
    found = [
        f"{module}:{line}: {name}"
        for module, line, name in repo_unread_public_definitions()
        if name not in exempt
    ]
    assert found == []


def test_every_exemption_is_defined_and_unread():
    defined = {
        name for path in PACKAGE.glob("*.py") for _, name in definitions(path.read_text())
    }
    unread = {name for _, _, name in repo_unread_public_definitions()}
    assert [name for name, _ in EXEMPT if name not in defined] == [], "deleted: drop the exemption"
    assert [name for name, _ in EXEMPT if name in defined and name not in unread] == [], (
        "read now: drop the exemption"
    )
