"""Import and export checks over the package, the tests and the scripts.

Parses each module with ``ast`` and fails on any module-level import whose
bound name is never read in that module.  ``from __future__`` imports are
exempt, and so are the package's ``__init__.py`` (it re-exports) and
``__main__.py``.  It also fails when a package module lists in ``__all__``
a name that no top-level statement of the module binds, so a deletion that
leaves its export behind fails here, not at ``from module import *``.
Last, no test or script imports a ``_``-prefixed name from ``mfgcommute.cli``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"__init__.py", "__main__.py"}


def checked_files():
    files = [p for p in sorted((ROOT / "src" / "mfgcommute").glob("*.py"))
             if p.name not in EXEMPT]
    return files + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`.
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            bound |= names
    return [name for name in exported if name not in bound]


def private_cli_imports(source: str) -> list[str]:
    # At any depth: tests import inside their bodies too.
    return [f"line {node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "mfgcommute.cli"
            for alias in node.names if alias.name.startswith("_")]


def test_unused_import_check_flags_only_unread_names():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]


def test_no_unused_module_level_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in checked_files()
        if (unused := unused_imports(path.read_text()))
    }
    assert not found, f"unused imports: {found}"


def test_unbound_export_check_flags_only_missing_names():
    source = ("from os import path\nimport numpy as np\nX: int = 1\nY = Z = 2\n"
              "def f(): pass\nclass C: pass\n"
              "__all__ = ['path', 'np', 'X', 'Y', 'Z', 'f', 'C', 'gone']\n")
    assert unbound_exports(source) == ["gone"]


def test_every_exported_name_is_bound():
    found = {
        path.name: unbound
        for path in sorted((ROOT / "src" / "mfgcommute").glob("*.py"))
        if (unbound := unbound_exports(path.read_text()))
    }
    assert not found, f"names in __all__ that the module does not bind: {found}"


def test_tests_and_scripts_import_no_private_cli_name():
    source = ("from mfgcommute.cli import _helper, load_config\n"
              "from mfgcommute.core import _number\n"
              "def f():\n    from mfgcommute.cli import _other\n")
    assert private_cli_imports(source) == ["line 1: _helper", "line 4: _other"]
    found = {str(path.relative_to(ROOT)): names for path in checked_files()
             if path.parent.name in ("tests", "scripts")
             and (names := private_cli_imports(path.read_text()))}
    assert not found, f"private cli names imported: {found}"
