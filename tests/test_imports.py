"""Unused-import check over the package, the tests and the scripts.

Parses each module with ``ast`` and fails on any module-level import whose
bound name is never read in that module.  ``from __future__`` imports are
exempt, and so are the package's ``__init__.py`` (it re-exports) and
``__main__.py``.
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
