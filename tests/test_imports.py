"""No module imports a name it never uses.

No linter ships with the project, so this AST scan stands in for one.  It
covers the package, except ``__init__.py`` whose imports are the public
re-exports, the tests and the scripts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    [p for p in (ROOT / "src" / "gaussgap").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_unused_names():
    source = ("import os, sys\nimport a.b\nimport c.d as e\n"
              "from f import g as h, i\nprint(sys, i)\n")
    assert unused_imports(source) == [(1, "os"), (2, "a"), (3, "e"),
                                      (4, "h")]


def test_no_unused_imports():
    assert len(SCANNED) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SCANNED
             for line, name in unused_imports(path.read_text())]
    assert found == []
