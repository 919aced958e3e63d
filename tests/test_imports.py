"""Lint guard: no module of the program, its jobs or its tests imports a
name it never uses. Stdlib ``ast`` only: a name counts as used when it
appears as an identifier anywhere in the module (annotations included)
or in ``__all__``. A line marked ``# noqa: F401`` imports for effect."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [*ROOT.glob("src/**/*.py"), *ROOT.glob("jobs/*.py"), *ROOT.glob("tests/*.py"), ROOT / "conftest.py"]
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_import():
    src = "from __future__ import annotations\nimport os\nimport sys\nfrom a.b import c, d\nsys.exit(c)\n"
    assert unused_imports(src) == ["os (line 2)", "d (line 4)"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("import os.path\nx: os.PathLike\n") == []


def test_no_unused_imports():
    assert len(FILES) > 50
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in FILES}
    assert {p: names for p, names in found.items() if names} == {}
