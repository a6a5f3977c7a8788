"""Source hygiene: no module keeps a private name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ambicoord"


def unused_private_names(source: str) -> list[str]:
    """Module-level `_name`s (functions, classes, assignment targets) that no
    other top-level statement of the module loads."""
    tree = ast.parse(source)
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(stmt.name, ast.Store())]
        elif isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    defined.setdefault(node.id, stmt)
    loads = [
        (stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)})
        for stmt in tree.body
    ]
    return [
        name
        for name, home in defined.items()
        if name.startswith("_")
        and not name.endswith("__")
        and not any(name in names for stmt, names in loads if stmt is not home)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_the_check_sees_dead_and_self_referencing_names():
    source = (
        "_DEAD = 1\n"
        "_LIVE = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "def public():\n"
        "    return _LIVE\n"
    )
    assert unused_private_names(source) == ["_DEAD", "_recursive"]
