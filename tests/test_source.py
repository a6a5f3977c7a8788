"""Source hygiene: no module keeps a private name or method it never uses."""

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


def unused_private_methods(source: str) -> list[str]:
    """`Class._name`s: private methods of module-level classes that no code
    of the module outside their own definition reads as an attribute."""
    tree = ast.parse(source)
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not fn.name.startswith("_") or fn.name.endswith("__"):
                continue
            own = set(map(id, ast.walk(fn)))
            if not any(
                isinstance(n, ast.Attribute) and n.attr == fn.name and id(n) not in own for n in ast.walk(tree)
            ):
                out.append(f"{cls.name}.{fn.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    source = path.read_text()
    assert unused_private_names(source) + unused_private_methods(source) == []


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


def test_the_check_sees_uncalled_private_methods():
    source = (
        "class Box:\n"
        "    def _dead(self):\n"
        "        return self._dead()\n"
        "    def _live(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def public(box):\n"
        "    return box._live()\n"
    )
    assert unused_private_methods(source) == ["Box._dead"]
