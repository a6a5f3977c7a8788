"""Source hygiene: no module keeps a private name, method or attribute it
never uses, and `lp` imports no rational arithmetic."""

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


def unused_private_attributes(source: str) -> list[str]:
    """`Class._name`s: private instance attributes that a module-level class
    sets (`self._name = ...` or `self._name: T = ...`) and that no code of
    the module reads as an attribute."""
    tree = ast.parse(source)
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in ast.walk(cls):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for node in (n for target in targets for n in ast.walk(target)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr.startswith("_")
                    and not node.attr.endswith("__")
                    and node.attr not in reads
                ):
                    out.append(f"{cls.name}.{node.attr}")
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    source = path.read_text()
    assert unused_private_names(source) + unused_private_methods(source) + unused_private_attributes(source) == []


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


def test_the_check_sees_unread_private_attributes():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._dead = {}\n"
        "        self._typed: dict = {}\n"
        "        self._live, self._pair = 1, 2\n"
        "        self._kept: list = []\n"
        "        self.public = 3\n"
        "    def size(self):\n"
        "        self._kept.append(self._live)\n"
        "        self._dead = None\n"
        "        return len(self._kept)\n"
        "def public(box):\n"
        "    return box._pair\n"
    )
    assert unused_private_attributes(source) == ["Box._dead", "Box._typed"]


def imported_modules(source: str) -> set[str]:
    """The modules a source imports from, relative ones with their dots."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("." * node.level + (node.module or ""))
    return out


def test_lp_works_in_integers_alone():
    # the simplex takes, pivots and returns ints: no Fraction and no scaling
    assert imported_modules((SRC / "lp.py").read_text()) & {"fractions", ".rationals"} == set()
    assert imported_modules("import fractions\nfrom .rationals import scaled\n") == {"fractions", ".rationals"}
