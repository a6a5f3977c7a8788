"""Hostile input through the command line, in process: random formula text
and mutated fixture files.

Whatever the input, `cli.main` returns 0, 1, 2 or 3, nothing escapes it,
and an input error (2) or a precondition violation (3) is one line on
stderr.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ambicoord.cli import main
from conftest import FIXTURES

WG = str(FIXTURES / "weather_game.json")
WS = str(FIXTURES / "weather_structure.json")

# game, structure and strategy of each fixture family
FAMILIES = {
    "weather": ("weather_game.json", "weather_structure.json", None),
    "cycle": ("cycle_game.json", "cycle_structure.json", "cycle_strategy.json"),
    "coord": ("coord_game.json", "coord_structure.json", "coord_strategy.json"),
}

LONG = "9" * 5000


def run(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, err):
    """Exit 2 or 3 is one stderr line; `verify` alone may list several
    precondition problems, one a line."""
    assert code in (0, 1, 2, 3)
    if code == 3 and argv[0] == "verify":
        lines = err.splitlines()
        assert lines and all(line.startswith("precondition violated: ") for line in lines), err[:300]
    elif code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), err[:300]


# ------------------------------------------------------------------ formulas

# numbers and players as a formula may write them: long digit runs (past
# the interpreter's int-string limit and just under it) and non-ASCII digits
NUMBERS = ["0", "1", "2", "1/2", "-1", "007", "2/4", "1/0", "9" * 4000, LONG, "1/" + "7" * 4400, "²", "٢"]
PLAYERS = ["A", "B", "1", "2", "02", "0", "3", LONG, "²", "٢"]
# half the draws are well formed, so that many formulas get past the parser
numbers = st.one_of(st.sampled_from(NUMBERS[:3]), st.sampled_from(NUMBERS))
players = st.one_of(st.sampled_from(PLAYERS[:4]), st.sampled_from(PLAYERS))


def _extend(kids):
    return st.one_of(
        kids.map("!{}".format),
        kids.map("({})".format),
        kids.map("CB({})".format),
        st.tuples(kids, st.sampled_from([" & ", " -> ", " "]), kids).map("".join),
        st.tuples(players, kids).map(lambda t: "B_{}({})".format(*t)),
        st.tuples(numbers, kids).map(lambda t: "EB^{}({})".format(*t)),
        st.tuples(numbers, players, kids, numbers).map(lambda t: "{}*pr_{}({}) >= {}".format(*t)),
    )


_leaves = st.one_of(
    st.sampled_from(["p", "q", "zz", "rat_A", "opt_B(stay)", "opt_A(go)", "rec(B,snp)", "rec(A,zz)"]),
    players.map("pl({},stay)".format),
    players.map("rat_{}".format),
)

formula_text = st.one_of(
    st.recursive(_leaves, _extend, max_leaves=6),
    st.lists(st.sampled_from(NUMBERS + PLAYERS + ["p", "(", ")", "&", "!", ">=", "pr_A(", "EB^", "B_"]), max_size=8).map("".join),
    st.text(max_size=30),
)


@settings(max_examples=150, deadline=None)
@given(
    text=formula_text,
    command=st.sampled_from(["check", "parse"]),
    player=st.sampled_from(["A", "B", "1", "02", "0", "3", "²", "٢"]),
)
@example(text="EB^" + LONG + "(p)", command="check", player="A")
@example(text=LONG + "*pr_A(p) >= 1", command="check", player="A")
@example(text="pr_A(p) >= 1/" + "7" * 4400, command="check", player="A")
@example(text="B_" + LONG + "(p)", command="check", player="A")
@example(text="p", command="check", player="²")
@example(text="p", command="check", player="٢")
def test_random_formulas_keep_the_exit_contract(text, command, player):
    if command == "check":
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", player, "--", text]
    else:
        argv = ["parse", "--game", WG, "--structure", WS, "--", text]
    code, _, err = run(argv)
    assert_contract(argv, code, err)


# ------------------------------------------------------------ fixture files

WRONG_TYPES = [0, -1, 1.5, True, None, [], {}, "", "zz", [[]], {"zz": 1}]
NAMES = ["zz", "C", "w9", "3", "0", "²", "٢", "rec(A,zz)", "pl(1,zz)", "T,T", "a b", "x\ny", LONG]
RATIONALS = ["2/4", "0.5", "01", "1/1", "+1", "-0", "1/-2", "1e3", " 1", "1/0", "-1", LONG, "1/" + LONG]


def _fresh(draw, pool):
    """A copy of a value drawn from the pool, so that no edit reaches the pool."""
    return json.loads(json.dumps(draw(st.sampled_from(pool))))


def _paths(tree, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _zero_mass(tree, draw):
    """Move one state's prior mass onto another, so that it weighs nothing."""
    prior = tree.get("prior") if isinstance(tree, dict) else None
    if not isinstance(prior, dict) or len(prior) < 2:
        return tree
    src, dst = draw(st.permutations(sorted(prior)))[:2]
    try:
        prior[dst] = str(Fraction(prior[dst]) + Fraction(prior[src]))
    except (TypeError, ValueError, ZeroDivisionError):
        return tree
    prior[src] = "0"
    return tree


def mutate(tree, draw):
    """Apply one hostile edit at a drawn place of the tree; returns the
    new root, or a string of raw JSON text for deep nesting."""
    op = draw(st.sampled_from(["drop", "extra", "retype", "rename", "rekey", "rational", "zero", "dup", "nest"]))
    if op == "zero":
        return _zero_mass(tree, draw)
    path = draw(st.sampled_from(list(_paths(tree))))
    node = _at(tree, path)
    parent, key = (_at(tree, path[:-1]), path[-1]) if path else (None, None)
    if op == "nest":
        depth = draw(st.sampled_from([1, 3, 60, 2000, 100_000]))
        marker = "\u0000nest\u0000"
        if parent is None:
            return "[" * depth + json.dumps(tree) + "]" * depth
        parent[key] = marker
        return json.dumps(tree).replace(json.dumps(marker), "[" * depth + json.dumps(node) + "]" * depth)
    if op == "drop" and parent is not None:
        del parent[key]
    elif op == "extra" and isinstance(node, dict):
        node[draw(st.sampled_from(NAMES))] = _fresh(draw, WRONG_TYPES + NAMES)
    elif op == "extra" and isinstance(node, list):
        node.append(_fresh(draw, WRONG_TYPES + NAMES))
    elif op == "dup" and isinstance(node, list) and node:
        node.append(json.loads(json.dumps(node[draw(st.integers(0, len(node) - 1))])))
    elif op == "rekey" and isinstance(parent, dict):
        parent[draw(st.sampled_from(NAMES))] = parent.pop(key)
    elif parent is not None:
        pool = {"retype": WRONG_TYPES, "rename": NAMES, "rational": RATIONALS}.get(op, WRONG_TYPES)
        parent[key] = _fresh(draw, pool)
    return tree


@st.composite
def mutated_files(draw):
    """(family, which file, command, the edited file's bytes)."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    names = FAMILIES[family]
    target = draw(st.sampled_from([k for k, n in enumerate(names) if n]))
    command = draw(st.sampled_from(["validate", "check", "induce", "verify"]))
    tree = json.loads((FIXTURES / names[target]).read_text())
    for _ in range(draw(st.integers(1, 3))):
        tree = mutate(tree, draw)
        if isinstance(tree, str):
            return family, target, command, tree.encode()
    return family, target, command, json.dumps(tree).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def game_with(player):
    """A game file whose second player has the given name."""
    game = {"players": ["A", player], "actions": {"A": ["stay"], player: ["stay"]}, "payoffs": {"stay,stay": ["0", "0"]}}
    return json.dumps(game).encode()


def structure_with_two_spellings():
    """The weather structure with one of player A's instances under a second key."""
    tree = json.loads((FIXTURES / "weather_structure.json").read_text())
    tree["interpretation"]["A"]["rec(1,sp)"] = ["w3"]
    return json.dumps(tree).encode()


@settings(max_examples=200, deadline=None)
@given(case=mutated_files())
@example(case=("weather", 1, "check", structure_with_two_spellings()))
@example(case=("weather", 0, "check", b'\xff\xfe{"players": []}'))
@example(case=("weather", 0, "check", b'{"players": [' + LONG.encode() + b"]}"))
@example(case=("weather", 1, "check", b'{"states": [' + LONG.encode() + b"]}"))
@example(case=("weather", 0, "check", game_with("²")))
@example(case=("weather", 0, "check", game_with("٢")))
def test_mutated_fixtures_keep_the_exit_contract(workdir, case):
    family, target, command, raw = case
    names = FAMILIES[family]
    paths = [str(FIXTURES / n) if n else None for n in names]
    paths[target] = str(Path(workdir) / f"edited-{target}.json")
    Path(paths[target]).write_bytes(raw)
    game, structure, strategy = paths
    if command == "check" or strategy is None:
        state = json.loads((FIXTURES / names[1]).read_text())["states"][0]
        formula = "B_1(CB(p))" if family == "weather" else "B_1(CB(rat_1))"
        argv = ["check", "--game", game, "--structure", structure, "--state", state, "--player", "1", formula]
    else:
        argv = [command, "--game", game, "--structure", structure, "--strategy", strategy]
    code, _, err = run(argv)
    assert_contract(argv, code, err)
