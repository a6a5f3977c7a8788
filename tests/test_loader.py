"""The structure loader compiles JSON straight to masks and writes them back
with integers.  It must load every file exactly as the reference loader in
`oracle` (a type check per list element, a Fraction per weight, the
name-based constructor) does, write the same text, and refuse every broken
file with the same exception and message."""

import itertools
import json
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.errors import InvalidArgument

from ambicoord import (
    EpistemicStructure,
    Game,
    Play,
    Prim,
    Receive,
    SchemaError,
    from_objective_ce,
    from_subjective_ce,
    solve_ce,
    structures,
)
from ambicoord.parser import parse_instance
from conftest import load_fixture
from helpers import random_game, random_objective, random_structure
from oracle import instances, naive_from_dict, naive_to_dict
from test_hostile_input import LONG, mutate

FAMILIES = ("weather", "cycle", "coord")
GAMES = {name: Game.from_dict(load_fixture(f"{name}_game.json")) for name in FAMILIES}


def compiled(m) -> tuple:
    """The stored form, the signal definitions in insertion order."""
    return (
        m.states,
        m.prior_num,
        m.prior_denom,
        m.rows,
        m.stored_cells,
        list(m.signal_defs.items()),
    )


def assert_loads_alike(data, game):
    m = EpistemicStructure.from_dict(data, game)
    ref = naive_from_dict(data, game)
    assert compiled(m) == compiled(ref)
    assert json.dumps(m.to_dict()) == json.dumps(naive_to_dict(ref))
    return m


def assert_fails_alike(data, game):
    """Both loaders refuse the data with the same exception and message, or
    both load it alike."""
    try:
        naive_from_dict(data, game)
    except Exception as exc:
        with pytest.raises(Exception) as err:
            EpistemicStructure.from_dict(data, game)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
    else:
        assert_loads_alike(data, game)


def round_trip(m) -> dict:
    return json.loads(json.dumps(m.to_dict()))


# ------------------------------------------------------------------- corpus


@pytest.mark.parametrize("family", FAMILIES)
def test_fixtures(family):
    data = load_fixture(f"{family}_structure.json")
    assert_loads_alike(data, GAMES[family])


def test_acceptance_battery_devices(objective_instances, subjective_instances):
    for game, _, built in objective_instances + subjective_instances:
        m, b = assert_loads_alike(round_trip(built.structure), game), built.structure
        assert (m.states, m.prior_num, m.prior_denom, m.rows, m.stored_cells) == (
            b.states, b.prior_num, b.prior_denom, b.rows, b.stored_cells
        )


def test_seeded_random_devices():
    rng = random.Random(9)
    for _ in range(25):
        game = random_game(rng)
        dist = solve_ce(game, random_objective(rng, game))
        dists = [solve_ce(game, random_objective(rng, game)) for _ in game.players]
        for built in (from_objective_ce(game, dist), from_subjective_ce(game, dists)):
            assert_loads_alike(round_trip(built.structure), game)


# ------------------------------------------------------------ the rows


def respelled(m, rng) -> dict:
    """The structure's JSON form with each table's keys in a random order,
    about half of them naming the player by position, its state lists
    shuffled, and some propositions the table leaves out listed as empty."""
    data = m.to_dict()
    position = {p: str(k) for k, p in enumerate(m.game.players, 1)}
    for viewer, table in data["interpretation"].items():
        entries = [(key, rng.sample(states, len(states))) for key, states in table.items()]
        entries += [(str(node), []) for node in instances(m) if str(node) not in table and rng.random() < 0.3]
        rng.shuffle(entries)
        spelled = {}
        for key, states in entries:
            if rng.random() < 0.5:
                key = re.sub(r"\((\w+),", lambda g: f"({position[g[1]]},", key)
            spelled[key] = states
        data["interpretation"][viewer] = spelled
    return data


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.booleans(), st.booleans())
def test_rows_hold_the_states_the_json_lists(seed, own_game, stored, doubled):
    """Each key of the interpretation, however spelled and wherever listed,
    is true exactly at its listed states, and every proposition no key
    names is true nowhere."""
    rng = random.Random(seed)
    m = random_structure(rng, random_game(rng) if own_game else None, stored=stored, doubled=doubled)
    data = respelled(m, rng)
    loaded = EpistemicStructure.from_dict(data, m.game)
    listed = set()
    for viewer, table in data["interpretation"].items():
        for key, states in table.items():
            node = parse_instance(key, m.game, m.signals, m.atoms)
            assert loaded.true_set(viewer, node) == frozenset(states), (viewer, key)
            listed.add((viewer, node))
    for viewer in m.game.players:
        for node in instances(m):
            if (viewer, node) not in listed:
                assert loaded.true_set(viewer, node) == frozenset(), (viewer, str(node))
    assert loaded.rows == m.rows


def test_written_keys_never_reach_the_grammar(monkeypatch, objective_instances, subjective_instances):
    """Every key `to_dict` writes for a valid game is in the loader's table
    of row positions, so writing a structure and loading it back builds no
    primitive-proposition node, and never calls the grammar or `position`.
    Signal definitions are formulas, which the grammar reads, so they are
    dropped before loading back."""
    loaded = [
        (GAMES[family], EpistemicStructure.from_dict(load_fixture(f"{family}_structure.json"), GAMES[family]))
        for family in FAMILIES
    ]
    loaded += [(game, built.structure) for game, _, built in objective_instances + subjective_instances]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    for node in (Prim, Play, Receive):
        monkeypatch.setattr(node, "__init__", refuse(node.__name__))
    written = [(game, round_trip(m)) for game, m in loaded]
    monkeypatch.setattr(structures, "parse_instance", refuse("parse_instance"))
    monkeypatch.setattr(EpistemicStructure, "position", refuse("position"))
    for game, data in written:
        data["signals"] = dict.fromkeys(data["signals"])
        EpistemicStructure.from_dict(data, game)


# ------------------------------------------------------------ broken files


def _weather(edit):
    data = load_fixture("weather_structure.json")
    edit(data)
    return data


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["interpretation"]["A"]["p"].append(["w3"]), "value of 'p' must be a list of states"),
        (lambda d: d["interpretation"]["A"]["p"].insert(0, 3), "value of 'p' must be a list of states"),
        (lambda d: d["interpretation"]["B"]["q"].append("w9"), "unknown states ['w9'] for q"),
        (lambda d: d["interpretation"]["B"].update(q="w1"), "value of 'q' must be a list of states"),
        (lambda d: d["interpretation"]["B"].update(q={"w1": 1}), "value of 'q' must be a list of states"),
        (lambda d: d["prior"].update(w1="1/0"), "prior: not a rational literal: '1/0'"),
        (
            lambda d: d["prior"].update(w1="1/" + "7" * 5000),
            "prior: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
        (lambda d: d["prior"].update(w9="0"), "prior names unknown state 'w9'"),
        (lambda d: d["partitions"]["A"].append("w1"), "partition of player 'A' must be a list of lists of states"),
        (lambda d: d["partitions"]["A"][0].append(["w3"]), "partition of player 'A' must be a list of lists of states"),
        (lambda d: d["partitions"].update(B="w1"), "partition of player 'B' must be a list of lists of states"),
        (lambda d: d["partitions"].update(B={"w1": ["w1"]}), "partition of player 'B' must be a list of lists of states"),
        (lambda d: d["partitions"]["B"][1].append("w9"), "cells of player 'B' do not partition the states"),
        (lambda d: d["partitions"]["B"][1].append("w1"), "cells of player 'B' do not partition the states"),
        (
            lambda d: d["interpretation"]["A"].update({"rec(1,sp)": ["w3"]}),
            "interpretation of player 'A' spells one instance twice: 'rec(A,sp)' and 'rec(1,sp)'",
        ),
        (
            lambda d: (d["interpretation"]["A"].update(p="w1"), d["interpretation"]["B"].update(bogus=[])),
            "value of 'p' must be a list of states",
        ),
    ],
)
def test_listed_breakages(edit, message):
    data = _weather(edit)
    with pytest.raises(SchemaError) as err:
        EpistemicStructure.from_dict(data, GAMES["weather"])
    assert str(err.value) == f"structure: {message}"
    assert_fails_alike(data, GAMES["weather"])


def test_non_canonical_weights_load_in_lowest_terms():
    data = _weather(lambda d: d["prior"].update(w1="2/4", w2="0", w3="3/12", w4="1/4"))
    m = assert_loads_alike(data, GAMES["weather"])
    assert (m.prior_num, m.prior_denom) == ((2, 0, 1, 1), 4)
    assert m.to_dict()["prior"] == {"w1": "1/2", "w2": "0", "w3": "1/4", "w4": "1/4"}


# the values an edit puts into a state list, a partition or the prior
JUNK = [["w1"], [], 0, 1.5, True, None, {"w1": 1}, "zz", "w", LONG]
WEIGHTS = ["2/4", "3/6", "1/0", "1/" + "7" * 5000, "0.5", "-1/2", "01", "0", 0, None]


def _fresh(draw, pool):
    return json.loads(json.dumps(draw(st.sampled_from(pool))))


def loader_edit(tree, draw):
    """One edit where the loader compiles: a state list, a partition, the
    prior; or one of the hostile-input edits anywhere."""
    kind = draw(st.sampled_from(["list", "partition", "cell", "weight", "prior state", "anywhere"]))
    states = tree["states"] + ["zz"]
    if kind == "list":
        table = tree["interpretation"][draw(st.sampled_from(sorted(tree["interpretation"])))]
        where = table[draw(st.sampled_from(sorted(table)))]
        where.insert(draw(st.integers(0, len(where))), _fresh(draw, JUNK + states))
    elif kind == "partition":
        tree["partitions"][draw(st.sampled_from(sorted(tree["partitions"])))] = _fresh(draw, JUNK + [[states]])
    elif kind == "cell":
        row = tree["partitions"][draw(st.sampled_from(sorted(tree["partitions"])))]
        k = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[k] = _fresh(draw, JUNK + states)
        else:
            row[k].append(_fresh(draw, JUNK + states))
    elif kind == "weight":
        tree["prior"][draw(st.sampled_from(sorted(tree["prior"])))] = _fresh(draw, WEIGHTS)
    elif kind == "prior state":
        tree["prior"][draw(st.sampled_from(["zz", "w9", tree["states"][0] + " "]))] = draw(st.sampled_from(["0", "1/2"]))
    else:
        tree = mutate(tree, draw)
        assume(not isinstance(tree, str))  # raw nested text: a JSON-reader matter
    return tree


@st.composite
def edited_structures(draw):
    """A fixture with one loader edit or two; a second edit that the first
    one's damage leaves no place for is skipped."""
    family = draw(st.sampled_from(FAMILIES))
    tree = loader_edit(load_fixture(f"{family}_structure.json"), draw)
    if draw(st.booleans()):
        try:
            tree = loader_edit(json.loads(json.dumps(tree)), draw)
        except (LookupError, TypeError, AttributeError, InvalidArgument):
            pass
    return family, tree


@settings(max_examples=300, deadline=None)
@given(case=edited_structures())
def test_edited_structures_load_or_fail_alike(case):
    family, data = case
    assert_fails_alike(data, GAMES[family])


# ------------------------------------------------------ interpretation keys

# actions that look like a player (`B_1`) or end in a digit (`x_1`); and
# players named by their positions
KEY_GAME = Game(
    ["A", "B"],
    {"A": ("stay", "go"), "B": ("x_1", "B_1")},
    {(a, b): (0, 0) for a in ("stay", "go") for b in ("x_1", "B_1")},
)
NUMBERED_GAME = Game(
    ["1", "2"], {"1": ("U", "D"), "2": ("stay", "go")}, {(a, b): (0, 0) for a in ("U", "D") for b in ("stay", "go")}
)

_space = st.sampled_from(["", "", "", " ", "  ", "\t"])
_key_players = st.sampled_from(["A", "B", "1", "2", "01", "002", "0", "3", "Z", "a", "pl", "", "x y", "x"])
_key_names = st.sampled_from(["stay", "go", "x_1", "B_1", "U", "sp", "snp", "nope", "pl", "rec", "9", ""])
_key_atoms = st.sampled_from(["p", "q", "r", "pl", "rec", "EB", "CB", "B_A", "pr_A", "rat_1", "opt_1", "p1", "_p", "1p", ""])
_sugar = st.sampled_from(
    ["rat_1", "opt_1(stay)", "B_A(p)", "EB(p)", "CB(p)", "pr_A(p) >= 1", "!p", "p & q", "(p)", "pl(A,stay)x",
     "pl(A,stay", "pl(A stay)", "rec(,sp)", "pl(A,stay))", "pl(A,stay) ", "é", "pl(A,é)"]
)


@st.composite
def _keys(draw):
    head = draw(st.sampled_from(["pl", "rec", "atom", "sugar"]))
    if head == "atom":
        return draw(_space) + draw(_key_atoms) + draw(_space)
    if head == "sugar":
        return draw(_sugar)
    s = [draw(_space) for _ in range(6)]
    return f"{s[0]}{head}{s[1]}({s[2]}{draw(_key_players)}{s[3]},{s[4]}{draw(_key_names)}{s[5]})"


def one_state(game, tables, signals=(), atoms=()) -> dict:
    """A one-state structure whose k-th player's table lists the k-th list
    of keys."""
    return {
        "states": ["w"],
        "prior": {"w": "1"},
        "signals": {s: None for s in signals},
        "atoms": list(atoms),
        "interpretation": {p: {key: ["w"] for key in keys} for p, keys in zip(game.players, tables)},
        "partitions": None,
    }


def written(game, signals, atoms) -> list:
    """The keys `to_dict` writes for these names, as the printer spells each
    proposition, and each play and receipt with the player's position."""
    nodes = [Prim(a) for a in atoms]
    nodes += [Receive(p, s) for p in game.players for s in signals]
    nodes += [Play(p, a) for p in game.players for a in game.actions_of(p)]
    position = {p: str(k) for k, p in enumerate(game.players, 1)}
    return [str(n) for n in nodes] + [str(replace(n, player=position[n.player])) for n in nodes if hasattr(n, "player")]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([KEY_GAME, NUMBERED_GAME]),
    st.sampled_from([("sp", "snp"), ("sp", "pl"), ("sp", "9"), ()]),
    st.sampled_from([("p", "q", "p1"), ("p", "EB", "pl"), ()]),
    st.data(),
)
def test_interpretation_keys_load_as_the_grammar_reads_them(game, signals, atoms, data):
    """Canonical, spaced, positional, unknown and reserved keys and sugar, in
    one or two tables that may spell one proposition twice, with atoms and
    signals the grammar does not take as names: each load matches the
    reference loader, which reads every key with the grammar."""
    key = st.one_of(_keys(), st.sampled_from(written(game, signals, atoms)))
    tables = data.draw(st.lists(st.lists(key, min_size=1, max_size=3), min_size=1, max_size=2))
    assert_fails_alike(one_state(game, tables, signals, atoms), game)


@pytest.mark.parametrize(
    "players, actions, problems",
    [
        (["x y", "B"], {"x y": ("U",), "B": ("stay",)}, ["player name 'x y' is not an identifier"]),
        (
            ["2", "1"],
            {"2": ("U", "D"), "1": ("stay", "go")},
            ["numeric player name '2' must equal its position 1", "numeric player name '1' must equal its position 2"],
        ),
    ],
    ids=["spaced", "swapped"],
)
def test_games_whose_keys_the_grammar_would_misread_are_refused(players, actions, problems):
    """`to_dict` would write keys such as `pl(x y,U)` and `pl(2,U)` for these
    players, which the grammar reads as other propositions (player 'x', or
    the player at position 2), so no such game is built."""
    payoffs = {a: (0, 0) for a in itertools.product(*(actions[p] for p in players))}
    with pytest.raises(SchemaError) as err:
        Game(players, actions, payoffs)
    assert err.value.args == ("; ".join(problems),)


# ------------------------------------------------------------------ memory


def large_structure(n_states: int, seed: int) -> tuple[Game, dict]:
    """A game and the JSON form of a structure of `n_states` states, as
    `json.loads` gives it: 2 players with 2 actions each, 4 signals, and for
    each (viewer, player, state) one random signal received and one random
    action played."""
    rng = random.Random(seed)
    players, actions, signals = ("A", "B"), ("x", "y"), ("s0", "s1", "s2", "s3")
    game = Game(players, dict.fromkeys(players, actions), dict.fromkeys(itertools.product(actions, actions), (0, 0)))
    states = [f"w{k}" for k in range(n_states)]
    interpretation = {}
    for viewer in players:
        table = interpretation[viewer] = {}
        for p in players:
            for kind, names in (("rec", signals), ("pl", actions)):
                listed = {f"{kind}({p},{name})": [] for name in names}
                for s in states:
                    listed[f"{kind}({p},{rng.choice(names)})"].append(s)
                table.update(listed)
    data = {
        "states": states,
        "prior": dict.fromkeys(states, f"1/{n_states}"),
        "signals": dict.fromkeys(signals),
        "atoms": [],
        "interpretation": interpretation,
        "partitions": None,
    }
    return game, json.loads(json.dumps(data))


def traced(call):
    """(result, peak, kept): what the call returns, the peak of the memory
    traced while it runs, and the memory its result keeps."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def test_a_large_structure_loads_and_writes_in_memory_linear_in_its_states():
    """Loading 10 000 states peaks at a small multiple of what the structure
    keeps, as writing it back peaks at a small multiple of what it writes: no
    table of one int per state as wide as the state space is built."""
    game, data = large_structure(10_000, seed=30)
    m, peak, kept = traced(lambda: EpistemicStructure.from_dict(data, game))
    assert peak <= 4 * kept, (peak, kept)
    written, peak, kept = traced(m.to_dict)
    assert peak <= 4 * kept, (peak, kept)
    assert written == data
