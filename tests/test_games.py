"""Games, distributions, incentive checks and the equilibrium solver."""

import collections
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ambicoord import (
    Distribution,
    EpistemicStructure,
    Game,
    Optimal,
    PreconditionError,
    SchemaError,
    check_objective_ce,
    check_subjective_ce,
    deviation_slack,
    holds,
    load_objective,
    parse_profile_key,
    profile_key,
    solve_ce,
    validate_game,
)
from ambicoord import lp
from ambicoord.games import MAX_CE_PROFILES, incentive_gains
from ambicoord.rationals import scaled
from helpers import CountedPayoffs, random_game, random_objective
from oracle import (
    naive_distribution_from_dict,
    naive_game_problems,
    naive_incentive_row,
    naive_is_objective_ce,
    naive_is_subjective_ce,
)

F = Fraction
BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


def test_profile_keys_round_trip(cycle_game):
    assert profile_key(("T", "C")) == "T,C"
    assert parse_profile_key("T,C", cycle_game) == ("T", "C")
    with pytest.raises(SchemaError):
        parse_profile_key("T", cycle_game)
    with pytest.raises(SchemaError):
        parse_profile_key("T,X", cycle_game)


def test_game_accessors(cycle_game):
    assert cycle_game.n == 2
    assert cycle_game.player_index("2") == 1
    assert cycle_game.actions_of("1") == ("T", "M", "B")
    for lookup in (cycle_game.actions_of, cycle_game.player_index):
        with pytest.raises(KeyError) as exc:
            lookup("x")
        assert exc.value.args == ("unknown player 'x'",)
    # a player declared without actions is refused when the game is built
    with pytest.raises(SchemaError) as exc:
        Game(["A", "B"], {"A": ("a",)}, {})
    assert exc.value.args == ("player 'B' has no actions",)
    assert list(cycle_game.profiles())[0] == ("T", "L")
    assert list(cycle_game.opponent_profiles("1")) == [("L",), ("C",), ("R",)]
    assert cycle_game.profile_with("2", "R", ("M",)) == ("M", "R")
    assert cycle_game.payoff("1", ("T", "C")) == 2
    with pytest.raises(KeyError):
        cycle_game.payoff("1", ("T", "T"))


def test_incentive_row_names_a_profile_without_payoffs(cycle_game):
    # a game without a payoff at some profile is refused when it is built,
    # every missing profile named in sorted order, so no row ever lacks one
    for dropped, named in [
        ({("T", "L")}, "missing payoff entry for profile 'T,L'"),
        ({("B", "R")}, "missing payoff entry for profile 'B,R'"),
        (
            {("M", "R"), ("B", "L")},
            "missing payoff entry for profile 'B,L'; missing payoff entry for profile 'M,R'",
        ),
    ]:
        payoffs = {a: u for a, u in cycle_game.payoffs.items() if a not in dropped}
        with pytest.raises(SchemaError) as err:
            Game(cycle_game.players, cycle_game.actions, payoffs)
        assert err.value.args == (named,)
    scale, told, [gains] = incentive_gains(cycle_game, "2", [("C", "R")])
    assert told["C"] == [("T", "C"), ("M", "C"), ("B", "C")]
    assert [F(g, scale) for g in gains] == [
        cycle_game.payoff("2", a) - cycle_game.payoff("2", (a[0], "R")) for a in told["C"]
    ]


def test_gains_the_table_lacks_are_named_by_their_profile(cycle_game, cycle_ce, cycle):
    """An action the player lacks is named as such, with the player, whether
    or not the game keeps her gains table."""
    for warm in (False, True):
        game = Game.from_dict(cycle_game.to_dict())
        if warm:
            assert check_objective_ce(game, cycle_ce).ok
            assert "1" in game._gains_tables
        m = EpistemicStructure.from_dict(cycle.to_dict(), game)
        calls = [
            lambda: deviation_slack(game, cycle_ce, "1", "zz", "T"),
            lambda: deviation_slack(game, cycle_ce, "1", "T", "zz"),
            lambda: holds(m, m.states[0], "1", Optimal("1", "zz")),
        ]
        for call in calls:
            with pytest.raises(KeyError) as err:
                call()
            assert err.value.args == ("'zz' is not an action of player '1'",)


def test_game_serialization_round_trip(cycle_game):
    assert Game.from_dict(cycle_game.to_dict()) == cycle_game


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("payoffs"),
        lambda d: d.update(extra=1),
        lambda d: d["actions"].pop("1"),
        lambda d: d["payoffs"].update({"T,T": ["1", "1"]}),
        lambda d: d["payoffs"].update({"T,C": ["1"]}),
        lambda d: d["payoffs"].update({"T,C": ["1", "x"]}),
    ],
)
def test_game_from_dict_rejects_malformed_input(cycle_game, mutate):
    data = cycle_game.to_dict()
    mutate(data)
    with pytest.raises(SchemaError):
        Game.from_dict(data)


def test_game_from_dict_names_a_duplicate_player(cycle_game):
    data = cycle_game.to_dict()
    data["players"] = ["1", "1"]
    with pytest.raises(SchemaError, match=r"^game: duplicate player name '1'$"):
        Game.from_dict(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["actions"].pop("2"), "game: player '2' has no actions"),
        (lambda d: d["actions"].update(C=["c"]), "game: actions given for unknown player 'C'"),
        (lambda d: d.update(players=["1", "1"], actions={"1": ["T"]}), "game: duplicate player name '1'"),
        (lambda d: d["payoffs"].pop("M,C"), "game: missing payoff entry for profile 'M,C'"),
    ],
    ids=["no-actions", "unknown-player", "duplicate-only", "missing-payoff"],
)
def test_game_from_dict_refuses_as_game_does(cycle_game, edit, message):
    """`Game(...)` is the one home of these refusals; `from_dict` names the
    players' and actions' problems before it reads a payoff key against them."""
    data = cycle_game.to_dict()
    edit(data)
    with pytest.raises(SchemaError) as err:
        Game.from_dict(data)
    assert err.value.args == (message,)


class TestReadOnlyGame:
    def test_tables_cannot_be_changed(self, cycle_game):
        with pytest.raises(TypeError):
            cycle_game.actions["1"] = ("T",)
        with pytest.raises(TypeError):
            cycle_game.payoffs[("T", "L")] = (F(9), F(9))
        assert cycle_game.payoff("1", ("T", "C")) == 2


def _refused(players, actions, payoffs, *problems):
    """Assert that `Game` refuses these parts with exactly these problems."""
    with pytest.raises(SchemaError) as err:
        Game(players, actions, payoffs)
    assert err.value.args == ("; ".join(problems),)


class TestValidateGame:
    """`Game` refuses, with every problem `validate_game` names, what would
    not be a game; every game it builds passes."""

    def test_accepts_the_fixtures(self, cycle_game, coord_game, weather_game):
        for game in (cycle_game, coord_game, weather_game):
            assert validate_game(game).ok

    def test_needs_two_players(self):
        _refused(["1"], {"1": ("a", "b")}, {("a",): (0,), ("b",): (0,)}, "need at least 2 players, got 1")

    def test_numeric_names_must_match_position(self):
        _refused(
            ["2", "1"],
            {"2": ("a",), "1": ("a",)},
            {("a", "a"): (0, 0)},
            "numeric player name '2' must equal its position 1",
            "numeric player name '1' must equal its position 2",
        )

    def test_flags_missing_and_extra_payoffs(self):
        _refused(
            ["x", "y"],
            {"x": ("a", "b"), "y": ("c",)},
            {("a", "c"): (0, 0), ("a", "d"): (0, 0)},
            "missing payoff entry for profile 'b,c'",
            "payoff entry for unknown profile 'a,d'",
        )

    def test_refuses_a_repeated_player_name(self):
        actions = {"A": ("a", "b")}
        payoffs = {a: (0, 0) for a in itertools.product("ab", "ab")}
        _refused(["A", "A"], actions, payoffs, "duplicate player name 'A'")

    def test_refuses_actions_for_an_unknown_player(self):
        actions = {"A": ("a",), "B": ("b",), "C": ("c",)}
        _refused(["A", "B"], actions, {("a", "b"): (0, 0)}, "actions given for unknown player 'C'")

    @pytest.mark.parametrize("name", ["\u00b2", "\u0662"], ids=["superscript-2", "arabic-indic-2"])
    def test_non_ascii_digits_are_not_a_position(self, name):
        _refused(
            ["x", name], {"x": ("a",), name: ("a",)}, {("a", "a"): (0, 0)}, f"player name {name!r} is not an identifier"
        )

    def test_players_by_name_or_position(self, cycle_game):
        assert [cycle_game.player_named(t) for t in ("1", "02", "2")] == ["1", "2", "2"]
        for text in ("0", "3", "\u00b2", "\u0662", "9" * 5000, "x"):
            assert cycle_game.player_named(text) is None

    def test_rejects_non_identifier_names(self):
        _refused(
            ["x", "y"],
            {"x": ("a b",), "y": ("c",)},
            {("a b", "c"): (0, 0)},
            "action name 'a b' of player 'x' is not an identifier",
        )


class TestDistribution:
    def test_zero_weights_are_dropped(self):
        dist = Distribution({("T", "C"): F(1), ("T", "R"): F(0)})
        assert dist.support() == (("T", "C"),)
        assert dist.weight(("T", "R")) == 0
        assert dist.total() == 1

    def test_serialization_round_trip(self, cycle_game, cycle_ce):
        data = cycle_ce.to_dict(cycle_game)
        assert Distribution.from_dict(data, cycle_game) == cycle_ce
        # canonical profile order in the emitted form
        assert list(data["weights"]) == ["T,C", "T,R", "M,L", "M,R", "B,L", "B,C"]

    @pytest.mark.parametrize(
        "weights",
        [
            {"T,C": "1/2"},  # does not sum to one
            {"T,C": "3/2", "T,R": "-1/2"},  # negative
            {"T,C": "1", "Z,Z": "0"},  # unknown profile
            {"T,C": "0.5", "T,R": "1/2"},  # not a rational literal
        ],
    )
    def test_from_dict_enforces_invariants(self, cycle_game, weights):
        with pytest.raises(SchemaError):
            Distribution.from_dict({"weights": weights}, cycle_game)

    def test_from_dict_is_strict_about_keys(self, cycle_game):
        with pytest.raises(SchemaError):
            Distribution.from_dict({"weights": {}, "boop": 1}, cycle_game)

    def test_objectives_skip_the_invariants(self, cycle_game):
        obj = load_objective({"weights": {"T,C": "-2", "B,L": "1/3"}}, cycle_game)
        assert obj[("T", "C")] == -2
        assert obj[("B", "L")] == F(1, 3)


class TestIncentives:
    def test_slack_values_by_hand(self, cycle_game):
        point = Distribution({("T", "L"): F(1)})
        assert deviation_slack(cycle_game, point, "1", "T", "M") == -1
        assert deviation_slack(cycle_game, point, "1", "T", "B") == -2
        assert deviation_slack(cycle_game, point, "1", "T", "T") == 0
        # unplayed actions impose nothing
        assert deviation_slack(cycle_game, point, "1", "M", "B") == 0

    def test_cycle_distribution_is_an_objective_ce(self, cycle_game, cycle_ce):
        report = check_objective_ce(cycle_game, cycle_ce)
        assert report.ok and not report.failures

    def test_point_mass_on_a_non_equilibrium_is_rejected(self, cycle_game):
        report = check_objective_ce(cycle_game, Distribution({("T", "L"): F(1)}))
        assert not report.ok
        first = report.failures[0]
        assert (first.player, first.action, first.deviation) == ("1", "T", "M")
        assert first.slack == -1
        assert any(
            (i.player, i.action, i.deviation, i.slack) == ("1", "T", "B", F(-2))
            for i in report.failures
        )

    def test_subjective_profile_on_the_matching_game(self, coord_game):
        good = [
            Distribution({("U", "L"): F(1, 2), ("D", "R"): F(1, 2)}),
            Distribution({("U", "L"): F(1)}),
        ]
        assert check_subjective_ce(coord_game, good).ok

        bad = [Distribution({("U", "R"): F(1)}), Distribution({("U", "L"): F(1)})]
        report = check_subjective_ce(coord_game, bad)
        assert not report.ok
        issue = report.failures[0]
        assert (issue.player, issue.action, issue.deviation) == ("1", "U", "D")
        assert issue.slack == -1

    def test_subjective_check_needs_one_distribution_per_player(self, coord_game):
        with pytest.raises(PreconditionError):
            check_subjective_ce(coord_game, [Distribution({("U", "L"): F(1)})])

    def test_support_must_fit_the_game(self, coord_game):
        with pytest.raises(PreconditionError):
            check_objective_ce(coord_game, Distribution({("U", "L", "X"): F(1)}))
        with pytest.raises(PreconditionError):
            check_objective_ce(coord_game, Distribution({("L", "U"): F(1)}))

    def test_checks_agree_with_the_conditional_payoff_route(self):
        rng = random.Random(99)
        for _ in range(60):
            game = random_game(rng)
            profiles = list(game.profiles())
            picks = rng.sample(profiles, rng.randint(1, len(profiles)))
            weights = {a: F(rng.randint(1, 4)) for a in picks}
            total = sum(weights.values())
            dist = Distribution({a: w / total for a, w in weights.items()})
            assert check_objective_ce(game, dist).ok == naive_is_objective_ce(
                game, dist
            )
            dists = [dist for _ in game.players]
            assert check_subjective_ce(game, dists).ok == naive_is_subjective_ce(
                game, dists
            )


class TestSolver:
    def test_maximizes_total_payoff_on_the_cycle_game(self, cycle_game):
        objective = {
            a: cycle_game.payoff("1", a) + cycle_game.payoff("2", a)
            for a in cycle_game.profiles()
        }
        dist = solve_ce(cycle_game, objective)
        assert check_objective_ce(cycle_game, dist).ok
        assert sum(objective[a] * dist.weight(a) for a in dist.support()) == 3

    def test_maximizes_total_payoff_on_the_matching_game(self, coord_game):
        objective = {
            a: coord_game.payoff("1", a) + coord_game.payoff("2", a)
            for a in coord_game.profiles()
        }
        dist = solve_ce(coord_game, objective)
        assert check_objective_ce(coord_game, dist).ok
        assert sum(objective[a] * dist.weight(a) for a in dist.support()) == 2

    def test_default_objective_still_returns_an_equilibrium(self, cycle_game):
        dist = solve_ce(cycle_game)
        assert dist.total() == 1
        assert check_objective_ce(cycle_game, dist).ok

    def test_a_game_over_the_profile_cap_is_refused_at_once(self):
        players = ("1", "2", "3")
        actions = {p: ("a1", "a2", "a3", "a4", "a5") for p in players}
        game = Game(players, actions, {a: (0, 0, 0) for a in itertools.product(*actions.values())})
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as err:
            solve_ce(game)
        assert time.perf_counter() - start < 1
        assert str(err.value) == f"the game has 125 action profiles, more than the cap of {MAX_CE_PROFILES}"

    def test_a_game_at_the_profile_cap_is_solved(self):
        players = ("1", "2")
        actions = {"1": ("a1", "a2", "a3", "a4", "a5", "a6"), "2": ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")}
        game = Game(players, actions, {a: (0, 0) for a in itertools.product(*actions.values())})
        assert 6 * 8 == MAX_CE_PROFILES
        assert solve_ce(game).total() == 1

    def test_a_solve_keeps_no_incentive_rows_on_the_game(self, cycle_game):
        game = Game.from_dict(cycle_game.to_dict())
        solve_ce(game, {("T", "C"): F(1)})
        assert game._gains_tables == {}
        # the CE check keeps one gains table per player; a solve adds nothing
        assert check_objective_ce(game, solve_ce(game)).ok
        kept = dict(game._gains_tables)
        assert list(kept) == list(game.players)
        solve_ce(game, {("T", "C"): F(1)})
        assert game._gains_tables == kept

    def test_solver_output_is_always_an_equilibrium(self):
        from helpers import random_objective

        rng = random.Random(7)
        for _ in range(25):
            game = random_game(rng)
            dist = solve_ce(game, random_objective(rng, game))
            assert dist.total() == 1
            assert check_objective_ce(game, dist).ok


@st.composite
def _small_games(draw):
    """2 or 3 players with 1-3 actions each, so counts differ and some player
    may have one action; payoffs and an objective over denominators 1-6."""
    players = ("1", "2", "3")[: draw(st.integers(2, 3))]
    actions = {p: tuple(f"a{i}" for i in range(draw(st.integers(1, 3)))) for p in players}
    rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    profiles = list(itertools.product(*(actions[p] for p in players)))
    game = Game(players, actions, {a: tuple(draw(rationals) for _ in players) for a in profiles})
    objective = {a: draw(rationals) for a in profiles if draw(st.booleans())}
    return game, objective


@settings(max_examples=200, deadline=None)
@given(_small_games())
def test_solve_ce_gives_lp_the_rows_it_would_scale(case):
    # `lp` takes its rows as they are, and a row's scale steers its pivots:
    # the objective and each incentive row reach it scaled as the naive
    # row's exact values times the lcm of their denominators
    game, objective = case
    with mock.patch.object(lp, "maximize", wraps=lp.maximize) as maximize:
        solve_ce(game, objective)
    [((c, rows), _)] = maximize.call_args_list
    profiles = list(game.profiles())

    def scaled_row(row):
        return scaled([*(row.get(a, F(0)) for a in profiles), F(0)])[0]

    assert c == scaled_row(objective)[:-1]
    assert [[*row, 0] for row in rows] == [
        scaled_row(naive_incentive_row(game, p, action, alt))
        for p in game.players
        for action in game.actions_of(p)
        for alt in game.actions_of(p)
        if alt != action
    ]


def test_solve_ce_returns_the_integer_vertex_lp_certifies(monkeypatch):
    # lp.maximize hands back ints alone, (d, x, y), and the equilibrium is x
    # over d, with no Fraction in between
    vertices = []
    real = lp.maximize

    def recording(c, rows):
        vertices.append(real(c, rows))
        return vertices[-1]

    monkeypatch.setattr(lp, "maximize", recording)
    rng = random.Random(27)
    for count in range(1, 41):
        game = random_game(rng)
        dist = solve_ce(game, random_objective(rng, game))
        assert len(vertices) == count
        d, x, y = vertices[-1]
        assert all(type(v) is int for v in (d, *x, *y))
        assert dist == Distribution.from_numerators(dict(zip(game.profiles(), x)), d)


def _frozen_solves():
    """Every solved (game, objective, optimal value) that `bench/data`
    keeps: 400 `solve` lines, 5 solves on each of the 16 `device` games and
    the 6 `cli` 2x2 solves.  A game has players 1..n with actions a1..ak and
    one payoff vector a profile in profile order; an objective is [profile
    index, weight] pairs."""
    for name in ("solve", "device", "cli"):
        with open(BENCH_DATA / f"{name}.jsonl", encoding="utf-8") as fh:
            for entry in map(json.loads, fh):
                if entry.get("kind") == "device":  # a `cli` device's inputs
                    continue
                players = [str(k + 1) for k in range(len(entry["shape"]))]
                actions = {p: [f"a{k + 1}" for k in range(m)] for p, m in zip(players, entry["shape"])}
                profiles = list(itertools.product(*actions.values()))
                game = Game(players, actions, dict(zip(profiles, (tuple(map(Fraction, v)) for v in entry["payoffs"]))))
                for solve in entry.get("solves", [entry]):
                    objective = {profiles[k]: Fraction(w) for k, w in solve["objective"]}
                    yield name, game, objective, Fraction(solve["value"])


def test_solve_ce_reaches_every_frozen_optimum():
    # the optimum is unique even where the vertex is not
    counts = collections.Counter()
    for name, game, objective, value in _frozen_solves():
        dist = solve_ce(game, objective)
        assert naive_is_objective_ce(game, dist)
        assert sum(w * dist.weight(a) for a, w in objective.items()) == value
        counts[name] += 1
    assert counts == {"solve": 400, "device": 80, "cli": 6}


def test_frozen_solves_take_their_pinned_dual_pivots(monkeypatch):
    # a change to the dual simplex's kernel or pivot rules that keeps every
    # optimum can still move its path: the pivots per corpus are pinned
    pivots, real = collections.Counter(), lp._pivot
    name = None

    def counted(*args):
        pivots[name] += 1
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    for name, game, objective, value in _frozen_solves():
        solve_ce(game, objective)
    assert pivots == {"solve": 1685, "device": 382, "cli": 1}


def test_solve_ce_reads_each_payoff_vector_once():
    rng = random.Random(5)
    for _ in range(20):
        game = random_game(rng)
        expected = solve_ce(game, {})
        counted = game.payoffs = CountedPayoffs(game.payoffs)
        assert solve_ce(game, {}) == expected
        assert counted.reads == collections.Counter(game.profiles())


@settings(max_examples=100, deadline=None)
@given(_small_games())
def test_incentive_gains_match_the_naive_reference(case):
    game, _ = case
    for p in game.players:
        acts = game.actions_of(p)
        pairs = [(action, alt) for action in acts for alt in acts]
        naive = [list(naive_incentive_row(game, p, action, alt).items()) for action, alt in pairs]
        scale, told, gains = incentive_gains(game, p, pairs)
        assert [
            list(zip(told[action], [F(g, scale) for g in row])) for (action, _), row in zip(pairs, gains)
        ] == naive
        for (action, alt), row in zip(pairs, naive):
            assert alt != action or all(gain == 0 for _, gain in row)


_EDITS = [
    "drop a payoff",
    "add a payoff",
    "shorten a vector",
    "repeat a name",
    "name x y",
    "wrong numeral",
    "superscript",
    "no actions",
    "drop the last player",
    "action list for an unknown player",
]


@st.composite
def _edited_games(draw):
    """(players, actions, payoffs) of a `_small_games` game after none, one
    or two edits, each of which may leave it no game."""
    game, _ = draw(_small_games())
    players = list(game.players)
    actions = {p: list(game.actions_of(p)) for p in players}
    payoffs = dict(game.payoffs)
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=2)):
        k = draw(st.integers(0, len(players) - 1))
        if edit in ("drop a payoff", "add a payoff", "shorten a vector"):
            if not payoffs:
                continue
            profile = draw(st.sampled_from(sorted(payoffs)))
            if edit == "drop a payoff":
                del payoffs[profile]
            elif edit == "add a payoff":
                added = draw(st.sampled_from([profile[:-1] + ("zz",), profile + profile[:1], profile[1:]]))
                payoffs[added] = (0,) * len(players)
            else:
                payoffs[profile] = payoffs[profile][:-1]
        elif edit == "no actions":
            actions[players[k]] = []
        elif edit == "drop the last player":
            actions.pop(players.pop(), None)
        elif edit == "action list for an unknown player":
            actions["zz"] = ["z"]
        else:
            name = {
                "repeat a name": players[k - 1],
                "name x y": "x y",
                "wrong numeral": draw(st.sampled_from(["0", str(k), str(k + 2), "0" + str(k + 1)])),
                "superscript": "\u00b2",
            }[edit]
            actions[name] = actions.pop(players[k], [])
            players[k] = name
    return players, actions, payoffs


@settings(max_examples=300, deadline=None)
@given(_edited_games())
def test_a_game_is_built_exactly_when_the_reference_finds_no_problem(parts):
    """`Game` refuses edited parts with exactly the reference's problems,
    joined by "; ", and builds, into a game `validate_game` passes, exactly
    the parts in which the reference finds none."""
    problems = naive_game_problems(*parts)
    try:
        game = Game(*parts)
    except SchemaError as err:
        assert problems and err.args == ("; ".join(problems),)
    else:
        assert problems == [] and validate_game(game).ok


@st.composite
def _games_with_beliefs(draw):
    """A `_small_games` game with one distribution per player, each over a
    drawn set of profiles with weights over denominators 1-6."""
    game, _ = draw(_small_games())
    profiles = list(game.profiles())
    dists = []
    for _ in game.players:
        weights = {a: draw(st.builds(F, st.integers(0, 6), st.integers(1, 6))) for a in profiles}
        total = sum(weights.values())
        dists.append(Distribution({a: w / total for a, w in weights.items()} if total else {profiles[0]: 1}))
    return game, dists


@settings(max_examples=100, deadline=None)
@given(_games_with_beliefs())
def test_slacks_match_the_naive_reference(case):
    game, dists = case
    expected = []
    for p, dist in zip(game.players, dists):
        acts = game.actions_of(p)
        for action in acts:
            for alt in acts:
                row = naive_incentive_row(game, p, action, alt)
                naive = sum((gain * dist.weight(a) for a, gain in row.items()), F(0))
                assert deviation_slack(game, dist, p, action, alt) == naive
                if alt != action and naive < 0:
                    expected.append((p, action, alt, naive))
    report = check_subjective_ce(game, dists)
    assert [(i.player, i.action, i.deviation, i.slack) for i in report.failures] == expected
    assert report.ok == (not expected)


# ----------------------------------------------------- the integer form


_ZERO_GAME = Game(
    ["1", "2"], {"1": ("a", "b"), "2": ("c", "d", "e")}, {a: (0, 0) for a in itertools.product("ab", "cde")}
)
_PROFILES = list(_ZERO_GAME.profiles())
_WEIGHTS = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 12)))


@st.composite
def _weight_dicts(draw):
    """Two {profile: weight} dicts over `_ZERO_GAME`, ints and Fractions,
    zeros and negatives included, each in a drawn order; the second is
    sometimes the first reordered, with a zero added or one weight moved."""
    chosen = draw(st.lists(st.sampled_from(_PROFILES), unique=True))
    first = {a: draw(_WEIGHTS) for a in chosen}
    how = draw(st.sampled_from(["drawn", "reordered", "moved"]))
    if how == "drawn":
        return first, {a: draw(_WEIGHTS) for a in draw(st.lists(st.sampled_from(_PROFILES), unique=True))}
    second = {a: F(w) for a, w in reversed(first.items())}
    second.setdefault(draw(st.sampled_from(_PROFILES)), 0)
    if how == "moved" and second:
        a = draw(st.sampled_from(sorted(second)))
        second[a] += draw(st.sampled_from([F(1, 7), F(-1), F(2)]))
    return first, second


def _reference(weights) -> dict:
    return {a: F(w) for a, w in weights.items() if w != 0}


def _outcome(call):
    try:
        return "returned", call()
    except Exception as exc:  # the exception itself is the result compared
        return "raised", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_weight_dicts())
def test_distribution_matches_a_fraction_reference(pair):
    first, second = pair
    d1, d2 = Distribution(first), Distribution(second)
    ref1, ref2 = _reference(first), _reference(second)
    assert list(d1.weights.items()) == list(ref1.items())
    assert d1.weights == ref1 and len(d1.weights) == len(ref1)
    assert (d1 == d2) == (ref1 == ref2)
    assert d1.total() == sum(ref1.values(), F(0))
    assert all(d1.weight(a) == ref1.get(a, 0) for a in _PROFILES)
    assert d1.denom > 0 and math.gcd(d1.denom, *d1.num.values()) == 1
    # a probability distribution round-trips through its file form
    total = d1.total()
    if total > 0 and all(w > 0 for w in d1.num.values()):
        dist = Distribution({a: w / total for a, w in ref1.items()})
        assert Distribution.from_dict(json.loads(json.dumps(dist.to_dict(_ZERO_GAME))), _ZERO_GAME) == dist


_TEXTS = st.one_of(
    st.builds(str, st.integers(-3, 3)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(0, 12)),
    st.sampled_from(["1.5", "", "01", "1/-2", " 1", None, 1]),
)
# mostly the game's profile keys, so that most draws reach the weights
_KEYS = st.sampled_from([profile_key(a) for a in _PROFILES] * 4 + ["a,z", "a", "c,a"])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _TEXTS, max_size=6), st.sampled_from(["plain"] * 4 + ["extra key", "not an object"]))
def test_distribution_from_dict_refuses_as_the_fraction_reference_does(weights, shape):
    data = {"weights": weights}
    if shape == "extra key":
        data["total"] = "1"
    elif shape == "not an object":
        data = {"weights": list(weights)}
    got = _outcome(lambda: list(Distribution.from_dict(data, _ZERO_GAME).weights.items()))
    want = _outcome(lambda: list(naive_distribution_from_dict(data, _ZERO_GAME).items()))
    assert got == want
