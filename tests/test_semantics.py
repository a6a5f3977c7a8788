"""Truth evaluation: posteriors, belief operators and common belief."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambicoord import (
    And,
    Belief,
    CommonBelief,
    EpistemicStructure,
    Game,
    Implies,
    MutualBelief,
    Not,
    Optimal,
    Play,
    PreconditionError,
    Prim,
    ProbGe,
    Rationality,
    Receive,
    SchemaError,
    cb_intension,
    expand,
    from_objective_ce,
    from_subjective_ce,
    holds,
    intension,
    parse_formula,
    posterior,
    solve_ce,
    valid,
)
from ambicoord import games
from ambicoord.semantics import Evaluator
from helpers import random_formula, random_game, random_objective, random_structure
from oracle import cells_of, instances, naive_cb_set, naive_holds, naive_posterior

F = Fraction
P = Prim("p")
Q = Prim("q")


class TestWeatherReport:
    """Hand-computed values for the two-observer forecast structure."""

    def test_interpretations_differ_but_signals_are_shared(self, weather):
        assert intension(weather, "A", P) == frozenset({"w1", "w2"})
        assert intension(weather, "B", P) == frozenset({"w1", "w3"})
        assert intension(weather, "A", Receive("B", "sp")) == frozenset({"w1", "w3"})

    def test_everybody_believes_the_report(self, weather):
        assert holds(weather, "w1", "A", MutualBelief(1, P))
        assert holds(weather, "w1", "B", MutualBelief(1, P))

    def test_first_observer_doubts_the_second_ones_belief(self, weather):
        event = intension(weather, "A", Belief("B", P))
        assert event == frozenset({"w1", "w3"})
        assert posterior(weather, "A", event, "w1") == F(1, 2)
        assert holds(weather, "w1", "A", Not(Belief("A", Belief("B", P))))

    def test_mutual_belief_stops_at_order_one(self, weather):
        assert not holds(weather, "w1", "A", MutualBelief(2, P))
        assert cb_intension(weather, P) == frozenset()
        assert not holds(weather, "w1", "A", CommonBelief(P))

    def test_shared_thresholds_restore_common_belief(self, weather_common):
        assert cb_intension(weather_common, P) == frozenset({"w1", "w2"})
        assert holds(weather_common, "w1", "A", CommonBelief(P))
        assert not holds(weather_common, "w3", "A", CommonBelief(P))


def test_belief_reads_its_argument_with_the_believers_interpretation(weather_game):
    """Innermost scope (Halpern and Kets): viewer B checking B_A(p) reads p
    as A does.  A deems p true at w0 only, B at w1 only, and A's cells are
    the two states, so B_A(p) holds at w0 for every viewer; reading p as
    the viewer B does throughout (outermost scope) would give w1."""
    m = EpistemicStructure.from_dict(
        {
            "states": ["w0", "w1"],
            "prior": {"w0": "1/2", "w1": "1/2"},
            "signals": {},
            "atoms": ["p"],
            "interpretation": {
                "A": {"p": ["w0"], "pl(A,stay)": ["w0", "w1"], "pl(B,stay)": ["w0", "w1"]},
                "B": {"p": ["w1"], "pl(A,stay)": ["w0", "w1"], "pl(B,stay)": ["w0", "w1"]},
            },
            "partitions": {"A": [["w0"], ["w1"]], "B": [["w0", "w1"]]},
        },
        weather_game,
    )
    assert intension(m, "A", P) == frozenset({"w0"})
    assert intension(m, "B", P) == frozenset({"w1"})
    innermost = intension(m, "B", Belief("A", P))
    outermost = frozenset(s for s in m.states if posterior(m, "A", intension(m, "B", P), s) == 1)
    assert innermost == intension(m, "A", Belief("A", P)) == frozenset({"w0"})
    assert outermost == frozenset({"w1"})


class TestPosteriors:
    def test_posterior_of_everything_is_one(self, weather):
        for w in weather.states:
            for i in ("A", "B"):
                assert posterior(weather, i, weather.states, w) == 1

    def test_posterior_matches_the_direct_ratio(self, weather):
        rng = random.Random(11)
        for _ in range(20):
            event = frozenset(
                w for w in weather.states if rng.random() < 0.5
            )
            for w in weather.states:
                for i in ("A", "B"):
                    assert posterior(weather, i, event, w) == naive_posterior(
                        weather, i, event, w
                    )

    def test_posterior_needs_a_live_cell(self, weather_game, weather):
        data = weather.to_dict()
        data["prior"] = {"w1": "1/2", "w2": "1/2", "w3": "0", "w4": "0"}
        starved = EpistemicStructure.from_dict(data, weather_game)
        with pytest.raises(PreconditionError):
            posterior(starved, "A", {"w3"}, "w3")

    def test_posterior_refuses_names_that_are_not_states(self, weather):
        with pytest.raises(KeyError) as exc:
            posterior(weather, "A", ["nope"], "w1")
        assert exc.value.args == ("unknown state 'nope'",)
        # a bare string is a collection of one-letter names
        with pytest.raises(KeyError) as exc:
            posterior(weather, "A", "w1", "w1")
        assert exc.value.args == ("unknown state 'w'",)


class TestProbabilityFacts:
    def test_nonnegativity_is_trivially_valid(self, weather):
        f = ProbGe("A", ((F(1), P),), F(0))
        assert intension(weather, "A", f) == frozenset(weather.states)
        assert intension(weather, "B", f) == frozenset(weather.states)
        assert valid(weather, f)

    def test_probability_truth_ignores_the_viewer(self, weather):
        battery = [
            Belief("B", P),
            ProbGe("A", ((F(1), P), (F(-2), Q)), F(-1, 4)),
            MutualBelief(1, And(P, Q)),
            CommonBelief(P),
        ]
        for f in battery:
            assert intension(weather, "A", f) == intension(weather, "B", f)

    def test_zero_mass_cells_poison_probability_formulas(self, weather_game, weather):
        data = weather.to_dict()
        data["prior"] = {"w1": "1/2", "w2": "1/2", "w3": "0", "w4": "0"}
        starved = EpistemicStructure.from_dict(data, weather_game)
        with pytest.raises(PreconditionError):
            holds(starved, "w1", "A", Belief("A", P))

    def test_undeclared_vocabulary_is_rejected(self, weather):
        with pytest.raises(PreconditionError):
            holds(weather, "w1", "A", Prim("zz"))
        with pytest.raises(PreconditionError):
            holds(weather, "w1", "A", Receive("A", "zz"))
        with pytest.raises(PreconditionError):
            holds(weather, "w1", "A", Play("A", "run"))


class TestBooleanCoherence:
    def test_connectives_agree_with_pointwise_truth(self, weather):
        rng = random.Random(5)
        for _ in range(25):
            f = random_formula(
                rng, weather.game, weather.signals, weather.atoms, depth=2
            )
            g = random_formula(
                rng, weather.game, weather.signals, weather.atoms, depth=2
            )
            for w in weather.states:
                for i in ("A", "B"):
                    fv = holds(weather, w, i, f)
                    gv = holds(weather, w, i, g)
                    assert holds(weather, w, i, Not(f)) == (not fv)
                    assert holds(weather, w, i, And(f, g)) == (fv and gv)
                    assert holds(weather, w, i, Implies(f, g)) == ((not fv) or gv)

    def test_validity_of_tautologies(self, weather, cycle, coord):
        for m in (weather, cycle, coord):
            some = (
                Prim(m.atoms[0])
                if m.atoms
                else Play(m.game.players[0], m.game.actions_of(m.game.players[0])[0])
            )
            assert valid(m, Implies(some, some))
            assert valid(m, CommonBelief(Implies(some, some)))
            assert not valid(m, And(some, Not(some)))


class TestAgainstTheOracle:
    def test_common_belief_matches_the_naive_orbit(self, weather, weather_common, cycle, coord):
        for m in (weather, weather_common, cycle, coord):
            args = [Prim(a) for a in m.atoms]
            args += [Play(p, m.game.actions_of(p)[0]) for p in m.game.players]
            args += [Receive(p, m.signals[0]) for p in m.game.players]
            for arg in args:
                assert cb_intension(m, arg) == naive_cb_set(m, arg)

    def test_random_formulas_agree_pointwise(self, weather, cycle, coord):
        rng = random.Random(314)
        for m in (weather, cycle, coord):
            for _ in range(15):
                f = random_formula(rng, m.game, m.signals, m.atoms, depth=3)
                for w in m.states:
                    for i in m.game.players:
                        assert holds(m, w, i, f) == naive_holds(m, w, i, f), (
                            str(f),
                            w,
                            i,
                        )


class TestCellsPerPlayer:
    """Player i's beliefs read her own cells only, so they survive another
    player who receives two signals at one state."""

    @pytest.fixture
    def split(self, weather_game, weather):
        data = weather.to_dict()
        data["partitions"] = None
        data["interpretation"]["A"]["rec(A,snp)"] = ["w1", "w3", "w4"]
        return EpistemicStructure.from_dict(data, weather_game)

    @pytest.mark.parametrize("viewer, text", [("A", "p"), ("B", "pr_B(p) >= 1/2"), ("B", "B_B(p)")])
    def test_formulas_without_the_broken_cells_agree_with_the_oracle(self, split, viewer, text):
        f = parse_formula(text, split.game, split.signals, split.atoms)
        for w in split.states:
            assert holds(split, w, viewer, f) == naive_holds(split, w, viewer, f)

    def test_a_formula_on_the_broken_cells_is_refused(self, split):
        f = parse_formula("pr_A(p) >= 1/2", split.game, split.signals, split.atoms)
        with pytest.raises(PreconditionError) as exc:
            holds(split, "w1", "B", f)
        assert str(exc.value) == "player 'A' receives 2 signals at state 'w1'"

    def test_cells_are_built_per_player_on_first_use(self, split):
        assert split.cells("B") == ((0b0101, 0b1010), (2, 2))
        assert split.cells("B") is split.cells("B")
        with pytest.raises(PreconditionError):
            split.cells("A")
        with pytest.raises(KeyError):
            split.cells("Z")


class TestGameFormulas:
    def test_optimality_and_rationality_on_the_cycle_device(self, cycle):
        # at every state each player deems the recommended action optimal
        for w in cycle.states:
            for k, p in enumerate(cycle.game.players):
                action = w.split(",")[k]
                assert holds(cycle, w, p, Optimal(p, action))
                assert holds(cycle, w, p, Rationality(p))

    def test_the_ambiguity_witness(self, coord):
        f = parse_formula(
            "rec(1,s) & pl(1,U) & !opt_1(U)", coord.game, coord.signals, coord.atoms
        )
        assert holds(coord, "wp", "2", f)
        assert not holds(coord, "wp", "1", f)
        assert not holds(coord, "w", "2", f)

    def test_rationality_vs_oracle(self, cycle, coord):
        for m in (cycle, coord):
            for w in m.states:
                for i in m.game.players:
                    f = Rationality(i)
                    assert holds(m, w, i, f) == naive_holds(m, w, i, f)


def _plain_levels(m, f, k):
    """EB^1(f) .. EB^k(f), one everybody-believes step at a time, from the
    oracle's cells and posteriors; refuses any zero-mass cell up front."""
    players = m.game.players
    for j in players:
        for cell in cells_of(m, j):
            if sum(map(m.prior_of, cell)) == 0:
                raise PreconditionError(f"zero-mass cell of {j!r}")
    events = {j: frozenset(w for w in m.states if naive_holds(m, w, j, f)) for j in players}
    levels = []
    for _ in range(k):
        level = frozenset(
            w for w in m.states if all(naive_posterior(m, j, events[j], w) == 1 for j in players)
        )
        levels.append(level)
        events = dict.fromkeys(players, level)
    return levels


class TestEverybodyBelievesWalk:
    """EB^k and CB read one walk that stops at its first repeated level."""

    def test_levels_and_common_belief_match_the_plain_loop(self):
        rng = random.Random(2015)
        refused = answered = longest = 0
        for _ in range(150):
            m = random_structure(rng)
            f = rng.choice([P, random_formula(rng, m.game, m.signals, m.atoms, depth=1)])
            top = len(m.states) + 3
            try:
                levels = _plain_levels(m, f, top)
            except PreconditionError:
                refused += 1
                for g in [MutualBelief(k, f) for k in range(1, top + 1)] + [CommonBelief(f)]:
                    with pytest.raises(PreconditionError):
                        intension(m, "A", g)
                continue
            answered += 1
            for k in range(1, top + 1):
                assert intension(m, "A", MutualBelief(k, f)) == levels[k - 1], (str(f), k)
            assert cb_intension(m, f) == naive_cb_set(m, f) == frozenset.intersection(*levels)
            longest = max(longest, len(set(levels)))
        assert refused > 20 and answered > 50 and longest >= 4

    def test_huge_orders_read_the_fixed_point(self):
        rng = random.Random(1974)
        for _ in range(100):
            m = random_structure(rng)
            f = rng.choice([P, Q, Receive("B", "s1"), Not(Play("C", "x"))])
            try:
                fixed = intension(m, "A", MutualBelief(len(m.states) + 2, f))
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    intension(m, "A", MutualBelief(10**9, f))
                continue
            assert intension(m, "A", MutualBelief(10**9, f)) == fixed

    def test_operand_errors_come_before_zero_mass_cells(self, weather_game, weather):
        data = weather.to_dict()
        data["prior"] = {"w1": "1/2", "w2": "1/2", "w3": "0", "w4": "0"}
        starved = EpistemicStructure.from_dict(data, weather_game)
        cases = [
            (ProbGe("A", ((F(1), Prim("zz")),), F(1, 2)), "formula references undeclared atom 'zz'"),
            (Belief("A", Play("A", "run")), "'run' is not an action of player 'A'"),
            (Belief("A", P), "zero-mass information cell of player 'A'; posterior undefined"),
            (MutualBelief(10**9, P), "zero-mass information cell of player 'A'; posterior undefined"),
            (CommonBelief(P), "zero-mass information cell of player 'A'; posterior undefined"),
        ]
        for f, message in cases:
            with pytest.raises(PreconditionError) as exc:
                holds(starved, "w1", "B", f)
            assert str(exc.value) == message

    def test_unknown_owners(self, weather):
        with pytest.raises(PreconditionError) as exc:
            holds(weather, "w1", "A", ProbGe("Z", ((F(1), P),), F(0)))
        assert str(exc.value) == "unknown player 'Z' in probability formula"
        with pytest.raises(KeyError) as exc:
            holds(weather, "w1", "A", Belief("Z", P))
        assert exc.value.args == ("unknown player 'Z'",)


class TestIntegerProbGe:
    """A `pr_i` inequality is compared in integers, scaled once by the lcm of
    its denominators; it must still hold exactly where lhs equals the bound."""

    COEFS = (F(-3, 2), F(-1), F(0), F(1, 3), F(2), F(5, 7))

    @staticmethod
    def structures():
        rng = random.Random(1015)
        for _ in range(60):
            yield rng, random_structure(rng)
        for _ in range(12):
            game = random_game(rng)
            dists = [solve_ce(game, random_objective(rng, game)) for _ in game.players]
            yield rng, from_objective_ce(game, dists[0]).structure
            m = from_subjective_ce(game, dists).structure
            if len(m.states) <= 40:
                yield rng, m

    def test_bounds_met_exactly(self):
        tight = refused = 0
        for rng, m in self.structures():
            owner = rng.choice(m.game.players)
            nodes = sorted((node for node in instances(m) if m.true_set(owner, node)), key=str)
            events = rng.sample(nodes, min(3, len(nodes)))
            events[0] = Not(events[0])
            terms = tuple((rng.choice(self.COEFS), e) for e in events)
            try:
                lhs = {
                    w: sum((c * naive_posterior(m, owner, intension(m, owner, e), w) for c, e in terms), F(0))
                    for w in m.states
                }
            except AssertionError:  # a zero-mass cell: the package refuses it
                with pytest.raises(PreconditionError):
                    intension(m, owner, ProbGe(owner, terms, F(0)))
                refused += 1
                continue
            met = rng.sample(sorted(set(lhs.values())), min(3, len(set(lhs.values()))))
            for bound in met + [v + F(1, 997) for v in met]:
                f = ProbGe(owner, terms, bound)
                for w in m.states:
                    verdict = holds(m, w, owner, f)
                    assert verdict == naive_holds(m, w, owner, f) == (lhs[w] >= bound), (str(f), w)
                    tight += lhs[w] == bound
        assert tight > 100 and refused > 5

    def test_operand_errors_come_before_the_zero_mass_refusal(self, weather_game, weather):
        data = weather.to_dict()
        data["prior"] = {"w1": "1/2", "w2": "1/2", "w3": "0", "w4": "0"}
        starved = EpistemicStructure.from_dict(data, weather_game)
        bad = ProbGe("A", ((F(-2, 3), P), (F(5, 7), Play("A", "run"))), F(1, 3))
        with pytest.raises(PreconditionError) as exc:
            holds(starved, "w1", "B", bad)
        assert str(exc.value) == "'run' is not an action of player 'A'"
        good = ProbGe("A", ((F(-2, 3), P), (F(5, 7), Q)), F(1, 3))
        with pytest.raises(PreconditionError) as exc:
            holds(starved, "w1", "B", good)
        assert str(exc.value) == "zero-mass information cell of player 'A'; posterior undefined"


def _outcome(compute):
    """compute()'s value, or the type and message of what it raised."""
    try:
        return compute()
    except (PreconditionError, KeyError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_optimality_kernel_matches_the_core_route(rng, stored, doubled):
    """`opt_i(a)` and `rat_i` as the evaluator decides them equal the masks
    of their expansions, errors included.  The game's tables are left as
    they were, and the payoff columns it keeps equal a fresh build."""
    game = random_game(rng)
    m = random_structure(rng, game, stored=stored, doubled=doubled)
    formulas = [Optimal(p, a) for p in game.players for a in (*game.actions_of(p), "zz")]
    formulas += [Optimal("nobody", "a1")] + [Rationality(p) for p in game.players]
    kept = (game.players, dict(game.actions), dict(game.payoffs))
    direct = {
        (p, f): _outcome(lambda: Evaluator(m).intension_mask(p, f)) for f in formulas for p in game.players
    }
    for (p, f), got in direct.items():
        assert got == _outcome(lambda: Evaluator(m).intension_mask(p, expand(f, game))), (str(f), p)
    assert (game.players, dict(game.actions), dict(game.payoffs)) == kept
    fresh = games._payoff_tables(game)
    assert {p: (scale, columns) for p, (scale, _, columns) in game._payoff_columns.items()} == {
        p: (scale, columns) for p, (scale, _, columns) in fresh.items()
    }


@pytest.mark.parametrize(
    "actions, problems",
    [
        ({"A": ("a", "b")}, "need at least 2 players, got 1"),
        ({"A": (), "B": ("b",)}, "player 'A' has no actions"),
        ({"A": ("a",), "B": ()}, "player 'B' has no actions"),
        (
            {"A": ("a", "b"), "B": ("b",)},
            "missing payoff entry for profile 'a,b' and 1 more",
        ),
    ],
    ids=["one player", "no actions", "no opponent actions", "no payoffs"],
)
def test_degenerate_games_are_refused_as_their_cores_are(actions, problems):
    """Games whose `opt_i(a)` had no core are refused when they are built,
    so neither the kernel nor the core meets one."""
    with pytest.raises(SchemaError) as err:
        Game(list(actions), actions, {})
    assert err.value.args == (problems,)
