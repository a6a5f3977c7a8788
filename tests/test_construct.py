"""Building epistemic structures out of equilibrium distributions."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambicoord import (
    And,
    Distribution,
    EpistemicStructure,
    Game,
    Implies,
    Play,
    PreconditionError,
    Receive,
    SchemaError,
    check_action_uniqueness,
    check_cell_positivity,
    check_objective_ce,
    check_partition_consistency,
    check_rationality,
    check_self_enforcing,
    check_signal_uniqueness,
    check_strategy_valid,
    from_objective_ce,
    from_subjective_ce,
    induce,
    is_common_interpretation,
    solve_ce,
    verify_induced_equilibrium,
)
from ambicoord import construct, games, structures
from ambicoord.coordination import STRUCTURAL, run_audits
from ambicoord.structures import row_layout
from conftest import load_fixture
from helpers import CountedPayoffs, random_game, random_objective
from oracle import naive_objective_device, naive_partitions, naive_subjective_device

F = Fraction


def all_structural_checks_pass(m) -> bool:
    return (
        check_signal_uniqueness(m).ok
        and check_partition_consistency(m).ok
        and check_action_uniqueness(m).ok
        and check_cell_positivity(m).ok
        and check_rationality(m).ok
    )


class TestFromObjective:
    def test_rebuilds_the_cycle_fixture(self, cycle_game, cycle_ce):
        out = from_objective_ce(cycle_game, cycle_ce)
        assert out.structure.to_dict() == load_fixture("cycle_structure.json")
        assert out.strategy.to_dict() == load_fixture("cycle_strategy.json")
        assert induce(out.structure, "1") == cycle_ce
        assert induce(out.structure, "2") == cycle_ce

    def test_signal_count_is_the_widest_action_set(self, coord_game):
        # an uneven game: three actions on one side, two on the other
        asym = Game(
            ["1", "2"],
            {"1": ("T", "M", "B"), "2": ("L", "R")},
            {
                a: ((1, 1) if a == ("T", "L") else (0, 0))
                for a in [(x, y) for x in "TMB" for y in "LR"]
            },
        )
        out = from_objective_ce(asym, Distribution({("T", "L"): F(1)}))
        assert out.structure.signals == ("sig1", "sig2", "sig3")
        out = from_objective_ce(coord_game, Distribution({("U", "L"): F(1)}))
        assert out.structure.signals == ("sig1", "sig2")

    def test_point_mass_on_an_equilibrium_profile(self, coord_game):
        out = from_objective_ce(coord_game, Distribution({("D", "R"): F(1)}))
        m = out.structure
        assert m.states == ("D,R",)
        assert m.prior_of("D,R") == 1
        assert all_structural_checks_pass(m)
        # the signal map follows declared action order, so D maps to sig2
        assert out.strategy.action("1", "sig2") == "D"
        assert induce(m, "1") == Distribution({("D", "R"): F(1)})

    def test_everyone_reads_the_constructed_device_the_same_way(
        self, cycle_game, cycle_ce
    ):
        m = from_objective_ce(cycle_game, cycle_ce).structure
        assert is_common_interpretation(m)
        assert m.atoms == ()

    def test_partitions_group_states_by_own_action(self, cycle_game, cycle_ce):
        m = from_objective_ce(cycle_game, cycle_ce).structure
        cells = set(naive_partitions(m)["1"])
        assert cells == {
            frozenset({"T,C", "T,R"}),
            frozenset({"M,L", "M,R"}),
            frozenset({"B,L", "B,C"}),
        }

    def test_refuses_non_equilibrium_input(self, cycle_game):
        with pytest.raises(PreconditionError) as err:
            from_objective_ce(cycle_game, Distribution({("T", "L"): F(1)}))
        assert "T" in str(err.value)

    def test_signal_maps_follow_declared_action_order(self, cycle_game, cycle_ce):
        out = from_objective_ce(cycle_game, cycle_ce)
        assert out.signal_maps_dict() == {
            "1": {"T": "sig1", "M": "sig2", "B": "sig3"},
            "2": {"L": "sig1", "C": "sig2", "R": "sig3"},
        }


class TestFromSubjective:
    def test_two_state_product_for_the_matching_game(self, coord_game):
        g1 = Distribution({("U", "L"): F(1, 2), ("D", "R"): F(1, 2)})
        g2 = Distribution({("U", "L"): F(1)})
        out = from_subjective_ce(coord_game, [g1, g2])
        m = out.structure
        assert m.states == ("U,L|U,L", "D,R|U,L")
        assert m.prior_of("U,L|U,L") == F(1, 2)
        assert all_structural_checks_pass(m)
        assert induce(m, "1") == g1
        assert induce(m, "2") == g2
        assert not is_common_interpretation(m)

    def test_coupled_prior_cuts_at_every_breakpoint(self, coord_game):
        g = Distribution({("U", "L"): F(1, 2), ("D", "R"): F(1, 2)})
        m = from_subjective_ce(coord_game, [g, g]).structure
        assert m.states == ("U,L|U,L", "D,R|D,R")
        assert all(m.prior_of(w) == F(1, 2) for w in m.states)
        assert is_common_interpretation(m)
        h = Distribution({("U", "L"): F(1, 3), ("D", "R"): F(2, 3)})
        m = from_subjective_ce(coord_game, [h, g]).structure
        assert m.states == ("U,L|U,L", "D,R|U,L", "D,R|D,R")
        assert [m.prior_of(w) for w in m.states] == [F(1, 3), F(1, 6), F(1, 2)]
        assert induce(m, "1") == h
        assert induce(m, "2") == g

    def test_identical_point_beliefs_collapse_to_agreement(self, coord_game):
        g = Distribution({("U", "L"): F(1)})
        out = from_subjective_ce(coord_game, [g, g])
        m = out.structure
        assert m.states == ("U,L|U,L",)
        assert is_common_interpretation(m)
        result = verify_induced_equilibrium(m, out.strategy)
        assert result.ok and result.kind == "objective"

    def test_each_player_reads_her_own_coordinate(self, coord_game):
        g1 = Distribution({("U", "L"): F(1, 2), ("D", "R"): F(1, 2)})
        g2 = Distribution({("U", "L"): F(1)})
        m = from_subjective_ce(coord_game, [g1, g2]).structure
        # player 2 sees (U,L) everywhere, whatever player 1's coordinate says
        assert m.true_set("2", Play("1", "U")) == frozenset(m.states)
        assert m.true_set("1", Play("1", "U")) == frozenset({"U,L|U,L"})

    def test_needs_one_distribution_per_player(self, coord_game):
        g = Distribution({("U", "L"): F(1)})
        with pytest.raises(PreconditionError):
            from_subjective_ce(coord_game, [g])

    def test_refuses_individually_unprofitable_beliefs(self, coord_game):
        bad = Distribution({("U", "R"): F(1)})
        good = Distribution({("U", "L"): F(1)})
        with pytest.raises(PreconditionError):
            from_subjective_ce(coord_game, [bad, good])


class TestRefusals:
    @pytest.mark.parametrize(
        "build",
        [lambda g, d: from_objective_ce(g, d), lambda g, d: from_subjective_ce(g, [d] * g.n)],
        ids=["objective", "subjective"],
    )
    def test_every_refusal_is_a_precondition_error(self, coord_game, build):
        # a one-player game is no game: it is refused when it is built
        with pytest.raises(SchemaError):
            Game(["1"], {"1": ("U",)}, {("U",): (0,)})
        for game, weights in (
            (coord_game, {("U", "L"): F(3, 2), ("D", "R"): F(-1, 2)}),  # a negative weight
            (coord_game, {("U", "L"): F(1, 2)}),  # weights summing to 1/2
            (coord_game, {("U", "X"): 1}),  # an action not in the game
            (coord_game, {("U", "L", "L"): 1}),  # a profile of the wrong length
            (coord_game, {("U", "R"): 1}),  # not an equilibrium
        ):
            with pytest.raises(PreconditionError):
                build(game, Distribution(weights))


class TestPipelines:
    def test_objective_constructions_withstand_every_check(self):
        rng = random.Random(2024)
        for _ in range(10):
            game = random_game(rng)
            dist = solve_ce(game, random_objective(rng, game))
            out = from_objective_ce(game, dist)
            assert all_structural_checks_pass(out.structure)
            assert check_strategy_valid(out.structure, out.strategy).ok
            assert check_self_enforcing(out.structure, out.strategy).ok
            result = verify_induced_equilibrium(out.structure, out.strategy)
            assert result.ok and result.kind == "objective"
            assert result.distributions[game.players[0]] == dist

    def test_subjective_constructions_withstand_every_check(self):
        rng = random.Random(2025)
        for _ in range(6):
            game = random_game(rng)
            dists = [solve_ce(game, random_objective(rng, game)) for _ in game.players]
            out = from_subjective_ce(game, dists)
            assert all_structural_checks_pass(out.structure)
            assert check_strategy_valid(out.structure, out.strategy).ok
            assert check_self_enforcing(out.structure, out.strategy).ok
            for k, p in enumerate(game.players):
                assert induce(out.structure, p) == dists[k]

    def test_identical_inputs_collapse_to_the_objective_device(self, objective_instances):
        """Absent ambiguity, the subjective construction is the objective one,
        its states named "k|...|k" for "k"."""
        for game, dist, built in objective_instances:
            out = from_subjective_ce(game, [dist] * game.n)
            m, ref = out.structure, built.structure
            assert m.states == tuple("|".join([w] * game.n) for w in ref.states)
            assert (m.prior_num, m.prior_denom) == (ref.prior_num, ref.prior_denom)
            assert m.rows == ref.rows
            assert m.stored_cells == ref.stored_cells
            assert out.strategy.to_dict() == built.strategy.to_dict()
            result = verify_induced_equilibrium(m, out.strategy)
            assert result.ok and result.kind == "objective"


def compiled_form(out) -> tuple:
    """Everything a construction hands back."""
    m = out.structure
    return (
        m.states,
        m.prior_num,
        m.prior_denom,
        m.rows,
        m.stored_cells,
        m.to_dict(),
        out.strategy.to_dict(),
        out.signal_maps_dict(),
    )


def zero_game(shape) -> Game:
    """Players "1".."n" with actions a1..ak and all payoffs zero: every
    distribution is an equilibrium."""
    players = [str(k + 1) for k in range(len(shape))]
    actions = {p: tuple(f"a{j + 1}" for j in range(n)) for p, n in zip(players, shape)}
    profiles = itertools.product(*(actions[p] for p in players))
    return Game(players, actions, {a: (0,) * len(shape) for a in profiles})


def random_distribution(rng, game, most: int) -> Distribution:
    """Random rational weights on 1..most random profiles."""
    profiles = list(game.profiles())
    support = rng.sample(profiles, rng.randint(1, min(most, len(profiles))))
    raw = [rng.randint(1, 6) for _ in support]
    return Distribution({a: F(w, sum(raw)) for a, w in zip(support, raw)})


class TestCompiledConstruction:
    """The constructions write the compiled form directly; it must equal what
    the name-based constructor makes of the same device's state sets."""

    def test_seeded_random_equilibria(self):
        rng = random.Random(7)
        for _ in range(25):
            game = random_game(rng)
            dist = solve_ce(game, random_objective(rng, game))
            assert compiled_form(from_objective_ce(game, dist)) == compiled_form(naive_objective_device(game, dist))
            dists = [solve_ce(game, random_objective(rng, game)) for _ in game.players]
            assert compiled_form(from_subjective_ce(game, dists)) == compiled_form(
                naive_subjective_device(game, dists)
            )

    def test_acceptance_battery_inputs(self, objective_instances, subjective_instances):
        for game, dist, built in objective_instances:
            assert compiled_form(built) == compiled_form(naive_objective_device(game, dist))
        for game, dists, built in subjective_instances:
            assert compiled_form(built) == compiled_form(naive_subjective_device(game, dists))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2, 3, 2), (3, 1, 2)])
    def test_unequal_action_counts(self, shape):
        rng = random.Random(str(shape))
        game = zero_game(shape)
        for _ in range(8):
            dist = random_distribution(rng, game, 5)
            assert compiled_form(from_objective_ce(game, dist)) == compiled_form(naive_objective_device(game, dist))
            dists = [random_distribution(rng, game, 4) for _ in game.players]
            assert compiled_form(from_subjective_ce(game, dists)) == compiled_form(
                naive_subjective_device(game, dists)
            )


def test_the_device_path_builds_each_gains_table_once(monkeypatch):
    """Constructing a device on a fresh game, writing and loading it, and
    auditing it build the players' payoff columns once, kept on the game,
    read each payoff vector once for them and build no formula node for
    `rat_i`."""
    rng = random.Random(11)
    cases = []
    for _ in range(6):
        game = random_game(rng)
        dists = [solve_ce(game, random_objective(rng, game)) for _ in game.players]
        cases.append((Game.from_dict(game.to_dict()), dists))
    builds = []
    build = games._payoff_tables
    monkeypatch.setattr(games, "_payoff_tables", lambda game: builds.append(game) or build(game))
    for node in (Play, Receive, Implies, And):
        monkeypatch.setattr(node, "__init__", _refuse(node.__name__))
    for fresh, dists in cases:
        builds.clear()
        counted = fresh.payoffs = CountedPayoffs(fresh.payoffs)
        built = from_subjective_ce(fresh, dists)
        m = EpistemicStructure.from_dict(built.structure.to_dict(), fresh)
        assert check_rationality(m).ok
        assert verify_induced_equilibrium(m, built.strategy).ok
        assert builds == [fresh]
        assert list(fresh._payoff_columns) == list(fresh.players)
        assert counted.reads == collections.Counter(fresh.profiles())


def _refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return call


def test_constructions_write_row_positions(
    monkeypatch, cycle_game, cycle_ce, coord_game, objective_instances, subjective_instances
):
    """`from_objective_ce` and `from_subjective_ce` build no receipt or play
    node and look no position up, and write what the name-based constructor
    makes of the same device."""
    cases = [(cycle_game, [cycle_ce]), (cycle_game, [cycle_ce, solve_ce(cycle_game)])]
    cases += [(coord_game, [solve_ce(coord_game, {a: F(k)}) for k, a in enumerate(coord_game.profiles(), 1)][:2])]
    cases += [(game, [dist]) for game, dist, _ in objective_instances]
    cases += [(game, dists) for game, dists, _ in subjective_instances]

    with monkeypatch.context() as patch:
        for node in (Play, Receive):
            patch.setattr(node, "__init__", _refuse(node.__name__))
        patch.setattr(EpistemicStructure, "position", _refuse("position"))
        built = [
            from_objective_ce(game, dists[0]) if len(dists) == 1 else from_subjective_ce(game, dists)
            for game, dists in cases
        ]
    for (game, dists), out in zip(cases, built):
        naive = naive_objective_device(game, dists[0]) if len(dists) == 1 else naive_subjective_device(game, dists)
        assert out.structure.to_dict() == naive.structure.to_dict()
        assert out.strategy.to_dict() == naive.strategy.to_dict()


def test_a_constructed_device_lays_its_row_out_once(monkeypatch, cycle_game, cycle_ce, coord_game):
    """`_device` places its masks at the positions of one `row_layout`,
    which `from_masks` keeps, and builds what it built by two."""
    dists = [solve_ce(coord_game, {a: F(k)}) for k, a in enumerate(coord_game.profiles(), 1)][:2]
    builds = [
        lambda: from_objective_ce(cycle_game, cycle_ce),
        lambda: from_subjective_ce(cycle_game, [cycle_ce, solve_ce(cycle_game)]),
        lambda: from_subjective_ce(coord_game, dists),
    ]
    expected = [build().structure.to_dict() for build in builds]
    calls = []

    def counted(*args):
        calls.append(args)
        return row_layout(*args)

    monkeypatch.setattr(structures, "row_layout", counted)
    monkeypatch.setattr(construct, "row_layout", counted)
    for build, written in zip(builds, expected):
        calls.clear()
        assert build().structure.to_dict() == written
        assert len(calls) == 1


@st.composite
def coupled_inputs(draw):
    """A zero game of one of the shapes above and one random distribution per
    player, on 1..6 profiles with weights 1..6 over their sum."""
    game = zero_game(draw(st.sampled_from([(3, 2), (2, 3), (2, 3, 2), (3, 1, 2)])))
    profiles = list(game.profiles())
    dists = []
    for _ in game.players:
        support = draw(st.lists(st.sampled_from(profiles), min_size=1, max_size=6, unique=True))
        raw = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
        dists.append(Distribution({a: F(w, sum(raw)) for a, w in zip(support, raw)}))
    return game, dists


@settings(max_examples=200, deadline=None)
@given(coupled_inputs())
def test_coupled_device_is_linear_in_the_supports_and_implements_each_input(case):
    game, dists = case
    out = from_subjective_ce(game, dists)
    m = out.structure
    assert len(m.states) <= sum(len(d.support()) for d in dists) - game.n + 1
    assert all(w > 0 for w in m.prior_num)
    assert len(set(m.states)) == len(m.states)
    for p, d in zip(game.players, dists):
        assert induce(m, p) == d
    for label, outcome in run_audits(m, out.strategy, STRUCTURAL + ("self-enforcement",)):
        assert outcome is not None and outcome.ok, label


class TestFromMasks:
    """The compiled entry point runs the same checks as the name-based one.

    Its masks sit at row positions; with the coord game's two signals s and t
    the row is rec(1,s), rec(1,t), rec(2,s), rec(2,t), pl(1,U), pl(1,D),
    pl(2,L), pl(2,R), at 0 to 7."""

    def build(self, coord_game, **overrides):
        args = dict(
            states=["x", "y"],
            prior_num=[2, 2],
            prior_denom=4,
            signals=["s", "t"],
            masks={"1": {0: 0b01, 1: 0b10}, "2": {4: 0b11}},
            cells={"1": [0b01, 0b10], "2": [0b11]},
        )
        args.update(overrides)
        return EpistemicStructure.from_masks(coord_game, **args)

    def test_prior_is_kept_in_lowest_terms(self, coord_game):
        m = self.build(coord_game)
        assert (m.prior_num, m.prior_denom) == ((1, 1), 2)
        assert m.stored_cells == {"1": (0b01, 0b10), "2": (0b11,)}
        assert m.true_set("2", Play("1", "U")) == frozenset({"x", "y"})
        assert m.true_set("1", Receive("1", "t")) == frozenset({"y"})
        keys, atoms, receipts, plays = row_layout(coord_game, ["s", "t"])
        assert keys == ("rec(1,s)", "rec(1,t)", "rec(2,s)", "rec(2,t)", "pl(1,U)", "pl(1,D)", "pl(2,L)", "pl(2,R)")
        assert (atoms, receipts) == (range(0), {"1": range(0, 2), "2": range(2, 4)})
        assert plays == {"1": range(4, 6), "2": range(6, 8)}

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(states=[], prior_num=[]),
            dict(states=["x", "x"]),
            dict(prior_num=[3, -1]),
            dict(prior_num=[1, 2]),
            dict(prior_num=[4]),
            dict(prior_num=[0, 0], prior_denom=0),
            dict(signals=["s", "s"]),
            dict(signals=["s", "pl"]),
            dict(masks={"1": {0: 0b100}}),
            dict(masks={"1": {0: -1}}),
            dict(masks={"1": {8: 0b01}}),
            dict(masks={"9": {}}),
            dict(cells={"1": [0b01, 0b10]}),
            dict(cells={"1": [0b01, 0b10, 0], "2": [0b11]}),
            dict(cells={"1": [0b01, 0b11], "2": [0b11]}),
            dict(cells={"1": [0b01], "2": [0b11]}),
            dict(cells={"1": [0b01, 0b110], "2": [0b11]}),
            dict(masks={"1": {-1: 0b01}}),
        ],
    )
    def test_refusals(self, coord_game, overrides):
        with pytest.raises(SchemaError):
            self.build(coord_game, **overrides)
