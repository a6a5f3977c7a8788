"""Building epistemic structures out of equilibrium distributions."""

import random
from fractions import Fraction

import pytest

from ambicoord import (
    Distribution,
    Game,
    Play,
    PreconditionError,
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
from conftest import load_fixture
from helpers import random_game, random_objective

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
        cells = {frozenset(c) for c in m.partitions()["1"]}
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

    def test_product_prior_multiplies_the_beliefs(self, coord_game):
        g = Distribution({("U", "L"): F(1, 2), ("D", "R"): F(1, 2)})
        out = from_subjective_ce(coord_game, [g, g])
        m = out.structure
        assert len(m.states) == 4
        assert all(m.prior_of(w) == F(1, 4) for w in m.states)
        assert induce(m, "1") == g
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
        one_player = Game(["1"], {"1": ("U",)}, {("U",): (0,)})
        for game, weights in (
            (one_player, {("U",): 1}),  # not a valid game
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
