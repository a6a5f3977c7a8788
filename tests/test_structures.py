"""Structure loading, derived information cells and the structural checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambicoord import (
    EpistemicStructure,
    Game,
    Play,
    PreconditionError,
    Prim,
    Receive,
    SchemaError,
    check_action_uniqueness,
    check_cell_positivity,
    check_partition_consistency,
    check_rationality,
    check_signal_definitions,
    check_signal_uniqueness,
    induce,
    is_common_interpretation,
)
from conftest import load_fixture
from helpers import random_game, random_structure

F = Fraction


def rebuild(weather_game, **overrides):
    """The weather fixture with selected constructor arguments replaced."""
    base = dict(
        states=["w1", "w2", "w3", "w4"],
        prior={w: F(1, 4) for w in ["w1", "w2", "w3", "w4"]},
        signals=["sp", "snp"],
        atoms=["p", "q"],
        truth={
            "A": {
                Prim("p"): {"w1", "w2"},
                Prim("q"): {"w1"},
                Receive("A", "sp"): {"w1", "w2"},
                Receive("A", "snp"): {"w3", "w4"},
                Receive("B", "sp"): {"w1", "w3"},
                Receive("B", "snp"): {"w2", "w4"},
            },
            "B": {
                Prim("p"): {"w1", "w3"},
                Prim("q"): {"w1"},
                Receive("A", "sp"): {"w1", "w2"},
                Receive("A", "snp"): {"w3", "w4"},
                Receive("B", "sp"): {"w1", "w3"},
                Receive("B", "snp"): {"w2", "w4"},
            },
        },
        partitions={"A": [{"w1", "w2"}, {"w3", "w4"}], "B": [{"w1", "w3"}, {"w2", "w4"}]},
    )
    base.update(overrides)
    return EpistemicStructure(weather_game, **base)


class TestConstruction:
    def test_loads_fixture_and_round_trips(self, weather_game, weather):
        assert weather.states == ("w1", "w2", "w3", "w4")
        assert weather.prior_of("w1") == F(1, 4)
        assert weather.to_dict() == load_fixture("weather_structure.json")

    def test_prior_must_be_a_distribution(self, weather_game):
        with pytest.raises(SchemaError):
            rebuild(weather_game, prior={"w1": F(1, 2), "w2": F(1, 2), "w5": F(0)})
        with pytest.raises(SchemaError):
            rebuild(weather_game, prior={"w1": F(1, 2)})
        with pytest.raises(SchemaError):
            rebuild(
                weather_game,
                prior={"w1": F(3, 2), "w2": F(-1, 2), "w3": F(0), "w4": F(0)},
            )

    def test_missing_prior_states_default_to_zero(self, weather_game):
        m = rebuild(weather_game, prior={"w1": F(1, 2), "w2": F(1, 2)})
        assert m.prior_of("w3") == 0

    def test_names_must_be_usable(self, weather_game):
        with pytest.raises(SchemaError):
            rebuild(weather_game, atoms=["p", "pl"])  # reserved word
        with pytest.raises(SchemaError):
            rebuild(weather_game, signals=["sp", "B_x"])  # reserved prefix
        with pytest.raises(SchemaError):
            rebuild(weather_game, atoms=["p", "3x"])  # not an identifier

    def test_interpretation_entries_are_checked(self, weather_game):
        with pytest.raises(SchemaError):
            rebuild(
                weather_game,
                truth={"A": {Prim("zz"): {"w1"}}, "B": {}},
            )
        with pytest.raises(SchemaError):
            rebuild(
                weather_game,
                truth={"A": {Prim("p"): {"nowhere"}}, "B": {}},
            )
        with pytest.raises(SchemaError):
            rebuild(
                weather_game,
                truth={"A": {Play("A", "run"): {"w1"}}, "B": {}},
            )
        for node in (Play("Z", "stay"), Receive("Z", "sp")):
            with pytest.raises(SchemaError) as exc:
                rebuild(weather_game, truth={"A": {node: {"w1"}}, "B": {}})
            assert str(exc.value) == f"structure: {node} names unknown player 'Z'"
        # a node is placed by `position`, not by the text it prints
        with pytest.raises(SchemaError) as exc:
            rebuild(weather_game, truth={"A": {Prim("pl(A,stay)"): {"w1"}}, "B": {}})
        assert str(exc.value) == "structure: undeclared atom 'pl(A,stay)'"

    def test_a_node_is_placed_before_any_state_name_is_looked_up(self, weather_game):
        """As `from_dict` refuses a key before it looks up any state, the
        constructor refuses a node it cannot place before an unknown state."""
        with pytest.raises(SchemaError) as exc:
            rebuild(weather_game, truth={"A": {Prim("p"): {"nowhere"}, Prim("zz"): {"nowhere"}}, "B": {}})
        assert str(exc.value) == "structure: undeclared atom 'zz'"

    def test_state_names_are_checked_before_any_is_looked_up(self, weather_game):
        for states, message in (([], "needs at least one state"), (["w1", "w1"], "duplicate state names")):
            with pytest.raises(SchemaError) as exc:
                rebuild(weather_game, states=states, truth={"A": {Prim("p"): {"nowhere"}}, "B": {}})
            assert str(exc.value) == f"structure: {message}"

    def test_unknown_states_are_named_from_a_one_shot_iterable(self, weather_game):
        with pytest.raises(SchemaError) as exc:
            rebuild(weather_game, truth={"A": {Prim("p"): (s for s in ["w1", "zz"])}, "B": {}})
        assert str(exc.value) == "structure: unknown states ['zz'] for p"

    def test_partitions_must_cover_and_not_overlap(self, weather_game):
        with pytest.raises(SchemaError):
            rebuild(
                weather_game,
                partitions={"A": [{"w1", "w2"}, {"w3"}], "B": [{"w1", "w2", "w3", "w4"}]},
            )
        with pytest.raises(SchemaError):
            rebuild(weather_game, partitions={"A": [{"w1", "w2", "w3", "w4"}]})

    def test_from_dict_is_strict(self, weather_game):
        data = load_fixture("weather_structure.json")
        data["surprise"] = True
        with pytest.raises(SchemaError):
            EpistemicStructure.from_dict(data, weather_game)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.booleans(), st.booleans())
def test_the_constructor_and_the_loader_build_one_compiled_form(seed, own_game, stored, doubled):
    """A structure built from nodes and one loaded from its JSON form, atoms
    and stored partitions included, hold the same rows, cells and prior."""
    rng = random.Random(seed)
    m = random_structure(rng, random_game(rng) if own_game else None, stored=stored, doubled=doubled)
    loaded = EpistemicStructure.from_dict(m.to_dict(), m.game)
    assert (loaded.rows, loaded.stored_cells) == (m.rows, m.stored_cells)
    assert (loaded.prior_num, loaded.prior_denom) == (m.prior_num, m.prior_denom)


def cell_sets(m, player):
    """The player's information cells as state sets, in cell order."""
    return tuple(map(m.states_of, m.cells(player)[0]))


class TestAccessors:
    def test_signal_and_cell_lookups(self, weather):
        assert "w1" in weather.true_set("A", Receive("B", "sp"))
        assert weather.true_set("B", Receive("B", "snp")) == frozenset({"w2", "w4"})
        assert cell_sets(weather, "A") == (frozenset({"w1", "w2"}), frozenset({"w3", "w4"}))
        assert cell_sets(weather, "B") == (frozenset({"w1", "w3"}), frozenset({"w2", "w4"}))
        # masses in units of the prior's denominator, 4
        assert weather.cells("B")[1] == (2, 2)
        assert weather.prior_denom == 4

    def test_derived_partitions_match_stored_ones(self, weather_game, weather):
        derived = rebuild(weather_game, partitions=None)
        assert derived.stored_cells is None
        for p in ("A", "B"):
            assert derived.cells(p)[0] == weather.stored_cells[p]

    def test_partitions_fall_back_to_derivation(self, weather_common):
        assert weather_common.stored_cells is None
        assert cell_sets(weather_common, "B") == (frozenset({"w1", "w2"}), frozenset({"w3", "w4"}))

    def test_received_signal_needs_uniqueness(self, weather_game):
        def broken(snp):
            table = {
                Receive("A", "sp"): {"w1", "w2"},
                Receive("A", "snp"): snp,
                Receive("B", "sp"): {"w1", "w3"},
                Receive("B", "snp"): {"w2", "w4"},
            }
            return rebuild(weather_game, truth={"A": table, "B": {}}, partitions=None)

        with pytest.raises(PreconditionError) as exc:
            broken({"w1", "w4"}).cells("A")  # w1 gets both signals, w3 none
        assert str(exc.value) == "player 'A' receives 2 signals at state 'w1'"
        with pytest.raises(PreconditionError) as exc:
            broken({"w4"}).cells("A")
        assert str(exc.value) == "player 'A' receives 0 signals at state 'w3'"

    def test_seen_profile_requires_action_atoms(self, weather, coord):
        with pytest.raises(PreconditionError) as exc:
            induce(weather, "A")
        assert str(exc.value) == "viewer 'A' sees 0 actions for player 'A' at state 'w1'"
        assert induce(coord, "1").weights == {("U", "L"): F(1, 2), ("D", "R"): F(1, 2)}
        assert induce(coord, "2").weights == {("U", "L"): F(1)}


class TestChecks:
    def test_fixture_passes_everything(self, weather):
        assert check_signal_uniqueness(weather).ok
        assert check_partition_consistency(weather).ok
        assert check_action_uniqueness(weather).ok
        assert check_cell_positivity(weather).ok
        assert check_signal_definitions(weather).ok
        assert check_rationality(weather).ok

    def test_signal_uniqueness_reports_offenders(self, weather_game):
        broken = rebuild(
            weather_game,
            truth={
                "A": {
                    Receive("A", "sp"): {"w1", "w2"},
                    Receive("A", "snp"): {"w1", "w4"},
                    Receive("B", "sp"): {"w1", "w3"},
                    Receive("B", "snp"): {"w2", "w4"},
                },
                "B": {
                    Receive("A", "sp"): {"w1", "w2"},
                    Receive("A", "snp"): {"w3", "w4"},
                    Receive("B", "sp"): {"w1", "w3"},
                    Receive("B", "snp"): {"w2", "w4"},
                },
            },
            partitions=None,
        )
        report = check_signal_uniqueness(broken)
        assert not report.ok
        offenders = {(i.receiver, i.viewer, i.state) for i in report.failures}
        assert ("A", "A", "w1") in offenders  # two signals
        assert ("A", "A", "w3") in offenders  # none

    def test_partition_consistency_flags_rewired_cells(self, weather_game):
        rewired = rebuild(
            weather_game,
            partitions={
                "A": [{"w1", "w3"}, {"w2", "w4"}],  # not what the signals say
                "B": [{"w1", "w3"}, {"w2", "w4"}],
            },
        )
        report = check_partition_consistency(rewired)
        assert not report.ok
        assert any(i.player == "A" for i in report.failures)

    def test_partition_consistency_without_stored_cells_is_a_note(self, weather_common):
        report = check_partition_consistency(weather_common)
        assert report.ok
        assert report.notes

    def test_action_uniqueness(self, coord, coord_game):
        report = check_action_uniqueness(coord)
        assert report.ok
        assert report.notes == ()  # every player acts in every state

        doubled = EpistemicStructure(
            coord_game,
            ["w", "wp"],
            {"w": F(1, 2), "wp": F(1, 2)},
            ["s", "sp"],
            (),
            {
                "1": {
                    Receive("1", "s"): {"w"},
                    Receive("1", "sp"): {"wp"},
                    Play("1", "U"): {"w", "wp"},
                    Play("1", "D"): {"wp"},
                },
                "2": {},
            },
        )
        report = check_action_uniqueness(doubled)
        assert not report.ok
        issue = report.failures[0]
        assert (issue.viewer, issue.state, issue.player) == ("1", "wp", "1")
        assert set(issue.actions) == {"U", "D"}

    def test_zero_action_states_are_only_notes(self, weather):
        report = check_action_uniqueness(weather)
        assert report.ok
        assert len(report.notes) == 16  # 2 viewers x 2 players x 4 states

    def test_cell_positivity(self, weather_game):
        thin = rebuild(weather_game, prior={"w1": F(1, 2), "w2": F(1, 2)})
        report = check_cell_positivity(thin)
        assert not report.ok
        assert [(i.player, set(i.cell)) for i in report.failures] == [
            ("A", {"w3", "w4"})
        ]

    def test_signal_definitions_catch_mismatches(self, weather_game):
        twisted = rebuild(
            weather_game,
            signal_defs={"sp": Prim("q"), "snp": None},
        )
        report = check_signal_definitions(twisted)
        assert not report.ok
        assert {(i.player, i.signal) for i in report.failures} == {
            ("A", "sp"),
            ("B", "sp"),
        }
        assert report.notes  # the undefined signal is mentioned

    def test_common_interpretation_detection(self, weather, weather_common, cycle, coord):
        assert not is_common_interpretation(weather)
        assert is_common_interpretation(weather_common)
        assert is_common_interpretation(cycle)
        assert not is_common_interpretation(coord)

    def test_rationality_passes_on_the_fixtures(self, cycle, coord):
        assert check_rationality(cycle).ok
        assert check_rationality(coord).ok

    def test_rationality_reports_the_better_action(self, coord_game):
        # player 1 keeps playing U at wp although she sees 2 switching to R
        stubborn = EpistemicStructure(
            coord_game,
            ["w", "wp"],
            {"w": F(1, 2), "wp": F(1, 2)},
            ["s", "sp"],
            (),
            {
                "1": {
                    Receive("1", "s"): {"w"},
                    Receive("1", "sp"): {"wp"},
                    Receive("2", "s"): {"w"},
                    Receive("2", "sp"): {"wp"},
                    Play("1", "U"): {"w", "wp"},
                    Play("2", "L"): {"w"},
                    Play("2", "R"): {"wp"},
                },
                "2": {
                    Receive("1", "s"): {"w"},
                    Receive("1", "sp"): {"wp"},
                    Receive("2", "s"): {"w"},
                    Receive("2", "sp"): {"wp"},
                    Play("1", "U"): {"w"},
                    Play("1", "D"): {"wp"},
                    Play("2", "L"): {"w"},
                    Play("2", "R"): {"wp"},
                },
            },
        )
        report = check_rationality(stubborn)
        assert not report.ok
        assert len(report.failures) == 1
        issue = report.failures[0]
        assert (issue.player, issue.state) == ("1", "wp")
        assert issue.played == "U"
        assert issue.better == "D"
        assert issue.gap == 1
