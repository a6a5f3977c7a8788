"""Coordination strategies: validity, self-enforcement, induced play."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from ambicoord import (
    CoordinationStrategy,
    Distribution,
    EpistemicStructure,
    Implies,
    Play,
    PreconditionError,
    Receive,
    SchemaError,
    as_formulas,
    check_self_enforcing,
    check_strategy_valid,
    from_objective_ce,
    induce,
    verify_induced_equilibrium,
)
from ambicoord import coordination
from ambicoord.coordination import AUDITS, run_audits
from ambicoord.reports import Report
from test_audit_oracle import DAMAGES, _damaged, devices  # noqa: F401 (a fixture)

F = Fraction


def coord_variant(coord_game, payoffs=None, strategy_table=None):
    """The two-state ambiguous-recommendation structure, locally rebuilt."""
    game = coord_game
    if payoffs is not None:
        from ambicoord import Game

        game = Game(game.players, game.actions, payoffs)
    m = EpistemicStructure(
        game,
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
                Play("1", "U"): {"w"},
                Play("1", "D"): {"wp"},
                Play("2", "L"): {"w"},
                Play("2", "R"): {"wp"},
            },
            "2": {
                Receive("1", "s"): {"w", "wp"},
                Receive("2", "s"): {"w", "wp"},
                Play("1", "U"): {"w", "wp"},
                Play("2", "L"): {"w", "wp"},
            },
        },
        {"1": [{"w"}, {"wp"}], "2": [{"w", "wp"}]},
    )
    table = strategy_table or {"1": {"s": "U", "sp": "D"}, "2": {"s": "L", "sp": "R"}}
    return m, CoordinationStrategy(("1", "2"), ("s", "sp"), table)


class TestStrategyObject:
    def test_table_must_be_total(self):
        with pytest.raises(SchemaError):
            CoordinationStrategy(("1", "2"), ("s", "sp"), {"1": {"s": "U"}, "2": {}})

    @pytest.mark.parametrize(
        "table, message",
        [
            (
                {"1": {"s": "U", "t": "D"}, "2": {"s": "L"}, "3": {"s": "X"}},
                "strategy: keys must be exactly the players",
            ),
            ({"1": {"s": "U", "t": "D"}, "2": {"s": "L"}}, "strategy: player '1' must map exactly the declared signals"),
            ({"1": {"s": "U"}, "2": {}}, "strategy: player '2' must map exactly the declared signals"),
        ],
        ids=["extra-player", "extra-signal", "missing-signal"],
    )
    def test_table_maps_exactly_the_players_and_signals(self, table, message):
        """An entry the strategy does not declare is refused, not kept."""
        with pytest.raises(SchemaError) as exc:
            CoordinationStrategy(("1", "2"), ("s",), table)
        assert exc.value.args == (message,)

    def test_serialization(self, coord_game, coord_strategy):
        data = coord_strategy.to_dict()
        assert data == {"1": {"s": "U", "sp": "D"}, "2": {"s": "L", "sp": "R"}}
        back = CoordinationStrategy.from_dict(data, coord_game, ("s", "sp"))
        assert back == coord_strategy

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("1"),
            lambda d: d.update({"3": {"s": "U", "sp": "U"}}),
            lambda d: d["1"].pop("s"),
            lambda d: d["1"].update({"s": "L"}),  # not an action of player 1
            lambda d: d["1"].update({"zz": "U"}),
        ],
    )
    def test_from_dict_rejects_malformed_tables(self, coord_game, mutate):
        data = {"1": {"s": "U", "sp": "D"}, "2": {"s": "L", "sp": "R"}}
        mutate(data)
        with pytest.raises(SchemaError):
            CoordinationStrategy.from_dict(data, coord_game, ("s", "sp"))

    def test_action_lookup(self, coord_strategy):
        assert coord_strategy.action("1", "sp") == "D"


class TestAsFormulas:
    def test_one_conditional_per_player_and_signal(self, coord_strategy):
        fs = as_formulas(coord_strategy)
        assert len(fs) == 4
        assert fs[0] == Implies(Receive("1", "s"), Play("1", "U"))
        assert fs[1] == Implies(Receive("1", "sp"), Play("1", "D"))
        assert fs[2] == Implies(Receive("2", "s"), Play("2", "L"))
        assert fs[3] == Implies(Receive("2", "sp"), Play("2", "R"))


class TestValidity:
    def test_fixtures_follow_their_recommendations(
        self, cycle, cycle_strategy, coord, coord_strategy
    ):
        assert check_strategy_valid(cycle, cycle_strategy).ok
        assert check_strategy_valid(coord, coord_strategy).ok

    def test_disobedience_is_located(self, coord_game):
        m, c = coord_variant(
            coord_game, strategy_table={"1": {"s": "D", "sp": "D"}, "2": {"s": "L", "sp": "R"}}
        )
        report = check_strategy_valid(m, c)
        assert not report.ok
        issue = report.failures[0]
        assert issue.viewer == "1"
        assert issue.state == "w"
        assert issue.formula == Implies(Receive("1", "s"), Play("1", "D"))


class TestSelfEnforcement:
    def test_fixtures_are_self_enforcing(
        self, cycle, cycle_strategy, coord, coord_strategy
    ):
        assert check_self_enforcing(cycle, cycle_strategy).ok
        assert check_self_enforcing(coord, coord_strategy).ok

    def test_unprofitable_recommendations_fail_the_optimality_conjunct(self, coord_game):
        # second player prefers R whenever the first one goes U
        payoffs = {
            ("U", "L"): (1, 0),
            ("U", "R"): (0, 1),
            ("D", "L"): (0, 0),
            ("D", "R"): (1, 0),
        }
        m, c = coord_variant(coord_game, payoffs=payoffs)
        report = check_self_enforcing(m, c)
        assert not report.ok
        got = {(i.player, i.state, i.conjunct) for i in report.failures}
        assert ("2", "w", "optimal") in got
        assert ("2", "wp", "optimal") in got

    def test_not_playing_the_recommendation_fails_the_plays_conjunct(self, coord_game):
        m, c = coord_variant(
            coord_game, strategy_table={"1": {"s": "U", "sp": "D"}, "2": {"s": "R", "sp": "R"}}
        )
        report = check_self_enforcing(m, c)
        assert not report.ok
        issue = report.failures[0]
        assert (issue.player, issue.state, issue.conjunct) == ("2", "w", "plays")
        assert issue.signal == "s"
        assert issue.action == "R"

    def test_ambiguous_reception_fails_the_signal_conjunct(self, coord_game):
        # stored partitions stay intact, so evaluation still works; only the
        # second player's own signal rows become contradictory at wp
        m, c = coord_variant(coord_game)
        data = m.to_dict()
        data["interpretation"]["2"]["rec(2,sp)"] = ["wp"]  # now wp carries both
        broken = EpistemicStructure.from_dict(data, coord_game)
        report = check_self_enforcing(broken, c)
        assert not report.ok
        assert any(
            (i.player, i.state, i.conjunct) == ("2", "wp", "signal")
            for i in report.failures
        )


class TestStrategyErrors:
    """A strategy the structure cannot read is refused once, with
    PreconditionError and one text, by both strategy audits, by
    `verify_induced_equilibrium`, and by `run_audits` before its first step."""

    READERS = (check_strategy_valid, check_self_enforcing, verify_induced_equilibrium)

    def _refused(self, m, strategy, message):
        for audit in self.READERS:
            with pytest.raises(PreconditionError) as exc:
                audit(m, strategy)
            assert str(exc.value) == message, audit.__name__
        yielded = []
        with pytest.raises(PreconditionError) as exc:
            for label, _ in run_audits(m, strategy, [step.label for step in AUDITS]):
                yielded.append(label)
        assert str(exc.value) == message and yielded == []

    def test_a_signal_the_strategy_does_not_map(self, coord):
        # the undeclared signal is refused before player 1's missing s
        strategy = CoordinationStrategy(("1", "2"), ("zz",), {"1": {"zz": "U"}, "2": {"zz": "L"}})
        self._refused(coord, strategy, "formula references undeclared signal 'zz'")

    def test_an_undeclared_action(self, coord):
        strategy = CoordinationStrategy(
            ("1", "2"), ("s", "sp"), {"1": {"s": "nope", "sp": "D"}, "2": {"s": "L", "sp": "R"}}
        )
        self._refused(coord, strategy, "'nope' is not an action of player '1'")

    def test_a_player_the_game_lacks(self, coord):
        table = {"1": {"s": "U", "sp": "D"}, "2": {"s": "L", "sp": "R"}, "3": {"s": "X", "sp": "Y"}}
        strategy = CoordinationStrategy(("1", "2", "3"), ("s", "sp"), table)
        for audit in (*self.READERS, lambda m, c: list(run_audits(m, c, [step.label for step in AUDITS]))):
            with pytest.raises(KeyError) as exc:
                audit(coord, strategy)
            assert exc.value.args == ("unknown player '3'",)

    @pytest.mark.parametrize(
        "signals, table, message",
        [
            (
                ("s", "zz"),
                {"1": {"s": "nope", "zz": "U"}, "2": {"s": "L", "zz": "L"}},
                "formula references undeclared signal 'zz'",
            ),
            (("s",), {"1": {"s": "nope"}, "2": {"s": "L"}}, "'nope' is not an action of player '1'"),
            (("s",), {"1": {"s": "U"}, "2": {"s": "nope"}}, "strategy has no entry for ('1', 'sp')"),
            (("sp",), {"1": {"sp": "D"}, "2": {"sp": "R"}}, "strategy has no entry for ('1', 's')"),
        ],
        ids=["undeclared-signal-first", "signal-s-before-sp", "player-1-before-player-2", "missing-entry"],
    )
    def test_refusals_come_in_a_fixed_order(self, coord, signals, table, message):
        """Undeclared signals first, then player by player in game order and
        signal by signal in declared order, whatever the states say."""
        self._refused(coord, CoordinationStrategy(("1", "2"), signals, table), message)


class TestInduce:
    def test_cycle_induces_the_uniform_device(self, cycle, cycle_ce):
        assert induce(cycle, "1") == cycle_ce
        assert induce(cycle, "2") == cycle_ce

    def test_coord_viewers_disagree(self, coord):
        assert induce(coord, "1") == Distribution(
            {("U", "L"): F(1, 2), ("D", "R"): F(1, 2)}
        )
        assert induce(coord, "2") == Distribution({("U", "L"): F(1)})

    def test_induce_needs_visible_actions(self, weather):
        with pytest.raises(PreconditionError):
            induce(weather, "A")


class TestVerify:
    def test_cycle_verifies_as_objective(self, cycle, cycle_strategy, cycle_ce):
        result = verify_induced_equilibrium(cycle, cycle_strategy)
        assert result.ok
        assert result.kind == "objective"
        assert result.ce_ok is True
        assert result.problems == ()
        assert result.distributions["1"] == cycle_ce
        assert result.distributions["2"] == cycle_ce
        assert result.ce_report is not None and result.ce_report.ok

    def test_coord_verifies_as_subjective(self, coord, coord_strategy):
        result = verify_induced_equilibrium(coord, coord_strategy)
        assert result.ok
        assert result.kind == "subjective"
        assert result.ce_ok is True
        assert result.distributions["2"] == Distribution({("U", "L"): F(1)})

    def test_the_strategy_is_read_once_per_call(self, monkeypatch, cycle, cycle_strategy, coord, coord_strategy):
        # verify hands its audit chain's one read to both strategy steps;
        # each public strategy audit reads for itself
        reads, real = [], coordination.read_strategy
        monkeypatch.setattr(coordination, "read_strategy", lambda m, c: reads.append(c) or real(m, c))
        for m, strategy in ((cycle, cycle_strategy), (coord, coord_strategy)):
            for audit in (verify_induced_equilibrium, check_strategy_valid, check_self_enforcing):
                reads.clear()
                audit(m, strategy)
                assert reads == [strategy]

    def test_an_audited_structure_is_freed_by_reference_counting(self, cycle_game, cycle_ce):
        # the structure keeps the evaluators' memo but holds no evaluator,
        # so nothing it holds points back at it
        built = from_objective_ce(cycle_game, cycle_ce)
        m, strategy = built.structure, built.strategy
        del built
        ref = weakref.ref(m)
        gc.disable()
        try:
            assert verify_induced_equilibrium(m, strategy).ok
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_structural_damage_is_reported_not_raised(self, coord_game):
        m, c = coord_variant(coord_game)
        data = m.to_dict()
        data["interpretation"]["2"]["rec(2,sp)"] = ["wp"]
        broken = EpistemicStructure.from_dict(data, coord_game)
        result = verify_induced_equilibrium(broken, c)
        assert not result.ok
        assert result.problems
        assert any("signal uniqueness" in p for p in result.problems)


class TestAuditChain:
    def test_a_readable_strategy_meets_only_reports_and_skips(self, devices):
        """What `run_audits` no longer guards against: over every device,
        fixture and damage of the oracle tests, with the strategy read by
        `from_dict` as the command line reads it, every step of AUDITS
        yields a Report, or None when a step it needs failed."""
        rng = random.Random(4242)
        outcomes = set()
        for label, game, data, strategy in devices:
            for kind, case in [("intact", data)] + [(kind, _damaged(data, kind, rng)) for kind in DAMAGES]:
                if case is None:
                    continue
                m = EpistemicStructure.from_dict(case, game)
                c = CoordinationStrategy.from_dict(strategy.to_dict(), game, m.signals)
                for step, outcome in run_audits(m, c, [step.label for step in AUDITS]):
                    assert outcome is None or isinstance(outcome, Report), (label, kind, step)
                    outcomes.add(None if outcome is None else outcome.ok)
        assert outcomes == {None, True, False}
