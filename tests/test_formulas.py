"""Formula construction, canonical printing and expansion to the core."""

import dataclasses
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from ambicoord import (
    And,
    Belief,
    CommonBelief,
    Formula,
    Game,
    Implies,
    MutualBelief,
    Not,
    Optimal,
    Play,
    Prim,
    ProbGe,
    Rationality,
    Receive,
    conj,
    expand,
    optimality_core,
)
from ambicoord import formulas
from ambicoord.errors import PreconditionError, SchemaError
from ambicoord.structures import EpistemicStructure
from conftest import load_fixture
from helpers import random_formula, random_game

P = Prim("p")
Q = Prim("q")


@pytest.fixture(scope="module")
def game():
    return Game(
        ["1", "2"],
        {"1": ("U", "D"), "2": ("L", "R")},
        {
            ("U", "L"): (1, 1),
            ("U", "R"): (0, 0),
            ("D", "L"): (0, 0),
            ("D", "R"): (1, 1),
        },
    )


class TestPrinting:
    def test_atoms(self):
        assert str(P) == "p"
        assert str(Play("1", "U")) == "pl(1,U)"
        assert str(Receive("2", "s")) == "rec(2,s)"

    def test_conjunction_chains_print_flat(self):
        assert str(And(And(P, Q), P)) == "p & q & p"
        # a right-nested chain is a different tree and keeps its parens
        assert str(And(P, And(Q, P))) == "p & (q & p)"

    def test_negation_binds_tighter_than_and(self):
        assert str(And(Not(P), Q)) == "!p & q"
        assert str(Not(And(P, Q))) == "!(p & q)"
        assert str(Not(Not(P))) == "!!p"

    def test_implication_is_right_associative(self):
        assert str(Implies(P, Implies(Q, P))) == "p -> q -> p"
        assert str(Implies(Implies(P, Q), P)) == "(p -> q) -> p"
        assert str(Implies(And(P, Q), P)) == "p & q -> p"

    def test_probability_terms(self):
        assert str(ProbGe("1", ((Fraction(1), P),), Fraction(1))) == "pr_1(p) >= 1"
        f = ProbGe("1", ((Fraction(2), P), (Fraction(-1, 2), Q)), Fraction(1, 3))
        assert str(f) == "2*pr_1(p) - 1/2*pr_1(q) >= 1/3"
        g = ProbGe("1", ((Fraction(-1), P), (Fraction(1), Q)), Fraction(0))
        assert str(g) == "-1*pr_1(p) + pr_1(q) >= 0"

    def test_operator_sugar(self):
        assert str(Belief("1", P)) == "B_1(p)"
        assert str(MutualBelief(1, P)) == "EB(p)"
        assert str(MutualBelief(3, P)) == "EB^3(p)"
        assert str(CommonBelief(P)) == "CB(p)"
        assert str(Optimal("1", "U")) == "opt_1(U)"
        assert str(Rationality("2")) == "rat_2"


class TestNodes:
    def test_probge_coerces_and_rejects_empty(self):
        f = ProbGe("1", ((1, P),), 1)
        assert f.terms[0][0] == Fraction(1)
        assert isinstance(f.terms[0][0], Fraction)
        assert isinstance(f.bound, Fraction)
        with pytest.raises(ValueError):
            ProbGe("1", (), 0)

    def test_mutual_belief_order_must_be_positive(self):
        with pytest.raises(ValueError):
            MutualBelief(0, P)
        # a bool is an int to Python, but no order: EB(p) would print for True
        with pytest.raises(ValueError) as err:
            MutualBelief(True, P)
        assert err.value.args == ("mutual-belief order must be a positive int, got True",)

    def test_conj(self):
        assert conj([P]) == P
        assert conj([P, Q, P]) == And(And(P, Q), P)
        with pytest.raises(ValueError):
            conj([])

    def test_nodes_compare_by_content(self):
        assert Prim("p") == Prim("p")
        assert Prim("p") != Play("p", "p")
        assert hash(Receive("1", "s")) == hash(Receive("1", "s"))


class TestExpansion:
    def test_core_nodes_pass_through(self, game):
        for f in (P, Play("1", "U"), Receive("2", "s"), Not(P), And(P, Q)):
            assert expand(f, game) == f

    def test_implication(self, game):
        assert expand(Implies(P, Q), game) == Not(And(P, Not(Q)))

    def test_belief_is_a_two_sided_bound(self, game):
        assert expand(Belief("1", P), game) == And(
            ProbGe("1", ((Fraction(1), P),), Fraction(1)),
            ProbGe("1", ((Fraction(-1), P),), Fraction(-1)),
        )

    def test_sugar_inside_core_nodes_is_rewritten(self, game):
        out = expand(And(P, Belief("1", Q)), game)
        assert out == And(P, expand(Belief("1", Q), game))
        out = expand(ProbGe("1", ((Fraction(1), Implies(P, Q)),), Fraction(1)), game)
        assert out == ProbGe("1", ((Fraction(1), Not(And(P, Not(Q)))),), Fraction(1))

    def test_mutual_belief_order_one(self, game):
        assert expand(MutualBelief(1, P), game) == And(
            expand(Belief("1", P), game), expand(Belief("2", P), game)
        )

    def test_mutual_belief_unrolls_one_level(self, game):
        out = expand(MutualBelief(2, P), game)
        inner = MutualBelief(1, P)
        assert out == And(
            expand(Belief("1", inner), game), expand(Belief("2", inner), game)
        )

    def test_optimality_rows_cover_the_whole_action_set(self, game):
        # payoff gains for keeping U against each opponent action, hand-checked
        rows = expand(Optimal("1", "U"), game)
        zero = ProbGe(
            "1",
            ((Fraction(0), Play("2", "L")), (Fraction(0), Play("2", "R"))),
            Fraction(0),
        )
        against_d = ProbGe(
            "1",
            ((Fraction(1), Play("2", "L")), (Fraction(-1), Play("2", "R"))),
            Fraction(0),
        )
        assert rows == And(zero, against_d)
        assert optimality_core("1", "U", game) == rows

    def test_rationality_conjoins_per_action_clauses(self, game):
        out = expand(Rationality("1"), game)
        clauses = [
            expand(Implies(Play("1", a), Optimal("1", a)), game)
            for a in ("U", "D")
        ]
        assert out == And(clauses[0], clauses[1]) or out == conj(clauses)

    def test_optimality_needs_an_opponent(self):
        # a game without one is refused when it is built, so no core lacks one
        with pytest.raises(SchemaError) as err:
            Game(["1"], {"1": ("a", "b")}, {("a",): (0,), ("b",): (0,)})
        assert err.value.args == ("need at least 2 players, got 1",)

    def test_expansion_is_idempotent(self, game):
        battery = [
            Implies(P, Q),
            Belief("1", Belief("2", P)),
            MutualBelief(2, P),
            CommonBelief(Implies(P, Q)),
            Rationality("1"),
            Optimal("2", "L"),
            ProbGe("2", ((Fraction(1, 2), Belief("1", P)),), Fraction(1, 2)),
        ]
        for f in battery:
            once = expand(f, game)
            assert expand(once, game) == once


def _random_formulas(seed: int, count: int):
    """(game, formula) pairs over random games, signals s1, s2 and atoms p, q."""
    rng = random.Random(seed)
    for _ in range(count):
        game = random_game(rng)
        yield game, random_formula(rng, game, ("s1", "s2"), ("p", "q"), depth=rng.randint(0, 4))


def _distinct_nodes(f: Formula) -> int:
    """The number of distinct node objects under f, f included."""
    distinct, todo = set(), [f]
    while todo:
        node = todo.pop()
        if id(node) in distinct:
            continue
        distinct.add(id(node))
        todo += [v for v in vars(node).values() if isinstance(v, Formula)]
        todo += [sub for _, sub in getattr(node, "terms", ())]
    return len(distinct)


def _tree_text(f: Formula, need: int = formulas._IMP) -> str:
    """f printed as a tree: each node laid out again wherever it recurs."""
    pieces, level = formulas._layout(f)
    text = "".join(p if isinstance(p, str) else _tree_text(*p) for p in pieces)
    return f"({text})" if level < need else text


class TestSharedExpansion:
    def test_agrees_with_the_unrolled_definition(self):
        for game, f in _random_formulas(11, 150):
            assert expand(f, game) == oracle.expand_sugar(f, game)

    def test_deep_mutual_belief_builds_each_level_once(self, game):
        out = expand(MutualBelief(2000, P), game)
        # per level: the conjunction of two beliefs, each two inequalities
        assert _distinct_nodes(out) == 2000 * 7 + 1

    def test_prints_each_shared_node_once(self, game, monkeypatch):
        out = expand(MutualBelief(2, And(Rationality("1"), Rationality("2"))), game)
        text = _tree_text(out)
        calls = 0
        layout = formulas._layout

        def counted(f):
            nonlocal calls
            calls += 1
            return layout(f)

        monkeypatch.setattr(formulas, "_layout", counted)
        assert str(out) == text
        assert calls <= _distinct_nodes(out)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_a_shared_expansion_prints_as_its_tree(seed, depth):
    # `str` lays out each distinct node once, and the text is the tree's,
    # as an expansion that shares no node prints it
    rng = random.Random(seed)
    game = random_game(rng)
    f = random_formula(rng, game, ("s1", "s2"), ("p", "q"), depth)
    out = expand(f, game)
    assert str(out) == _tree_text(out) == str(oracle.expand_sugar(f, game))


class TestExpandedLength:
    def test_is_the_length_of_the_printed_expansion(self):
        rng = random.Random(5)
        for game, f in _random_formulas(12, 200):
            out = expand(f, game)
            size = len(str(out))
            assert expand(f, game, size) == out
            with pytest.raises(PreconditionError, match=f"would print more than {size - 1} characters"):
                expand(f, game, size - 1)
            limit = rng.randint(0, 2 * size)
            if size > limit:
                with pytest.raises(PreconditionError):
                    expand(f, game, limit)
            else:
                assert expand(f, game, limit) == out

    def test_stops_once_past_the_limit(self, game):
        start = time.perf_counter()
        with pytest.raises(PreconditionError):
            expand(MutualBelief(10**9, P), game, 10**6)
        nested = P
        for _ in range(40):
            nested = Belief("1", nested)
        with pytest.raises(PreconditionError):
            expand(nested, game, 10**6)
        assert time.perf_counter() - start < 1


class TestHashing:
    def test_hashing_is_linear_in_depth(self, monkeypatch):
        """`holds` keys its memo by each sub-formula; a hash that walked the
        whole subtree each time would make a d-deep chain cost O(d^2)."""
        calls = {}
        field_hash = Not.__hash__

        def counting(self):
            calls[depth] += 1
            return field_hash(self)

        monkeypatch.setattr(Not, "__hash__", counting)
        data = load_fixture("weather_structure.json")
        game = Game.from_dict(load_fixture("weather_game.json"))
        for depth in (50, 100):
            calls[depth] = 0
            f = P
            for _ in range(depth):
                f = Not(f)
            m = EpistemicStructure.from_dict(data, game)
            m.evaluator().intension_mask("A", f)
        assert calls[100] <= 10 * 100
        assert calls[100] <= 2.5 * calls[50]

    def test_kept_hash_is_invisible(self):
        f = ProbGe("1", ((Fraction(1, 2), Not(P)),), Fraction(1, 3))
        before = (repr(f), str(f), dataclasses.fields(f), dataclasses.asdict(f))
        h = hash(f)
        assert (repr(f), str(f), dataclasses.fields(f), dataclasses.asdict(f)) == before
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and hash(copy) == h
        # the kept hash, salted per process, does not travel in a pickle
        assert vars(pickle.loads(pickle.dumps(f))).keys() == {fd.name for fd in dataclasses.fields(f)}
        assert dataclasses.replace(f, bound=Fraction(1, 3)) == f
