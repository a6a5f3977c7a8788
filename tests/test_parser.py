"""Surface syntax: parsing, diagnostics and print round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambicoord import (
    And,
    Belief,
    CommonBelief,
    Game,
    Implies,
    MutualBelief,
    Not,
    Optimal,
    ParseError,
    Play,
    Prim,
    ProbGe,
    Rationality,
    Receive,
    UnknownIdentifierError,
    parse_formula,
    parse_instance,
)
from ambicoord.parser import MAX_DEPTH

GAME = Game(
    ["A", "B"],
    {"A": ("stay",), "B": ("stay",)},
    {("stay", "stay"): (0, 0)},
)
SIGNALS = ("sp", "snp")
ATOMS = ("p", "q")


def parse(text, signals=SIGNALS, atoms=ATOMS):
    return parse_formula(text, GAME, signals, atoms)


P = Prim("p")
Q = Prim("q")


class TestShapes:
    def test_precedence(self):
        assert parse("!p & q -> p") == Implies(And(Not(P), Q), P)
        assert parse("p -> q -> p") == Implies(P, Implies(Q, P))
        assert parse("!(p & q)") == Not(And(P, Q))
        assert parse("p & q & p") == And(And(P, Q), P)

    def test_belief_body_as_explicit_inequalities(self):
        got = parse("pr_1(p) >= 1 & -1*pr_1(p) >= -1")
        assert got == And(
            ProbGe("A", ((Fraction(1), P),), Fraction(1)),
            ProbGe("A", ((Fraction(-1), P),), Fraction(-1)),
        )

    def test_linear_combinations(self):
        got = parse("2*pr_A(p) - 1/2*pr_A(q) >= 1/3")
        assert got == ProbGe(
            "A", ((Fraction(2), P), (Fraction(-1, 2), Q)), Fraction(1, 3)
        )

    def test_operators(self):
        assert parse("B_A(B_B(p))") == Belief("A", Belief("B", P))
        assert parse("EB(p)") == MutualBelief(1, P)
        assert parse("EB^3(p & q)") == MutualBelief(3, And(P, Q))
        assert parse("CB(p)") == CommonBelief(P)
        assert parse("rat_A") == Rationality("A")
        assert parse("opt_B(stay)") == Optimal("B", "stay")
        assert parse("pl(A,stay) & rec(B,snp)") == And(
            Play("A", "stay"), Receive("B", "snp")
        )

    def test_players_resolve_by_position_too(self):
        assert parse("pl(1,stay)") == Play("A", "stay")
        assert parse("B_2(p)") == Belief("B", P)
        assert parse("pr_2(p) >= 0") == ProbGe("B", ((Fraction(1), P),), Fraction(0))

    def test_open_vocabulary(self):
        assert parse("mystery", atoms=None) == Prim("mystery")
        assert parse("rec(A,beep)", signals=None) == Receive("A", "beep")

    def test_instance_restriction(self):
        assert parse_instance("pl(A,stay)", GAME) == Play("A", "stay")
        with pytest.raises(ParseError):
            parse_instance("B_A(p)", GAME, SIGNALS, ATOMS)


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,pos",
        [
            ("p &", 3),
            ("(p", 2),
            ("pl(A)", 4),
            ("pr_A(p) >= ", 11),
            ("EB^0(p)", 3),
            ("B_(p)", 2),
            ("p q", 2),
            ("pr_A(p) + pr_B(p) >= 1", 10),
            ("pr_A(p) >= 1/0", 13),
        ],
    )
    def test_error_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos
        assert f"column {pos + 1}" in str(err.value)

    @pytest.mark.parametrize(
        "text,pos,digits",
        [
            ("EB^" + "9" * 5000 + "(p)", 3, 5000),
            ("9" * 5000 + "*pr_A(p) >= 1", 0, 5000),
            ("pr_A(p) >= 1/" + "7" * 4400, 13, 4400),
            ("pr_A(p) >= -" + "9" * 5000, 12, 5000),
        ],
        ids=["EB order", "coefficient", "denominator", "bound"],
    )
    def test_integers_too_long_to_convert(self, text, pos, digits):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos
        assert str(err.value) == f"integer of {digits} digits is too long at column {pos + 1}"

    def test_player_positions_of_any_length(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("B_" + "9" * 5000 + "(p)")
        assert (err.value.kind, err.value.position) == ("player", 2)

    @pytest.mark.parametrize(
        "text,kind,pos",
        [
            ("pl(C,stay)", "player", 3),
            ("pl(3,stay)", "player", 3),
            ("pl(A,run)", "action", 5),
            ("rec(A,zz)", "signal", 6),
            ("zz", "atom", 0),
            ("rat_X", "player", 4),
        ],
    )
    def test_unknown_identifiers(self, text, kind, pos):
        with pytest.raises(UnknownIdentifierError) as err:
            parse(text)
        assert err.value.kind == kind
        assert err.value.position == pos

    @pytest.mark.parametrize(
        "shape, over",
        [
            # the token at level MAX_DEPTH + 1: the leaf, or the 101st "!"
            (lambda k: "!" * (k - 1) + "p", lambda k: k - 1),
            (lambda k: "(" * (k - 1) + "p" + ")" * (k - 1), lambda k: k - 1),
            (lambda k: "p -> " * (k - 1) + "p", lambda k: 5 * (k - 1)),
            # a left-nested chain: the "&" that makes it one level too deep
            (lambda k: "p & " * (k - 1) + "p", lambda k: 4 * (k - 2) + 2),
            (lambda k: "pr_A(" * (k - 1) + "p" + ") >= 1" * (k - 1), lambda k: 5 * (k - 1)),
        ],
        ids=["not", "parens", "implies", "and", "prob"],
    )
    def test_nesting_is_bounded(self, shape, over):
        at_limit = parse(shape(MAX_DEPTH))
        assert parse(str(at_limit)) == at_limit
        with pytest.raises(ParseError) as err:
            parse(shape(MAX_DEPTH + 1))
        assert err.value.position == over(MAX_DEPTH + 1)
        assert f"nested more than {MAX_DEPTH} levels" in str(err.value)

    def test_a_depth_refusal_reads_no_further(self):
        """The parser reads tokens only as it needs them, so what it refuses
        at the depth limit is refused after O(MAX_DEPTH) tokens, before the
        fault a million characters on."""
        with pytest.raises(ParseError) as err:
            parse("!" * 10**6 + "#")
        assert str(err.value) == f"formula nested more than {MAX_DEPTH} levels deep at column {MAX_DEPTH + 1}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p q #", "unexpected trailing input 'q' at column 3 (expected end of input)"),
            ("p # q r", "unexpected character '#' at column 3"),
            ("pl(A,run) & #", "unknown action 'run' at column 6"),
            ("zz & p $", "unknown atom 'zz' at column 1"),
            ("p & (q #", "unexpected character '#' at column 8"),
        ],
    )
    def test_the_first_fault_in_reading_order_is_reported(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_expected_hints_are_attached(self):
        with pytest.raises(ParseError) as err:
            parse("p &")
        assert err.value.expected
        with pytest.raises(ParseError) as err:
            parse("p q")
        assert "end of input" in err.value.expected


# ----------------------------------------------------------- random round-trip

RT_GAME = Game(
    ["1", "2"],
    {"1": ("U", "D"), "2": ("L", "R")},
    {
        ("U", "L"): (1, 1),
        ("U", "R"): (0, 0),
        ("D", "L"): (0, 0),
        ("D", "R"): (1, 1),
    },
)
RT_SIGNALS = ("s", "sp")
RT_ATOMS = ("p", "q")

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_players = st.sampled_from(RT_GAME.players)

_leaves = st.one_of(
    st.sampled_from(RT_ATOMS).map(Prim),
    st.sampled_from(
        [Play(p, a) for p in RT_GAME.players for a in RT_GAME.actions_of(p)]
    ),
    st.sampled_from([Receive(p, s) for p in RT_GAME.players for s in RT_SIGNALS]),
)


def _extend(children):
    probge = st.builds(
        lambda owner, terms, bound: ProbGe(owner, tuple(terms), bound),
        _players,
        st.lists(st.tuples(_rationals, children), min_size=1, max_size=3),
        _rationals,
    )
    opt = st.builds(
        lambda p, k: Optimal(p, RT_GAME.actions_of(p)[k]),
        _players,
        st.integers(min_value=0, max_value=1),
    )
    return st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: And(*t)),
        st.tuples(children, children).map(lambda t: Implies(*t)),
        st.tuples(_players, children).map(lambda t: Belief(*t)),
        st.tuples(st.integers(min_value=1, max_value=3), children).map(
            lambda t: MutualBelief(*t)
        ),
        children.map(CommonBelief),
        probge,
        opt,
        _players.map(Rationality),
    )


formula_trees = st.recursive(_leaves, _extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(formula_trees)
def test_print_parse_round_trip(f):
    text = str(f)
    assert parse_formula(text, RT_GAME, RT_SIGNALS, RT_ATOMS) == f

