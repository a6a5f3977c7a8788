"""Exact simplex: known optima, failure modes, degenerate inputs."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ambicoord import Game, lp, solve_ce
from ambicoord.lp import CertificateError, Infeasible, Unbounded, check_certificate, maximize
from helpers import random_game, random_objective
from oracle import naive_certificate_holds, naive_lp

F = Fraction


def test_simplex_on_a_plain_vertex_problem():
    # max 2x+3y s.t. x+2y <= 4, 3x+y <= 6; optimum at the intersection
    value, x = maximize(
        [F(2), F(3)],
        ge_rows=[([F(-1), F(-2)], F(-4)), ([F(-3), F(-1)], F(-6))],
    )
    assert value == F(34, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_equality_constraints():
    value, x = maximize([F(1), F(0)], eq_rows=[([F(1), F(1)], F(1))])
    assert value == 1
    assert x == [F(1), F(0)]


def test_redundant_equalities_are_tolerated():
    row = ([F(1), F(1)], F(1))
    value, x = maximize([F(0), F(1)], eq_rows=[row, row, row])
    assert value == 1
    assert x == [F(0), F(1)]


def test_infeasible():
    with pytest.raises(Infeasible):
        maximize([F(1)], ge_rows=[([F(1)], F(1)), ([F(-1)], F(0))])


def test_unbounded():
    with pytest.raises(Unbounded):
        maximize([F(1), F(1)], ge_rows=[([F(1), F(0)], F(0))])


def test_degenerate_vertex_terminates():
    # three constraints meet at the origin; Bland's rule must not cycle
    value, x = maximize(
        [F(1), F(1)],
        ge_rows=[
            ([F(-1), F(0)], F(0)),
            ([F(0), F(-1)], F(0)),
            ([F(-1), F(-1)], F(0)),
        ],
    )
    assert value == 0
    assert x == [F(0), F(0)]
    # Beale (1955): the largest-coefficient rule cycles on it from the origin
    value, x = maximize(
        [F(3, 4), F(-20), F(1, 2), F(-6)],
        ge_rows=[
            ([F(-1, 4), F(8), F(1), F(-9)], F(0)),
            ([F(-1, 2), F(12), F(1, 2), F(-3)], F(0)),
            ([F(0), F(0), F(-1), F(0)], F(-1)),
        ],
    )
    assert value == F(5, 4)
    assert x == [F(1), F(0), F(1), F(0)]


def test_fractional_data_stays_exact():
    value, x = maximize(
        [F(1, 3), F(1, 7)],
        eq_rows=[([F(2, 5), F(3, 5)], F(1))],
    )
    # putting all weight on the better ratio: x0 = 5/2
    assert x == [F(5, 2), F(0)]
    assert value == F(5, 6)


def test_row_length_mismatch_is_rejected():
    with pytest.raises(ValueError):
        maximize([F(1)], eq_rows=[([F(1), F(1)], F(1))])


def _probability_lps(rng, count):
    """Random LPs over a probability simplex with extra >= rows."""
    for _ in range(count):
        n = rng.randint(1, 4)
        c = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        eq = [([F(1)] * n, F(1))]
        ge = [
            ([F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(-3, 0)))
            for _ in range(rng.randint(0, 3))
        ]
        yield c, eq, ge


def test_solutions_satisfy_their_constraints_exactly():
    for c, eq, ge in _probability_lps(random.Random(4242), 40):
        try:
            value, x = maximize(c, eq_rows=eq, ge_rows=ge)
        except Infeasible:
            continue
        assert all(v >= 0 for v in x)
        assert sum(x) == 1
        for a, b in ge:
            assert sum(ai * xi for ai, xi in zip(a, x)) >= b
        assert sum(ci * xi for ci, xi in zip(c, x)) == value


def test_duals_are_read_off_exactly():
    # max 2x+3y s.t. x+2y <= 4, 3x+y <= 6: both rows bind at (8/5, 6/5)
    c = [F(2), F(3)]
    ge = [([F(-1), F(-2)], F(-4)), ([F(-3), F(-1)], F(-6))]
    x, y = lp._simplex(c, (), ge)
    assert x == [F(8, 5), F(6, 5)]
    assert y == [F(-7, 5), F(-1, 5)]


@pytest.mark.parametrize(
    "x, y, message",
    [
        ([F(0), F(2)], [F(-7, 5), F(-1, 5)], "objective values differ"),
        ([F(8, 5), F(7, 5)], [F(-7, 5), F(-1, 5)], "violates row 0"),
        ([F(-1), F(2)], [F(-7, 5), F(-1, 5)], "negative entry"),
        ([F(8, 5), F(6, 5)], [F(-7, 5), F(1, 5)], "positive on a >= row"),
        ([F(8, 5), F(6, 5)], [F(-7, 5), F(0)], "violates column 0"),
        ([F(8, 5), F(6, 5)], [F(-7, 5)], "wrong shape"),
    ],
)
def test_corrupted_certificates_are_rejected(x, y, message):
    c = [F(2), F(3)]
    ge = [([F(-1), F(-2)], F(-4)), ([F(-3), F(-1)], F(-6))]
    assert check_certificate(c, (), ge, [F(8, 5), F(6, 5)], [F(-7, 5), F(-1, 5)]) == F(34, 5)
    with pytest.raises(CertificateError, match=message):
        check_certificate(c, (), ge, x, y)


def test_certificate_holds_on_random_instances(monkeypatch):
    rng = random.Random(2024)
    problems = list(_probability_lps(rng, 60))
    real = lp.maximize

    def recording(c, eq_rows, ge_rows):
        problems.append((c, eq_rows, ge_rows))
        return real(c, eq_rows, ge_rows)

    monkeypatch.setattr(lp, "maximize", recording)
    for _ in range(40):
        game = random_game(rng)
        solve_ce(game, random_objective(rng, game))
    assert len(problems) == 100
    for c, eq, ge in problems:
        try:
            x, y = lp._simplex(c, eq, ge)
        except Infeasible:
            continue
        assert naive_certificate_holds(c, eq, ge, x, y)


_RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _small_lps(draw):
    """At most 4 variables and 4 rows, fractional data, >= rows of either
    sign and equalities that may repeat an earlier one scaled (possibly by a
    negative factor) or add two earlier ones, so some are redundant."""
    n = draw(st.integers(0, 4))
    row = st.lists(_RATIONALS, min_size=n, max_size=n)
    eq = draw(st.lists(st.tuples(row, _RATIONALS), max_size=3))
    ge = draw(st.lists(st.tuples(row, _RATIONALS), max_size=4 - len(eq)))
    if eq and len(eq) + len(ge) < 4:
        (a, b), (a2, b2) = draw(st.sampled_from(eq)), draw(st.sampled_from(eq))
        k = draw(_RATIONALS.filter(bool))
        eq.append(
            draw(
                st.sampled_from(
                    [([k * v for v in a], k * b), ([u + v for u, v in zip(a, a2)], b + b2)]
                )
            )
        )
    eq = draw(st.permutations(eq))
    return draw(row), eq, ge


def _outcome(c, eq, ge):
    try:
        value, x = maximize(c, eq, ge)
    except Infeasible:
        return ("infeasible",)
    except Unbounded:
        return ("unbounded",)
    x, y = lp._simplex(c, eq, ge)
    assert naive_certificate_holds(c, eq, ge, x, y)
    return ("optimal", value)


@settings(max_examples=200, deadline=None)
@given(_small_lps())
# zero-level artificials left after phase 1: one is driven out by a negative
# pivot, and the other's row is then redundant and deleted
@example(([F(1), F(0)], [([F(1), F(-1)], F(0)), ([F(-1), F(1)], F(0))], [([F(-1), F(0)], F(-3))]))
def test_maximize_agrees_with_the_vertex_oracle(problem):
    c, eq, ge = problem
    assert _outcome(c, eq, ge) == naive_lp(c, eq, ge)


@st.composite
def _ce_shaped_lps(draw):
    """The shape `solve_ce` builds: one `=` row (the probability simplex),
    `>=` rows with right-hand side 0, and columns that are zero in every
    `>=` row.  `solve_ce` passes ints only; the entries here mix ints with
    Fractions, so a drawn row takes either the int-only path or scaling."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entries = st.one_of(st.just(0), _RATIONALS)
    ge = [
        ([0 if j in zero else draw(entries) for j in range(n)], 0)
        for _ in range(draw(st.integers(0, 3)))
    ]
    return draw(st.lists(entries, min_size=n, max_size=n)), [([1] * n, 1)], ge


@settings(max_examples=300, deadline=None)
@given(_ce_shaped_lps())
# the dual path's fixed cases: a row that no column can lift off its
# negative rhs; no `>=` row, so the start column is the answer; and every
# cost tied, the first two columns blocked and the third not
@example(([F(0)], [([1], 1)], [([-1], 0)]))
@example(([2, 5, 5, -1], [([1, 1, 1, 1], 1)], []))
@example(([F(3, 2)] * 3, [([1, 1, 1], 1)], [([-1, 1, 0], 0), ([0, -1, 1], 0)]))
def test_ce_shaped_lps_agree_with_the_vertex_oracle(problem):
    c, eq, ge = problem
    assert _outcome(c, eq, ge) == naive_lp(c, eq, ge)


# Beale (1955), again: the largest-coefficient rule cycles on the textbook
# form of this LP.  Its rows are fractional, so the solver scales them to
# integers, which rescales their surplus variables and with them the reduced
# costs that rule compares; the rule-level test below pins the entering rule.
BEALE = (
    [F(3, 4), F(-20), F(1, 2), F(-6)],
    [
        ([F(-1, 4), F(8), F(1), F(-9)], F(0)),
        ([F(-1, 2), F(12), F(1, 2), F(-3)], F(0)),
        ([F(0), F(0), F(-1), F(0)], F(-1)),
    ],
)


def _tied_game(rng):
    """2-3 players with 2-3 actions and payoffs in {0, 1}: many incentive
    rows are equal or zero, so the CE vertices are highly degenerate."""
    players = ("alice", "bob", "carol")[: rng.randint(2, 3)]
    actions = {p: ("a1", "a2", "a3")[: rng.randint(2, 3)] for p in players}
    payoffs = {a: tuple(rng.randint(0, 1) for _ in players) for a in itertools.product(*actions.values())}
    return Game(players, actions, payoffs)


def _degenerate_ce_lps(monkeypatch, count):
    """(c, eq_rows, ge_rows) of `count` seeded solves of tied games, as
    `solve_ce` passes them to `lp.maximize`."""
    problems = []
    real = lp.maximize

    def recording(c, eq_rows, ge_rows):
        problems.append((c, eq_rows, ge_rows))
        return real(c, eq_rows, ge_rows)

    rng = random.Random(77)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "maximize", recording)
        for _ in range(count):
            game = _tied_game(rng)
            solve_ce(game, random_objective(rng, game))
    return problems


def test_every_solve_stops_within_a_pivot_budget(monkeypatch):
    problems = _degenerate_ce_lps(monkeypatch, 60)
    real = lp._pivot
    pivots = 0

    def counted(*args):
        nonlocal pivots
        pivots += 1
        if pivots > 10_000:
            raise AssertionError("over 10,000 pivots: the entering rule cycles")
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    c, ge = BEALE
    assert maximize(c, (), ge) == (F(5, 4), [F(1), F(0), F(1), F(0)])
    for c, eq, ge in problems:
        value, x = maximize(c, eq, ge)
        assert naive_certificate_holds(c, eq, ge, x, lp._simplex(c, eq, ge)[1])
    assert pivots > 0


def test_free_columns_enter_first_then_dantzig_then_bland(monkeypatch):
    # One phase only: Beale's rows and CE rows with the simplex written as
    # sum(x) <= 1 all start with their surplus basic, so every pivot comes
    # from the entering rule.  A column is free when no row of rhs 0 has a
    # positive entry in it.  The free column with the largest reduced cost
    # enters; with none free, the largest reduced cost, except right after a
    # degenerate pivot (leaving rhs 0), where the smallest label.
    problems = [BEALE] + [
        (c, [([-v for v in a], -b) for a, b in eq] + list(ge))
        for c, eq, ge in _degenerate_ce_lps(monkeypatch, 40)
    ]
    real = lp._pivot
    state = {"degenerate": False, "free": 0, "dantzig": 0, "bland": 0}

    def checked(tab, basis, nonbasic, objs, d, r, col):
        obj = objs[-1]
        eligible = [j for j, v in enumerate(obj[:-1]) if v > 0]
        free = [j for j in eligible if all(row[j] <= 0 for row in tab if row[-1] == 0)]
        choices = {
            "free": max(free, key=obj.__getitem__) if free else None,
            "dantzig": max(eligible, key=obj.__getitem__),
            "bland": min(eligible, key=nonbasic.__getitem__),
        }
        rule = "free" if free else "bland" if state["degenerate"] else "dantzig"
        assert col == choices[rule]
        if list(choices.values()).count(col) == 1:
            state[rule] += 1
        state["degenerate"] = tab[r][-1] == 0
        return real(tab, basis, nonbasic, objs, d, r, col)

    monkeypatch.setattr(lp, "_pivot", checked)
    for c, ge in problems:
        state["degenerate"] = False
        maximize(c, (), ge)
    # each branch was put to the test where it disagrees with the other two
    assert state["free"] > 0 and state["dantzig"] > 0 and state["bland"] > 0, state


def test_dual_pivots_start_at_the_best_profile_then_follow_dantzig_or_bland(monkeypatch):
    # The CE LPs as `solve_ce` passes them take the dual path.  The first
    # pivot takes row 0, the simplex row, out at the largest cost: the first
    # tied column that no row blocks (a positive entry; every other rhs is
    # 0), else the smallest tied label.  Then the most negative rhs leaves,
    # or right after a pivot whose entering reduced cost is 0 the negative
    # row with the smallest basic label, and the column minimizing obj/row
    # over the row's negative entries enters, ties going to the smallest
    # label; artificials never enter.  The leaving row reaches `_pivot`
    # negated, so that its pivot is positive.
    problems = _degenerate_ce_lps(monkeypatch, 200)
    real = lp._pivot
    state = dict.fromkeys(["nash", "label", "dantzig", "bland", "ratio", "tie"], 0)

    def checked(tab, basis, nonbasic, objs, d, r, col):
        assert len(objs) == 1  # no phase-1 row
        obj = objs[0]
        if state["start"]:
            top = max(obj[:-1])
            tied = [j for j, v in enumerate(obj[:-1]) if v == top]
            unblocked = [j for j in tied if all(row[j] <= 0 for row in tab[1:])]
            assert (r, col) == (0, (unblocked or tied)[0])
            if unblocked and unblocked[0] != tied[0]:
                state["nash"] += 1
            elif not unblocked and len(tied) > 1:
                state["label"] += 1
            state["start"] = False
            return real(tab, basis, nonbasic, objs, d, r, col)
        entering = [var < state["art0"] for var in nonbasic]
        assert all(v <= 0 for v, e in zip(obj, entering) if e)  # dual feasible
        rows = [[-v for v in row] if i == r else row for i, row in enumerate(tab)]
        negative = [i for i, row in enumerate(rows) if row[-1] < 0]
        choices = {"dantzig": min(negative, key=lambda i: rows[i][-1]), "bland": min(negative, key=basis.__getitem__)}
        rule = "bland" if state["degenerate"] else "dantzig"
        assert r == choices[rule]
        if choices["dantzig"] != choices["bland"]:
            state[rule] += 1
        row = rows[r]
        eligible = [j for j, (v, e) in enumerate(zip(row[:-1], entering)) if v < 0 and e]
        least = min(F(obj[j], row[j]) for j in eligible)
        ties = [j for j in eligible if F(obj[j], row[j]) == least]
        assert col == min(ties, key=nonbasic.__getitem__)
        if col != min(eligible, key=nonbasic.__getitem__):
            state["ratio"] += 1
        if col != ties[0]:
            state["tie"] += 1
        state["degenerate"] = obj[col] == 0
        return real(tab, basis, nonbasic, objs, d, r, col)

    monkeypatch.setattr(lp, "_pivot", checked)
    for c, eq, ge in problems:
        state.update(start=True, degenerate=False, art0=len(c) + len(ge))
        maximize(c, eq, ge)
    # each branch was put to the test where it disagrees with the others
    assert all(state[k] > 0 for k in ("nash", "label", "dantzig", "bland", "ratio", "tie")), state


def _is_pure_nash(game, a):
    """No player gains by deviating alone from profile a, read straight off
    the payoff table."""
    return all(
        game.payoffs[a][k] >= game.payoffs[a[:k] + (alt,) + a[k + 1:]][k]
        for k, p in enumerate(game.players)
        for alt in game.actions_of(p)
    )


def _has_pure_nash(game):
    return any(_is_pure_nash(game, a) for a in game.profiles())


def _ce_pivots(monkeypatch, game, objective):
    """The pivots that `solve_ce(game, objective)` makes, and its result."""
    runs, pivots = [], 0
    real_run, real_pivot = lp._run, lp._pivot

    def run(*args):
        runs.append(pivots)
        return real_run(*args)

    def pivot(*args):
        nonlocal pivots
        pivots += 1
        return real_pivot(*args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_run", run)
        patch.setattr(lp, "_pivot", pivot)
        dist = solve_ce(game, objective)
    # the CE LP takes the dual path: the primal loop never runs
    assert runs == []
    return pivots, dist


def test_a_pure_nash_profile_solves_in_one_pivot(monkeypatch):
    # With no objective every column ties for the start, and the first one
    # that no incentive row blocks is a pure Nash profile: a profile's column
    # is positive in a zero-rhs incentive row exactly where its player gains
    # by deviating.  The simplex row's artificial leaves there, no
    # right-hand side is then negative, and the solve ends.
    rng = random.Random(11)
    seen = {2: 0, 3: 0}
    for _ in range(80):
        game = random_game(rng)
        if _has_pure_nash(game):
            pivots, dist = _ce_pivots(monkeypatch, game, {})
            assert pivots == 1
            (profile,) = dist.support()
            assert _is_pure_nash(game, profile)
            seen[game.n] += 1
    assert seen[2] >= 10 and seen[3] >= 10, seen


def test_games_without_a_pure_nash_profile_still_solve(monkeypatch, cycle_game):
    pennies = Game(
        ("row", "col"),
        {"row": ("h", "t"), "col": ("h", "t")},
        {("h", "h"): (1, -1), ("h", "t"): (-1, 1), ("t", "h"): (-1, 1), ("t", "t"): (1, -1)},
    )
    problems = []
    real = lp.maximize

    def recording(c, eq_rows, ge_rows):
        problems.append((c, eq_rows, ge_rows))
        return real(c, eq_rows, ge_rows)

    monkeypatch.setattr(lp, "maximize", recording)
    for game in (pennies, cycle_game):
        assert not _has_pure_nash(game)
        for objective in ({}, {a: F(k) for k, a in enumerate(game.profiles())}):
            pivots, dist = _ce_pivots(monkeypatch, game, objective)
            assert pivots > 1 and dist.total() == 1
    assert len(problems) == 4
    for c, eq, ge in problems:
        x, y = lp._simplex(c, eq, ge)
        assert naive_certificate_holds(c, eq, ge, x, y)


def test_the_certificate_reads_only_its_arguments():
    # the vertex of one problem proves nothing about another, whatever the
    # solver scaled last
    c, ge = BEALE
    x, y = lp._simplex(c, (), ge)
    assert check_certificate(c, (), ge, x, y) == F(5, 4)
    halved = [([v / 2 for v in a], b / 2) for a, b in ge]
    assert check_certificate(c, (), halved, x, [2 * v for v in y]) == F(5, 4)
    loosened = ge[:2] + [([F(0), F(0), F(-1), F(0)], F(-2))]
    with pytest.raises(CertificateError, match="objective values differ"):
        check_certificate(c, (), loosened, x, y)
    c2, ge2 = [F(2), F(3)], [([F(-1), F(-2)], F(-4)), ([F(-3), F(-1)], F(-6))]
    assert check_certificate(c2, (), ge2, [F(8, 5), F(6, 5)], [F(-7, 5), F(-1, 5)]) == F(34, 5)
