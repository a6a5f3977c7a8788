"""Exact simplex: known optima, failure modes, degenerate inputs."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ambicoord import Game, lp, solve_ce
from ambicoord.lp import CertificateError, Infeasible, check_certificate, maximize
from ambicoord.rationals import scaled
from helpers import random_game, random_objective
from oracle import naive_certificate_holds, naive_lp

F = Fraction


def _general(c, rows):
    """The LP `maximize(c, rows)` solves, as (eq_rows, ge_rows) pairs of
    (row, right-hand side), the form `check_certificate` and the oracle
    read."""
    return [([1] * len(c), 1)], [(a, 0) for a in rows]


def _vertex(c, rows):
    """x and the duals y of the vertex `maximize(c, rows)` reaches, as
    Fractions of the caller's LP.  `lp._simplex` solves c and each row
    scaled to integers by the lcm of its denominators, and returns the
    numerators of x and of that integer LP's duals over one denominator d;
    a row scaled by s, with c scaled by t, has t / s times the caller's
    dual."""
    cost, t = scaled(c)
    ints = [scaled(a) for a in rows]
    x, y, d = lp._simplex(cost, [a for a, _ in ints])
    scales = [1] + [s for _, s in ints]
    return [F(v, d) for v in x], [F(v * s, d * t) for v, s in zip(y, scales)]


def test_equality_constraints():
    # the probability simplex alone: all weight on the best column
    value, x = maximize([F(1), F(0)], [])
    assert value == 1
    assert x == [F(1), F(0)]


def test_infeasible():
    # both columns held at 0, so the simplex row cannot hold
    with pytest.raises(Infeasible):
        maximize([F(1), F(2)], [[F(-1), F(0)], [F(0), F(-1)]])


def test_no_profile_is_infeasible():
    # an empty simplex: sum(x) == 1 has no solution in no variables
    for rows in ([], [[]]):
        with pytest.raises(Infeasible):
            maximize([], rows)


def test_fractional_data_stays_exact():
    # 2/5 x0 >= 3/5 x1 caps x1 at 2/5, where the better ratio stops
    value, x = maximize([F(1, 7), F(1, 3)], [[F(2, 5), F(-3, 5)]])
    assert x == [F(3, 5), F(2, 5)]
    assert value == F(23, 105)


def test_row_length_mismatch_is_rejected():
    with pytest.raises(ValueError):
        maximize([F(1)], [[F(1), F(1)]])
    with pytest.raises(ValueError):
        maximize([], [[F(1)]])


def _probability_lps(rng, count):
    """Random LPs over a probability simplex with extra rows a.x >= 0."""
    for _ in range(count):
        n = rng.randint(1, 4)
        c = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        yield c, rows


def test_solutions_satisfy_their_constraints_exactly():
    solved = 0
    for c, rows in _probability_lps(random.Random(4242), 40):
        try:
            value, x = maximize(c, rows)
        except Infeasible:
            continue
        solved += 1
        assert all(v >= 0 for v in x)
        assert sum(x) == 1
        for a in rows:
            assert sum(ai * xi for ai, xi in zip(a, x)) >= 0
        assert sum(ci * xi for ci, xi in zip(c, x)) == value
    assert solved > 20


def test_duals_are_read_off_exactly():
    # max x1 s.t. x0 + x1 == 1, x0/2 - x1/2 >= 0, x1 >= 0: the optimum is
    # (1/2, 1/2), where the first row binds and the second is slack (y2 = 0).
    # Both columns are basic, so their dual rows are tight:
    # y0 + y1/2 == 0 and y0 - y1/2 + y2 == 1, so y0 = 1/2, y1 = -1; and
    # b.y = y0 is the value.  The half-scaled row doubles its dual.
    c, rows = [F(0), F(1)], [[F(1, 2), F(-1, 2)], [0, 1]]
    x, y = _vertex(c, rows)
    assert x == [F(1, 2), F(1, 2)]
    assert y == [F(1, 2), F(-1), F(0)]
    assert naive_certificate_holds(c, *_general(c, rows), x, y)


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


@pytest.mark.parametrize(
    "vertex, message",
    [
        (([-1, 1], [1, -1, 0], 2), "negative entry"),
        (([1, 1], [1, -1, 0], 3), "violates row 0"),
        (([1, 1], [1, -1, 1], 2), "positive on a >= row"),
        (([1, 1], [0, -1, 0], 2), "violates column 0"),
        (([1, 1], [2, -1, 0], 2), "objective values differ"),
        (([1, 1], [1, -1, 0], 0), "not positive"),
    ],
)
def test_maximize_proves_every_vertex_it_returns(monkeypatch, vertex, message):
    # the LP of test_duals_are_read_off_exactly in integers has the vertex
    # x = (1, 1) / 2 and y = (1, -1, 0) / 2.  One x numerator, dual or d
    # changed breaks one condition, and maximize names it instead of
    # returning.
    c, rows = [F(0), F(1)], [[F(1, 2), F(-1, 2)], [0, 1]]
    assert lp._simplex([0, 1], [[1, -1], [0, 1]]) == ([1, 1], [1, -1, 0], 2)
    monkeypatch.setattr(lp, "_simplex", lambda c, rows: vertex)
    with pytest.raises(CertificateError, match=message):
        maximize(c, rows)


def test_certificate_holds_on_random_instances(monkeypatch):
    rng = random.Random(2024)
    problems = list(_probability_lps(rng, 60))
    real = lp.maximize

    def recording(c, rows):
        problems.append((c, rows))
        return real(c, rows)

    monkeypatch.setattr(lp, "maximize", recording)
    for _ in range(40):
        game = random_game(rng)
        solve_ce(game, random_objective(rng, game))
    assert len(problems) == 100
    for c, rows in problems:
        try:
            x, y = _vertex(c, rows)
        except Infeasible:
            continue
        assert naive_certificate_holds(c, *_general(c, rows), x, y)


_RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


def _outcome(c, rows):
    try:
        value, x = maximize(c, rows)
    except Infeasible:
        return ("infeasible",)
    x, y = _vertex(c, rows)
    assert naive_certificate_holds(c, *_general(c, rows), x, y)
    return ("optimal", value)


@st.composite
def _ce_shaped_lps(draw):
    """The shape `solve_ce` builds: rows a.x >= 0 over the probability
    simplex, and columns that are zero in every row.  `solve_ce` passes ints
    only; the entries here mix ints with Fractions, so a drawn row takes
    either the int-only path or scaling."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entries = st.one_of(st.just(0), _RATIONALS)
    rows = [[0 if j in zero else draw(entries) for j in range(n)] for _ in range(draw(st.integers(0, 3)))]
    return draw(st.lists(entries, min_size=n, max_size=n)), rows


@settings(max_examples=300, deadline=None)
@given(_ce_shaped_lps())
# fixed cases: a row that no column can lift off its negative rhs; no row,
# so the start column is the answer; and every cost tied, the first two
# columns blocked and the third not
@example(([F(0)], [[-1]]))
@example(([2, 5, 5, -1], []))
@example(([F(3, 2)] * 3, [[-1, 1, 0], [0, -1, 1]]))
def test_ce_shaped_lps_agree_with_the_vertex_oracle(problem):
    c, rows = problem
    assert _outcome(c, rows) == naive_lp(c, *_general(c, rows))


@settings(max_examples=200, deadline=None)
@given(_ce_shaped_lps())
def test_scaling_a_row_or_the_objective_keeps_the_vertex(problem):
    # maximize scales each row and c by the lcm of its denominators; handing
    # it those int rows and int c is the same LP, with c.x times c's scale
    c, rows = problem
    cost, t = scaled(c)
    outcomes = []
    for args in ((c, rows), (cost, [scaled(a)[0] for a in rows])):
        try:
            outcomes.append(maximize(*args))
        except Infeasible:
            outcomes.append(None)
    if outcomes[0] is None:
        assert outcomes[1] is None
    else:
        (value, x), (int_value, int_x) = outcomes
        assert int_x == x and int_value == value * t


def _tied_game(rng):
    """2-3 players with 2-3 actions and payoffs in {0, 1}: many incentive
    rows are equal or zero, so the CE vertices are highly degenerate."""
    players = ("alice", "bob", "carol")[: rng.randint(2, 3)]
    actions = {p: ("a1", "a2", "a3")[: rng.randint(2, 3)] for p in players}
    payoffs = {a: tuple(rng.randint(0, 1) for _ in players) for a in itertools.product(*actions.values())}
    return Game(players, actions, payoffs)


def _degenerate_ce_lps(monkeypatch, count):
    """(c, rows) of `count` seeded solves of tied games, as `solve_ce`
    passes them to `lp.maximize`."""
    problems = []
    real = lp.maximize

    def recording(c, rows):
        problems.append((c, rows))
        return real(c, rows)

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
            raise AssertionError("over 10,000 pivots: the pivot rules cycle")
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    for c, rows in problems:
        value, x = maximize(c, rows)
        assert naive_certificate_holds(c, *_general(c, rows), x, _vertex(c, rows)[1])
    assert pivots > 0


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
    for c, rows in problems:
        state.update(start=True, degenerate=False, art0=len(c) + len(rows))
        maximize(c, rows)
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
    pivots = 0
    real = lp._pivot

    def pivot(*args):
        nonlocal pivots
        pivots += 1
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot", pivot)
        dist = solve_ce(game, objective)
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

    def recording(c, rows):
        problems.append((c, rows))
        return real(c, rows)

    monkeypatch.setattr(lp, "maximize", recording)
    for game in (pennies, cycle_game):
        assert not _has_pure_nash(game)
        for objective in ({}, {a: F(k) for k, a in enumerate(game.profiles())}):
            pivots, dist = _ce_pivots(monkeypatch, game, objective)
            assert pivots > 1 and dist.total() == 1
    assert len(problems) == 4
    for c, rows in problems:
        x, y = _vertex(c, rows)
        assert naive_certificate_holds(c, *_general(c, rows), x, y)


def test_the_certificate_reads_only_its_arguments():
    # the vertex of one problem proves nothing about another, whatever the
    # solver scaled last
    c, rows = [F(0), F(1)], [[F(1, 2), F(-1, 2)], [0, 1]]
    eq, ge = _general(c, rows)
    x, y = _vertex(c, rows)
    assert check_certificate(c, eq, ge, x, y) == F(1, 2)
    halved = [([F(v) / 2 for v in a], b) for a, b in ge]
    assert check_certificate(c, eq, halved, x, y[:1] + [2 * v for v in y[1:]]) == F(1, 2)
    # x1 <= 2 x0 still holds at x, but no longer binds hard enough for y
    loosened = [([F(1, 2), F(-1, 4)], 0)] + ge[1:]
    with pytest.raises(CertificateError, match="violates column 1"):
        check_certificate(c, eq, loosened, x, y)
    c2, ge2 = [F(2), F(3)], [([F(-1), F(-2)], F(-4)), ([F(-3), F(-1)], F(-6))]
    assert check_certificate(c2, (), ge2, [F(8, 5), F(6, 5)], [F(-7, 5), F(-1, 5)]) == F(34, 5)
