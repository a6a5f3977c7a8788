"""Exact simplex: known optima, failure modes, degenerate inputs."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ambicoord import Game, lp, solve_ce
from ambicoord.lp import CertificateError, Infeasible, maximize
from ambicoord.rationals import scaled
from helpers import random_game, random_objective
from oracle import naive_certificate_holds, naive_lp

F = Fraction


def _textbook_pivot(tab, basis, nonbasic, obj, d, r, col):
    """The fraction-free pivot of the textbook (Edmonds 1967, Bareiss 1968)
    on a condensed tableau, kept apart from `lp._pivot` as its reference.
    With p = tab[r][col] > 0, every other row, obj included, becomes
    (p*a - f*b) / d, which must divide exactly, with -f in column col; the
    pivot row gets d in column col; basis[r] and nonbasic[col] swap labels.
    Every row is written in place.  Returns p, the new denominator."""
    prow = tab[r]
    p = prow[col]
    assert p > 0
    for row in (*tab, obj):
        if row is prow:
            continue
        f = row[col]
        for j, (a, b) in enumerate(zip(row, prow)):
            q, rest = divmod(p * a - f * b, d)
            assert rest == 0
            row[j] = q
        row[col] = -f
    prow[col] = d
    basis[r], nonbasic[col] = nonbasic[col], basis[r]
    return p


def _textbook_dual_pivot(tab, basis, nonbasic, obj, d, r, col):
    """The dual simplex's pivot on tab[r][col] < 0 by the textbook update:
    negate row r, so that its pivot is positive and its basic variable reads
    -basis[r], pivot, and negate column col, which turns that back."""
    tab[r] = [-v for v in tab[r]]
    d = _textbook_pivot(tab, basis, nonbasic, obj, d, r, col)
    for row in (*tab, obj):
        row[col] = -row[col]
    return d


def _general(c, rows):
    """The LP `maximize(c, rows)` solves, as (eq_rows, ge_rows) pairs of
    (row, right-hand side), the form the oracle reads."""
    return [([1] * len(c), 1)], [(a, 0) for a in rows]


def _vertex(c, rows):
    """x and the duals y of the vertex `maximize` reaches on c and each row
    scaled to integers by the lcm of its denominators, as Fractions of the
    caller's LP.  `maximize` returns the numerators of x and of the integer
    LP's duals over one denominator d; a row scaled by s, with c scaled by
    t, has t / s times the caller's dual."""
    cost, t = scaled(c)
    ints = [scaled(a) for a in rows]
    d, x, y = maximize(cost, [a for a, _ in ints])
    scales = [1] + [s for _, s in ints]
    return [F(v, d) for v in x], [F(v * s, d * t) for v, s in zip(y, scales)]


def _solve(c, rows):
    """(value, x) of the caller's LP at that vertex, as Fractions: the value
    is the simplex row's dual, which the certificate proves equal to c.x."""
    x, y = _vertex(c, rows)
    return y[0], x


def test_equality_constraints():
    # the probability simplex alone: all weight on the best column, in one
    # pivot on an entry 1, so over the denominator 1
    assert maximize([1, 0], []) == (1, [1, 0], [1])


def test_infeasible():
    # both columns held at 0, so the simplex row cannot hold
    with pytest.raises(Infeasible):
        maximize([1, 2], [[-1, 0], [0, -1]])


def test_no_profile_is_infeasible():
    # an empty simplex: sum(x) == 1 has no solution in no variables
    for rows in ([], [[]]):
        with pytest.raises(Infeasible):
            maximize([], rows)


def test_fractional_data_stays_exact():
    # 2/5 x0 >= 3/5 x1 caps x1 at 2/5, where the better ratio stops
    value, x = _solve([F(1, 7), F(1, 3)], [[F(2, 5), F(-3, 5)]])
    assert x == [F(3, 5), F(2, 5)]
    assert value == F(23, 105)


def test_row_length_mismatch_is_rejected():
    with pytest.raises(ValueError):
        maximize([1], [[1, 1]])
    with pytest.raises(ValueError):
        maximize([], [[1]])


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
            value, x = _solve(c, rows)
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
    "vertex, message",
    [
        ((2, [-1, 1], [1, -1, 0]), "negative entry"),
        ((3, [1, 1], [1, -1, 0]), "violates row 0"),
        ((2, [1, 1], [1, -1, 1]), "positive on a >= row"),
        ((2, [1, 1], [0, -1, 0]), "violates column 0"),
        ((2, [1, 1], [2, -1, 0]), "objective values differ"),
        ((0, [1, 1], [1, -1, 0]), "not positive"),
        ((2, [1, 1], [1, -1]), "wrong shape"),
        ((2, [0, 2], [1, -1, 0]), "violates row 1"),
    ],
)
def test_maximize_proves_every_vertex_it_returns(monkeypatch, vertex, message):
    # the LP of test_duals_are_read_off_exactly in integers has the vertex
    # x = (1, 1) / 2 and y = (1, -1, 0) / 2.  One x numerator, dual or d
    # changed, or a dual dropped, breaks one condition, and maximize names it
    # instead of returning.
    c, rows = [0, 1], [[1, -1], [0, 1]]
    assert maximize(c, rows) == (2, [1, 1], [1, -1, 0])
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
        x, y = _vertex(c, rows)
    except Infeasible:
        return ("infeasible",)
    assert naive_certificate_holds(c, *_general(c, rows), x, y)
    return ("optimal", y[0])


@st.composite
def _ce_shaped_lps(draw):
    """The shape `solve_ce` builds: rows a.x >= 0 over the probability
    simplex, and columns that are zero in every row.  The entries mix ints
    with Fractions; `_vertex` scales c and each row to integers, each by the
    lcm of its denominators, as `solve_ce` does, before `maximize` sees
    them."""
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
@given(_ce_shaped_lps(), st.lists(st.integers(1, 5), min_size=3, max_size=3), st.integers(1, 5))
def test_scaling_a_row_or_the_objective_keeps_the_vertex(problem, factors, m):
    # a row times a positive integer is the same inequality, so the optimum
    # stays; c times m > 0 leaves every pivot choice as it is, so the vertex
    # stays and the optimum is m times as large
    c, rows = problem
    cost, ints = scaled(c)[0], [scaled(a)[0] for a in rows]

    def solved(c, rows):
        try:
            d, x, y = maximize(c, rows)
        except Infeasible:
            return None
        return F(y[0], d), [F(v, d) for v in x]

    base = solved(cost, ints)
    times = solved(cost, [[k * v for v in a] for k, a in zip(factors, ints)])
    tilted = solved([m * v for v in cost], ints)
    if base is None:
        assert times is None and tilted is None
    else:
        assert times[0] == base[0]
        assert tilted == (m * base[0], base[1])


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
        x, y = _vertex(c, rows)
        assert naive_certificate_holds(c, *_general(c, rows), x, y)
    assert pivots > 0


def _full_start(c, rows, col):
    """[tab, basis, nonbasic, obj, d] of the full tableau, every row negated
    so that its surplus is basic, after the artificial's pivot on (0, col),
    made by the textbook pivot."""
    n, art = len(c), len(c) + len(rows)
    full = [[[1] * (n + 1), *([-v for v in a] + [0] for a in rows)], [art, *range(n, art)], list(range(n)), [*c, 0], 1]
    full[4] = _textbook_pivot(*full, 0, col)
    return full


def test_dual_pivots_start_at_the_best_profile_then_follow_dantzig_or_bland(monkeypatch):
    # The CE LPs as `solve_ce` passes them take the dual path.  It starts at
    # the largest cost: the first tied column that no row blocks (a negative
    # entry), else the smallest tied label, on the tableau that the
    # artificial's pivot there, on the full tableau with every row negated,
    # leaves, less each row whose rhs is then at least 0.  Then the most
    # negative rhs leaves, the earlier row among ties, or right after a pivot
    # whose entering reduced cost is 0 the negative row with the smallest
    # basic label, and the column minimizing obj/row over the row's negative
    # entries enters, ties going to the smallest label; artificials never
    # enter.  The leaving row reaches `_pivot` as it stands, its pivot
    # negative.
    problems = _degenerate_ce_lps(monkeypatch, 200)
    real_dual, real = lp._dual, lp._pivot
    state = dict.fromkeys(["nash", "label", "dantzig", "bland", "ratio", "tie"], 0)

    def started(rows, tab, basis, nonbasic, obj):
        c = state["c"]
        top = max(c)
        tied = [j for j, v in enumerate(c) if v == top]
        unblocked = [j for j in tied if all(a[j] >= 0 for a in rows)]
        full, full_basis, full_nonbasic, full_obj, d = _full_start(c, rows, (unblocked or tied)[0])
        assert d == 1
        kept = [i for i, row in enumerate(full) if i == 0 or row[-1] < 0]
        assert tab == [full[i] for i in kept] and basis == [full_basis[i] for i in kept]
        assert (nonbasic, obj) == (full_nonbasic, full_obj)
        if unblocked and unblocked[0] != tied[0]:
            state["nash"] += 1
        elif not unblocked and len(tied) > 1:
            state["label"] += 1
        return real_dual(rows, tab, basis, nonbasic, obj)

    def checked(tab, basis, nonbasic, obj, d, r, col):
        entering = [var < state["art0"] for var in nonbasic]
        assert all(v <= 0 for v, e in zip(obj, entering) if e)  # dual feasible
        negative = [i for i, row in enumerate(tab) if row[-1] < 0]
        choices = {"dantzig": min(negative, key=lambda i: tab[i][-1]), "bland": min(negative, key=basis.__getitem__)}
        rule = "bland" if state["degenerate"] else "dantzig"
        assert r == choices[rule]
        if choices["dantzig"] != choices["bland"]:
            state[rule] += 1
        row = tab[r]
        eligible = [j for j, (v, e) in enumerate(zip(row[:-1], entering)) if v < 0 and e]
        least = min(F(obj[j], row[j]) for j in eligible)
        ties = [j for j in eligible if F(obj[j], row[j]) == least]
        assert col == min(ties, key=nonbasic.__getitem__)
        if col != min(eligible, key=nonbasic.__getitem__):
            state["ratio"] += 1
        if col != ties[0]:
            state["tie"] += 1
        state["degenerate"] = obj[col] == 0
        return real(tab, basis, nonbasic, obj, d, r, col)

    monkeypatch.setattr(lp, "_dual", started)
    monkeypatch.setattr(lp, "_pivot", checked)
    for c, rows in problems:
        state.update(c=c, degenerate=False, art0=len(c) + len(rows))
        maximize(c, rows)
    # each branch was put to the test where it disagrees with the others
    assert all(state[k] > 0 for k in ("nash", "label", "dantzig", "bland", "ratio", "tie")), state


def _traced_solves(monkeypatch, problems, check=None):
    """Solve each (c, rows), calling check(tab, basis, nonbasic, obj, d, r,
    col, run) before every pivot.  `run` holds the solve's c, rows and
    pivots so far, the rows the tableau holds (each written row's surplus
    label, n + k, is basic or nonbasic), the rows violated at some vertex
    met before the pivot, and the rows the first pivot saw.  Returns each
    solve's (d, x, y) and its last `run`."""
    real = lp._pivot
    runs = []

    def traced(tab, basis, nonbasic, obj, d, r, col):
        run = runs[-1]
        n = len(run["c"])
        labels = {var - n for var in (*basis, *nonbasic)}
        run["held"] = {k for k in range(len(run["rows"])) if k in labels}
        # the vertex: every row, tab[r] included, arrives as it stands
        x = [0] * n
        for row, var in zip(tab, basis):
            if var < n:
                x[var] = row[-1]
        run["violated"] |= {k for k, a in enumerate(run["rows"]) if sum(map(operator.mul, a, x)) < 0}
        run.setdefault("start", run["held"])
        if check:
            check(tab, basis, nonbasic, obj, d, r, col, run)
        run["pivots"] += 1
        return real(tab, basis, nonbasic, obj, d, r, col)

    monkeypatch.setattr(lp, "_pivot", traced)
    solved = []
    for c, rows in problems:
        runs.append(dict(c=c, rows=rows, pivots=0, held=set(), violated=set()))
        solved.append(maximize(c, rows))
    return list(zip(solved, runs))


def test_a_row_enters_the_tableau_only_once_a_vertex_violates_it(monkeypatch):
    # The start holds the rows that x = e_col violates; a row enters later
    # only where no rhs held is negative and the vertex violates it
    def check(tab, basis, nonbasic, obj, d, r, col, run):
        assert run["held"] <= run["violated"]

    runs = [run for _, run in _traced_solves(monkeypatch, _degenerate_ce_lps(monkeypatch, 200), check)]
    assert any(run["pivots"] and len(run["held"]) < len(run["rows"]) for run in runs)


def test_a_row_written_mid_solve_is_the_full_tableau_row(monkeypatch):
    # The same pivots on the full tableau, every row negated and the
    # artificial pivoted out at the start column, each made by the textbook
    # update rather than by `lp._pivot`, hold every row the lazy tableau
    # holds, in row order and with the same integers, the rows written
    # mid-solve included; so each folded update (q*a + f*b) / d, with q the
    # negated pivot, and q*a / d where f is 0, still divides exactly
    mid = 0

    def check(tab, basis, nonbasic, obj, d, r, col, run):
        nonlocal mid
        c, rows = run["c"], run["rows"]
        if "full" not in run:
            run["full"] = _full_start(c, rows, nonbasic.index(len(c) + len(rows)))
        ftab, fbasis, fnonbasic, fobj, fd = full = run["full"]
        kept = [0, *(k + 1 for k in sorted(run["held"]))]
        assert tab == [ftab[i] for i in kept]
        assert basis == [fbasis[i] for i in kept]
        assert (nonbasic, obj, d) == (fnonbasic, fobj, fd)
        prow = tab[r]
        q = -prow[col]
        for row in (*tab, obj):
            if row is not prow:
                assert all((q * a + row[col] * b) % d == 0 for a, b in zip(row, prow))
        mid += bool(run["held"] - run["start"])
        # the same pivot on the full tableau, by the textbook update
        full[4] = _textbook_dual_pivot(*full, fbasis.index(basis[r]), col)

    _traced_solves(monkeypatch, _degenerate_ce_lps(monkeypatch, 200), check)
    assert mid > 0


def test_a_row_never_written_has_dual_zero(monkeypatch):
    # its surplus stays basic, as in the full tableau, so its dual is 0
    never = 0
    for (d, x, y), run in _traced_solves(monkeypatch, _degenerate_ce_lps(monkeypatch, 200)):
        for k in set(range(len(run["rows"]))) - run["held"]:
            assert y[k + 1] == 0
            never += 1
    assert never > 0


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


def test_a_pure_nash_profile_solves_with_no_dual_pivot(monkeypatch):
    # With no objective every column ties for the start, and the first one
    # that no incentive row blocks is a pure Nash profile: a profile's column
    # is negative in an incentive row exactly where its player gains by
    # deviating.  The solve starts there, every row holds at that vertex, so
    # none is written in, and the solve ends with no dual pivot.
    rng = random.Random(11)
    seen = {2: 0, 3: 0}
    for _ in range(80):
        game = random_game(rng)
        if _has_pure_nash(game):
            pivots, dist = _ce_pivots(monkeypatch, game, {})
            assert pivots == 0
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
