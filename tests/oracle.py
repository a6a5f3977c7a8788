"""Slow reference implementations used to cross-check the fast evaluator.

Everything here recomputes from first principles: derived operators are
rewritten by a separate expansion pass, posteriors are taken state by state
with Fraction division, and the common-belief orbit walks explicit state
sets.  No memoization, no bitmasks, no sharing of evaluation code with the
package internals.

Only valid on structures whose stored partitions (if any) agree with the
signal-derived ones: cells are always regrouped from the owner's own
received-signal rows here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ambicoord.formulas import (
    And,
    Belief,
    CommonBelief,
    Formula,
    Implies,
    MutualBelief,
    Not,
    Optimal,
    Play,
    Prim,
    ProbGe,
    Rationality,
    Receive,
)


def expand_sugar(f: Formula, game) -> Formula:
    """Rewrite every derived operator into the core fragment."""
    if isinstance(f, (Prim, Play, Receive)):
        return f
    if isinstance(f, Not):
        return Not(expand_sugar(f.arg, game))
    if isinstance(f, And):
        return And(expand_sugar(f.left, game), expand_sugar(f.right, game))
    if isinstance(f, Implies):
        return Not(And(expand_sugar(f.left, game), Not(expand_sugar(f.right, game))))
    if isinstance(f, ProbGe):
        terms = tuple((c, expand_sugar(s, game)) for c, s in f.terms)
        return ProbGe(f.owner, terms, f.bound)
    if isinstance(f, Belief):
        body = expand_sugar(f.arg, game)
        lower = ProbGe(f.player, ((Fraction(1), body),), Fraction(1))
        upper = ProbGe(f.player, ((Fraction(-1), body),), Fraction(-1))
        return And(lower, upper)
    if isinstance(f, MutualBelief):
        inner = f.arg if f.order == 1 else MutualBelief(f.order - 1, f.arg)
        return _conj([expand_sugar(Belief(p, inner), game) for p in game.players])
    if isinstance(f, Optimal):
        return _optimal(f.player, f.action, game)
    if isinstance(f, Rationality):
        clauses = [
            expand_sugar(Implies(Play(f.player, a), Optimal(f.player, a)), game)
            for a in game.actions_of(f.player)
        ]
        return _conj(clauses)
    if isinstance(f, CommonBelief):
        return CommonBelief(expand_sugar(f.arg, game))
    raise TypeError(f"unknown node {type(f).__name__}")


def _conj(parts):
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def _optimal(player: str, action: str, game) -> Formula:
    others = [p for p in game.players if p != player]
    assert others, "optimality needs at least one opponent"
    rows = []
    for alt in game.actions_of(player):
        terms = []
        for combo in game.opponent_profiles(player):
            gain = game.payoff(player, game.profile_with(player, action, combo)) - game.payoff(
                player, game.profile_with(player, alt, combo)
            )
            event = _conj([Play(p, a) for p, a in zip(others, combo)])
            terms.append((gain, event))
        rows.append(ProbGe(player, tuple(terms), Fraction(0)))
    return _conj(rows)


# ---------------------------------------------------------------- evaluation


def cells_of(m, player) -> list[frozenset]:
    """Group states by the signal the player receives under her own view."""
    by_signal: dict[str, set] = {}
    for w in m.states:
        seen = [s for s in m.signals if w in m.true_set(player, Receive(player, s))]
        assert len(seen) == 1, (player, w, seen)
        by_signal.setdefault(seen[0], set()).add(w)
    return [frozenset(cell) for cell in by_signal.values()]


def cell_of(m, player, state) -> frozenset:
    for cell in cells_of(m, player):
        if state in cell:
            return cell
    raise AssertionError(f"{state!r} not covered for {player!r}")


def naive_posterior(m, player, event, state) -> Fraction:
    cell = cell_of(m, player, state)
    total = sum((m.prior_of(w) for w in cell), Fraction(0))
    assert total > 0, (player, state)
    hit = sum((m.prior_of(w) for w in cell if w in event), Fraction(0))
    return hit / total


def naive_holds(m, state, viewer, f: Formula) -> bool:
    return _sat(m, state, viewer, expand_sugar(f, m.game))


def _sat(m, w, viewer, f) -> bool:
    if isinstance(f, (Prim, Play, Receive)):
        return w in m.true_set(viewer, f)
    if isinstance(f, Not):
        return not _sat(m, w, viewer, f.arg)
    if isinstance(f, And):
        return _sat(m, w, viewer, f.left) and _sat(m, w, viewer, f.right)
    if isinstance(f, ProbGe):
        cell = cell_of(m, f.owner, w)
        total = sum((m.prior_of(x) for x in cell), Fraction(0))
        assert total > 0
        lhs = Fraction(0)
        for coef, sub in f.terms:
            mass = sum(
                (m.prior_of(x) for x in cell if _sat(m, x, f.owner, sub)), Fraction(0)
            )
            lhs += coef * (mass / total)
        return lhs >= f.bound
    if isinstance(f, CommonBelief):
        return w in naive_cb_set(m, f.arg)
    raise TypeError(f"core evaluation got {type(f).__name__}")


def naive_cb_set(m, arg: Formula) -> frozenset:
    """Orbit of everybody-believes, intersected until a set repeats."""
    players = m.game.players
    arg = expand_sugar(arg, m.game)

    def believes_event(event):
        return frozenset(
            w
            for w in m.states
            if all(naive_posterior(m, i, event, w) == 1 for i in players)
        )

    first = frozenset(
        w
        for w in m.states
        if all(
            naive_posterior(
                m, i, frozenset(x for x in m.states if _sat(m, x, i, arg)), w
            )
            == 1
            for i in players
        )
    )
    seen = set()
    acc = frozenset(m.states)
    cur = first
    while cur not in seen:
        seen.add(cur)
        acc &= cur
        cur = believes_event(cur)
    return acc


# ---------------------------------------------------------- incentive checks


def naive_deviation_ok(game, dist, player, action, alt) -> bool:
    """Conditional-expected-payoff route: follow vs deviate given the draw."""
    k = game.player_index(player)
    rows = [a for a in dist.support() if a[k] == action]
    marginal = sum((dist.weight(a) for a in rows), Fraction(0))
    if marginal == 0:
        return True
    follow = sum(
        (dist.weight(a) * game.payoff(player, a) for a in rows), Fraction(0)
    )
    swap = lambda a: tuple(alt if i == k else a[i] for i in range(game.n))
    deviate = sum(
        (dist.weight(a) * game.payoff(player, swap(a)) for a in rows), Fraction(0)
    )
    return follow / marginal >= deviate / marginal


def naive_is_objective_ce(game, dist) -> bool:
    return all(
        naive_deviation_ok(game, dist, p, a, b)
        for p in game.players
        for a in game.actions_of(p)
        for b in game.actions_of(p)
    )


def naive_is_subjective_ce(game, dists) -> bool:
    return all(
        naive_deviation_ok(game, dists[k], p, a, b)
        for k, p in enumerate(game.players)
        for a in game.actions_of(p)
        for b in game.actions_of(p)
    )


# ------------------------------------------------------------------- small LPs


def naive_lp(c, eq_rows=(), ge_rows=()):
    """Brute-force max c.x over eq rows, ge rows and x >= 0, for tiny LPs.

    Returns ("optimal", value), ("infeasible",) or ("unbounded",).  Every
    vertex is found by solving each n-subset of the constraint hyperplanes
    (x_j = 0 among them) by exact Gauss elimination.  A nonempty polyhedron
    in x >= 0 has a vertex, and it is unbounded in c exactly when some
    direction d >= 0 with A_eq d = 0, A_ge d >= 0 and sum d = 1 (a polytope,
    enumerated the same way) has c.d > 0.
    """
    n = len(c)
    assert n <= 4 and len(eq_rows) + len(ge_rows) <= 4, "oracle is exponential"
    eq = [([Fraction(v) for v in a], Fraction(b)) for a, b in eq_rows]
    ge = [([Fraction(v) for v in a], Fraction(b)) for a, b in ge_rows]
    ge += [([Fraction(int(i == j)) for i in range(n)], Fraction(0)) for j in range(n)]
    points = _vertices(n, eq, ge)
    if not points:
        return ("infeasible",)
    zero = Fraction(0)
    cone = [(a, zero) for a, _ in eq] + [([Fraction(1)] * n, Fraction(1))]
    directions = _vertices(n, cone, [(a, zero) for a, _ in ge])
    if any(_dot(c, d) > 0 for d in directions):
        return ("unbounded",)
    return ("optimal", max(_dot(c, x) for x in points))


def _vertices(n, eq, ge) -> list:
    """Points meeting eq and ge rows where n independent rows hold tight."""
    out = []
    for chosen in itertools.combinations(eq + ge, n):
        x = _solve_square([a for a, _ in chosen], [b for _, b in chosen])
        if x is None:
            continue
        if all(_dot(a, x) == b for a, b in eq) and all(_dot(a, x) >= b for a, b in ge):
            out.append(x)
    return out


def _solve_square(rows, rhs):
    """The unique solution of rows.x == rhs, or None if the matrix is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _dot(a, x) -> Fraction:
    return sum((u * v for u, v in zip(a, x)), Fraction(0))


def naive_certificate_holds(c, eq_rows, ge_rows, x, y) -> bool:
    """Weak duality met with equality: x is feasible, y is dual feasible
    (y <= 0 on ge rows, free on eq rows, A^T y >= c) and b.y == c.x."""
    rows = list(eq_rows) + list(ge_rows)
    primal = all(v >= 0 for v in x) and all(
        _dot(a, x) == b if k < len(eq_rows) else _dot(a, x) >= b
        for k, (a, b) in enumerate(rows)
    )
    dual = all(v <= 0 for v in y[len(eq_rows):]) and all(
        _dot([a[j] for a, _ in rows], y) >= c[j] for j in range(len(c))
    )
    return primal and dual and _dot([b for _, b in rows], y) == _dot(c, x)
