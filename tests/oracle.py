"""Slow reference implementations used to cross-check the fast evaluator.

Everything here recomputes from first principles: derived operators are
rewritten by a separate expansion pass, posteriors are taken state by state
with Fraction division, and the common-belief orbit walks explicit state
sets.  No memoization, no bitmasks, no sharing of evaluation code with the
package internals.

Only valid on structures whose stored partitions (if any) agree with the
signal-derived ones: cells are always regrouped from the owner's own
received-signal rows here.

The `naive_*` audits further down are the package's structural audits,
self-enforcement, `induce` and `verify_induced_equilibrium` as per-state
scans over `true_set` and `stored_cell_sets` (the stored cell masks read as
state sets, the one place the oracle looks at a mask): one state at a time,
in state order.  They are the reference the package's whole-mask versions
must match exactly, failures, notes, order and exceptions included.  They evaluate formulas with the
package's `holds`, so they check the audit layer, not the evaluator.

`naive_from_dict` and `naive_to_dict` read and write the structure file
format with a type check per list element and a Fraction per weight; the
compiling loader and its writer must match them, errors included.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from ambicoord.construct import ConstructionResult
from ambicoord.coordination import CoordinationStrategy, EnforcementIssue, ValidityIssue, VerifyResult
from ambicoord.errors import PreconditionError, SchemaError
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
    conj,
)
from ambicoord.games import Distribution, check_objective_ce, check_subjective_ce, parse_profile_key, profile_key
from ambicoord.parser import ParseError, parse_formula, parse_instance
from ambicoord.reports import Report
from ambicoord.semantics import holds, intension, posterior
from ambicoord.structures import (
    ActionIssue,
    CellIssue,
    EpistemicStructure,
    PartitionIssue,
    RationalityIssue,
    SignalDefIssue,
    SignalIssue,
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


# ------------------------------------------------------------------- games


def naive_game_problems(players, actions, payoffs) -> list:
    """What is wrong with the parts of a game, in the order `Game` names it:
    the players, then (only if they are sound) their actions, then (only if
    those are sound) the payoff entries, missing and unknown profiles each in
    sorted order."""
    identifier = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
    numeral = re.compile(r"[0-9]+")
    players = list(players)
    problems = []
    if len(players) < 2:
        problems.append(f"need at least 2 players, got {len(players)}")
    for k, p in enumerate(players):
        at_own_position = any(str(j) == p.lstrip("0") and q == p for j, q in enumerate(players, 1))
        if p == "":
            problems.append("empty player name")
        elif p in players[:k]:
            problems.append(f"duplicate player name {p!r}")
        elif numeral.fullmatch(p) and not at_own_position:
            problems.append(f"numeric player name {p!r} must equal its position {k + 1}")
        elif not numeral.fullmatch(p) and not identifier.fullmatch(p):
            problems.append(f"player name {p!r} is not an identifier")
    if problems:
        return problems
    for p in players:
        acts = list(actions[p]) if p in actions else []
        if not acts:
            problems.append(f"player {p!r} has no actions")
        if len(set(acts)) != len(acts):
            problems.append(f"player {p!r} has duplicate actions")
        for a in acts:
            if not identifier.fullmatch(a):
                problems.append(f"action name {a!r} of player {p!r} is not an identifier")
    for p in actions:
        if p not in players:
            problems.append(f"actions given for unknown player {p!r}")
    if problems:
        return problems
    expected = list(itertools.product(*(actions[p] for p in players)))
    have = [tuple(a) for a in payoffs]
    for a in sorted(set(expected) - set(have)):
        problems.append(f"missing payoff entry for profile {','.join(a)!r}")
    for a in sorted(set(have) - set(expected)):
        problems.append(f"payoff entry for unknown profile {','.join(a)!r}")
    for a, values in payoffs.items():
        if len(values) != len(players):
            problems.append(f"payoff vector for {','.join(a)!r} has length {len(values)}")
    return problems


# ---------------------------------------------------------- incentive checks


def naive_incentive_row(game, player, action, alt) -> dict:
    """u(told) - u(alt), read from `game.payoffs`, for each profile `told`
    where the player plays `action`, in `opponent_profiles` order; `alt` is
    `told` with `alt` in her place."""
    k = game.players.index(player)
    row = {}
    for combo in game.opponent_profiles(player):
        told = (*combo[:k], action, *combo[k:])
        swapped = tuple(alt if i == k else a for i, a in enumerate(told))
        row[told] = game.payoffs[told][k] - game.payoffs[swapped][k]
    return row


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


# ------------------------------------------------------------ per-state audits


def _ordered(m, states) -> list:
    return sorted(states, key=m.states.index)


def naive_signals_received(m, viewer, receiver, state) -> tuple:
    return tuple(s for s in m.signals if state in m.true_set(viewer, Receive(receiver, s)))


def naive_received_signal(m, player, state) -> str:
    got = naive_signals_received(m, player, player, state)
    if len(got) != 1:
        raise PreconditionError(f"player {player!r} receives {len(got)} signals at state {state!r}")
    return got[0]


def naive_derive_partitions(m) -> dict:
    out = {}
    for p in m.game.players:
        cells: dict = {}
        for s in m.states:
            cells.setdefault(naive_received_signal(m, p, s), []).append(s)
        out[p] = tuple(frozenset(c) for c in cells.values())
    return out


def stored_cell_sets(m):
    """The stored information cells as state sets, or None: state k is bit k
    of each stored cell mask."""
    if m.stored_cells is None:
        return None
    return {
        p: tuple(frozenset(s for k, s in enumerate(m.states) if c >> k & 1) for c in cells)
        for p, cells in m.stored_cells.items()
    }


def naive_partitions(m) -> dict:
    stored = stored_cell_sets(m)
    return naive_derive_partitions(m) if stored is None else stored


def naive_seen_profile(m, viewer, state) -> tuple:
    out = []
    for p in m.game.players:
        acts = [a for a in m.game.actions_of(p) if state in m.true_set(viewer, Play(p, a))]
        if len(acts) != 1:
            raise PreconditionError(
                f"viewer {viewer!r} sees {len(acts)} actions for player {p!r} at state {state!r}"
            )
        out.append(acts[0])
    return tuple(out)


def naive_check_signal_uniqueness(m) -> Report:
    failures = []
    for receiver in m.game.players:
        for viewer in m.game.players:
            for state in m.states:
                got = naive_signals_received(m, viewer, receiver, state)
                if len(got) != 1:
                    failures.append(SignalIssue(receiver, viewer, state, got))
    return Report(not failures, tuple(failures))


def naive_check_partition_consistency(m) -> Report:
    stored = stored_cell_sets(m)
    if stored is None:
        return Report(True, notes=("no stored partitions; derived partitions are in effect",))
    try:
        derived = naive_derive_partitions(m)
    except PreconditionError as exc:
        return Report(False, notes=(f"cannot derive partitions: {exc}",))
    failures = []
    for p in m.game.players:
        derived_of = {s: c for c in derived[p] for s in c}
        stored_of = {s: c for c in stored[p] for s in c}
        for s in m.states:
            if stored_of[s] != derived_of[s]:
                failures.append(
                    PartitionIssue(
                        p, s, tuple(_ordered(m, stored_of[s])), tuple(_ordered(m, derived_of[s]))
                    )
                )
    return Report(not failures, tuple(failures))


def naive_check_action_uniqueness(m) -> Report:
    failures = []
    notes = []
    for viewer in m.game.players:
        for state in m.states:
            for p in m.game.players:
                acts = tuple(
                    a for a in m.game.actions_of(p) if state in m.true_set(viewer, Play(p, a))
                )
                if len(acts) > 1:
                    failures.append(ActionIssue(viewer, state, p, acts))
                elif not acts:
                    notes.append(f"viewer {viewer!r} sees no action for player {p!r} at {state!r}")
    return Report(not failures, tuple(failures), tuple(notes))


def naive_check_cell_positivity(m) -> Report:
    try:
        partitions = naive_partitions(m)
    except PreconditionError as exc:
        return Report(False, notes=(f"cannot derive partitions: {exc}",))
    failures = []
    for p in m.game.players:
        for c in partitions[p]:
            if sum(m.prior_num[m.states.index(s)] for s in c) == 0:
                failures.append(CellIssue(p, tuple(_ordered(m, c))))
    return Report(not failures, tuple(failures))


def naive_check_signal_definitions(m) -> Report:
    failures = []
    notes = []
    for sig in m.signals:
        df = m.signal_defs.get(sig)
        if df is None:
            notes.append(f"signal {sig!r} has no definition; skipped")
            continue
        for p in m.game.players:
            expected = tuple(s for s in m.states if holds(m, s, p, df))
            actual = tuple(s for s in m.states if s in m.true_set(p, Receive(p, sig)))
            if expected != actual:
                failures.append(SignalDefIssue(p, sig, expected, actual))
    return Report(not failures, tuple(failures), tuple(notes))


def naive_expected_payoff(m, player, action, state) -> Fraction:
    """One intension and one posterior per opponent profile."""
    others = [j for j in m.game.players if j != player]
    out = Fraction(0)
    for combo in m.game.opponent_profiles(player):
        event = intension(m, player, conj(Play(j, b) for j, b in zip(others, combo)))
        weight = posterior(m, player, event, state)
        if weight != 0:
            out += weight * m.game.payoff(player, m.game.profile_with(player, action, combo))
    return out


def naive_check_rationality(m) -> Report:
    failures = []
    for p in m.game.players:
        for state in m.states:
            if holds(m, state, p, Rationality(p)):
                continue
            played = [a for a in m.game.actions_of(p) if state in m.true_set(p, Play(p, a))]
            for a in played:
                if holds(m, state, p, Optimal(p, a)):
                    continue
                utilities = {
                    b: naive_expected_payoff(m, p, b, state) for b in m.game.actions_of(p)
                }
                better = max(utilities, key=lambda b: (utilities[b], b))
                failures.append(
                    RationalityIssue(p, state, a, better, utilities[better] - utilities[a])
                )
    return Report(not failures, tuple(failures))


def naive_read_strategy(m, c) -> None:
    """Refuse, as `read_strategy` does, a strategy the structure cannot read:
    a player the game lacks or a signal it does not declare, then for each
    player and each declared signal a missing entry or an action that player
    lacks."""
    for p in c.players:
        for s in c.signals:
            if p not in m.game.players:
                raise KeyError(f"unknown player {p!r}")
            if s not in m.signals:
                raise PreconditionError(f"formula references undeclared signal {s!r}")
    for p in m.game.players:
        for s in m.signals:
            if s not in c.table.get(p, {}):
                raise PreconditionError(f"strategy has no entry for ({p!r}, {s!r})")
            if c.table[p][s] not in m.game.actions_of(p):
                raise PreconditionError(f"{c.table[p][s]!r} is not an action of player {p!r}")


def naive_check_strategy_valid(m, c) -> Report:
    naive_read_strategy(m, c)
    failures = []
    for f in [Implies(Receive(p, s), Play(p, c.action(p, s))) for p in m.game.players for s in m.signals]:
        for viewer in m.game.players:
            for state in m.states:
                if not holds(m, state, viewer, f):
                    failures.append(ValidityIssue(f, viewer, state))
    return Report(not failures, tuple(failures))


def naive_check_self_enforcing(m, c) -> Report:
    naive_read_strategy(m, c)
    failures = []
    for p in m.game.players:
        for state in m.states:
            try:
                signal = naive_received_signal(m, p, state)
            except PreconditionError:
                failures.append(EnforcementIssue(p, state, None, None, "signal"))
                continue
            action = c.action(p, signal)
            if not holds(m, state, p, Play(p, action)):
                failures.append(EnforcementIssue(p, state, signal, action, "plays"))
            elif not holds(m, state, p, Optimal(p, action)):
                failures.append(EnforcementIssue(p, state, signal, action, "optimal"))
    return Report(not failures, tuple(failures))


def naive_induce(m, viewer) -> Distribution:
    weights: dict = {}
    for state in m.states:
        profile = naive_seen_profile(m, viewer, state)
        weights[profile] = weights.get(profile, Fraction(0)) + m.prior_of(state)
    return Distribution(weights)


def instances(m) -> list:
    """Every primitive proposition the structure declares, in the order its
    JSON form lists them: atoms, receipts, plays."""
    players = m.game.players
    nodes = [Prim(a) for a in m.atoms]
    nodes += [Receive(j, s) for j in players for s in m.signals]
    nodes += [Play(j, a) for j in players for a in m.game.actions_of(j)]
    return nodes


def naive_is_common_interpretation(m) -> bool:
    players = m.game.players
    return all(m.true_set(p, node) == m.true_set(players[0], node) for p in players for node in instances(m))


def naive_verify_induced_equilibrium(m, c) -> VerifyResult:
    naive_read_strategy(m, c)
    problems = []
    named_checks = (
        ("signal uniqueness", naive_check_signal_uniqueness),
        ("partition consistency", naive_check_partition_consistency),
        ("action uniqueness", naive_check_action_uniqueness),
        ("cell positivity", naive_check_cell_positivity),
    )
    clean = True
    for label, check in named_checks:
        report = check(m)
        if not report.ok:
            clean = False
            problems.append(f"{label} fails ({len(report.failures) or 1} issue(s))")
    if clean:
        rat = naive_check_rationality(m)
        if not rat.ok:
            problems.append(f"rationality fails ({len(rat.failures)} issue(s))")
        strat = naive_check_strategy_valid(m, c)
        if not strat.ok:
            problems.append(f"strategy validity fails ({len(strat.failures)} issue(s))")
    else:
        problems.append("rationality and strategy checks skipped")

    try:
        distributions = {p: naive_induce(m, p) for p in m.game.players}
    except PreconditionError as exc:
        problems.append(str(exc))
        return VerifyResult(False, None, None, {}, tuple(problems), None)

    if naive_is_common_interpretation(m):
        kind = "objective"
        first = distributions[m.game.players[0]]
        if any(d != first for d in distributions.values()):
            raise RuntimeError("common interpretation must induce one shared distribution")
        ce_report = check_objective_ce(m.game, first)
    else:
        kind = "subjective"
        ce_report = check_subjective_ce(m.game, [distributions[p] for p in m.game.players])
    ok = ce_report.ok and not problems
    return VerifyResult(ok, ce_report.ok, kind, distributions, tuple(problems), ce_report)


# ------------------------------------------------------- command-line chains


def naive_validate(m, strategy=None) -> tuple[list, list, int]:
    """`ambicoord validate`: its stdout lines, stderr lines and exit code.

    The four structural audits always run, the signal definitions only when
    some signal has one; rationality and the strategy audits are skipped
    when a structural audit fails.
    """
    rows = []
    basic_ok = True
    for label, check in (
        ("signal-uniqueness", naive_check_signal_uniqueness),
        ("partition-consistency", naive_check_partition_consistency),
        ("action-uniqueness", naive_check_action_uniqueness),
        ("cell-positivity", naive_check_cell_positivity),
    ):
        report = check(m)
        basic_ok = basic_ok and report.ok
        rows.append((label, report))
    if any(df is not None for df in m.signal_defs.values()):
        rows.append(("signal-definitions", naive_check_signal_definitions(m)))
    skipped = "skipped (structural checks failed)"
    rows.append(("rationality", naive_check_rationality(m) if basic_ok else skipped))
    if strategy is not None:
        for label, check in (
            ("strategy-validity", naive_check_strategy_valid),
            ("self-enforcement", naive_check_self_enforcing),
        ):
            rows.append((label, check(m, strategy) if basic_ok else skipped))
    out, err = [], []
    for label, outcome in rows:
        if isinstance(outcome, str):
            out.append(f"{label}: {outcome}")
            continue
        out.append(f"{label}: {'pass' if outcome.ok else 'fail'}")
        if not outcome.ok:
            err += [f"  {label}: {issue}" for issue in outcome.failures]
            err += [f"  {label}: {note}" for note in outcome.notes]
    ok = all(not isinstance(outcome, str) and outcome.ok for _, outcome in rows)
    return out, err, 0 if ok else 1


def naive_gate(m, strategy) -> tuple[list, list, int]:
    """The precondition gate of `ambicoord induce`: ([], [], 0) when it
    passes, else the stderr line naming the first failed audit and exit 3.

    It runs signal uniqueness, partition consistency, action uniqueness and
    strategy validity, in that order; cell positivity is not among them.
    """
    for label, check in (
        ("signal uniqueness", naive_check_signal_uniqueness),
        ("partition consistency", naive_check_partition_consistency),
        ("action uniqueness", naive_check_action_uniqueness),
        ("strategy validity", lambda m: naive_check_strategy_valid(m, strategy)),
    ):
        if not check(m).ok:
            return [], [f"precondition violated: {label}"], 3
    return [], [], 0


# ------------------------------------------------------------ constructions
#
# The devices of `ambicoord.construct`, built without its compiled form:
# one Receive and one Play node per state, player and player, collected in
# frozensets of state names and handed to the name-based constructor, the
# subjective layout worked out in Fractions.  No CE checks: callers pass
# equilibria.


def naive_signal_scheme(game):
    """Shared alphabet sig1..sigK plus per-player action<->signal tables."""
    width = max(len(game.actions_of(p)) for p in game.players)
    signals = tuple(f"sig{k + 1}" for k in range(width))
    to_signal = {p: dict(zip(game.actions_of(p), signals)) for p in game.players}
    # signals past a player's actions fall back to her first action
    strategy_table = {
        p: dict(zip(signals, game.actions_of(p) + (game.actions_of(p)[0],) * width)) for p in game.players
    }
    return signals, to_signal, strategy_table


def naive_device(game, states) -> ConstructionResult:
    """The device for (name, prior, views) states: player i reads signals and
    play off the profile views[i], and her cells group the states by her own
    action there, in order of first appearance."""
    signals, to_signal, strategy_table = naive_signal_scheme(game)
    truth: dict[str, dict[Formula, frozenset[str]]] = {}
    partitions = {}
    for i, p in enumerate(game.players):
        table: dict[Formula, set[str]] = {}
        cells: dict[str, list[str]] = {}
        for state, _, views in states:
            mine = views[i]
            for q, action in zip(game.players, mine):
                table.setdefault(Receive(q, to_signal[q][action]), set()).add(state)
                table.setdefault(Play(q, action), set()).add(state)
            cells.setdefault(mine[i], []).append(state)
        truth[p] = {node: frozenset(ss) for node, ss in table.items()}
        partitions[p] = [frozenset(c) for c in cells.values()]
    prior = {state: weight for state, weight, _ in states}
    structure = EpistemicStructure(game, [s for s, _, _ in states], prior, signals, (), truth, partitions, None)
    strategy = CoordinationStrategy(game.players, signals, strategy_table)
    return ConstructionResult(structure, strategy, to_signal)


def naive_objective_device(game, dist) -> ConstructionResult:
    """One state per support profile, in profile order, read alike by all."""
    support = [a for a in game.profiles() if dist.weight(a) > 0]
    return naive_device(game, [(profile_key(a), dist.weight(a), (a,) * game.n) for a in support])


def naive_subjective_device(game, dists) -> ConstructionResult:
    """The quantile coupling, with Fractions: each player's support profiles,
    in profile order, end at the running sums of their weights; one state
    per stretch between consecutive ends of any player, weighing the
    stretch's length, where each player reads the first of her profiles that
    ends at or after the stretch's end."""
    layouts = []
    for d in dists:
        total, layout = Fraction(0), []
        for a in game.profiles():
            if d.weight(a) > 0:
                total += d.weight(a)
                layout.append((total, a))
        layouts.append(layout)
    states, start = [], Fraction(0)
    for end in sorted({total for layout in layouts for total, _ in layout}):
        views = tuple(next(a for total, a in layout if total >= end) for layout in layouts)
        states.append(("|".join(map(profile_key, views)), end - start, views))
        start = end
    return naive_device(game, states)


# ------------------------------------------------------------ serialization
#
# The structure file format as it was read and written before `from_dict`
# compiled JSON straight to masks: every list type-checked element by
# element, the prior parsed to Fractions, the name lists handed to the
# name-based constructor; and written back through one Fraction a weight.


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _rational(text) -> Fraction:
    if not isinstance(text, str) or re.fullmatch(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?", text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def naive_distribution_from_dict(data, game) -> dict:
    """The weights of a distribution file as a {profile: Fraction} dict in
    file order, zeros dropped, refused as `Distribution.from_dict` refuses it."""
    if not isinstance(data, dict):
        raise SchemaError("distribution: expected an object")
    extra = set(data) - {"weights"}
    if extra:
        raise SchemaError(f"distribution: unknown keys {sorted(extra)}")
    raw = data.get("weights")
    if not isinstance(raw, dict):
        raise SchemaError("distribution: 'weights' must be an object")
    weights = {}
    for key, value in raw.items():
        profile = parse_profile_key(key, game)
        try:
            weights[profile] = _rational(value)
        except ValueError as exc:
            raise SchemaError(f"distribution: weight for {key!r}: {exc}") from None
    weights = {a: w for a, w in weights.items() if w != 0}
    if any(w < 0 for w in weights.values()):
        raise SchemaError("distribution: negative weight")
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise SchemaError(f"distribution: weights sum to {total}, not 1")
    return weights


def naive_from_dict(data, game) -> EpistemicStructure:
    if not isinstance(data, dict):
        raise SchemaError("structure: expected an object")
    extra = set(data) - {"states", "prior", "signals", "atoms", "interpretation", "partitions"}
    if extra:
        raise SchemaError(f"structure: unknown keys {sorted(extra)}")
    states = data.get("states")
    if not _strings(states):
        raise SchemaError("structure: 'states' must be a list of strings")
    prior_raw = data.get("prior")
    if not isinstance(prior_raw, dict):
        raise SchemaError("structure: 'prior' must be an object")
    try:
        prior = {s: _rational(w) for s, w in prior_raw.items()}
    except ValueError as exc:
        raise SchemaError(f"structure: prior: {exc}") from None
    signals_raw = data.get("signals")
    if not isinstance(signals_raw, dict):
        raise SchemaError("structure: 'signals' must map signal names to definitions or null")
    atoms = data.get("atoms", [])
    if not _strings(atoms):
        raise SchemaError("structure: 'atoms' must be a list of strings")

    signal_names = tuple(signals_raw)
    signal_defs = {}
    for sig, df in signals_raw.items():
        if df is None:
            signal_defs[sig] = None
            continue
        if not isinstance(df, str):
            raise SchemaError(f"structure: definition of signal {sig!r} must be a string or null")
        try:
            signal_defs[sig] = parse_formula(df, game, signals=signal_names, atoms=atoms)
        except ParseError as exc:
            raise SchemaError(f"structure: definition of signal {sig!r}: {exc}") from None

    interp_raw = data.get("interpretation")
    if not isinstance(interp_raw, dict):
        raise SchemaError("structure: 'interpretation' must be an object")
    truth = {}
    for p, table in interp_raw.items():
        if not isinstance(table, dict):
            raise SchemaError(f"structure: interpretation of player {p!r} must be an object")
        entries = {}
        keys = {}
        for key, where in table.items():
            try:
                node = parse_instance(key, game, signals=signal_names, atoms=atoms)
            except ParseError as exc:
                raise SchemaError(f"structure: instance key {key!r}: {exc}") from None
            if node in keys:
                raise SchemaError(
                    f"structure: interpretation of player {p!r} spells one instance twice: {keys[node]!r} and {key!r}"
                )
            keys[node] = key
            if not _strings(where):
                raise SchemaError(f"structure: value of {key!r} must be a list of states")
            entries[node] = where
        truth[p] = entries

    partitions_raw = data.get("partitions")
    partitions = None
    if partitions_raw is not None:
        if not isinstance(partitions_raw, dict):
            raise SchemaError("structure: 'partitions' must be an object or null")
        partitions = {}
        for p, cells in partitions_raw.items():
            if not isinstance(cells, list) or not all(map(_strings, cells)):
                raise SchemaError(f"structure: partition of player {p!r} must be a list of lists of states")
            partitions[p] = cells
    return EpistemicStructure(game, states, prior, signal_names, atoms, truth, partitions, signal_defs)


def naive_to_dict(m) -> dict:
    rank = {s: k for k, s in enumerate(m.states)}

    def ordered(states):
        return sorted(states, key=rank.__getitem__)

    interp = {
        p: {str(node): ordered(m.true_set(p, node)) for node in instances(m) if m.true_set(p, node)}
        for p in m.game.players
    }
    stored = stored_cell_sets(m)
    partitions = None if stored is None else {p: [ordered(c) for c in cells] for p, cells in stored.items()}
    return {
        "states": list(m.states),
        "prior": {s: str(m.prior_of(s)) for s in m.states},
        "signals": {s: (None if df is None else str(df)) for s, df in m.signal_defs.items()},
        "atoms": list(m.atoms),
        "interpretation": interp,
        "partitions": partitions,
    }
