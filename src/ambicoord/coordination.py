"""Coordination strategies: signal-contingent playbooks and their evaluation.

A strategy is a total table (player, signal) -> action.  Rendered as formulas
it reads "if i received sigma then i plays a"; validity means every player
deems every such instruction true at every state.  Self-enforcement adds that
each player, at each state, actually plays her recommended action and deems
it optimal.  Induced distributions collect the prior mass of the full action
profiles a viewer sees across states.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .errors import PreconditionError, SchemaError
from .formulas import Formula, Implies, Optimal, Play, Receive
from .games import Distribution, Game, check_subjective_ce
from .reports import Report
from .structures import (
    EpistemicStructure,
    check_action_uniqueness,
    check_cell_positivity,
    check_partition_consistency,
    check_rationality,
    check_signal_definitions,
    check_signal_uniqueness,
    fold,
    is_common_interpretation,
    low_state,
    mask_mass,
    states_in,
)


class CoordinationStrategy:
    """Total single-valued map from (player, signal) to that player's actions."""

    def __init__(self, players: Sequence[str], signals: Sequence[str], table: Mapping[str, Mapping[str, str]]):
        self.players = tuple(players)
        self.signals = tuple(signals)
        self.table = {p: dict(table.get(p, {})) for p in self.players}
        for p in self.players:
            missing = [s for s in self.signals if s not in self.table[p]]
            if missing:
                raise SchemaError(f"strategy: player {p!r} has no action for signals {missing}")

    def action(self, player: str, signal: str) -> str:
        try:
            return self.table[player][signal]
        except KeyError:
            raise KeyError(f"strategy has no entry for ({player!r}, {signal!r})") from None

    def __eq__(self, other):
        if not isinstance(other, CoordinationStrategy):
            return NotImplemented
        return (
            self.players == other.players
            and self.signals == other.signals
            and self.table == other.table
        )

    def __repr__(self):
        return f"CoordinationStrategy(players={self.players!r}, signals={self.signals!r})"

    @classmethod
    def from_dict(cls, data: dict, game: Game, signals: Sequence[str]) -> "CoordinationStrategy":
        if not isinstance(data, dict):
            raise SchemaError("strategy: expected an object")
        if set(data) != set(game.players):
            raise SchemaError("strategy: keys must be exactly the players")
        for p, row in data.items():
            if not isinstance(row, dict):
                raise SchemaError(f"strategy: entry for player {p!r} must be an object")
            if set(row) != set(signals):
                raise SchemaError(f"strategy: player {p!r} must map exactly the declared signals")
            for s, a in row.items():
                if a not in game.actions_of(p):
                    raise SchemaError(f"strategy: {a!r} is not an action of player {p!r}")
        return cls(game.players, signals, data)

    def to_dict(self) -> dict:
        return {p: {s: self.table[p][s] for s in self.signals} for p in self.players}


def as_formulas(c: CoordinationStrategy) -> tuple[Formula, ...]:
    """The strategy's instructions, player-major then signal order."""
    return tuple(
        Implies(Receive(p, s), Play(p, c.action(p, s))) for p in c.players for s in c.signals
    )


@dataclass(frozen=True)
class ValidityIssue:
    formula: Formula
    viewer: str
    state: str


def check_strategy_valid(m: EpistemicStructure, c: CoordinationStrategy) -> Report:
    """Every instruction formula is valid: true for every viewer at every state.

    An instruction fails for a viewer where she sees the receipt and not the
    play, read off her row; its formula is built only to name a failure."""
    failures = []
    for p in c.players:
        for s in c.signals:
            a = c.action(p, s)
            receipt, play = m.receipt_at(p, s), m.play_at(p, a)
            for viewer in m.game.players:
                row = m.rows[viewer]
                bad = row[receipt] & ~row[play]
                if bad:
                    f = Implies(Receive(p, s), Play(p, a))
                    failures += [ValidityIssue(f, viewer, m.states[k]) for k in states_in(m, bad)]
    return Report(not failures, tuple(failures))


@dataclass(frozen=True)
class EnforcementIssue:
    """Why a recommendation fails at (player, state): which conjunct broke."""

    player: str
    state: str
    signal: Optional[str]
    action: Optional[str]
    conjunct: str  # "signal" | "plays" | "optimal"


def check_self_enforcing(m: EpistemicStructure, c: CoordinationStrategy) -> Report:
    """At each state every player follows her recommendation and deems it optimal."""
    ev = m.evaluator()
    failures = []
    for p in m.game.players:
        row = m.rows[p]
        receipts = m.receipts(p, p)
        seen, dup = fold(receipts)
        unique = seen & ~dup
        regions = {s: receipt & unique for s, receipt in zip(m.signals, receipts)}
        # Look up each signal's action, its plays mask and its optimality
        # mask at the first state that needs them, so that whatever raises
        # first, state by state, raises here too.
        action, plays, optimal = {}, {}, {}
        steps = [(low_state(r), 0, s) for s, r in regions.items() if r]
        heapq.heapify(steps)
        while steps:
            _, step, s = heapq.heappop(steps)
            if step == 0:
                try:
                    action[s] = c.action(p, s)
                except KeyError as exc:  # a strategy over other signals
                    raise PreconditionError(exc.args[0]) from None
                plays[s] = row[m.play_at(p, action[s])]
                if regions[s] & plays[s]:
                    heapq.heappush(steps, (low_state(regions[s] & plays[s]), 1, s))
            else:
                optimal[s] = ev.intension_mask(p, Optimal(p, action[s]))
        bad = m.full ^ unique
        for s in action:
            bad |= regions[s] & ~(plays[s] & optimal.get(s, 0))
        for k in states_in(m, bad):
            state = m.states[k]
            s = next((s for s in action if (regions[s] >> k) & 1), None)
            if s is None:
                failures.append(EnforcementIssue(p, state, None, None, "signal"))
            elif not (plays[s] >> k) & 1:
                failures.append(EnforcementIssue(p, state, s, action[s], "plays"))
            else:
                failures.append(EnforcementIssue(p, state, s, action[s], "optimal"))
    return Report(not failures, tuple(failures))


def induce(m: EpistemicStructure, viewer: str) -> Distribution:
    """Distribution of full action profiles as the viewer interprets play.

    Each state contributes its prior mass to the unique profile the viewer
    sees there; a state with no unique seen profile is an error.
    """
    m.game.player_index(viewer)  # an unknown viewer raises KeyError
    players = m.game.players
    rows = [m.plays(viewer, p) for p in players]
    folds = [fold(row) for row in rows]
    bad = 0
    for seen, dup in folds:
        bad |= dup | (m.full ^ seen)
    if bad:  # some player plays zero or several actions there
        for p, row in zip(players, rows):
            state, n = m._first_bad(bad, row)
            if n != 1:
                raise PreconditionError(
                    f"viewer {viewer!r} sees {n} actions for player {p!r} at state {state!r}"
                )
    # one action per player at every state: intersect the action masks
    # along the profiles, keeping the nonempty ones in first-state order
    seen_at = [((), m.full)]
    for p, row in zip(players, rows):
        plays = list(zip(m.game.actions_of(p), row))
        seen_at = [
            (profile + (a,), both)
            for profile, mask in seen_at
            for a, action_mask in plays
            if (both := mask & action_mask)
        ]
    seen_at.sort(key=lambda item: low_state(item[1]))
    return Distribution.from_numerators(
        {profile: mask_mass(m.prior_num, mask) for profile, mask in seen_at}, m.prior_denom
    )


# ------------------------------------------------------------------ audits


@dataclass(frozen=True)
class AuditStep:
    """One audit of a structure (and strategy): its label, its check, and
    the labels of the earlier steps that must pass for it to run."""

    label: str
    check: Callable[[EpistemicStructure, Optional[CoordinationStrategy]], Report]
    needs: tuple[str, ...] = ()


STRUCTURAL = ("signal uniqueness", "partition consistency", "action uniqueness", "cell positivity")

# The audit order, declared once: `validate`, the `induce` gate and
# `verify_induced_equilibrium` pick their steps from it by label.
AUDITS = (
    AuditStep("signal uniqueness", lambda m, c: check_signal_uniqueness(m)),
    AuditStep("partition consistency", lambda m, c: check_partition_consistency(m)),
    AuditStep("action uniqueness", lambda m, c: check_action_uniqueness(m)),
    AuditStep("cell positivity", lambda m, c: check_cell_positivity(m)),
    AuditStep("signal definitions", lambda m, c: check_signal_definitions(m)),
    AuditStep("rationality", lambda m, c: check_rationality(m), STRUCTURAL),
    AuditStep("strategy validity", check_strategy_valid, STRUCTURAL),
    AuditStep("self-enforcement", check_self_enforcing, STRUCTURAL),
)

AuditOutcome = Report | PreconditionError | None


def run_audits(
    m: EpistemicStructure, c: Optional[CoordinationStrategy], labels: Collection[str]
) -> Iterator[tuple[str, AuditOutcome]]:
    """Run the steps of AUDITS named in `labels`, in order, lazily.

    Yields (label, outcome): the step's Report, the PreconditionError its
    check raised, or None when a step it needs ran and did not pass.
    """
    passed: dict[str, bool] = {}
    for step in AUDITS:
        if step.label not in labels:
            continue
        outcome: AuditOutcome = None
        if all(passed.get(need, True) for need in step.needs):
            try:
                outcome = step.check(m, c)
            except PreconditionError as exc:
                outcome = exc
        passed[step.label] = isinstance(outcome, Report) and outcome.ok
        yield step.label, outcome


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verify_induced_equilibrium.

    `kind` is "objective" for common-interpretation structures (one shared
    distribution) and "subjective" otherwise (one per player).  Precondition
    problems are reported, not raised; `ok` requires a clean run and a true
    equilibrium verdict.  `ce_ok` is None when distributions could not be
    computed at all.
    """

    ok: bool
    ce_ok: Optional[bool]
    kind: Optional[str]
    distributions: dict[str, Distribution]
    problems: tuple[str, ...]
    ce_report: Optional[Report]


def verify_induced_equilibrium(m: EpistemicStructure, c: CoordinationStrategy) -> VerifyResult:
    """Induce per-player distributions and check the matching CE notion."""
    problems = []
    skipped = False
    for label, outcome in run_audits(m, c, STRUCTURAL + ("rationality", "strategy validity")):
        if isinstance(outcome, PreconditionError):
            raise outcome
        if outcome is None:
            skipped = True
        elif not outcome.ok:
            problems.append(f"{label} fails ({len(outcome.failures) or 1} issue(s))")
    if skipped:
        problems.append("rationality and strategy checks skipped")

    try:
        distributions = {p: induce(m, p) for p in m.game.players}
    except PreconditionError as exc:
        problems.append(str(exc))
        return VerifyResult(False, None, None, {}, tuple(problems), None)

    # a common interpretation induces one shared distribution, whose
    # objective check is the subjective one with that distribution for all
    kind = "objective" if is_common_interpretation(m) else "subjective"
    ce_report = check_subjective_ce(m.game, [distributions[p] for p in m.game.players])
    ok = ce_report.ok and not problems
    return VerifyResult(ok, ce_report.ok, kind, distributions, tuple(problems), ce_report)
