"""Coordination strategies: signal-contingent playbooks and their evaluation.

A strategy is a table (player, signal) -> action over exactly its players and
signals.  Rendered as formulas it reads "if i received sigma then i plays a";
validity means every player deems every such instruction true at every
state.  Self-enforcement adds that each player, at each state, actually
plays her recommended action and deems it optimal.  Both read the strategy
through `read_strategy`, which refuses one the structure cannot read; as
`run_audits` reads it once, before its first step, its steps yield only reports.
Induced distributions collect the prior mass of the full action profiles a
viewer sees across states.
"""

from __future__ import annotations

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

StrategyRead = dict[str, list[tuple[str, str, int, int]]]  # what `read_strategy` returns


class CoordinationStrategy:
    """Total single-valued map from (player, signal) to that player's actions."""

    def __init__(self, players: Sequence[str], signals: Sequence[str], table: Mapping[str, Mapping[str, str]]):
        self.players = tuple(players)
        self.signals = tuple(signals)
        if set(table) != set(self.players):
            raise SchemaError("strategy: keys must be exactly the players")
        self.table = {p: dict(table[p]) for p in self.players}
        for p, row in self.table.items():
            if set(row) != set(self.signals):
                raise SchemaError(f"strategy: player {p!r} must map exactly the declared signals")

    def action(self, player: str, signal: str) -> str:
        try:
            return self.table[player][signal]
        except KeyError:
            raise KeyError(f"strategy has no entry for ({player!r}, {signal!r})") from None

    def __eq__(self, other):
        if not isinstance(other, CoordinationStrategy):
            return NotImplemented
        return (self.players, self.signals, self.table) == (other.players, other.signals, other.table)

    def __repr__(self):
        return f"CoordinationStrategy(players={self.players!r}, signals={self.signals!r})"

    @classmethod
    def from_dict(cls, data: dict, game: Game, signals: Sequence[str]) -> "CoordinationStrategy":
        if not isinstance(data, dict):
            raise SchemaError("strategy: expected an object")
        for p, row in data.items():
            if not isinstance(row, dict):
                raise SchemaError(f"strategy: entry for player {p!r} must be an object")
        strategy = cls(game.players, signals, data)
        for p, row in strategy.table.items():
            for a in row.values():
                if a not in game.actions_of(p):
                    raise SchemaError(f"strategy: {a!r} is not an action of player {p!r}")
        return strategy

    def to_dict(self) -> dict:
        return {p: {s: self.table[p][s] for s in self.signals} for p in self.players}


def as_formulas(c: CoordinationStrategy) -> tuple[Formula, ...]:
    """The strategy's instructions, player-major then signal order."""
    return tuple(Implies(Receive(p, s), Play(p, c.action(p, s))) for p in c.players for s in c.signals)


def read_strategy(m: EpistemicStructure, c: CoordinationStrategy) -> StrategyRead:
    """Each player's (signal, action, position of rec(p, s), position of pl(p, a))
    for each declared signal.  Refuses, over the strategy's own (player, signal)
    pairs, a player the game lacks (KeyError) or a signal the structure lacks;
    then, player by player and signal by signal, a missing entry or an action
    the player lacks.  All but the KeyError are PreconditionError."""
    for p in c.players:
        for s in c.signals:
            m.receipt_at(p, s)  # refuses an unknown player or an undeclared signal
    reads = {p: [] for p in m.game.players}
    for p, read in reads.items():
        for s in m.signals:
            try:
                a = c.action(p, s)
            except KeyError as exc:
                raise PreconditionError(exc.args[0]) from None
            read.append((s, a, m.receipt_at(p, s), m.play_at(p, a)))
    return reads


@dataclass(frozen=True)
class ValidityIssue:
    formula: Formula
    viewer: str
    state: str


def check_strategy_valid(m: EpistemicStructure, c: CoordinationStrategy) -> Report:
    """Every instruction formula is valid: true for every viewer at every state.

    An instruction fails for a viewer where she sees the receipt and not the
    play, read off her row; its formula is built only to name a failure."""
    return _strategy_valid(m, read_strategy(m, c))


def _strategy_valid(m: EpistemicStructure, read: StrategyRead) -> Report:
    failures = []
    for p, reads in read.items():
        for s, a, receipt, play in reads:
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
    return _self_enforcing(m, read_strategy(m, c))


def _self_enforcing(m: EpistemicStructure, read: StrategyRead) -> Report:
    ev = m.evaluator()
    failures = []
    for p, reads in read.items():
        row = m.rows[p]
        seen, dup = fold(m.receipts(p, p))
        unique = seen & ~dup
        bad = m.full ^ unique
        regions = []
        for s, a, receipt, play in reads:
            region, plays = row[receipt] & unique, row[play]
            # opt_p(a) only if some state needs it; a zero-mass cell of p is refused
            optimal = ev.intension_mask(p, Optimal(p, a)) if region & plays else 0
            bad |= region & ~(plays & optimal)
            regions.append((region, s, a, plays))
        for k in states_in(m, bad):
            # the one signal she uniquely receives there, if any
            s, a, plays = next((r[1:] for r in regions if r[0] >> k & 1), (None, None, 0))
            conjunct = "signal" if s is None else "optimal" if plays >> k & 1 else "plays"
            failures.append(EnforcementIssue(p, m.states[k], s, a, conjunct))
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
    """One audit of a structure (and a strategy's read): its label, its
    check, and the labels of the earlier steps that must pass for it to run."""

    label: str
    check: Callable[[EpistemicStructure, Optional[StrategyRead]], Report]
    needs: tuple[str, ...] = ()


STRUCTURAL = ("signal uniqueness", "partition consistency", "action uniqueness", "cell positivity")

# The audit order, declared once: `validate`, the `induce` gate and
# `verify_induced_equilibrium` pick their steps from it by label.
AUDITS = (
    AuditStep("signal uniqueness", lambda m, read: check_signal_uniqueness(m)),
    AuditStep("partition consistency", lambda m, read: check_partition_consistency(m)),
    AuditStep("action uniqueness", lambda m, read: check_action_uniqueness(m)),
    AuditStep("cell positivity", lambda m, read: check_cell_positivity(m)),
    AuditStep("signal definitions", lambda m, read: check_signal_definitions(m)),
    AuditStep("rationality", lambda m, read: check_rationality(m), STRUCTURAL),
    AuditStep("strategy validity", _strategy_valid, STRUCTURAL),
    AuditStep("self-enforcement", _self_enforcing, STRUCTURAL),
)


def run_audits(
    m: EpistemicStructure, c: Optional[CoordinationStrategy], labels: Collection[str]
) -> Iterator[tuple[str, Optional[Report]]]:
    """Run the steps of AUDITS named in `labels`, in order, lazily.

    Yields (label, outcome): the step's Report, or None when a step it needs
    ran and did not pass.  `read_strategy` reads the strategy once, for every
    step, before the first, refusing one the structure cannot read.  After
    that no step whose needs pass raises: signal uniqueness and cell
    positivity rule out the refusals of `_derive` and `_positive_cells`;
    partition consistency and cell positivity catch their own; `_install`
    makes every signal definition a boolean formula over declared atoms; and
    strategy validity reads no cells, which is why the `induce` gate may run
    it without cell positivity.  A step run without its needs in `labels`,
    on a structure that breaks them, may raise.
    """
    read = None if c is None else read_strategy(m, c)
    passed: dict[str, bool] = {}
    for step in AUDITS:
        if step.label not in labels:
            continue
        outcome = step.check(m, read) if all(passed.get(need, True) for need in step.needs) else None
        passed[step.label] = outcome is not None and outcome.ok
        yield step.label, outcome


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verify_induced_equilibrium.

    `kind` is "objective" for common-interpretation structures (one shared
    distribution) and "subjective" otherwise (one per player).  Structural
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
    outcomes = list(run_audits(m, c, STRUCTURAL + ("rationality", "strategy validity")))
    problems = [f"{label} fails ({len(o.failures) or 1} issue(s))" for label, o in outcomes if o is not None and not o.ok]
    if any(o is None for _, o in outcomes):
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
