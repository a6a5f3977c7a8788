"""Build epistemic structures that implement given correlated equilibria.

Two constructions, both refusing inputs that fail the corresponding CE check:

* `from_objective_ce`: one state per support profile of a shared equilibrium
  distribution, a common interpretation, and a mediator-style signal scheme.
  Every player is told (only) her own recommended action, encoded through a
  canonical action->signal map.

* `from_subjective_ce`: states are tuples of support profiles, one coordinate
  per player; the prior is the product of the players' distributions, and
  each player interprets signals and play according to her own coordinate.
  Players may thus disagree about what is played; each one's induced
  distribution is exactly her own input.

Both reuse one signal alphabet sig1..sigK with K = max action-set size, and
map each player's k-th declared action to sigK's k-th signal.  Signals beyond
a player's action count fall back to her first declared action, keeping the
returned strategy total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .coordination import CoordinationStrategy
from .errors import PreconditionError
from .formulas import Formula, Play, Receive
from .games import Distribution, Game, check_subjective_ce, profile_key, require_valid_game
from .structures import EpistemicStructure


@dataclass(frozen=True)
class ConstructionResult:
    structure: EpistemicStructure
    strategy: CoordinationStrategy
    signal_maps: dict[str, dict[str, str]]  # player -> action -> signal

    def signal_maps_dict(self) -> dict:
        return {p: dict(table) for p, table in self.signal_maps.items()}


def _signal_scheme(game: Game):
    """Shared alphabet sig1..sigK plus per-player action<->signal tables."""
    width = max(len(game.actions_of(p)) for p in game.players)
    signals = tuple(f"sig{k + 1}" for k in range(width))
    to_signal = {p: dict(zip(game.actions_of(p), signals)) for p in game.players}
    # signals past a player's actions fall back to her first action
    strategy_table = {
        p: dict(zip(signals, game.actions_of(p) + (game.actions_of(p)[0],) * width)) for p in game.players
    }
    return signals, to_signal, strategy_table


def _require_ce(game: Game, dists: Sequence[Distribution], kind: str) -> None:
    """Refuse, with PreconditionError, an invalid game, weights that are not
    a probability distribution, or distributions that are not a `kind`
    correlated equilibrium (one per player; an objective CE repeats one)."""
    require_valid_game(game)
    for d in dists:
        if any(w < 0 for w in d.weights.values()) or d.total() != 1:
            raise PreconditionError("distribution is not a probability distribution")
    verdict = check_subjective_ce(game, dists)
    if not verdict.ok:
        worst = verdict.failures[0]
        raise PreconditionError(
            f"not {kind} correlated equilibrium: e.g. player "
            f"{worst.player!r} gains by deviating {worst.action!r}->{worst.deviation!r} "
            f"(slack {worst.slack})"
        )


def from_objective_ce(game: Game, dist: Distribution) -> ConstructionResult:
    """Common-interpretation structure whose induced distribution is `dist`.

    States are named by their support profile's key; each player receives the
    signal encoding her own recommended action and plays it.
    """
    _require_ce(game, [dist] * game.n, "an objective")
    support = [a for a in game.profiles() if dist.weight(a) > 0]
    return _device(game, [(profile_key(a), dist.weight(a), (a,) * game.n) for a in support])


def from_subjective_ce(game: Game, dists: Sequence[Distribution]) -> ConstructionResult:
    """Product structure realizing one subjective distribution per player.

    Each state fixes, for every player, a support profile of her own
    distribution; player i's interpretation reads signals and play off her
    coordinate alone.  States whose coordinates disagree get the product
    prior, which may be zero; they are kept, and every information cell still
    has positive mass.
    """
    dists = list(dists)
    _require_ce(game, dists, "a subjective")
    supports = [[a for a in game.profiles() if d.weight(a) > 0] for d in dists]
    states = []
    for w in product(*supports):
        weight = Fraction(1)
        for d, a in zip(dists, w):
            weight *= d.weight(a)
        states.append(("|".join(map(profile_key, w)), weight, w))
    return _device(game, states)


def _device(game: Game, states: Sequence[tuple[str, Fraction, tuple]]) -> ConstructionResult:
    """The device for (name, prior, views) states: player i reads signals and
    play off the profile views[i], and her cells group the states by her own
    action there, in order of first appearance."""
    signals, to_signal, strategy_table = _signal_scheme(game)
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
