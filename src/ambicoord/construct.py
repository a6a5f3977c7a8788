"""Build epistemic structures that implement given correlated equilibria.

Two constructions, both refusing inputs that fail the corresponding CE check:

* `from_objective_ce`: one state per support profile of a shared equilibrium
  distribution, a common interpretation, and a mediator-style signal scheme.
  Every player is told (only) her own recommended action, encoded through a
  canonical action->signal map.

* `from_subjective_ce`: the quantile coupling of the players' distributions,
  at most sum(|support_i|) - n + 1 states.  Each player interprets signals
  and play according to her own layout of her support, so players may
  disagree about what is played; each one's induced distribution is exactly
  her own input, and identical inputs give a common interpretation.

Both reuse one signal alphabet sig1..sigK with K = max action-set size, and
map each player's k-th declared action to sigK's k-th signal.  Signals beyond
a player's action count fall back to her first declared action, keeping the
returned strategy total.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .coordination import CoordinationStrategy
from .errors import PreconditionError
from .games import Distribution, Game, Profile, check_subjective_ce, profile_key
from .structures import EpistemicStructure, row_layout


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
    """Refuse, with PreconditionError, weights that are not a probability
    distribution, or distributions that are not a `kind` correlated
    equilibrium (one per player; an objective CE repeats one)."""
    for d in dists:
        if any(w < 0 for w in d.num.values()) or sum(d.num.values()) != d.denom:
            raise PreconditionError("distribution is not a probability distribution")
    verdict = check_subjective_ce(game, dists)
    if not verdict.ok:
        worst = verdict.failures[0]
        raise PreconditionError(
            f"not {kind} correlated equilibrium: e.g. player "
            f"{worst.player!r} gains by deviating {worst.action!r}->{worst.deviation!r} "
            f"(slack {worst.slack})"
        )


def _support(game: Game, dist: Distribution) -> tuple[list[Profile], list[int], int]:
    """The support in declared profile order, with its weights as integer
    numerators over their least common denominator, and that denominator."""
    num = dist.num
    support = [a for a in game.profiles() if num.get(a, 0) > 0]
    return support, [num[a] for a in support], dist.denom


def from_objective_ce(game: Game, dist: Distribution) -> ConstructionResult:
    """Common-interpretation structure whose induced distribution is `dist`.

    States are named by their support profile's key; each player receives the
    signal encoding her own recommended action and plays it.
    """
    _require_ce(game, [dist] * game.n, "an objective")
    support, num, denom = _support(game, dist)
    return _device(game, [profile_key(a) for a in support], num, denom, [(a,) * game.n for a in support])


def from_subjective_ce(game: Game, dists: Sequence[Distribution]) -> ConstructionResult:
    """Coupled structure realizing one subjective distribution per player.

    Player i lays her support out along [0, 1] in declared profile order, a
    stretch per profile as long as its weight.  Each stretch between
    consecutive breakpoints of all players is a state, with its length as
    prior, where player i reads signals and play off the profile her layout
    puts there.  Each breakpoint moves some player on to her next profile,
    so state names are distinct and priors positive."""
    dists = list(dists)
    _require_ce(game, dists, "a subjective")
    supports, nums, denoms = zip(*(_support(game, d) for d in dists))
    denom = math.lcm(*denoms)
    ends = [list(accumulate(w * (denom // d) for w in num)) for num, d in zip(nums, denoms)]
    cuts = sorted(set().union(*ends))
    views = [tuple(s[bisect_left(e, c)] for s, e in zip(supports, ends)) for c in cuts]
    names = ["|".join(map(profile_key, view)) for view in views]
    return _device(game, names, [hi - lo for lo, hi in zip([0, *cuts], cuts)], denom, views)


def _device(
    game: Game, names: Sequence[str], num: Sequence[int], denom: int, views: Sequence[tuple[Profile, ...]]
) -> ConstructionResult:
    """The device whose state k is named names[k], has prior num[k] / denom,
    and where player i reads signals and play off the profile views[k][i].
    Her cells group the states by her own action there, in order of first
    appearance.  The masks are written directly at their row positions: one
    OR per state and player groups the states by her view, and each distinct
    view's mask goes to the receipt and play positions of its actions."""
    signals, to_signal, strategy_table = _signal_scheme(game)
    players = game.players
    _, _, receipts, plays = row_layout(game, signals)
    # a player's k-th action is told by the k-th signal
    spots = {
        (q, a): (receipts[q][k], plays[q][k]) for q in players for k, a in enumerate(game.actions_of(q))
    }
    rows, cells = {}, {}
    for i, p in enumerate(players):
        by_view: dict[Profile, int] = {}
        for k, views_k in enumerate(views):
            mine = views_k[i]
            by_view[mine] = by_view.get(mine, 0) | 1 << k
        row: dict[int, int] = {}
        own: dict[str, int] = {}
        for mine, mask in by_view.items():
            for pair in zip(players, mine):
                for at in spots[pair]:
                    row[at] = row.get(at, 0) | mask
            own[mine[i]] = own.get(mine[i], 0) | mask
        rows[p] = row
        cells[p] = tuple(own.values())
    structure = EpistemicStructure.from_masks(game, names, num, denom, signals, rows, cells)
    strategy = CoordinationStrategy(game.players, signals, strategy_table)
    return ConstructionResult(structure, strategy, to_signal)
