"""Seeded random generators for games, objectives, structures and formulas."""

from __future__ import annotations

import collections.abc
import itertools
import random
from fractions import Fraction
from typing import Optional

from ambicoord import (
    And,
    Belief,
    CommonBelief,
    EpistemicStructure,
    Game,
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

_PLAYER_NAMES = ("alice", "bob", "carol")
_ACTION_NAMES = ("a1", "a2", "a3")


def random_game(rng: random.Random) -> Game:
    """2-3 players with 2-3 actions each and small rational payoffs."""
    n = rng.randint(2, 3)
    players = _PLAYER_NAMES[:n]
    actions = {p: _ACTION_NAMES[: rng.randint(2, 3)] for p in players}
    payoffs = {}
    for profile in _product(actions, players):
        payoffs[profile] = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in players
        )
    return Game(players, actions, payoffs)


def _product(actions, players):
    return itertools.product(*(actions[p] for p in players))


def random_objective(rng: random.Random, game: Game) -> dict:
    """Sparse rational objective over profiles; may be empty."""
    out = {}
    for profile in game.profiles():
        if rng.random() < 0.5:
            out[profile] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return out


def random_structure(
    rng: random.Random, game: Optional[Game] = None, stored: bool = False, doubled: bool = False
) -> EpistemicStructure:
    """1-7 states, cells derived from each player's own signals, ambiguous
    tables: every player deems every other proposition true at random.

    The game defaults to 3 players with actions x and y and integer payoffs
    in [-2, 2].  Each player's cells are runs of consecutive states cut at
    random, so the players' cells overlap in staggered chains and some walks
    take several levels to settle.  About one state in six has zero prior
    mass, so zero-mass states sit inside positive-mass cells and some players
    get a whole zero-mass cell.  `stored` adds partitions, runs cut at random
    again and independent of the signals, which then rule the cells; with
    `doubled` a player sees herself receive a second signal at one state, so
    her cells cannot be derived.
    """
    if game is None:
        players = ("A", "B", "C")
        actions = {p: ("x", "y") for p in players}
        payoffs = {
            profile: tuple(Fraction(rng.randint(-2, 2)) for _ in players)
            for profile in itertools.product(*actions.values())
        }
        game = Game(players, actions, payoffs)
    players = game.players
    states = [f"w{k}" for k in range(rng.randint(1, 7))]
    weights = [rng.choice((0, 1, 1, 2, 3, 4)) for _ in states]
    if not any(weights):
        weights[rng.randrange(len(states))] = 1
    prior = {s: Fraction(w, sum(weights)) for s, w in zip(states, weights)}
    signals = ("s0", "s1", "s2", "s3")
    atoms = ("p", "q")

    def some(share):
        return [s for s in states if rng.random() < share]

    def runs():
        cut, run = [], 0
        for _ in states:
            cut.append(run)
            run += rng.random() < 0.7
        return cut

    truth = {}
    for p in players:
        own = [signals[run % len(signals)] for run in runs()]
        table = {Prim(a): some(0.9) for a in atoms}
        for j in players:
            for sig in signals:
                table[Receive(j, sig)] = (
                    [s for s, got in zip(states, own) if got == sig] if j == p else some(0.5)
                )
            for a in game.actions_of(j):
                table[Play(j, a)] = some(0.5)
        truth[p] = table
    if doubled:
        p = rng.choice(players)
        k = rng.randrange(len(states))
        extra = Receive(p, next(sig for sig in signals if states[k] not in truth[p][Receive(p, sig)]))
        truth[p][extra] = sorted(set(truth[p][extra]) | {states[k]}, key=states.index)
    partitions = None
    if stored:
        partitions = {}
        for p in players:
            cut = runs()
            partitions[p] = [[s for s, c in zip(states, cut) if c == run] for run in sorted(set(cut))]
    return EpistemicStructure(game, states, prior, signals, atoms, truth, partitions)


def random_formula(rng: random.Random, game: Game, signals, atoms, depth: int = 3):
    """Arbitrary well-formed formula over the given vocabulary."""
    players = game.players
    leaves = ["play", "receive"] + (["prim"] if atoms else [])
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(
            leaves
            + ["not", "and", "implies", "probge", "belief", "mutual", "cb", "opt", "rat"]
        )
    if kind == "prim":
        return Prim(rng.choice(atoms))
    if kind == "play":
        p = rng.choice(players)
        return Play(p, rng.choice(game.actions_of(p)))
    if kind == "receive":
        return Receive(rng.choice(players), rng.choice(signals))
    if kind == "not":
        return Not(random_formula(rng, game, signals, atoms, depth - 1))
    if kind == "and":
        return And(
            random_formula(rng, game, signals, atoms, depth - 1),
            random_formula(rng, game, signals, atoms, depth - 1),
        )
    if kind == "implies":
        return Implies(
            random_formula(rng, game, signals, atoms, depth - 1),
            random_formula(rng, game, signals, atoms, depth - 1),
        )
    if kind == "probge":
        owner = rng.choice(players)
        terms = tuple(
            (
                Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)),
                random_formula(rng, game, signals, atoms, depth - 1),
            )
            for _ in range(rng.randint(1, 3))
        )
        bound = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        return ProbGe(owner, terms, bound)
    if kind == "belief":
        return Belief(
            rng.choice(players), random_formula(rng, game, signals, atoms, depth - 1)
        )
    if kind == "mutual":
        return MutualBelief(
            rng.randint(1, 2), random_formula(rng, game, signals, atoms, depth - 1)
        )
    if kind == "cb":
        return CommonBelief(random_formula(rng, game, signals, atoms, depth - 1))
    if kind == "opt":
        p = rng.choice(players)
        return Optimal(p, rng.choice(game.actions_of(p)))
    assert kind == "rat"
    return Rationality(rng.choice(players))


class CountedPayoffs(collections.abc.Mapping):
    """A payoff table that counts the vectors read from it by profile;
    iterating it, `items` and `in` read nothing."""

    def __init__(self, table):
        self.table, self.reads = table, collections.Counter()

    def __getitem__(self, profile):
        self.reads[profile] += 1
        return self.table[profile]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)

    def __contains__(self, profile):
        return profile in self.table

    def items(self):
        return self.table.items()
