"""Finite strategic games, distributions over action profiles, and the
objective/subjective correlated-equilibrium checks and solver.

All payoffs and probabilities are exact rationals.  Profiles are tuples of
action names in player order; their JSON key form joins the names with ",".
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from . import lp
from .errors import PreconditionError, SchemaError
from .rationals import format_rational, fraction, parse_rational, ratio, ratio_text, scaled
from .reports import Report

# player, action, signal and atom names: the identifiers of the formula grammar
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# a player's 1-based position, which may stand for her name
NUMERAL_RE = re.compile(r"[0-9]+")
# the most action profiles `solve_ce` takes on: its time follows the LP's
# pivots, which grow with the count; the slowest of 5 seeded random games
# (README) took 0.35 s at 48 profiles (6x8), 0.013 s at 64 (4x4x4), 2.5 s at
# 64 (4x16), 0.11 s at 64 (8x8), 0.005 s at 81 (3x3x3x3) and 1.9 s at 100
# (10x10) on a 2-vCPU host
MAX_CE_PROFILES = 48

Profile = tuple[str, ...]


def profile_key(profile: Sequence[str]) -> str:
    return ",".join(profile)


class Game:
    """n-player normal-form game with named players and actions.

    Every `Game` is valid, checked only here: the constructor refuses, with
    SchemaError, a game in which `validate_game` finds a problem, its problems
    joined by "; "; so a profile of the game is one that `payoffs` holds.
    Its tables are read-only, so the players' integer payoff columns, which
    the CE checks, `opt_i(a)`, its printed core and the rationality gap
    read, are built once per game and kept.  `solve_ce` keeps nothing.
    """

    def __init__(
        self,
        players: Sequence[str],
        actions: Mapping[str, Sequence[str]],
        payoffs: Mapping[Sequence[str], Sequence[Fraction | int]],
    ):
        self.players = tuple(players)
        self.actions = MappingProxyType({p: tuple(acts) for p, acts in actions.items()})
        self.payoffs = MappingProxyType(
            {tuple(profile): tuple(map(fraction, values)) for profile, values in payoffs.items()}
        )
        self._index = {p: k for k, p in enumerate(self.players)}
        self._by_position = {str(k): p for k, p in enumerate(self.players, 1)}
        report = validate_game(self)
        if not report.ok:
            raise SchemaError("; ".join(report.failures))
        self._payoff_columns: dict[str, tuple[int, dict, dict]] = {}

    @property
    def n(self) -> int:
        return len(self.players)

    def player_index(self, player: str) -> int:
        try:
            return self._index[player]
        except KeyError:
            raise KeyError(f"unknown player {player!r}") from None

    def player_named(self, text: str) -> Optional[str]:
        """The player `text` gives: a 1-based position in ASCII digits, or
        else a name; None when it gives no player."""
        if NUMERAL_RE.fullmatch(text):
            return self._by_position.get(text.lstrip("0"))
        return text if text in self._index else None

    def actions_of(self, player: str) -> tuple[str, ...]:
        try:
            return self.actions[player]
        except KeyError:
            raise KeyError(f"unknown player {player!r}") from None

    def profiles(self) -> Iterable[Profile]:
        """All full action profiles, in declared (player-major) order."""
        return itertools.product(*(self.actions_of(p) for p in self.players))

    def opponent_profiles(self, player: str) -> Iterable[tuple[str, ...]]:
        """Action combinations of everyone else, in player order."""
        others = (self.actions_of(p) for p in self.players if p != player)
        return itertools.product(*others)

    def profile_with(self, player: str, action: str, opponents: Sequence[str]) -> Profile:
        """Assemble a full profile from one player's action and the rest."""
        k = self.player_index(player)
        rest = iter(opponents)
        return tuple(action if i == k else next(rest) for i in range(self.n))

    def payoff(self, player: str, profile: Sequence[str]) -> Fraction:
        values = self.payoffs.get(tuple(profile))
        if values is None:
            raise KeyError(f"no payoff entry for profile {profile_key(profile)!r}")
        return values[self.player_index(player)]

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.players == other.players
            and self.actions == other.actions
            and self.payoffs == other.payoffs
        )

    def __repr__(self):
        return f"Game(players={self.players!r})"

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Game":
        if not isinstance(data, dict):
            raise SchemaError("game: expected an object")
        extra = set(data) - {"players", "actions", "payoffs"}
        if extra:
            raise SchemaError(f"game: unknown keys {sorted(extra)}")
        players = data.get("players")
        if not isinstance(players, list) or not all(isinstance(p, str) for p in players):
            raise SchemaError("game: 'players' must be a list of strings")
        actions = data.get("actions")
        if not isinstance(actions, dict):
            raise SchemaError("game: 'actions' must be an object")
        for p, acts in actions.items():
            if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
                raise SchemaError(f"game: actions of player {p!r} must be a list of strings")
        payoffs_raw = data.get("payoffs")
        if not isinstance(payoffs_raw, dict):
            raise SchemaError("game: 'payoffs' must be an object")
        payoffs = {}
        for key, values in payoffs_raw.items():
            if not isinstance(values, list):
                raise SchemaError(f"game: payoff vector for {key!r} must list one value per player")
            try:
                payoffs[tuple(key.split(","))] = tuple(parse_rational(v) for v in values)
            except ValueError as exc:
                raise SchemaError(f"game: payoff for {key!r}: {exc}") from None
        try:
            return cls(players, actions, payoffs)
        except SchemaError as exc:
            raise SchemaError(f"game: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "players": list(self.players),
            "actions": {p: list(self.actions_of(p)) for p in self.players},
            "payoffs": {
                profile_key(a): [format_rational(v) for v in self.payoffs[a]]
                for a in self.profiles()
            },
        }


def parse_profile_key(key: str, game: Game) -> Profile:
    """The profile "a1,a2,..." names; SchemaError, with `_not_a_profile`'s reason, if none."""
    if not isinstance(key, str):
        raise SchemaError(f"profile key must be a string, got {key!r}")
    parts = tuple(key.split(","))
    if parts not in game.payoffs:  # a game has a payoff at every profile and no other
        raise SchemaError(f"profile key {key!r}: {_not_a_profile(game, parts)}")
    return parts


def _not_a_profile(game: Game, parts: Sequence[str]) -> Optional[str]:
    """Why `parts` is no action profile of the game: the wrong count of
    actions, or the first action its player lacks; None if it is one."""
    if len(parts) != game.n:
        return f"expected {game.n} actions, got {len(parts)}"
    for p, a in zip(game.players, parts):
        if a not in game.actions[p]:
            return f"{a!r} is not an action of player {p!r}"
    return None


def _roster_problems(players: Sequence[str], actions: Mapping[str, Sequence[str]]) -> list[str]:
    """The problems of a game's players: at least two, each named by an
    identifier or by her 1-based position, once; and only if those are
    sound, of their actions: distinct identifiers, given for no other name."""
    problems = [] if len(players) >= 2 else [f"need at least 2 players, got {len(players)}"]
    by_position = {str(k): p for k, p in enumerate(players, 1)}
    seen = set()
    for k, p in enumerate(players):
        if not p:
            problems.append("empty player name")
        elif p in seen:
            problems.append(f"duplicate player name {p!r}")
        elif NUMERAL_RE.fullmatch(p) and by_position.get(p.lstrip("0")) != p:
            problems.append(f"numeric player name {p!r} must equal its position {k + 1}")
        elif not NUMERAL_RE.fullmatch(p) and NAME_RE.fullmatch(p) is None:
            problems.append(f"player name {p!r} is not an identifier")
        seen.add(p)
    if problems:
        return problems
    for p in players:
        acts = actions.get(p, ())
        if not acts:
            problems.append(f"player {p!r} has no actions")
        if len(set(acts)) != len(acts):
            problems.append(f"player {p!r} has duplicate actions")
        for a in acts:
            if NAME_RE.fullmatch(a) is None:
                problems.append(f"action name {a!r} of player {p!r} is not an identifier")
    return problems + [f"actions given for unknown player {p!r}" for p in actions if p not in seen]


def validate_game(game: Game) -> Report:
    """The problems for which `Game(...)` refuses a game, so every `Game`
    passes: those of its players and their actions, then (only if none) a
    vector of one payoff per player at every action profile and no other, in
    time and message size linear in the table: the missing profiles by the
    first in sorted order and a count, each unknown one with its reason."""
    problems = _roster_problems(game.players, game.actions)
    if not problems:
        payoffs, n, actions = game.payoffs, game.n, [game.actions[p] for p in game.players]
        size = math.prod(map(len, actions))
        if len(payoffs) != size or not all(map(payoffs.__contains__, itertools.product(*actions))):
            unknown = sorted((a, why) for a in payoffs if (why := _not_a_profile(game, a)))
            missing = size - (len(payoffs) - len(unknown))
            if missing:
                first = next(a for a in itertools.product(*map(sorted, actions)) if a not in payoffs)
                more = f" and {missing - 1} more" if missing > 1 else ""
                problems.append(f"missing payoff entry for profile {profile_key(first)!r}{more}")
            problems += [f"payoff entry for unknown profile {profile_key(a)!r}: {why}" for a, why in unknown]
        problems += [
            f"payoff vector for {profile_key(a)!r} has length {len(values)}"
            for a, values in payoffs.items()
            if len(values) != n
        ]
    return Report(not problems, tuple(problems))


class Distribution:
    """Exact probability weights on full action profiles; zeros are implicit.

    The stored form is integer: `num` maps each profile of nonzero weight,
    in insertion order, to its numerator over the one positive denominator
    `denom`, in lowest terms, so equal distributions store equal forms.
    `weights`, `weight` and `total` are `Fraction` views of it.
    """

    def __init__(self, weights: Mapping[Sequence[str], Fraction | int]):
        exact = {tuple(profile): fraction(w) for profile, w in weights.items()}
        nonzero = {a: w for a, w in exact.items() if w}
        nums, denom = scaled(list(nonzero.values()))
        self._install(dict(zip(nonzero, nums)), denom)

    @classmethod
    def from_numerators(cls, num: Mapping[Profile, int], denom: int) -> "Distribution":
        """The weights num[a] / denom, for a positive integer denom."""
        dist = cls.__new__(cls)
        dist._install(num, denom)
        return dist

    def _install(self, num: Mapping[Profile, int], denom: int) -> None:
        """Keep the nonzero numerators, all reduced with the denominator."""
        common = math.gcd(denom, *num.values())
        self.denom = denom // common
        self.num = {a: w // common for a, w in num.items() if w}

    @cached_property
    def weights(self) -> Mapping[Profile, Fraction]:
        """The nonzero weights by profile, in order, read-only, built when
        first read."""
        denom = self.denom
        return MappingProxyType({a: Fraction(w, denom) for a, w in self.num.items()})

    def weight(self, profile: Sequence[str]) -> Fraction:
        return Fraction(self.num.get(tuple(profile), 0), self.denom)

    def support(self) -> tuple[Profile, ...]:
        return tuple(self.num)

    def total(self) -> Fraction:
        return Fraction(sum(self.num.values()), self.denom)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.denom == other.denom and self.num == other.num

    def __repr__(self):
        inner = ", ".join(f"{profile_key(a)}: {ratio_text(w, self.denom)}" for a, w in self.num.items())
        return f"Distribution({{{inner}}})"

    @classmethod
    def from_dict(cls, data: dict, game: Game) -> "Distribution":
        pairs = _ratios_from_dict(data, game, "distribution")
        denom = math.lcm(*(q for p, q in pairs.values() if p))
        dist = cls.from_numerators({a: p * (denom // q) for a, (p, q) in pairs.items()}, denom)
        if any(w < 0 for w in dist.num.values()):
            raise SchemaError("distribution: negative weight")
        if sum(dist.num.values()) != dist.denom:
            raise SchemaError(f"distribution: weights sum to {dist.total()}, not 1")
        return dist

    def to_dict(self, game: Game) -> dict:
        num = self.num
        ordered = {profile_key(a): ratio_text(num[a], self.denom) for a in game.profiles() if a in num}
        return {"weights": ordered}


def _ratios_from_dict(data: dict, game: Game, what: str) -> dict[Profile, tuple[int, int]]:
    """The weights of a distribution-shaped object as (numerator,
    denominator) pairs, not reduced, by profile."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected an object")
    extra = set(data) - {"weights"}
    if extra:
        raise SchemaError(f"{what}: unknown keys {sorted(extra)}")
    raw = data.get("weights")
    if not isinstance(raw, dict):
        raise SchemaError(f"{what}: 'weights' must be an object")
    out = {}
    for key, value in raw.items():
        profile = parse_profile_key(key, game)
        try:
            out[profile] = ratio(value)
        except ValueError as exc:
            raise SchemaError(f"{what}: weight for {key!r}: {exc}") from None
    return out


def load_objective(data: dict, game: Game) -> dict[Profile, Fraction]:
    """Objective vectors share the distribution file shape, minus its invariants."""
    return {a: Fraction(p, q) for a, (p, q) in _ratios_from_dict(data, game, "objective").items()}


# ---------------------------------------------------------------- CE checks


def payoff_columns(game: Game, player: str) -> tuple[int, dict, dict]:
    """The player's payoffs in integers, one column per action.

    Returns (L, told, columns).  L is the lcm of the denominators of her
    payoffs; told maps each of her actions to its profiles, in
    `opponent_profiles` order; and columns[a] lists L * u(profile) over
    told[a].  What following a gains over b is columns[a] - columns[b], and
    a is optimal against a belief where its mass-weighted column sum is the
    largest.  The CE checks, `opt_i(a)`, its printed core and the
    rationality gap all read these.  Every player's columns are built at
    once, when one is first asked for, and kept on the game.  columns[a] for
    an action she lacks is refused with a KeyError naming it.
    """
    tables = game._payoff_columns
    if not tables:
        profiles = list(game.profiles())
        for p, (scale, spots, columns) in _payoff_tables(game).items():
            told = {a: [profiles[q] for q in at] for a, at in spots.items()}
            tables[p] = scale, told, _Columns(p, columns)
    try:
        return tables[player]
    except KeyError:
        raise KeyError(f"unknown player {player!r}") from None


class _Columns(dict):
    """A player's payoff columns by action; an action she lacks is refused by name."""

    def __init__(self, player: str, columns: Mapping[str, list[int]]):
        super().__init__(columns)
        self.player = player

    def __missing__(self, action):
        raise KeyError(f"{action!r} is not an action of player {self.player!r}")


def _payoff_tables(game: Game) -> dict[str, tuple[int, dict, dict]]:
    """Each player's (L, spots, columns) from one read of each payoff vector:
    `payoff_columns` with told[a] given as the positions `_spots` gives."""
    tables = {}
    for p, values in zip(game.players, zip(*map(game.payoffs.__getitem__, game.profiles()))):
        values, scale = scaled(values)
        spots = _spots(game, p)
        tables[p] = scale, spots, {a: [values[q] for q in at] for a, at in spots.items()}
    return tables


def _spots(game: Game, player: str) -> dict[str, list[int]]:
    """For each of the player's actions, the positions in `Game.profiles()`
    order of the profiles where she plays it, in `opponent_profiles` order.

    Positions run player-major, so where she plays her j-th action of m, each
    block of m * stride positions holds the run j * stride + (0 .. stride - 1),
    stride being the product of the later players' action counts."""
    counts = [len(game.actions_of(p)) for p in game.players]
    k = game.player_index(player)
    stride = math.prod(counts[k + 1 :])
    block, size = counts[k] * stride, math.prod(counts)
    return {
        a: [q for start in range(j * stride, size, block) for q in range(start, start + stride)]
        for j, a in enumerate(game.actions_of(player))
    }


def _expected_gains(
    game: Game, player: str, pairs: Sequence[tuple[str, str]], dist: Distribution
) -> tuple[list[int], int]:
    """The expected gain of each (action, alt) of `pairs` under `dist`, as
    integer numerators over one positive denominator: the player's
    columns[action] - columns[alt] weighted by the distribution's numerators
    at told[action] (absent profiles weigh 0)."""
    scale, told, columns = payoff_columns(game, player)
    num = dist.num
    at = {a: [num.get(t, 0) for t in profiles] for a, profiles in told.items()}
    return [sum(map(mul, map(sub, columns[a], columns[b]), at[a])) for a, b in pairs], scale * dist.denom


@dataclass(frozen=True)
class DeviationIssue:
    """One violated incentive inequality, with its exact slack."""

    player: str
    action: str
    deviation: str
    slack: Fraction


def deviation_slack(game: Game, dist: Distribution, player: str, action: str, alt: str) -> Fraction:
    """Expected payoff loss of switching action->alt on the event "told action"."""
    (gain,), denom = _expected_gains(game, player, [(action, alt)], dist)
    return Fraction(gain, denom)


def check_objective_ce(game: Game, dist: Distribution) -> Report:
    """Every player weakly prefers following each recommended action."""
    return check_subjective_ce(game, [dist] * game.n)


def check_subjective_ce(game: Game, dists: Sequence[Distribution]) -> Report:
    """Each player's inequalities are checked against her own distribution;
    a support profile not in `game.payoffs` is refused with `_not_a_profile`'s reason."""
    if len(dists) != game.n:
        raise PreconditionError(f"need one distribution per player, got {len(dists)} for {game.n}")
    for profile in (a for d in dists for a in d.support()):
        if profile not in game.payoffs:  # a game has a payoff at every profile and no other
            raise PreconditionError(f"distribution profile {profile_key(profile)!r}: {_not_a_profile(game, profile)}")
    failures = []
    for p, d in zip(game.players, dists):
        # her (action, alt) pairs, alt != action: her CE inequalities, in order
        pairs = list(itertools.permutations(game.actions_of(p), 2))
        gains, denom = _expected_gains(game, p, pairs, d)
        failures += [
            DeviationIssue(p, action, alt, Fraction(gain, denom))
            for (action, alt), gain in zip(pairs, gains)
            if gain < 0
        ]
    return Report(not failures, tuple(failures))


def solve_ce(game: Game, objective: Mapping[Profile, Fraction] | None = None) -> Distribution:
    """Maximize a rational objective over the correlated-equilibrium polytope.

    Returns a vertex, exactly.  The polytope is never empty, so
    infeasibility indicates a fault.  A game of more than
    MAX_CE_PROFILES action profiles is refused before any row is built.

    The LP is built in integers, and `lp` takes its rows as they are.  The
    objective is scaled by the lcm of its denominators, and each incentive
    row, gains G over L, is reduced by gcd(L, *G), which puts its exact
    values on the lcm of their denominators.  A row's scale leaves the
    polytope as it is but steers the dual simplex's choice of leaving row
    (the most negative right-hand side), so this one integer form per
    inequality keeps every vertex and every pivot.
    """
    size = math.prod(len(game.actions_of(p)) for p in game.players)
    if size > MAX_CE_PROFILES:
        raise PreconditionError(f"the game has {size} action profiles, more than the cap of {MAX_CE_PROFILES}")
    profiles = list(game.profiles())
    weights = {}
    for a, v in (objective or {}).items():
        if tuple(a) not in game.payoffs:  # a game has a payoff at every profile and no other
            raise PreconditionError(f"objective names unknown profile {profile_key(a)!r}")
        weights[tuple(a)] = fraction(v)
    # c, and each row below, on the lcm of its exact values' denominators: a
    # row of gains G over L has lcm L / gcd(L, *G), so it becomes G / gcd(L, *G)
    c, _ = scaled([weights.get(a, 0) for a in profiles])
    # built per call, not kept on the game: a game is often solved only
    # once; each payoff vector is read once, and a gain is placed by position
    rows = []
    for scale, spots, columns in _payoff_tables(game).values():
        for action, alt in itertools.permutations(columns, 2):
            gains = list(map(sub, columns[action], columns[alt]))
            g = math.gcd(scale, *gains)
            if g != 1:
                gains = [v // g for v in gains]
            row = [0] * size
            for q, v in zip(spots[action], gains):
                row[q] = v
            rows.append(row)
    try:
        d, x, _ = lp.maximize(c, rows)
    except lp.Infeasible:
        raise PreconditionError("correlated-equilibrium constraints are infeasible") from None
    return Distribution.from_numerators(dict(zip(profiles, x)), d)
