"""Formula AST for a propositional language with player-relative probability.

Core connectives are negation, conjunction, linear probability inequalities
and common belief.  Everything else (implication, probability-1 belief,
iterated mutual belief, action optimality, rationality) is definable sugar;
`expand` rewrites a formula so only core nodes remain, given the game that
fixes players, actions and payoffs.

Two formulas are equal iff they are structurally identical; `str(f)` renders
the canonical concrete syntax accepted by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import PreconditionError
from .games import incentive_gains
from .rationals import fraction

if TYPE_CHECKING:
    from .games import Game


@dataclass(frozen=True)
class Formula:
    """Abstract base; only the concrete node classes below are instantiated."""

    _hash = None  # not a field: set by the first hash of a _node instance

    def __str__(self) -> str:
        return _text(self, _IMP, {})

    def __getstate__(self):
        # the kept hash (see _node) is salted per process: leave it behind
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _node(cls):
    """A frozen dataclass that hashes its fields once: the generated hash
    walks the whole subtree, so memo lookups by every sub-formula of a d-deep
    formula would cost O(d^2).  The hash is kept outside the fields.  Leaf
    nodes keep the generated hash: their string fields keep their own."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------- core nodes


@dataclass(frozen=True)
class Prim(Formula):
    """A generic primitive proposition (an atom declared by the structure)."""

    name: str


@dataclass(frozen=True)
class Play(Formula):
    """Primitive proposition "player plays action"."""

    player: str
    action: str


@dataclass(frozen=True)
class Receive(Formula):
    """Primitive proposition "player received signal"."""

    player: str
    signal: str


@_node
class Not(Formula):
    arg: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class ProbGe(Formula):
    """Linear inequality over one player's subjective probabilities.

    Holds at a state iff sum(coef * P_owner(sub)) >= bound, where P_owner
    conditions the prior on the owner's information cell at that state.
    Its truth value does not depend on who evaluates it.
    """

    owner: str
    terms: tuple[tuple[Fraction, Formula], ...]
    bound: Fraction

    def __post_init__(self):
        terms = tuple((fraction(c), f) for c, f in self.terms)
        if not terms:
            raise ValueError("probability inequality needs at least one term")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bound", fraction(self.bound))


@_node
class CommonBelief(Formula):
    """Common belief: mutual belief of every finite order at once."""

    arg: Formula


# --------------------------------------------------------------- sugar nodes


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Belief(Formula):
    """Probability-1 belief of one player (a pair of ProbGe inequalities)."""

    player: str
    arg: Formula


@_node
class MutualBelief(Formula):
    """order-fold "everybody believes"; order 1 is plain mutual belief."""

    order: int
    arg: Formula

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"mutual-belief order must be a positive int, got {self.order!r}")


@dataclass(frozen=True)
class Optimal(Formula):
    """The action maximizes the player's expected payoff under her posterior."""

    player: str
    action: str


@dataclass(frozen=True)
class Rationality(Formula):
    """The player plays only actions she deems optimal."""

    player: str


# ------------------------------------------------------------------ printing

# precedence levels of the grammar productions, loosest first
_IMP, _CONJ, _NEG, _ATOM = 0, 1, 2, 3


def _text(f: Formula, need: int, memo: dict) -> str:
    # each distinct node (`expand` shares them) laid out once per memo, keyed
    # by identity; a memo value keeps its node alive
    hit = memo.get(id(f))
    if hit is None:
        pieces, level = _layout(f)
        text = "".join(p if isinstance(p, str) else _text(*p, memo) for p in pieces)
        hit = memo[id(f)] = (f, text, level)
    _, text, level = hit
    return f"({text})" if level < need else text


def _layout(f: Formula) -> tuple[tuple, int]:
    """The node's text as pieces, strings and (operand, level it needs)
    pairs, and the node's own precedence level."""
    if isinstance(f, Prim):
        return (f.name,), _ATOM
    if isinstance(f, Play):
        return (f"pl({f.player},{f.action})",), _ATOM
    if isinstance(f, Receive):
        return (f"rec({f.player},{f.signal})",), _ATOM
    if isinstance(f, Not):
        return ("!", (f.arg, _NEG)), _NEG
    if isinstance(f, And):
        # left-nested chains print flat: (a & b) & c  ->  "a & b & c"
        return ((f.left, _CONJ), " & ", (f.right, _NEG)), _CONJ
    if isinstance(f, Implies):
        # right associative
        return ((f.left, _CONJ), " -> ", (f.right, _IMP)), _IMP
    if isinstance(f, ProbGe):
        pieces: list = []
        for k, (coef, sub) in enumerate(f.terms):
            # the first coefficient keeps its sign; later ones print as + or -
            sign, mag = ("", coef) if k == 0 else (" - " if coef < 0 else " + ", abs(coef))
            lead = sign if mag == 1 else f"{sign}{mag}*"
            pieces += [f"{lead}pr_{f.owner}(", (sub, _IMP), ")"]
        return (*pieces, f" >= {f.bound}"), _ATOM
    if isinstance(f, CommonBelief):
        return ("CB(", (f.arg, _IMP), ")"), _ATOM
    if isinstance(f, Belief):
        return (f"B_{f.player}(", (f.arg, _IMP), ")"), _ATOM
    if isinstance(f, MutualBelief):
        head = "EB" if f.order == 1 else f"EB^{f.order}"
        return (f"{head}(", (f.arg, _IMP), ")"), _ATOM
    if isinstance(f, Optimal):
        return (f"opt_{f.player}({f.action})",), _ATOM
    if isinstance(f, Rationality):
        return (f"rat_{f.player}",), _ATOM
    raise TypeError(f"not a formula node: {f!r}")


# ----------------------------------------------------------------- expansion


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-nested conjunction of one or more formulas."""
    it = iter(parts)
    try:
        out = next(it)
    except StopIteration:
        raise ValueError("empty conjunction") from None
    for p in it:
        out = And(out, p)
    return out


def expand(f: Formula, game: Game, limit: int | None = None) -> Formula:
    """Rewrite to core nodes only (Prim/Play/Receive/Not/And/ProbGe/CommonBelief).

    Expansion is idempotent, and satisfaction is invariant under it.  Each
    distinct sub-formula is expanded once per call and shared where the
    rewrite repeats it, and EB^k is built one level at a time.  Given a
    `limit`, each node's printed length is measured as it is built, and
    PreconditionError is raised once the expansion would print more than
    `limit` characters, so the cost stays linear in f however long the
    result would print.
    """
    memo: dict[Formula, Formula] = {}
    sizes: dict[Formula, tuple[int, int]] = {}  # built node -> (length without parentheses, level)

    def length(g: Formula, need: int = _IMP) -> int:
        """len(_text(g, need)), each built node measured once."""
        hit = sizes.get(g)
        if hit is None:
            pieces, level = _layout(g)
            hit = sizes[g] = (sum(len(p) if isinstance(p, str) else length(*p) for p in pieces), level)
        body, level = hit
        return body + 2 if level < need else body

    def built(g: Formula) -> Formula:
        if limit is not None and length(g) > limit:
            raise PreconditionError(f"the expanded formula would print more than {limit} characters")
        return g

    def rec(g: Formula) -> Formula:
        hit = memo.get(g)
        if hit is None:
            if isinstance(g, MutualBelief):
                hit = rec(g.arg)
                for _ in range(g.order):
                    hit = built(_everybody_believes(hit, game))
            else:
                hit = built(rewrite(g, game, rec))
            memo[g] = hit
        return hit

    return rec(f)


def rewrite(f: Formula, game: Game, rec: Callable[[Formula], Formula]) -> Formula:
    """f's own sugar rewritten to core nodes, each operand g replaced by
    rec(g).  MutualBelief is left to `expand`, which iterates its order."""
    if isinstance(f, (Prim, Play, Receive)):
        return f
    if isinstance(f, Not):
        return Not(rec(f.arg))
    if isinstance(f, And):
        return And(rec(f.left), rec(f.right))
    if isinstance(f, Implies):
        return Not(And(rec(f.left), Not(rec(f.right))))
    if isinstance(f, ProbGe):
        return ProbGe(f.owner, tuple((c, rec(sub)) for c, sub in f.terms), f.bound)
    if isinstance(f, CommonBelief):
        return CommonBelief(rec(f.arg))
    if isinstance(f, Belief):
        return _believes(f.player, rec(f.arg))
    if isinstance(f, Optimal):
        return optimality_core(f.player, f.action, game)
    if isinstance(f, Rationality):
        return conj(
            rec(Implies(Play(f.player, a), Optimal(f.player, a))) for a in game.actions_of(f.player)
        )
    raise TypeError(f"not a formula node: {f!r}")


def _believes(player: str, sub: Formula) -> Formula:
    """Core form of B_player(sub): probability at least 1 and at most 1."""
    return And(
        ProbGe(player, ((Fraction(1), sub),), Fraction(1)),
        ProbGe(player, ((Fraction(-1), sub),), Fraction(-1)),
    )


def _everybody_believes(sub: Formula, game: Game) -> Formula:
    return conj(_believes(j, sub) for j in game.players)


def optimality_core(player: str, action: str, game: Game) -> Formula:
    """Core form of "action is a best response under player's beliefs".

    One inequality per alternative: the expected incentive gain
    (`incentive_gains`) against the believed opponent play is >= 0.  The
    alternative equal to the action itself yields the trivially true all-zero
    inequality and is kept, so the conjunction always ranges over the
    player's whole action set.  This is the form `expand` prints, built once
    per `expand` call for each player and action; the evaluator decides
    `opt_i(a)` from the same integer gains without building it.
    """
    others = [j for j in game.players if j != player]
    events = [conj(Play(j, b) for j, b in zip(others, combo)) for combo in game.opponent_profiles(player)]
    scale, _, gains = incentive_gains(game, player, [(action, alt) for alt in game.actions_of(player)])
    return conj(
        ProbGe(player, tuple((Fraction(g, scale), e) for g, e in zip(row, events)), Fraction(0)) for row in gains
    )
