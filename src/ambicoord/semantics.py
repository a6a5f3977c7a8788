"""Satisfaction checking on epistemic structures.

The evaluator works on a structure's compiled form: states are bit
positions, events are int bitmasks, leaf propositions read their masks off
the structure's interpretation tables, and the prior is integer numerators
over a common denominator, so every comparison is exact integer/Fraction
arithmetic.

Probability inequalities are evaluated per information cell of their owner
(their truth is constant on each cell and independent of the viewer), then
broadcast to states.  `EB^k` and common belief read one walk over the
shrinking levels EB(f), EB^2(f), ...: `EB^k` stops at level k, common belief
at the fixed point, the intersection of all levels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import PreconditionError
from .formulas import (
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
    rewrite,
)
from .structures import mask_mass

# node kinds whose truth cannot depend on who evaluates them
_VIEWER_FREE = (ProbGe, Belief, MutualBelief, CommonBelief, Optimal)


class Evaluator:
    """Compiled, memoizing model checker for one structure.

    It keeps the structure's compiled tables, not the structure: a structure
    caches its evaluator, so a reference back would make a cycle that only
    the cyclic garbage collector frees.
    """

    def __init__(self, m):
        self.game = m.game
        self.atoms = m.atoms
        self.signals = m.signals
        self.tables = m.masks
        self.full = m.full
        self.num = m.prior_num
        self.cells: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
            p: (masks, tuple(mask_mass(self.num, mk) for mk in masks))
            for p, masks in m.cell_masks().items()
        }
        self._memo: dict = {}

    # -- plumbing -------------------------------------------------------------

    def _leaf(self, viewer: str, f: Formula) -> int:
        table = self.tables.get(viewer)
        if table is None:
            raise KeyError(f"unknown player {viewer!r}")
        return table.get(f, 0)

    # -- intensions -----------------------------------------------------------

    def intension_mask(self, viewer: str, f: Formula) -> int:
        self.game.player_index(viewer)
        return self._mask(viewer, f)

    def _mask(self, viewer: str, f: Formula) -> int:
        key = (None, f) if isinstance(f, _VIEWER_FREE) else (viewer, f)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._compute(viewer, f)
        return hit

    def _compute(self, viewer: str, f: Formula) -> int:
        if isinstance(f, Prim):
            if f.name not in self.atoms:
                raise PreconditionError(f"formula references undeclared atom {f.name!r}")
            return self._leaf(viewer, f)
        if isinstance(f, Play):
            if f.action not in self.game.actions_of(f.player):
                raise PreconditionError(f"{f.action!r} is not an action of player {f.player!r}")
            return self._leaf(viewer, f)
        if isinstance(f, Receive):
            self.game.player_index(f.player)
            if f.signal not in self.signals:
                raise PreconditionError(f"formula references undeclared signal {f.signal!r}")
            return self._leaf(viewer, f)
        if isinstance(f, Not):
            return self.full ^ self._mask(viewer, f.arg)
        if isinstance(f, And):
            return self._mask(viewer, f.left) & self._mask(viewer, f.right)
        if isinstance(f, Implies):
            return (self.full ^ self._mask(viewer, f.left)) | self._mask(viewer, f.right)
        if isinstance(f, ProbGe):
            return self._probge(f)
        if isinstance(f, Belief):
            return self._believe(f.player, self._mask(f.player, f.arg))
        if isinstance(f, MutualBelief):
            return self._everybody_believes(f.arg, f.order)
        if isinstance(f, CommonBelief):
            return self._everybody_believes(f.arg, None)
        if isinstance(f, (Optimal, Rationality)):
            # through its definition, built on a memo miss only
            return self._mask(viewer, rewrite(f, self.game, lambda g: g))
        raise TypeError(f"not a formula node: {f!r}")

    def _probge(self, f: ProbGe) -> int:
        self._owner_cells(f.owner)  # an unknown owner is refused before the operands
        terms = [(coef, self._mask(f.owner, sub)) for coef, sub in f.terms]
        out = 0
        for cmask, csum in self._positive_cells(f.owner):
            lhs = Fraction(0)
            for coef, emask in terms:
                if coef != 0:
                    inter = emask & cmask
                    if inter:
                        lhs += coef * mask_mass(self.num, inter)
            if lhs >= f.bound * csum:
                out |= cmask
        return out

    def _owner_cells(self, owner: str):
        cells = self.cells.get(owner)
        if cells is None:
            raise PreconditionError(f"unknown player {owner!r} in probability formula")
        return cells

    def _positive_cells(self, owner: str):
        """The owner's (cell mask, cell mass) pairs, all of positive mass."""
        masks, sums = self._owner_cells(owner)
        if 0 in sums:
            raise PreconditionError(
                f"zero-mass information cell of player {owner!r}; posterior undefined"
            )
        return zip(masks, sums)

    def _believe(self, player: str, emask: int) -> int:
        """States where the player assigns posterior 1 to the event."""
        out = 0
        for cmask, csum in self._positive_cells(player):
            if mask_mass(self.num, emask & cmask) == csum:
                out |= cmask
        return out

    def _everybody_believes(self, f: Formula, order: Optional[int]) -> int:
        """EB^order(f); order None walks on to the fixed point, CB(f).

        The levels shrink: at a state of EB(L), each player's cell has positive
        mass (`_believe` refuses the rest) and so meets L, which lies in the
        union of her cells that believed the event before.  So CB, the levels'
        intersection, is the first level equal to the one before."""
        players = self.game.players
        level = self.full
        for j in players:
            level &= self._believe(j, self._mask(j, f))
        n = 1
        while n != order:
            nxt = self.full
            for j in players:
                nxt &= self._believe(j, level)
            if nxt == level:
                break
            level, n = nxt, n + 1
        return level


# ------------------------------------------------------------- public API


def posterior(m, player: str, event: Iterable[str], state: str) -> Fraction:
    """P(event | player's information cell at state) under the prior."""
    cell = m.cell(player, state)
    cell_mass = m.mass(cell)
    if cell_mass == 0:
        raise PreconditionError(
            f"information cell of player {player!r} at state {state!r} has zero prior mass"
        )
    hits = frozenset(event) & cell
    return m.mass(hits) / cell_mass


def holds(m, state: str, player: str, f: Formula) -> bool:
    """Does the player deem the formula true at the state?"""
    ev = m.evaluator()
    return bool((ev.intension_mask(player, f) >> m.state_index(state)) & 1)


def intension(m, player: str, f: Formula) -> frozenset[str]:
    """All states where the player deems the formula true."""
    return m.states_of(m.evaluator().intension_mask(player, f))


def cb_intension(m, f: Formula) -> frozenset[str]:
    """States where the formula is common belief (viewer-independent)."""
    return intension(m, m.game.players[0], CommonBelief(f))


def valid(m, f: Formula) -> bool:
    """True when every player deems the formula true at every state."""
    ev = m.evaluator()
    return all(ev.intension_mask(p, f) == ev.full for p in m.game.players)
