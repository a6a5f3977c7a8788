"""Satisfaction checking on epistemic structures.

The evaluator works on a structure's compiled form: states are bit
positions, events are int bitmasks, leaf propositions read their masks off
the structure's interpretation tables, and the prior is integer numerators
over a common denominator, so every comparison is exact integer/Fraction
arithmetic.

Probability inequalities are evaluated per information cell of their owner
(their truth is constant on each cell and independent of the viewer), then
broadcast to states.  Common belief follows its fixed-point characterization:
iterate the everybody-believes-event operator from the mutual-belief set and
intersect the orbit, stopping when a set repeats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable

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
from .structures import flags, mask_mass

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
        self.states = m.states
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

    def states_of(self, mask: int) -> frozenset[str]:
        return frozenset(compress(self.states, flags(mask)))

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
            cur = self._everybody_believes_formula(f.arg)
            for _ in range(f.order - 1):
                cur = self._everybody_believes_event(cur)
            return cur
        if isinstance(f, CommonBelief):
            return self._common(f.arg)
        if isinstance(f, (Optimal, Rationality)):
            # through its definition, built on a memo miss only
            return self._mask(viewer, rewrite(f, self.game, lambda g: g))
        raise TypeError(f"not a formula node: {f!r}")

    def _probge(self, f: ProbGe) -> int:
        masks, sums = self._owner_cells(f.owner)
        terms = [(coef, self._mask(f.owner, sub)) for coef, sub in f.terms]
        out = 0
        for cmask, csum in zip(masks, sums):
            if csum == 0:
                raise PreconditionError(
                    f"zero-mass information cell of player {f.owner!r}; posterior undefined"
                )
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

    def _believe(self, player: str, emask: int) -> int:
        """States where the player assigns posterior 1 to the event."""
        masks, sums = self._owner_cells(player)
        out = 0
        for cmask, csum in zip(masks, sums):
            if csum == 0:
                raise PreconditionError(
                    f"zero-mass information cell of player {player!r}; posterior undefined"
                )
            if mask_mass(self.num, emask & cmask) == csum:
                out |= cmask
        return out

    def _everybody_believes_formula(self, f: Formula) -> int:
        out = self.full
        for j in self.game.players:
            out &= self._believe(j, self._mask(j, f))
        return out

    def _everybody_believes_event(self, emask: int) -> int:
        out = self.full
        for j in self.game.players:
            out &= self._believe(j, emask)
        return out

    def _common(self, f: Formula) -> int:
        cur = self._everybody_believes_formula(f)
        acc = cur
        seen = {cur}
        while True:
            cur = self._everybody_believes_event(cur)
            if cur in seen:
                return acc
            seen.add(cur)
            acc &= cur


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
    ev = m.evaluator()
    return ev.states_of(ev.intension_mask(player, f))


def cb_intension(m, f: Formula) -> frozenset[str]:
    """States where the formula is common belief (viewer-independent)."""
    return intension(m, m.game.players[0], CommonBelief(f))


def valid(m, f: Formula) -> bool:
    """True when every player deems the formula true at every state."""
    ev = m.evaluator()
    return all(ev.intension_mask(p, f) == ev.full for p in m.game.players)
