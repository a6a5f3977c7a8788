"""Satisfaction checking on epistemic structures.

The evaluator works on a structure's compiled form: states are bit
positions, events are int bitmasks, leaf propositions read their masks off
the viewer's row of the structure at their position, and the prior is
integer numerators over a common denominator.  A probability inequality is
scaled to integer coefficients once, so every comparison is exact integer
arithmetic.

Probability inequalities are evaluated per information cell of their owner
(their truth is constant on each cell and independent of the viewer), then
broadcast to states.  So is `opt_i(a)`, without its core formula: one pass
over i's cells weighs the integer payoff column of each of i's actions by
the cell's masses of the opponent plays i sees, and every `opt_i(b)`, b an
argmax of those sums, goes into the memo.  `rat_i` is read off the
viewer's row of i's plays and those masks, also without its defining
formula.  `EB^k` and common belief read one walk over the shrinking levels
EB(f), EB^2(f), ...: `EB^k` stops at level k, common belief at the fixed
point, the intersection of all levels.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
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
)
from .games import payoff_columns
from .rationals import scaled
from .structures import mask_mass, opponent_masses

# node kinds whose truth cannot depend on who evaluates them
_VIEWER_FREE = (ProbGe, Belief, MutualBelief, CommonBelief, Optimal)


class Evaluator:
    """Memoizing model checker for one structure.

    It reads the structure's compiled tables and cells and keeps its memo on
    the structure, so it is cheap to build and every evaluator of a structure
    shares what the others worked out.  The structure holds no evaluator, so
    reference counting still frees it.
    """

    def __init__(self, m):
        self.m = m

    # -- intensions -----------------------------------------------------------

    def intension_mask(self, viewer: str, f: Formula) -> int:
        self.m.game.player_index(viewer)
        return self._mask(viewer, f)

    def _mask(self, viewer: str, f: Formula) -> int:
        key = (None, f) if isinstance(f, _VIEWER_FREE) else (viewer, f)
        memo = self.m.intensions
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = self._compute(viewer, f)
        return hit

    def _compute(self, viewer: str, f: Formula) -> int:
        m = self.m
        if isinstance(f, (Prim, Play, Receive)):
            return m.rows[viewer][m.position(f)]
        if isinstance(f, Not):
            return m.full ^ self._mask(viewer, f.arg)
        if isinstance(f, And):
            return self._mask(viewer, f.left) & self._mask(viewer, f.right)
        if isinstance(f, Implies):
            return (m.full ^ self._mask(viewer, f.left)) | self._mask(viewer, f.right)
        if isinstance(f, ProbGe):
            return self._probge(f)
        if isinstance(f, Belief):
            m.game.player_index(f.player)
            return self._believe(f.player, self._mask(f.player, f.arg))
        if isinstance(f, MutualBelief):
            return self._everybody_believes(f.arg, f.order)
        if isinstance(f, CommonBelief):
            return self._everybody_believes(f.arg, None)
        if isinstance(f, Optimal):
            return self._optimal(f.player, f.action)
        if isinstance(f, Rationality):
            return self._rational(viewer, f.player)
        raise TypeError(f"not a formula node: {f!r}")

    def _optimal(self, player: str, action: str) -> int:
        """opt_player(action), decided with opt_player(b) for each action b
        of the player, all of which go into the memo.

        It holds on a cell when the action's payoff column, weighted by the
        cell's masses of the opponent plays she sees, has the largest sum of
        all her actions': `optimality_core` read in integers, refused where
        the core is refused and with the same error."""
        _, _, columns = payoff_columns(self.m.game, player)
        columns[action]  # an action she lacks is refused before any cell, as by its core
        out = dict.fromkeys(columns, 0)
        for cell, _, masses in opponent_masses(self.m, player, self._positive_cells(player)):
            sums = [sum(map(mul, column, masses)) for column in columns.values()]
            best = max(sums)
            for a, value in zip(columns, sums):
                if value == best:
                    out[a] |= cell
        memo = self.m.intensions
        for a, mask in out.items():
            memo[None, Optimal(player, a)] = mask
        return out[action]

    def _rational(self, viewer: str, player: str) -> int:
        """rat_player as the viewer sees it: the conjunction, over the
        player's actions a, of pl(player, a) -> opt_player(a), read off the
        viewer's play row and the opt masks without building it, and refused
        where it is refused, with the same error."""
        m = self.m
        row = m.rows[viewer]
        out = m.full
        for a in m.game.actions_of(player):
            out &= (m.full ^ row[m.play_at(player, a)]) | self._mask(viewer, Optimal(player, a))
        return out

    def _probge(self, f: ProbGe) -> int:
        if f.owner not in self.m.rows:  # refused before the operands
            raise PreconditionError(f"unknown player {f.owner!r} in probability formula")
        masks = [self._mask(f.owner, sub) for _, sub in f.terms]
        # scaled by the lcm of their denominators, coefficients and bound are ints
        (*coefs, bound), _ = scaled([*(c for c, _ in f.terms), f.bound])
        terms = [(c, emask) for c, emask in zip(coefs, masks) if c]
        num = self.m.prior_num
        out = 0
        for cmask, csum in self._positive_cells(f.owner):
            lhs = 0
            for coef, emask in terms:
                inter = emask & cmask
                if inter:
                    lhs += coef * mask_mass(num, inter)
            if lhs >= bound * csum:
                out |= cmask
        return out

    def _positive_cells(self, owner: str):
        """The owner's (cell mask, cell mass) pairs, all of positive mass."""
        masks, sums = self.m.cells(owner)
        if 0 in sums:
            raise PreconditionError(
                f"zero-mass information cell of player {owner!r}; posterior undefined"
            )
        return zip(masks, sums)

    def _believe(self, player: str, emask: int) -> int:
        """States where the player assigns posterior 1 to the event."""
        out = 0
        for cmask, csum in self._positive_cells(player):
            if mask_mass(self.m.prior_num, emask & cmask) == csum:
                out |= cmask
        return out

    def _everybody_believes(self, f: Formula, order: Optional[int]) -> int:
        """EB^order(f); order None walks on to the fixed point, CB(f).

        The levels shrink: at a state of EB(L), each player's cell has positive
        mass (`_believe` refuses the rest) and so meets L, which lies in the
        union of her cells that believed the event before.  So CB, the levels'
        intersection, is the first level equal to the one before."""
        players = self.m.game.players
        level = self.m.full
        for j in players:
            level &= self._believe(j, self._mask(j, f))
        n = 1
        while n != order:
            nxt = self.m.full
            for j in players:
                nxt &= self._believe(j, level)
            if nxt == level:
                break
            level, n = nxt, n + 1
        return level


# ------------------------------------------------------------- public API


def posterior(m, player: str, event: Iterable[str], state: str) -> Fraction:
    """P(event | player's information cell at state) under the prior; the
    event is a collection of state names."""
    masks, sums = m.cells(player)
    k = m.state_index(state)
    emask = 0
    for s in event:
        emask |= 1 << m.state_index(s)
    cell, cell_mass = next((c, w) for c, w in zip(masks, sums) if c >> k & 1)
    if cell_mass == 0:
        raise PreconditionError(
            f"information cell of player {player!r} at state {state!r} has zero prior mass"
        )
    return Fraction(mask_mass(m.prior_num, emask & cell), cell_mass)


def holds(m, state: str, player: str, f: Formula) -> bool:
    """Does the player deem the formula true at the state?"""
    return bool((Evaluator(m).intension_mask(player, f) >> m.state_index(state)) & 1)


def intension(m, player: str, f: Formula) -> frozenset[str]:
    """All states where the player deems the formula true."""
    return m.states_of(Evaluator(m).intension_mask(player, f))


def cb_intension(m, f: Formula) -> frozenset[str]:
    """States where the formula is common belief (viewer-independent)."""
    return intension(m, m.game.players[0], CommonBelief(f))


def valid(m, f: Formula) -> bool:
    """True when every player deems the formula true at every state."""
    ev = Evaluator(m)
    return all(ev.intension_mask(p, f) == m.full for p in m.game.players)
