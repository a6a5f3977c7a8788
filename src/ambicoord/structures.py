"""Finite epistemic probability structures with player-relative interpretation.

A structure couples a game with a finite state space, a common prior, a
signal alphabet, and one interpretation table per player: each player has her
own truth assignment for every primitive proposition (generic atoms, "j plays
a", "j received sigma").  Information partitions are either stored explicitly
or derived from each player's own received-signal atoms.

Structures are immutable once built, by one path: index the states, lay
out the row (`row_layout`), place each truth-table entry at its row
position, and only then compile the state names to bitmasks through the one
state index.  `from_masks` takes the masks directly and joins the path at
the layout; every entry point runs the same checks.  The masks are the one
stored form: state k is bit k, each player has one row of int masks, one per
primitive proposition at the fixed position `row_layout` gives it, of the
states where she deems it true, stored partitions are
tuples of cell masks, and the prior is integer numerators over one common
denominator, in lowest terms.  The audits below are whole-mask folds over
slices of these rows, read by player and position; per-state
work is left only to name offending states, always in state order.  Derived
data is built on first use and kept: each player's information cells, for
her alone, and the evaluator's memo of intensions.  Beside the compiled form
a structure answers by name only for single lookups: a state's index and
prior, a mask's states and a proposition's truth set.

`to_dict` writes each primitive proposition's canonical key, as `row_layout`
spells it; `from_dict` takes each key to its row position by a table of them
(the grammar reads only a key the table lacks) and refuses bad shapes before
any state name lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from operator import mul, or_
from typing import Iterable, Mapping, Optional

from .errors import PreconditionError, SchemaError
from .formulas import And, Formula, Implies, Not, Optimal, Play, Prim, Rationality, Receive
from .games import NAME_RE, Game, incentive_gains
from .parser import ParseError, parse_formula, parse_instance, usable_name
from .rationals import ratio, ratio_text
from .reports import Report


def _strings(value) -> bool:
    """Is the JSON value a list of strings?"""
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def flags(mask: int) -> bytes:
    """One byte per state, lowest state first: 1 where the mask has the state.

    `itertools.compress` over these flags picks a mask's states, indices or
    prior numerators in state order.
    """
    return bin(mask)[:1:-1].encode().translate(_FLAG)


def low_state(mask: int) -> int:
    """Index of the first state in a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def mask_mass(num: Iterable[int], mask: int) -> int:
    """Prior mass of a mask, in numerator units."""
    return sum(compress(num, flags(mask)))


def fold(masks: Iterable[int]) -> tuple[int, int]:
    """(seen, duplicate): states in at least one mask, and in at least two."""
    seen = dup = 0
    for mask in masks:
        dup |= seen & mask
        seen |= mask
    return seen, dup


def row_layout(
    game: Game, signals: Iterable[str], atoms: Iterable[str] = ()
) -> tuple[tuple[str, ...], range, dict[str, range], dict[str, range]]:
    """(keys, atoms, receipts, plays): where each primitive proposition sits
    in a row of len(keys) masks.  keys[k] is the canonical key of the
    proposition at position k, the text `str` prints for its node.  The
    atoms sit at the positions of the range `atoms`, each player's receipt
    of the k-th signal at receipts[player][k], and each player's play of her
    k-th declared action at plays[player][k]: the atoms, then every receipt,
    then every play, each group in declared order."""
    keys = list(atoms)
    at_atoms = range(len(keys))
    signals = tuple(signals)
    receipts, plays = {}, {}
    for p in game.players:
        at = len(keys)
        keys += [f"rec({p},{s})" for s in signals]
        receipts[p] = range(at, len(keys))
    for p in game.players:
        at = len(keys)
        keys += [f"pl({p},{a})" for a in game.actions_of(p)]
        plays[p] = range(at, len(keys))
    return tuple(keys), at_atoms, receipts, plays


def _key_table(m: "EpistemicStructure", at: Mapping[str, int]) -> dict[str, int]:
    """{key: position} for each canonical key of m's laid-out row that the
    grammar reads back to its proposition, `at` giving every canonical key's
    position: the keys of usable atoms, of signals that are one token each,
    and of every play (a game's players and actions always are)."""
    receipts = [NAME_RE.fullmatch(s) is not None for s in m.signals] * m.game.n
    return {key: at[key] for key in compress(m._keys, chain(map(usable_name, m.atoms), receipts, repeat(True)))}


class EpistemicStructure:
    """A game, a finite state space with a common prior, and one compiled
    interpretation row per player.

    Compiled form (see the module docstring): `rows[viewer]` holds the masks
    of the states where `viewer` deems each primitive proposition true, in
    the order `to_dict` writes them: the atoms, then each player's receipt of
    each signal, then each player's play of each of her actions, each group
    in declared order.  `receipts(viewer, player)` and `plays(viewer,
    player)` are a player's slices of it, and `position(node)` is where a
    proposition sits.  `stored_cells[player]` is the tuple of stored cell
    masks or None when cells are derived, and the prior of state k is
    `prior_num[k] / prior_denom`.
    """

    def __init__(
        self,
        game: Game,
        states: Iterable[str],
        prior: Mapping[str, Fraction | int],
        signals: Iterable[str],
        atoms: Iterable[str] = (),
        truth: Optional[Mapping[str, Mapping[Formula, Iterable[str]]]] = None,
        partitions: Optional[Mapping[str, Iterable[Iterable[str]]]] = None,
        signal_defs: Optional[Mapping[str, Optional[Formula]]] = None,
    ):
        """The structure whose prior, truth sets and cells name their states:
        each node goes to its row position by `position`, and only then are
        the names compiled to the masks that `from_masks` takes."""
        prior = {s: Fraction(w).as_integer_ratio() for s, w in prior.items()}
        self._index(states)
        self._lay_out(game, signals, atoms)
        placed = {}
        for p, table in (truth or {}).items():
            row = placed[p] = {}
            for node, names in table.items():
                try:
                    k = self.position(node)
                except (KeyError, PreconditionError, TypeError):
                    raise self._instance_error(node) from None
                row[k] = tuple(names)  # a failed compile reads them again
        self._compile(prior, placed, partitions, signal_defs)

    @classmethod
    def from_masks(
        cls,
        game: Game,
        states: Iterable[str],
        prior_num: Iterable[int],
        prior_denom: int,
        signals: Iterable[str],
        masks: Mapping[str, Mapping[int, int]],
        cells: Optional[Mapping[str, Iterable[int]]] = None,
        layout: Optional[tuple] = None,
    ) -> "EpistemicStructure":
        """The structure, without atoms, given by masks: state k of `states`
        is bit k of every mask, and has prior `prior_num[k] / prior_denom`;
        `masks[viewer][k]` is the mask of the states where the viewer deems
        the primitive proposition at row position k of `layout`, the
        `row_layout(game, signals)` made here if not given, true (absent
        positions are false everywhere).  It is checked as `__init__` does."""
        m = cls.__new__(cls)
        m._index(states)
        m._lay_out(game, signals, (), layout)
        m._install(prior_num, prior_denom, masks, cells, None)
        return m

    # -- the construction path: index, lay out, place, compile ----------------

    def _index(self, states) -> None:
        """Index the states, refusing none or a repeated name."""
        self.states = tuple(states)
        if not self.states:
            raise SchemaError("structure: needs at least one state")
        self._state_index = {s: k for k, s in enumerate(self.states)}
        if len(self._state_index) != len(self.states):
            raise SchemaError("structure: duplicate state names")
        self.full = (1 << len(self.states)) - 1

    def _lay_out(self, game, signals, atoms, layout=None) -> None:
        """Lay out the row (or take the given `row_layout`): the tables `position`
        reads.  It refuses nothing; `_install` checks the signal and atom names."""
        self.game = game
        self.signals = tuple(signals)
        self.atoms = tuple(atoms)
        self._keys, atoms_at, self._receipts_at, plays_at = layout or row_layout(game, self.signals, self.atoms)
        self._atom_at = dict(zip(self.atoms, atoms_at))
        self._signal_at = {s: k for k, s in enumerate(self.signals)}
        self._plays_at = {p: (at, {a: k for k, a in enumerate(game.actions_of(p))}) for p, at in plays_at.items()}

    def _compile(self, prior: Mapping, placed: Mapping, partitions: Optional[Mapping], signal_defs) -> None:
        """Compile the prior's (numerator, denominator) pairs, each placed
        {position: state names} table and the named cells through the state
        index, a list to the OR of `1 << index` over its names, then check
        and store them as `from_masks` does."""
        index = self._state_index
        get, bit = index.__getitem__, (1).__lshift__
        denom = math.lcm(*(q for _, q in prior.values()))
        num = [0] * len(self.states)
        for s, (p, q) in prior.items():
            k = index.get(s)
            if k is None:
                raise SchemaError(f"structure: prior names unknown state {s!r}")
            num[k] = p * (denom // q)
        masks = {}
        for p, table in placed.items():
            row = masks[p] = {}
            for k, names in table.items():
                try:
                    row[k] = reduce(or_, map(bit, map(get, names)), 0)
                except (KeyError, TypeError):
                    bad = sorted({s for s in names if s not in index})
                    raise SchemaError(f"structure: unknown states {bad} for {self._keys[k]}") from None
        cells = None
        if partitions is not None:
            cells = {}
            for p, named in partitions.items():
                try:
                    cells[p] = [reduce(or_, map(bit, map(get, c)), 0) for c in named]
                except (KeyError, TypeError):
                    raise SchemaError(f"structure: cells of player {p!r} do not partition the states") from None
        self._install(num, denom, masks, cells, signal_defs)

    def _install(self, prior_num, prior_denom, masks, cells, signal_defs) -> None:
        """Check the compiled form and store it, the prior reduced to lowest
        terms; `masks[viewer]` is a {row position: mask} table."""
        num = tuple(prior_num)
        if len(num) != len(self.states) or prior_denom < 1:
            raise SchemaError("structure: the prior needs one numerator per state and a positive denominator")
        if any(w < 0 for w in num):
            raise SchemaError("structure: negative prior weight")
        if sum(num) != prior_denom:
            raise SchemaError(f"structure: prior sums to {Fraction(sum(num), prior_denom)}, not 1")
        common = math.gcd(prior_denom, *num)
        self.prior_denom = prior_denom // common
        self.prior_num = tuple(w // common for w in num)

        if len(set(self.signals)) != len(self.signals):
            raise SchemaError("structure: duplicate signal names")
        if len(set(self.atoms)) != len(self.atoms):
            raise SchemaError("structure: duplicate atom names")
        for name in (*self.signals, *self.atoms):
            if not usable_name(name):
                raise SchemaError(f"structure: {name!r} is not a usable signal/atom name")

        width = len(self._keys)
        rows = {p: [0] * width for p in self.game.players}
        for p, table in masks.items():
            row = rows.get(p)
            if row is None:
                raise SchemaError(f"structure: interpretation for unknown player {p!r}")
            for k, mask in table.items():
                if not 0 <= k < width:
                    raise SchemaError(f"structure: row position {k} holds no primitive proposition")
                if not 0 <= mask <= self.full:
                    raise SchemaError(f"structure: the mask at row position {k} names states beyond the last")
                row[k] = mask
        self.rows: dict[str, tuple[int, ...]] = {p: tuple(row) for p, row in rows.items()}

        self.stored_cells: Optional[dict[str, tuple[int, ...]]] = None
        if cells is not None:
            self.stored_cells = {}
            for p, row in cells.items():
                if p not in self.rows:
                    raise SchemaError(f"structure: partition for unknown player {p!r}")
                row = self.stored_cells[p] = tuple(row)
                if 0 in row:
                    raise SchemaError(f"structure: empty partition cell for player {p!r}")
                seen, dup = fold(row)
                if dup or seen != self.full:
                    raise SchemaError(f"structure: cells of player {p!r} do not partition the states")
            if self.stored_cells.keys() != set(self.game.players):
                raise SchemaError("structure: partitions must cover every player")

        self.signal_defs: dict[str, Optional[Formula]] = {s: None for s in self.signals}
        for sig, df in (signal_defs or {}).items():
            if sig not in self.signal_defs:
                raise SchemaError(f"structure: definition for unknown signal {sig!r}")
            if df is not None:
                self._check_signal_def(df)
            self.signal_defs[sig] = df

        # built on first use: each player's (cell masks, masses), and the
        # evaluator's memo, (viewer or None, formula) -> intension mask
        self._cells: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.intensions: dict = {}

    def _instance_error(self, node) -> SchemaError:
        """Why an interpretation table may not hold a node `position` refuses."""
        if isinstance(node, (Play, Receive)) and node.player not in self.game.players:
            return SchemaError(f"structure: {node} names unknown player {node.player!r}")
        if isinstance(node, Prim):
            return SchemaError(f"structure: undeclared atom {node.name!r}")
        if isinstance(node, Play):
            return SchemaError(f"structure: {node.action!r} is not an action of {node.player!r}")
        if isinstance(node, Receive):
            return SchemaError(f"structure: undeclared signal {node.signal!r}")
        return SchemaError(f"structure: {node} is not a primitive proposition")

    def _check_signal_def(self, f: Formula) -> None:
        if isinstance(f, Prim):
            if f.name not in self.atoms:
                raise SchemaError(f"structure: signal definition uses undeclared atom {f.name!r}")
        elif isinstance(f, Not):
            self._check_signal_def(f.arg)
        elif isinstance(f, (And, Implies)):
            self._check_signal_def(f.left)
            self._check_signal_def(f.right)
        else:
            raise SchemaError("structure: signal definitions must be boolean formulas over generic atoms")

    # -- basic access --------------------------------------------------------

    def state_index(self, state: str) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def prior_of(self, state: str) -> Fraction:
        return Fraction(self.prior_num[self.state_index(state)], self.prior_denom)

    def states_of(self, mask: int) -> frozenset[str]:
        """The states in a mask."""
        return frozenset(compress(self.states, flags(mask)))

    def _names(self, mask: int) -> tuple[str, ...]:
        """The states in a mask, in state order."""
        return tuple(compress(self.states, flags(mask)))

    def true_set(self, viewer: str, node: Formula) -> frozenset[str]:
        """States where `viewer` deems the primitive proposition true."""
        self.game.player_index(viewer)
        return self.states_of(self.rows[viewer][self.position(node)])

    # -- row positions ----------------------------------------------------------

    def position(self, node: Formula) -> int:
        """Where a primitive proposition's mask sits in every viewer's row.

        An undeclared atom, signal or action is refused with
        PreconditionError, an unknown player with KeyError."""
        if isinstance(node, Play):
            return self.play_at(node.player, node.action)
        if isinstance(node, Receive):
            return self.receipt_at(node.player, node.signal)
        if isinstance(node, Prim):
            k = self._atom_at.get(node.name)
            if k is None:
                raise PreconditionError(f"formula references undeclared atom {node.name!r}")
            return k
        raise TypeError(f"not a primitive proposition: {node!r}")

    def play_at(self, player: str, action: str) -> int:
        """The row position of pl(player, action)."""
        if player not in self._plays_at:
            raise KeyError(f"unknown player {player!r}")
        at, index = self._plays_at[player]
        k = index.get(action)
        if k is None:
            raise PreconditionError(f"{action!r} is not an action of player {player!r}")
        return at[k]

    def receipt_at(self, player: str, signal: str) -> int:
        """The row position of rec(player, signal)."""
        if player not in self._receipts_at:
            raise KeyError(f"unknown player {player!r}")
        k = self._signal_at.get(signal)
        if k is None:
            raise PreconditionError(f"formula references undeclared signal {signal!r}")
        return self._receipts_at[player][k]

    def plays(self, viewer: str, player: str) -> tuple[int, ...]:
        """The viewer's masks of the player's actions, in declared order."""
        at, _ = self._plays_at[player]
        return self.rows[viewer][at.start : at.stop]

    def receipts(self, viewer: str, player: str) -> tuple[int, ...]:
        """The viewer's masks of the player's receipt of each signal, in
        declared order."""
        at = self._receipts_at[player]
        return self.rows[viewer][at.start : at.stop]

    def _first_bad(self, bad: int, rows: Iterable[int]) -> tuple[str, int]:
        """The first state of the nonzero mask `bad`, and how many of the
        rows hold it: what an error message names."""
        k = low_state(bad)
        return self.states[k], sum(row >> k & 1 for row in rows)

    # -- information cells ----------------------------------------------------

    def cells(self, player: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The player's information cells and their prior masses, in numerator
        units: her stored cells, or else those her own received signals give.
        Built for her alone, on first use."""
        hit = self._cells.get(player)
        if hit is None:
            self.game.player_index(player)
            masks = self._derive(player) if self.stored_cells is None else self.stored_cells[player]
            hit = self._cells[player] = (masks, tuple(mask_mass(self.prior_num, c) for c in masks))
        return hit

    def _derive(self, player: str) -> tuple[int, ...]:
        """The player's cell masks, grouped by her own received signal and
        ordered by their first state; fails at her first state with zero or
        several signals."""
        rows = self.receipts(player, player)
        seen, dup = fold(rows)
        bad = dup | (self.full ^ seen)
        if bad:
            state, n = self._first_bad(bad, rows)
            raise PreconditionError(f"player {player!r} receives {n} signals at state {state!r}")
        return tuple(sorted(filter(None, rows), key=low_state))

    def evaluator(self):
        """A model checker that reads this structure and fills its memo."""
        from .semantics import Evaluator

        return Evaluator(self)

    # -- serialization --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, game: Game) -> "EpistemicStructure":
        """The structure a JSON object describes, checked as `__init__` checks
        it.  The row is laid out first, and one reading pass takes each key to
        its row position by the layout's keys and checks each shape; then the
        states are indexed and the placed state names compiled to masks."""
        if not isinstance(data, dict):
            raise SchemaError("structure: expected an object")
        allowed = {"states", "prior", "signals", "atoms", "interpretation", "partitions"}
        extra = set(data) - allowed
        if extra:
            raise SchemaError(f"structure: unknown keys {sorted(extra)}")
        states = data.get("states")
        if not _strings(states):
            raise SchemaError("structure: 'states' must be a list of strings")
        prior_raw = data.get("prior")
        if not isinstance(prior_raw, dict):
            raise SchemaError("structure: 'prior' must be an object")
        try:
            prior = {s: ratio(w) for s, w in prior_raw.items()}
        except ValueError as exc:
            raise SchemaError(f"structure: prior: {exc}") from None
        signals_raw = data.get("signals")
        if not isinstance(signals_raw, dict):
            raise SchemaError("structure: 'signals' must map signal names to definitions or null")
        atoms = data.get("atoms", [])
        if not _strings(atoms):
            raise SchemaError("structure: 'atoms' must be a list of strings")

        signal_names = tuple(signals_raw)
        signal_defs = {}
        for sig, df in signals_raw.items():
            if df is None:
                signal_defs[sig] = None
                continue
            if not isinstance(df, str):
                raise SchemaError(f"structure: definition of signal {sig!r} must be a string or null")
            try:
                signal_defs[sig] = parse_formula(df, game, signals=signal_names, atoms=atoms)
            except ParseError as exc:
                raise SchemaError(f"structure: definition of signal {sig!r}: {exc}") from None

        interp_raw = data.get("interpretation")
        if not isinstance(interp_raw, dict):
            raise SchemaError("structure: 'interpretation' must be an object")
        m = cls.__new__(cls)
        m._lay_out(game, signal_names, atoms)
        at = {key: k for k, key in enumerate(m._keys)}
        table = _key_table(m, at)  # then each key the grammar reads, for every table
        truth = {}
        for p, entries in interp_raw.items():
            if not isinstance(entries, dict):
                raise SchemaError(f"structure: interpretation of player {p!r} must be an object")
            row = truth[p] = {}
            for key, names in entries.items():
                k = table.get(key)
                if k is None:
                    try:
                        k = table[key] = at[str(parse_instance(key, game, signals=signal_names, atoms=atoms))]
                    except ParseError as exc:
                        raise SchemaError(f"structure: instance key {key!r}: {exc}") from None
                if k in row:
                    first = next(s for s in entries if table[s] == k)
                    raise SchemaError(
                        f"structure: interpretation of player {p!r} spells one instance twice: {first!r} and {key!r}"
                    )
                if not _strings(names):
                    raise SchemaError(f"structure: value of {key!r} must be a list of states")
                row[k] = names

        partitions = data.get("partitions")
        if partitions is not None:
            if not isinstance(partitions, dict):
                raise SchemaError("structure: 'partitions' must be an object or null")
            for p, named in partitions.items():
                if not isinstance(named, list) or not all(map(_strings, named)):
                    raise SchemaError(f"structure: partition of player {p!r} must be a list of lists of states")
        m._index(states)
        m._compile(prior, truth, partitions, signal_defs)
        return m

    def to_dict(self) -> dict:
        interp = {
            p: {key: list(self._names(mask)) for key, mask in zip(self._keys, self.rows[p]) if mask}
            for p in self.game.players
        }
        partitions = None
        if self.stored_cells is not None:
            partitions = {p: [list(self._names(c)) for c in cells] for p, cells in self.stored_cells.items()}
        return {
            "states": list(self.states),
            "prior": {s: ratio_text(w, self.prior_denom) for s, w in zip(self.states, self.prior_num)},
            "signals": {
                s: (str(df) if df is not None else None) for s, df in self.signal_defs.items()
            },
            "atoms": list(self.atoms),
            "interpretation": interp,
            "partitions": partitions,
        }


# ------------------------------------------------------------------- checks


@dataclass(frozen=True)
class SignalIssue:
    """A (receiver, viewer, state) where the received signal is not unique."""

    receiver: str
    viewer: str
    state: str
    signals: tuple[str, ...]


@dataclass(frozen=True)
class PartitionIssue:
    player: str
    state: str
    stored: tuple[str, ...]
    derived: tuple[str, ...]


@dataclass(frozen=True)
class ActionIssue:
    """A viewer sees several actions for one player at one state."""

    viewer: str
    state: str
    player: str
    actions: tuple[str, ...]


@dataclass(frozen=True)
class CellIssue:
    player: str
    cell: tuple[str, ...]


@dataclass(frozen=True)
class SignalDefIssue:
    player: str
    signal: str
    expected: tuple[str, ...]
    actual: tuple[str, ...]


@dataclass(frozen=True)
class RationalityIssue:
    """A state where a player plays an action she deems suboptimal."""

    player: str
    state: str
    played: str
    better: str
    gap: Fraction


def states_in(m: EpistemicStructure, mask: int) -> Iterable[int]:
    """Indices of the states in a mask, in state order."""
    return compress(range(len(m.states)), flags(mask))


def check_signal_uniqueness(m: EpistemicStructure) -> Report:
    """Every viewer sees exactly one received signal per receiver and state.

    Equivalently: each viewer's nonempty receipt-intensions for a receiver
    partition the state space, and distinct signals have distinct intensions.
    """
    failures = []
    for receiver in m.game.players:
        for viewer in m.game.players:
            rows = m.receipts(viewer, receiver)
            seen, dup = fold(rows)
            for k in states_in(m, dup | (m.full ^ seen)):
                got = tuple(s for s, row in zip(m.signals, rows) if (row >> k) & 1)
                failures.append(SignalIssue(receiver, viewer, m.states[k], got))
    return Report(not failures, tuple(failures))


def check_partition_consistency(m: EpistemicStructure) -> Report:
    """Stored information partitions match the signal-derived ones cell for cell."""
    if m.stored_cells is None:
        return Report(True, notes=("no stored partitions; derived partitions are in effect",))
    try:
        derived = {p: m._derive(p) for p in m.game.players}
    except PreconditionError as exc:
        return Report(False, notes=(f"cannot derive partitions: {exc}",))
    failures = []
    for p in m.game.players:
        # a state's two cells differ exactly when its stored cell is not derived
        moved = sorted(
            (k, c, d)
            for c in set(m.stored_cells[p]).difference(derived[p])
            for d in derived[p]
            for k in states_in(m, c & d)
        )
        failures += [PartitionIssue(p, m.states[k], m._names(c), m._names(d)) for k, c, d in moved]
    return Report(not failures, tuple(failures))


def check_action_uniqueness(m: EpistemicStructure) -> Report:
    """No viewer ever sees a player playing two actions at once.

    States where a viewer sees no action at all are legal (play may be
    unmodeled there); they are listed in the notes for visibility.
    """
    players = m.game.players
    failures = []
    notes = []
    for viewer in players:
        rows = {p: m.plays(viewer, p) for p in players}
        folds = {p: fold(rows[p]) for p in players}
        bad = 0
        for seen, dup in folds.values():
            bad |= dup | (m.full ^ seen)
        for k in states_in(m, bad):
            state = m.states[k]
            for p in players:
                seen, dup = folds[p]
                if (dup >> k) & 1:
                    acts = tuple(a for a, row in zip(m.game.actions_of(p), rows[p]) if (row >> k) & 1)
                    failures.append(ActionIssue(viewer, state, p, acts))
                elif not (seen >> k) & 1:
                    notes.append(f"viewer {viewer!r} sees no action for player {p!r} at {state!r}")
    return Report(not failures, tuple(failures), tuple(notes))


def check_cell_positivity(m: EpistemicStructure) -> Report:
    """Every information cell carries positive prior mass, so posteriors exist."""
    try:
        cells = [(p, *m.cells(p)) for p in m.game.players]
    except PreconditionError as exc:
        return Report(False, notes=(f"cannot derive partitions: {exc}",))
    failures = [CellIssue(p, m._names(c)) for p, masks, sums in cells for c, w in zip(masks, sums) if w == 0]
    return Report(not failures, tuple(failures))


def check_signal_definitions(m: EpistemicStructure) -> Report:
    """Defined signals are received exactly where their defining formula holds.

    For each signal with a definition d and each player i, the states where i
    deems herself to have received the signal must equal i's intension of d.
    Signals without definitions are skipped.
    """
    ev = m.evaluator()
    failures = []
    notes = []
    for k, sig in enumerate(m.signals):
        df = m.signal_defs.get(sig)
        if df is None:
            notes.append(f"signal {sig!r} has no definition; skipped")
            continue
        for p in m.game.players:
            expected = ev.intension_mask(p, df)
            actual = m.receipts(p, p)[k]
            if expected != actual:
                failures.append(SignalDefIssue(p, sig, m._names(expected), m._names(actual)))
    return Report(not failures, tuple(failures), tuple(notes))


def is_common_interpretation(m: EpistemicStructure) -> bool:
    """True when all players' interpretation tables agree everywhere."""
    first, *rest = m.rows.values()
    return all(row == first for row in rest)


def opponent_masses(m: EpistemicStructure, player: str, cells: Iterable[tuple[int, int]]):
    """For each (cell mask, cell mass) pair of `cells`: the pair, and the
    prior mass in the cell of each opponent play the player sees, in
    `opponent_profiles` order, as `incentive_gains` lists its gains.  Her
    expected incentive gain in a cell is then sum(gain * mass) / mass of the
    cell; `opt_i(a)` and the rationality gap both read it so."""
    events = [m.full]
    for j in m.game.players:
        if j != player:
            events = [e & play for e in events for play in m.plays(player, j)]
    num = m.prior_num
    for cell, cell_mass in cells:
        yield cell, cell_mass, [mask_mass(num, e & cell) for e in events]


def check_rationality(m: EpistemicStructure) -> Report:
    """Each player, by her own lights, never plays a suboptimal action.

    Assumes signal uniqueness, partition consistency, action uniqueness and
    cell positivity already hold; may raise PreconditionError otherwise.
    """
    ev = m.evaluator()
    game = m.game
    failures = []
    for p in game.players:
        bad = m.full ^ ev.intension_mask(p, Rationality(p))
        if not bad:
            continue
        acts = game.actions_of(p)
        plays = m.plays(p, p)
        optimal = [ev.intension_mask(p, Optimal(p, a)) for a in acts]
        pairs = [(a, b) for a, play, opt in zip(acts, plays, optimal) if bad & play & ~opt for b in acts]
        scale, _, gains = incentive_gains(game, p, pairs)
        rows = dict(zip(pairs, gains))
        found = []
        suspects = ((c, w) for c, w in zip(*m.cells(p)) if c & bad)
        for cell, cell_mass, masses in opponent_masses(m, p, suspects):
            for a, play, opt in zip(acts, plays, optimal):
                wrong = cell & bad & play & ~opt
                if not wrong:
                    continue
                # what switching a -> b gains in expectation: minus what
                # following a gains over b
                gaps = {b: Fraction(-sum(map(mul, rows[a, b], masses)), scale * cell_mass) for b in acts}
                better = max(gaps, key=lambda b: (gaps[b], b))
                for k in states_in(m, wrong):
                    found.append((k, RationalityIssue(p, m.states[k], a, better, gaps[better])))
        failures += [issue for _, issue in sorted(found, key=lambda t: t[0])]
    return Report(not failures, tuple(failures))
