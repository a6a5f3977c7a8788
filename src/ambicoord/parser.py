"""Recursive-descent parser for the formula language.

Grammar (whitespace insensitive)::

    formula  := imp
    imp      := conj ("->" imp)?
    conj     := neg ("&" neg)*
    neg      := "!" neg | atom
    atom     := ident | "pl(" player "," action ")" | "rec(" player "," signal ")"
              | prob | "B_" player "(" formula ")" | "EB" ("^" int)? "(" formula ")"
              | "CB(" formula ")" | "rat_" player | "opt_" player "(" action ")"
              | "(" formula ")"
    prob     := pterm (("+" | "-") pterm)* ">=" rational
    pterm    := (rational "*")? "pr_" player "(" formula ")"
    rational := "-"? int ("/" posint)?
    player   := name or 1-based position of a player in the game

A formula may nest at most ``MAX_DEPTH`` levels: the height of its parse
tree, where each operator and each parenthesized group is one level and an
atom is one.  A chain ``a & b & c`` nests left (``(a & b) & c``), so each
``&`` adds a level.  Deeper input is refused with a ParseError at the token
or operator that first goes past the limit, so neither the parser nor the
code that walks the tree recurses past the interpreter's stack.

The identifiers ``pl``, ``rec``, ``EB`` and ``CB`` and the prefixes ``B_``,
``pr_``, ``rat_`` and ``opt_`` are reserved; generic atoms may not use them.
Player and action names are always validated against the game; signal and
atom names are validated only when a vocabulary is supplied (pass None to
leave them open, e.g. when no structure is at hand).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional

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
from .games import NAME_RE

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<ident>{NAME_RE.pattern})"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>->|>=|[()!&*+\-/^,])"
)

_RESERVED = ("pl", "rec", "EB", "CB")
_RESERVED_PREFIXES = ("B_", "pr_", "rat_", "opt_")

# The parser spends up to 7 stack frames a level (a pr_ term) and the printer
# and evaluator fewer, so at this depth all of them stay well inside the
# interpreter's default recursion limit of 1000 frames.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or vocabulary error, carrying a 0-based character position."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at column {position + 1}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """An identifier that is not in the declared vocabulary."""

    def __init__(self, kind: str, name: str, position: int):
        self.kind = kind
        self.name = name
        super().__init__(f"unknown {kind} {name!r}", position)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def usable_name(name: str) -> bool:
    """Can a generic atom or signal take this name: an identifier the grammar
    does not reserve?"""
    if NAME_RE.fullmatch(name) is None or name in _RESERVED:
        return False
    return not name.startswith(_RESERVED_PREFIXES)


def _too_deep(position: int) -> ParseError:
    return ParseError(f"formula nested more than {MAX_DEPTH} levels deep", position)


def _found(tok: _Token, *expected: str) -> ParseError:
    return ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, expected=expected)


def _int(tok: _Token) -> int:
    """The value of an integer token; one too long for the interpreter to
    convert is refused at its column."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer of {len(tok.text)} digits is too long", tok.pos) from None


def _tokenize(text: str) -> Iterator[_Token]:
    """The tokens of `text`, read one at a time as the parser asks for them,
    then the end token for good: input past a refusal is never read, so a
    fault is reported where reading first meets one."""
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            yield _Token(m.lastgroup, m.group(), pos)
        pos = m.end()
    end = _Token("end", "", len(text))
    while True:
        yield end


class _Parser:
    def __init__(self, text, game, signals, atoms):
        self.text = text
        self.game = game
        self.signals = None if signals is None else frozenset(signals)
        self.atoms = None if atoms is None else frozenset(atoms)
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)  # the one token of lookahead
        self.depth = 0  # levels above the sub-formula being parsed

    # token plumbing

    def peek(self) -> _Token:
        return self.tok

    def advance(self) -> _Token:
        tok = self.tok
        self.tok = next(self.tokens)
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise _found(tok, repr(text))
        return self.advance()

    # vocabulary

    def resolve_player(self, name: str, pos: int) -> str:
        player = self.game.player_named(name)
        if player is None:
            raise UnknownIdentifierError("player", name, pos)
        return player

    def check_action(self, player: str, action: str, pos: int) -> str:
        if action not in self.game.actions_of(player):
            raise UnknownIdentifierError("action", action, pos)
        return action

    def check_signal(self, signal: str, pos: int) -> str:
        if self.signals is not None and signal not in self.signals:
            raise UnknownIdentifierError("signal", signal, pos)
        return signal

    def check_atom(self, name: str, pos: int) -> str:
        if self.atoms is not None and name not in self.atoms:
            raise UnknownIdentifierError("atom", name, pos)
        return name

    # nesting depth

    def down(self) -> None:
        """Step one level down; refuse before recursing past MAX_DEPTH.

        The caller steps back up (`self.depth -= 1`) after the sub-formula.
        """
        self.depth += 1
        if self.depth >= MAX_DEPTH:
            raise _too_deep(self.peek().pos)

    def joined(self, node: Formula, height: int, op: _Token) -> tuple[Formula, int]:
        """A binary node whose left operand was parsed a level too high."""
        if self.depth + height > MAX_DEPTH:
            raise _too_deep(op.pos)
        return node, height

    # grammar: each production returns (formula, height of its parse tree)

    def formula(self) -> tuple[Formula, int]:
        left, h = self.conj()
        if self.peek().text == "->":
            op = self.advance()
            self.down()
            right, hr = self.formula()
            self.depth -= 1
            return self.joined(Implies(left, right), max(h, hr) + 1, op)
        return left, h

    def conj(self) -> tuple[Formula, int]:
        out, h = self.neg()
        while self.peek().text == "&":
            op = self.advance()
            self.down()
            right, hr = self.neg()
            self.depth -= 1
            out, h = self.joined(And(out, right), max(h, hr) + 1, op)
        return out, h

    def neg(self) -> tuple[Formula, int]:
        if self.peek().text == "!":
            self.advance()
            self.down()
            arg, h = self.neg()
            self.depth -= 1
            return Not(arg), h + 1
        return self.atom()

    def group(self) -> tuple[Formula, int]:
        """ "(" formula ")", one level below the caller."""
        self.expect("(")
        self.down()
        inner, h = self.formula()
        self.depth -= 1
        self.expect(")")
        return inner, h + 1

    def atom(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.text == "(":
            return self.group()
        if tok.kind == "int" or tok.text == "-":
            return self.prob()
        if tok.kind != "ident":
            raise _found(tok, "a formula")
        name = tok.text
        if name in ("pl", "rec"):
            self.advance()
            self.expect("(")
            player = self.player_token()
            self.expect(",")
            if name == "pl":
                atok = self.ident_token("an action name")
                node: Formula = Play(player, self.check_action(player, atok.text, atok.pos))
            else:
                stok = self.ident_token("a signal name")
                node = Receive(player, self.check_signal(stok.text, stok.pos))
            self.expect(")")
            return node, 1
        if name == "CB":
            self.advance()
            inner, h = self.group()
            return CommonBelief(inner), h
        if name == "EB":
            self.advance()
            order = 1
            if self.peek().text == "^":
                self.advance()
                otok = self.advance()
                order = _int(otok) if otok.kind == "int" else 0
                if order < 1:
                    raise ParseError("mutual-belief order must be a positive integer", otok.pos)
            inner, h = self.group()
            return MutualBelief(order, inner), h
        if name.startswith("B_"):
            player = self.prefixed_player("B_")
            inner, h = self.group()
            return Belief(player, inner), h
        if name.startswith("rat_"):
            player = self.prefixed_player("rat_")
            return Rationality(player), 1
        if name.startswith("opt_"):
            player = self.prefixed_player("opt_")
            self.expect("(")
            atok = self.ident_token("an action name")
            action = self.check_action(player, atok.text, atok.pos)
            self.expect(")")
            return Optimal(player, action), 1
        if name.startswith("pr_"):
            return self.prob()
        self.advance()
        return Prim(self.check_atom(name, tok.pos)), 1

    def prefixed_player(self, prefix: str) -> str:
        """Consume a `<prefix><player>` identifier and return the player."""
        tok = self.advance()
        k = len(prefix)
        if len(tok.text) == k:
            raise ParseError("missing player name", tok.pos + k)
        return self.resolve_player(tok.text[k:], tok.pos + k)

    def player_token(self) -> str:
        tok = self.peek()
        if tok.kind not in ("ident", "int"):
            raise _found(tok, "a player name")
        self.advance()
        return self.resolve_player(tok.text, tok.pos)

    def ident_token(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise _found(tok, what)
        return self.advance()

    def prob(self) -> tuple[Formula, int]:
        terms = [self.pterm(Fraction(1))]
        while self.peek().text in ("+", "-"):
            sign = Fraction(1) if self.advance().text == "+" else Fraction(-1)
            terms.append(self.pterm(sign))
        self.expect(">=")
        bound = self.rational()
        for owner, _, _, pos, _ in terms[1:]:
            if owner != terms[0][0]:
                raise ParseError("all terms of a probability inequality must share one owner", pos)
        formula = ProbGe(terms[0][0], tuple((coef, sub) for _, coef, sub, _, _ in terms), bound)
        return formula, max(h for *_, h in terms)

    def pterm(self, sign: Fraction) -> tuple[str, Fraction, Formula, int, int]:
        coef = Fraction(1)
        tok = self.peek()
        if tok.kind == "int" or tok.text == "-":
            coef = self.rational()
            self.expect("*")
        tok = self.peek()
        if tok.kind != "ident" or not tok.text.startswith("pr_"):
            raise _found(tok, "pr_<player>")
        owner = self.prefixed_player("pr_")
        sub, h = self.group()
        return owner, sign * coef, sub, tok.pos, h

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.advance()
            sign = -1
        num_tok = self.advance()
        if num_tok.kind != "int":
            raise _found(num_tok, "an integer")
        num = _int(num_tok)
        den = 1
        if self.peek().text == "/":
            self.advance()
            den_tok = self.advance()
            if den_tok.kind != "int":
                raise _found(den_tok, "a positive integer")
            den = _int(den_tok)
            if den == 0:
                raise ParseError("denominator must be positive", den_tok.pos)
        return Fraction(sign * num, den)


def parse_formula(
    text: str,
    game,
    signals: Optional[Iterable[str]] = None,
    atoms: Optional[Iterable[str]] = None,
) -> Formula:
    """Parse a formula; player/action names are checked against the game.

    `signals`/`atoms` close the respective vocabularies; None leaves them open.
    """
    p = _Parser(text, game, signals, atoms)
    out, _ = p.formula()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos, expected=("end of input",))
    return out


def parse_instance(
    text: str,
    game,
    signals: Optional[Iterable[str]] = None,
    atoms: Optional[Iterable[str]] = None,
) -> Formula:
    """Parse a single primitive proposition, a generic atom, pl(...) or rec(...),
    as `parse_formula` reads it, errors included; refuse any other formula."""
    f = parse_formula(text, game, signals, atoms)
    if not isinstance(f, (Prim, Play, Receive)):
        raise ParseError("expected a primitive proposition", 0)
    return f
