"""Command-line front end: file-driven access to the library operations.

Exit codes: 0 success / verdict true, 1 verdict false or failed validation,
2 I/O or schema errors, 3 precondition violations (the offending check is
named on stderr).  Verdicts and requested output go to stdout; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .construct import from_objective_ce, from_subjective_ce
from .coordination import (
    STRUCTURAL,
    CoordinationStrategy,
    induce,
    run_audits,
    verify_induced_equilibrium,
)
from .errors import PreconditionError, SchemaError
from .formulas import expand
from .games import Distribution, Game, load_objective, solve_ce
from .parser import ParseError, parse_formula
from .semantics import holds
from .structures import EpistemicStructure

# `parse` refuses a formula whose expansion would print more characters
MAX_EXPANDED = 1_000_000


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or a number past the int-string limit
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def _load(path: str, parse, *args):
    """`parse(data, *args)` of a JSON file's contents; a schema error names the file."""
    data = _read_json(path)
    try:
        return parse(data, *args)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _resolve_player(game: Game, text: str) -> str:
    player = game.player_named(text)
    if player is None:
        raise SchemaError(f"unknown player {text!r}")
    return player


def _resolve_state(m: EpistemicStructure, text: str) -> str:
    if text not in m.states:
        raise SchemaError(f"unknown state {text!r}")
    return text


# ------------------------------------------------------------- subcommands


def _cmd_parse(args) -> int:
    game = _load(args.game, Game.from_dict)
    signals = atoms = None
    if args.structure:
        m = _load(args.structure, EpistemicStructure.from_dict, game)
        signals, atoms = m.signals, m.atoms
    f = parse_formula(args.formula, game, signals, atoms)
    expanded = expand(f, game, MAX_EXPANDED)
    print(f"canonical: {f}")
    print(f"expanded: {expanded}")
    return 0


def _cmd_check(args) -> int:
    game = _load(args.game, Game.from_dict)
    m = _load(args.structure, EpistemicStructure.from_dict, game)
    player = _resolve_player(game, args.player)
    state = _resolve_state(m, args.state)
    f = parse_formula(args.formula, game, m.signals, m.atoms)
    verdict = holds(m, state, player, f)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_validate(args) -> int:
    game = _load(args.game, Game.from_dict)
    m = _load(args.structure, EpistemicStructure.from_dict, game)
    strategy = _load(args.strategy, CoordinationStrategy.from_dict, game, m.signals) if args.strategy else None

    labels = STRUCTURAL + ("rationality",)
    if any(df is not None for df in m.signal_defs.values()):
        labels += ("signal definitions",)
    if strategy is not None:
        labels += ("strategy validity", "self-enforcement")
    all_ok = True
    for label, outcome in run_audits(m, strategy, labels):
        label = label.replace(" ", "-")
        all_ok = all_ok and outcome is not None and outcome.ok
        if outcome is None:
            print(f"{label}: skipped (structural checks failed)")
            continue
        print(f"{label}: {'pass' if outcome.ok else 'fail'}")
        if not outcome.ok:
            for line in (*outcome.failures, *outcome.notes):
                print(f"  {label}: {line}", file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_induce(args) -> int:
    game = _load(args.game, Game.from_dict)
    m = _load(args.structure, EpistemicStructure.from_dict, game)
    strategy = _load(args.strategy, CoordinationStrategy.from_dict, game, m.signals)
    # the audits that make play well defined, then strategy validity; the
    # first failure is refused, named by its label
    gate = ("signal uniqueness", "partition consistency", "action uniqueness", "strategy validity")
    for label, outcome in run_audits(m, strategy, gate):
        if not outcome.ok:
            raise PreconditionError(label)
    if args.player:
        player = _resolve_player(game, args.player)
        print(json.dumps(induce(m, player).to_dict(game), indent=2))
    else:
        out = {p: induce(m, p).to_dict(game) for p in game.players}
        print(json.dumps(out, indent=2))
    return 0


def _cmd_verify(args) -> int:
    game = _load(args.game, Game.from_dict)
    m = _load(args.structure, EpistemicStructure.from_dict, game)
    strategy = _load(args.strategy, CoordinationStrategy.from_dict, game, m.signals)
    result = verify_induced_equilibrium(m, strategy)
    for p in game.players:
        if p in result.distributions:
            print(f"player {p}: {json.dumps(result.distributions[p].to_dict(game))}")
    if result.kind is not None:
        print(f"{result.kind} CE: {'true' if result.ce_ok else 'false'}")
    for problem in result.problems:
        print(f"precondition violated: {problem}", file=sys.stderr)
    if result.problems:
        return 3
    return 0 if result.ok else 1


def _cmd_construct(args) -> int:
    game = _load(args.game, Game.from_dict)
    if args.objective:
        dist = _load(args.objective, Distribution.from_dict, game)
        result = from_objective_ce(game, dist)
    else:
        dists = [_load(p, Distribution.from_dict, game) for p in args.subjective]
        result = from_subjective_ce(game, dists)
    out = path = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in (
            ("structure.json", result.structure.to_dict()),
            ("strategy.json", result.strategy.to_dict()),
            ("signal_map.json", result.signal_maps_dict()),
        ):
            path = out / name
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from None
    return 0


def _cmd_solve_ce(args) -> int:
    game = _load(args.game, Game.from_dict)
    objective = {}
    if args.objective:
        objective = _load(args.objective, load_objective, game)
    dist = solve_ce(game, objective)
    print(json.dumps(dist.to_dict(game), indent=2))
    return 0


# ------------------------------------------------------------------ wiring


@functools.cache  # built once per process: building it costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ambicoord",
        description="Epistemic structures, ambiguous signalling and correlated equilibria.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula; print canonical and expanded forms")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", help="closes the signal/atom vocabulary")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula at a state for a player")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--player", required=True)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("validate", help="run the structural checks (and strategy checks)")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--strategy")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("induce", help="induced action-profile distribution per viewer")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--player")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("verify", help="induce distributions and check the CE conditions")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--strategy", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build a structure implementing a given CE")
    p.add_argument("--game", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--objective", help="shared-distribution JSON file")
    group.add_argument("--subjective", nargs="+", help="one distribution JSON file per player")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve-ce", help="solve for a correlated equilibrium via exact LP")
    p.add_argument("--game", required=True)
    p.add_argument("--objective", help="objective JSON file (same shape as a distribution)")
    p.set_defaults(func=_cmd_solve_ce)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
