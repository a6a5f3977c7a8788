"""The whole-mask audits, `induce` and `verify_induced_equilibrium` against
the per-state references in oracle.py.

Inputs are small constructed devices (2 to 64 states) and the fixtures (also
with their states reversed, and with no stored cells), each intact and in
three damaged copies, the damage drawn by a seed from six
kinds: an interpretation key dropped, a state added to a key, two keys'
state lists swapped, a state's prior mass moved to another state, the stored
partitions dropped, and a state moved between cells.
Every result must be identical, failures, notes and their order included;
a call that raises must raise the same exception type with the same message.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import oracle
from ambicoord import (
    PreconditionError,
    CoordinationStrategy,
    EpistemicStructure,
    check_action_uniqueness,
    check_cell_positivity,
    check_partition_consistency,
    check_rationality,
    check_self_enforcing,
    check_signal_uniqueness,
    check_strategy_valid,
    induce,
    verify_induced_equilibrium,
)
from ambicoord.cli import main
from conftest import load_fixture

MAX_STATES = 64
DEVICES_PER_KIND = 6
DAMAGES = ("drop_key", "add_state", "swap_keys", "move_mass", "drop_partitions", "move_state")
DAMAGES_PER_DEVICE = 3


def _induced(m, c, induce_fn):
    """Each viewer's induced weights in insertion order, or what it raised."""
    return tuple(_outcome(lambda: list(induce_fn(m, p).weights.items())) for p in m.game.players)


PAIRS = {
    "signal uniqueness": (
        lambda m, c: check_signal_uniqueness(m),
        lambda m, c: oracle.naive_check_signal_uniqueness(m),
    ),
    "partition consistency": (
        lambda m, c: check_partition_consistency(m),
        lambda m, c: oracle.naive_check_partition_consistency(m),
    ),
    "action uniqueness": (
        lambda m, c: check_action_uniqueness(m),
        lambda m, c: oracle.naive_check_action_uniqueness(m),
    ),
    "cell positivity": (
        lambda m, c: check_cell_positivity(m),
        lambda m, c: oracle.naive_check_cell_positivity(m),
    ),
    "cells": (
        lambda m, c: {p: tuple(map(m.states_of, m.cells(p)[0])) for p in m.game.players},
        lambda m, c: oracle.naive_partitions(m),
    ),
    "rationality": (
        lambda m, c: check_rationality(m),
        lambda m, c: oracle.naive_check_rationality(m),
    ),
    "strategy validity": (
        check_strategy_valid,
        oracle.naive_check_strategy_valid,
    ),
    "self-enforcement": (
        check_self_enforcing,
        oracle.naive_check_self_enforcing,
    ),
    "induce": (
        lambda m, c: _induced(m, c, induce),
        lambda m, c: _induced(m, c, oracle.naive_induce),
    ),
    "verify": (
        verify_induced_equilibrium,
        oracle.naive_verify_induced_equilibrium,
    ),
}


def _outcome(call):
    try:
        return ("returned", call())
    except Exception as exc:  # the exception itself is the result compared
        return ("raised", type(exc), str(exc))


def _damaged(data: dict, kind: str, rng: random.Random) -> dict | None:
    """A damaged copy of a structure's dict form, or None if `kind` cannot apply."""
    out = {**data, "prior": dict(data["prior"])}
    out["interpretation"] = {p: dict(t) for p, t in data["interpretation"].items()}
    tables = [p for p, t in sorted(out["interpretation"].items()) if t]
    states = data["states"]
    if kind == "drop_key":
        p = rng.choice(tables)
        del out["interpretation"][p][rng.choice(sorted(out["interpretation"][p]))]
    elif kind == "add_state":
        p = rng.choice(tables)
        key = rng.choice(sorted(out["interpretation"][p]))
        absent = [s for s in states if s not in out["interpretation"][p][key]]
        if not absent:
            return None
        out["interpretation"][p][key] = out["interpretation"][p][key] + [rng.choice(absent)]
    elif kind == "swap_keys":
        p = rng.choice(tables)
        table = out["interpretation"][p]
        if len(table) < 2:
            return None
        k1, k2 = rng.sample(sorted(table), 2)
        table[k1], table[k2] = table[k2], table[k1]
    elif kind == "move_mass":
        heavy = [s for s in states if Fraction(data["prior"][s]) > 0]
        if len(states) < 2:
            return None
        src = rng.choice(heavy)
        dst = rng.choice([s for s in states if s != src])
        out["prior"][dst] = str(Fraction(data["prior"][dst]) + Fraction(data["prior"][src]))
        out["prior"][src] = "0"
    elif kind == "drop_partitions":
        if data["partitions"] is None:
            return None
        out["partitions"] = None
    else:
        assert kind == "move_state"
        if data["partitions"] is None:
            return None
        movable = [
            (p, k, j)
            for p, cells in sorted(data["partitions"].items())
            for k, cell in enumerate(cells)
            if len(cell) > 1
            for j in range(len(cells))
            if j != k
        ]
        if not movable:
            return None
        p, k, j = rng.choice(movable)
        cells = [list(c) for c in data["partitions"][p]]
        cells[j].append(cells[k].pop(rng.randrange(len(cells[k]))))
        out["partitions"] = {**data["partitions"], p: cells}
    return out


def _first_actions(game, signals) -> CoordinationStrategy:
    return CoordinationStrategy(
        game.players, signals, {p: {s: game.actions_of(p)[0] for s in signals} for p in game.players}
    )


@pytest.fixture(scope="module")
def devices(objective_instances, subjective_instances, weather_game, cycle_game, coord_game):
    """(label, game, structure dict, strategy): constructed devices and fixtures."""
    out = []
    for kind, instances in (("objective", objective_instances), ("subjective", subjective_instances)):
        small = [built for _, _, built in instances if 1 < len(built.structure.states) <= MAX_STATES]
        for k, built in enumerate(small[:DEVICES_PER_KIND]):
            m = built.structure
            out.append((f"{kind}{k}", m.game, m.to_dict(), built.strategy))
    for name, game in (("weather", weather_game), ("cycle", cycle_game), ("coord", coord_game)):
        data = load_fixture(f"{name}_structure.json")
        signals = tuple(data["signals"])
        try:
            strategy = CoordinationStrategy.from_dict(load_fixture(f"{name}_strategy.json"), game, signals)
        except FileNotFoundError:
            strategy = _first_actions(game, signals)
        out.append((name, game, data, strategy))
        # the same structure with its states listed backwards: state order,
        # not profile or cell order, decides the order of every result
        out.append((f"{name} reversed", game, {**data, "states": data["states"][::-1]}, strategy))
        # and with no stored cells: each player's cells are derived from her
        # received signals, so damage to those rows reaches them
        out.append((f"{name} derived", game, {**data, "partitions": None}, strategy))
    return out


def _failed(outcome) -> bool:
    """An outcome that raised, or a report (or a viewer's induce) that failed."""
    if outcome[0] == "raised":
        return True
    result = outcome[1]
    if isinstance(result, tuple):  # per-viewer induce outcomes
        return any(_failed(o) for o in result)
    return not getattr(result, "ok", True)


def test_mask_audits_match_the_per_state_references(devices):
    rng = random.Random(4242)
    applied = set()
    failed = set()
    for label, game, data, strategy in devices:
        cases = [("intact", data)]
        cases += [(kind, _damaged(data, kind, rng)) for kind in rng.sample(DAMAGES, DAMAGES_PER_DEVICE)]
        for kind, case in cases:
            if case is None:
                continue
            applied.add(kind)
            # one structure per side, so that the sides share no cached state
            m_fast = EpistemicStructure.from_dict(case, game)
            m_naive = EpistemicStructure.from_dict(case, game)
            for audit, (fast, naive) in PAIRS.items():
                got = _outcome(lambda: fast(m_fast, strategy))
                want = _outcome(lambda: naive(m_naive, strategy))
                assert got == want, (label, kind, audit)
                if _failed(want):
                    failed.add(audit)
    assert applied == {"intact", *DAMAGES}
    # the damage reaches every audit: each one fails or raises somewhere
    assert failed == set(PAIRS)


def test_self_enforcement_raises_what_a_state_by_state_scan_meets_first(coord_game):
    """Player 1 does not play U at w0 and cannot evaluate opt_1(U), whose
    cell {w1} has no mass; at w1 she gets a signal the strategy does not
    map.  Scanning states in order meets the missing entry before any state
    needs opt_1(U), so that is what must be raised."""
    m_data = {
        "states": ["w0", "w1", "w2"],
        "prior": {"w0": "1/2", "w1": "0", "w2": "1/2"},
        "signals": {"s": None, "t": None},
        "atoms": [],
        "interpretation": {"1": {"rec(1,s)": ["w0", "w2"], "rec(1,t)": ["w1"], "pl(1,U)": ["w2"]}, "2": {}},
        "partitions": {"1": [["w0", "w2"], ["w1"]], "2": [["w0", "w1", "w2"]]},
    }
    strategy = CoordinationStrategy(("1", "2"), ("s",), {"1": {"s": "U"}, "2": {"s": "L"}})
    got = _outcome(lambda: check_self_enforcing(EpistemicStructure.from_dict(m_data, coord_game), strategy))
    want = _outcome(
        lambda: oracle.naive_check_self_enforcing(EpistemicStructure.from_dict(m_data, coord_game), strategy)
    )
    assert want == ("raised", PreconditionError, "strategy has no entry for ('1', 't')")
    assert got == want


def _lines(text: str) -> list:
    return text.splitlines()


def _expected_induce(m, strategy):
    """`ambicoord induce`'s stdout, stderr lines and exit code, by the oracle."""
    out, err, code = oracle.naive_gate(m, strategy)
    if code:
        return out, err, code
    try:
        induced = {p: oracle.naive_induce(m, p).to_dict(m.game) for p in m.game.players}
    except PreconditionError as exc:
        return [], [f"precondition violated: {exc}"], 3
    return _lines(json.dumps(induced, indent=2)), [], 0


def _expected_verify(m, strategy):
    """`ambicoord verify`'s stdout, stderr lines and exit code, by the oracle."""
    try:
        result = oracle.naive_verify_induced_equilibrium(m, strategy)
    except PreconditionError as exc:
        return [], [f"precondition violated: {exc}"], 3
    out = [
        f"player {p}: {json.dumps(result.distributions[p].to_dict(m.game))}"
        for p in m.game.players
        if p in result.distributions
    ]
    if result.kind is not None:
        out.append(f"{result.kind} CE: {'true' if result.ce_ok else 'false'}")
    err = [f"precondition violated: {problem}" for problem in result.problems]
    return out, err, 3 if result.problems else 0 if result.ok else 1


def test_command_line_audit_chains_match_the_references(devices, tmp_path, capsys):
    """`validate` (with and without a strategy), `induce` and `verify` on
    files, intact and damaged, against oracle.py's chains over the naive
    audits: every stdout and stderr line and the exit code."""
    rng = random.Random(2424)
    seen = set()
    for n, (label, game, data, strategy) in enumerate(devices):
        cases = [("intact", data)]
        cases += [(kind, _damaged(data, kind, rng)) for kind in rng.sample(DAMAGES, DAMAGES_PER_DEVICE)]
        for kind, case in cases:
            if case is None:
                continue
            paths = {}
            for name, payload in (("game", game.to_dict()), ("structure", case), ("strategy", strategy.to_dict())):
                paths[name] = tmp_path / f"{n}-{kind}-{name}.json"
                paths[name].write_text(json.dumps(payload))
            m = EpistemicStructure.from_dict(case, game)
            files = ["--game", str(paths["game"]), "--structure", str(paths["structure"])]
            with_strategy = files + ["--strategy", str(paths["strategy"])]
            for argv, expected in (
                (["validate"] + files, oracle.naive_validate(m)),
                (["validate"] + with_strategy, oracle.naive_validate(m, strategy)),
                (["induce"] + with_strategy, _expected_induce(m, strategy)),
                (["verify"] + with_strategy, _expected_verify(m, strategy)),
            ):
                code = main(argv)
                captured = capsys.readouterr()
                got = (_lines(captured.out), _lines(captured.err), code)
                assert got == tuple(expected), (label, kind, argv[0])
                seen.add((argv[0], code))
                seen.update(line for line in got[0] + got[1] if "skipped" in line)
                seen.update(line for line in got[1] if line.startswith("precondition violated: "))
            if not oracle.naive_check_cell_positivity(m).ok and oracle.naive_gate(m, strategy)[2] == 0:
                seen.add("gate passes a zero-mass cell")
    assert {("validate", 0), ("validate", 1), ("induce", 0), ("induce", 3), ("verify", 0), ("verify", 3)} <= seen
    assert "rationality: skipped (structural checks failed)" in seen
    assert "self-enforcement: skipped (structural checks failed)" in seen
    assert "precondition violated: rationality and strategy checks skipped" in seen
    assert "precondition violated: strategy validity" in seen
    assert "gate passes a zero-mass cell" in seen
