"""Regenerate the benchmark's frozen inputs in bench/data/.

    PYTHONPATH=src python3 bench/make_data.py

Games and objectives are drawn at random from fixed seeds.  Their optimal
values, and the CE vertices the `device` and `cli` decks are mixed from, are
what the package's exact solver returned when the data was made.  They are
committed so that the decks do not depend on which optimal vertex a solver
returns when the optimum is not unique, and so that the gate can check that a
solve is optimal, not only feasible.  Rerun this only to change the inputs on
purpose: every result the benchmark reports depends on them.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import oracle  # noqa: E402
from ambicoord import Distribution, Game, solve_ce  # noqa: E402

import workloads  # noqa: E402
from workloads import DATA, SOLVE_BLOCK, SOLVE_BLOCKS, mixture, product_states  # noqa: E402

SOLVE_CORPUS = 2  # corpus entries per shape, in decks' worth; each seed samples one deck
DEVICE_GAMES = 16  # each with 5 objectives solved
CLI_DEVICE_STATES = 24  # keeps the brute-force oracle cheap


def random_game(rng: random.Random, shape: tuple[int, ...]) -> Game:
    """Players "1".."n", actions a1..ak, payoffs drawn from {-4..4}/{1..3}."""
    players, actions = workloads.players_actions(shape)
    payoffs = {
        profile: tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in players)
        for profile in itertools.product(*(actions[p] for p in players))
    }
    return Game(players, actions, payoffs)


def random_objective(rng: random.Random, game: Game, density: float = 0.3) -> dict:
    """Sparse objective: about `density` of the profiles get a nonzero weight."""
    return {
        a: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        for a in game.profiles()
        if rng.random() < density
    }


def _narrow(game: Game) -> bool:
    """Some action is weakly dominated or some profile is a pure equilibrium.

    Such games tend to have a single or a small correlated-equilibrium
    polytope, whose vertices share a narrow support.
    """
    for p in game.players:
        for a, b in itertools.permutations(game.actions_of(p), 2):
            if all(
                game.payoff(p, game.profile_with(p, b, c)) >= game.payoff(p, game.profile_with(p, a, c))
                for c in game.opponent_profiles(p)
            ):
                return True
    for profile in game.profiles():
        if all(
            game.payoff(p, profile) >= game.payoff(p, profile[:k] + (b,) + profile[k + 1 :])
            for k, p in enumerate(game.players)
            for b in game.actions_of(p)
        ):
            return True
    return False


def solved(game: Game, objective: dict) -> tuple[Distribution, Fraction]:
    """The solver's vertex and its objective value, checked by the oracle."""
    x = solve_ce(game, objective)
    assert oracle.naive_is_objective_ce(game, x), "solver returned a non-CE"
    return x, workloads.objective_value(objective, x)


def solved_game(rng: random.Random, shape, objectives: int, min_support: int):
    """A random game, not `_narrow`, with several distinct CE vertices.

    Draws until the union of the solved vertices' supports reaches
    `min_support`.  Returns the game, its (objective, value) solves and the
    distinct vertices.
    """
    while True:
        game = random_game(rng, shape)
        if _narrow(game):
            continue
        solves, found = [], []
        for _ in range(objectives):
            objective = random_objective(rng, game, 0.5)
            v, value = solved(game, objective)
            solves.append((objective, value))
            if v not in found:
                found.append(v)
        union = set().union(*(v.weights for v in found))
        if len(found) >= 2 and len(union) >= min_support:
            return game, solves, found


def _small_subjective(rng: random.Random, shape, limit: int):
    """A solved game and per-player CE vertices with at most `limit` product states."""
    while True:
        game, _, verts = solved_game(rng, shape, 4, 4)
        for _ in range(20):
            dists = tuple(rng.choice(verts) for _ in game.players)
            # equal inputs would build a common-interpretation device
            if product_states(dists) <= limit and any(d != dists[0] for d in dists):
                return game, dists


def encode_game(game: Game) -> dict:
    return {
        "shape": [len(game.actions_of(p)) for p in game.players],
        "payoffs": [[str(v) for v in game.payoffs[a]] for a in game.profiles()],
    }


def encode_weights(game: Game, weights: dict) -> list:
    """[profile index, weight] pairs, in profile order."""
    return [[k, str(weights[a])] for k, a in enumerate(game.profiles()) if a in weights]


def solve_entries() -> list:
    rng = random.Random("data/solve")
    out = []
    for shape, n in SOLVE_BLOCK.items():
        for _ in range(n * SOLVE_BLOCKS * SOLVE_CORPUS):
            game = random_game(rng, shape)
            objective = random_objective(rng, game)
            _, value = solved(game, objective)
            out.append({**encode_game(game), "objective": encode_weights(game, objective), "value": str(value)})
    return out


def device_entries() -> list:
    rng = random.Random("data/device")
    out = []
    for _ in range(DEVICE_GAMES):
        game, solves, verts = solved_game(rng, (2, 2, 2), 5, 6)
        out.append(
            {
                **encode_game(game),
                "solves": [{"objective": encode_weights(game, o), "value": str(v)} for o, v in solves],
                "vertices": [encode_weights(game, v.weights) for v in verts],
            }
        )
    return out


def cli_entries() -> list:
    """Four small devices (inputs only; set-up constructs them) and six 2x2 solves."""
    rng = random.Random("data/cli")
    out = []
    for shape, objective in (((3, 3), True), ((2, 2, 2), True), ((3, 3), False), ((2, 2, 2), False)):
        if objective:
            game, _, verts = solved_game(rng, shape, 4, 4)
            inputs = (mixture(rng, verts),)
        else:
            game, inputs = _small_subjective(rng, shape, CLI_DEVICE_STATES)
        out.append(
            {
                "kind": "device",
                **encode_game(game),
                "objective_device": objective,
                "inputs": [encode_weights(game, d.weights) for d in inputs],
            }
        )
    for _ in range(6):
        game = random_game(rng, (2, 2))
        objective = random_objective(rng, game, 0.5)
        _, value = solved(game, objective)
        out.append({"kind": "solve", **encode_game(game), "objective": encode_weights(game, objective), "value": str(value)})
    return out


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for name, make in (("solve", solve_entries), ("device", device_entries), ("cli", cli_entries)):
        lines = [json.dumps(entry, separators=(",", ":")) for entry in make()]
        (DATA / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} entries to {DATA / name}.jsonl")


if __name__ == "__main__":
    main()
