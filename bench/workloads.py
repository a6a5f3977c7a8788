"""The benchmark's three workloads: seeded inputs, one op, and the gate.

Each workload exposes

* ``setup(seed, work)`` -> the deck: a list of ops drawn by the seed, with
  every input built and pre-solved;
* ``block_size()`` -> ops per block; the deck is a sequence of blocks;
* ``run(op)`` -> the op's output, computed with the package only;
* ``check(op, output)`` -> None when the output is right, else a reason,
  decided by ``tests/oracle.py`` and by construction-time ground truth, never
  by the package's own evaluator;
* ``collect(op, output)`` -> the output as the gate sees it, called after
  the op's time is taken (``cli`` reads the files an op wrote here);
* ``setup_checks()`` -> for each solve that set-up ran, None when its result
  is right, else a reason;
* ``known_defect(op, exc)`` -> the name of the documented defect a failed op
  shows (`exc` is what it raised, or None), or None when it is unexpected.

Solved inputs come from ``bench/data/`` (made by ``bench/make_data.py``):
games, objectives, their optimal values and the CE vertices that devices are
mixed from, frozen so that no deck depends on which optimal vertex a solver
returns.  The seed draws the deck from them.

Decks are stratified: every block holds the same number of ops of each kind,
in shuffled order, so the op mix, and with it the latency percentiles, is the
same for every seed and for every whole number of blocks run; only the drawn
games, objectives and formulas differ.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ambicoord import (
    And,
    Belief,
    CommonBelief,
    Distribution,
    EpistemicStructure,
    Game,
    Implies,
    MutualBelief,
    Not,
    Optimal,
    Play,
    Prim,
    ProbGe,
    Rationality,
    Receive,
    check_action_uniqueness,
    check_cell_positivity,
    check_partition_consistency,
    check_rationality,
    check_self_enforcing,
    check_signal_uniqueness,
    check_strategy_valid,
    from_objective_ce,
    from_subjective_ce,
    induce,
    solve_ce,
    verify_induced_equilibrium,
)
from ambicoord import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DATA = Path(__file__).resolve().parent / "data"

# bound to tests/oracle.py by run.py before any workload runs
oracle = None


def players_actions(shape) -> tuple[tuple, dict]:
    """Players "1".."n" with actions a1..ak."""
    players = tuple(str(k + 1) for k in range(len(shape)))
    return players, {p: tuple(f"a{k + 1}" for k in range(n)) for p, n in zip(players, shape)}


def read_data(name: str) -> list:
    """The entries of bench/data/<name>.jsonl, one JSON object a line."""
    with open(DATA / f"{name}.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def decode_game(entry: dict) -> Game:
    """`shape` and `payoffs` (one vector a profile, in profile order)."""
    players, actions = players_actions(entry["shape"])
    profiles = itertools.product(*(actions[p] for p in players))
    payoffs = {a: tuple(map(Fraction, v)) for a, v in zip(profiles, entry["payoffs"])}
    return Game(players, actions, payoffs)


def decode_weights(game: Game, pairs: list) -> dict:
    """[profile index, weight] pairs -> {profile: Fraction}."""
    profiles = list(game.profiles())
    return {profiles[k]: Fraction(w) for k, w in pairs}


def objective_value(objective: dict, x: Distribution) -> Fraction:
    return sum((w * x.weight(a) for a, w in objective.items()), Fraction(0))


def check_solve(game: Game, objective: dict, value: Fraction, x: Distribution) -> str | None:
    """None when `x` is an optimal CE: the gate's test of every solve."""
    if not _is_distribution(x.weights):
        return "not a probability distribution"
    if not oracle.naive_is_objective_ce(game, x):
        return "not an objective CE by the oracle"
    got = objective_value(objective, x)
    if got != value:
        return f"objective value {got}, optimum {value}"
    return None


class Workload:
    """Defaults of the interface in the module docstring."""

    def collect(self, op, out):
        return out

    def setup_checks(self) -> list:
        return []

    def known_defect(self, op, exc) -> str | None:
        return None


def _deal(rng: random.Random, block: dict, blocks: int) -> list:
    """`blocks` blocks, each holding every key `block[key]` times, shuffled."""
    out = []
    for _ in range(blocks):
        kinds = [key for key, n in block.items() for _ in range(n)]
        rng.shuffle(kinds)
        out += kinds
    return out


def _naive_induce(m: EpistemicStructure, viewer: str) -> dict:
    """Profile weights as the viewer reads play, straight from the truth table."""
    weights: dict = {}
    for state in m.states:
        profile = tuple(
            next(a for a in m.game.actions_of(p) if state in m.true_set(viewer, Play(p, a)))
            for p in m.game.players
        )
        weights[profile] = weights.get(profile, Fraction(0)) + m.prior_of(state)
    return {a: w for a, w in weights.items() if w != 0}


def _is_distribution(weights: dict) -> bool:
    return all(w >= 0 for w in weights.values()) and sum(weights.values(), Fraction(0)) == 1


# ------------------------------------------------------------------- solve

# Per 25-op block (~3 s).  The 3-player shapes are few because one 3x3x3
# solve costs as much as ~300 2x2 ones.  The counts put the median in the
# middle of the 3x3 / 2x2x3 group (5 faster ops, 15 in the group, 5 slower)
# and the 90th percentile inside the 2x3x3 group, so neither sits on the
# jump between two shapes.
SOLVE_BLOCK = {(2, 2): 5, (3, 3): 8, (2, 2, 3): 7, (2, 3, 3): 4, (3, 3, 3): 1}
SOLVE_BLOCKS = 8


@dataclass(frozen=True)
class SolveOp:
    game: Game
    objective: dict
    value: Fraction  # the optimum


class Solve(Workload):
    """One op = one ``solve_ce(game, objective)`` on a random game.

    The corpus holds two decks' worth of games of each shape; the seed
    samples one deck from it.
    """

    def setup(self, seed: int, work: Path) -> list:
        rng = random.Random(f"solve/{seed}")
        corpus: dict = {}
        for entry in read_data("solve"):
            corpus.setdefault(tuple(entry["shape"]), []).append(entry)
        picks = {shape: iter(rng.sample(corpus[shape], n * SOLVE_BLOCKS)) for shape, n in SOLVE_BLOCK.items()}
        deck = []
        for shape in _deal(rng, SOLVE_BLOCK, SOLVE_BLOCKS):
            entry = next(picks[shape])
            game = decode_game(entry)
            deck.append(SolveOp(game, decode_weights(game, entry["objective"]), Fraction(entry["value"])))
        return deck

    def block_size(self) -> int:
        return sum(SOLVE_BLOCK.values())

    def run(self, op: SolveOp):
        return solve_ce(op.game, op.objective)

    def check(self, op: SolveOp, out: Distribution) -> str | None:
        return check_solve(op.game, op.objective, op.value, out)


# ------------------------------------------------------------------ device

# Per 6-op block (~0.4 s): 2 objective devices (<= 8 states), 2 small
# subjective ones (48-150 states) and 2 large ones (216-512 states), where
# construct, structures and semantics dominate.  The median falls among the
# small subjective devices, the 90th percentile among the large ones.  Both
# bands are wide, so that the op times around each percentile are spread
# out: within a tight cluster, the percentile would jump between the host's
# fast and slow speeds (see README.md).  All are 3-player 2x2x2 games, whose
# LPs are cheap, so set-up can afford to re-solve every game of the corpus.
DEVICE_BLOCK = {"objective": 2, "small": 2, "large": 2}
DEVICE_BLOCKS = 40
DEVICE_POOL = 12  # mixtures drawn per game
DEVICE_STATES = {"small": (48, 150), "large": (216, 512)}


def mixture(rng: random.Random, vertices: list, least: int = 2) -> Distribution:
    """Random convex combination of `least` or more of the vertices (a CE)."""
    chosen = rng.sample(vertices, rng.randint(least, len(vertices)))
    coefs = [rng.randint(1, 4) for _ in chosen]
    total = sum(coefs)
    weights: dict = {}
    for c, v in zip(coefs, chosen):
        for a, w in v.weights.items():
            weights[a] = weights.get(a, Fraction(0)) + Fraction(c, total) * w
    return Distribution(weights)


def product_states(dists) -> int:
    """States of the subjective device built from these distributions."""
    return math.prod(len(d.weights) for d in dists)


def json_round_trip(payload):
    """Serialized structure -> JSON text -> parsed back, as a file would be."""
    return json.loads(json.dumps(payload))


@dataclass(frozen=True)
class DeviceOp:
    game: Game
    dists: tuple  # one shared distribution (objective) or one per player

    @property
    def objective(self) -> bool:
        return len(self.dists) == 1


@dataclass(frozen=True)
class DeviceOut:
    checks_ok: bool
    verified: bool
    induced: tuple


class Device(Workload):
    """One op = build a device from pre-solved CEs, round-trip it, audit it.

    Set-up re-runs every solve of the corpus, the same list for every seed,
    so that ``setup_s`` times the LP; the devices are mixed from the
    corpus's frozen vertices, whatever vertices the solver returns.
    """

    def setup(self, seed: int, work: Path) -> list:
        rng = random.Random(f"device/{seed}")
        self.solves = []  # (game, objective, optimum, result), for the gate
        pools = []  # per game: CEs to draw each player's distribution from
        for entry in read_data("device"):
            game = decode_game(entry)
            for s in entry["solves"]:
                objective = decode_weights(game, s["objective"])
                self.solves.append((game, objective, Fraction(s["value"]), solve_ce(game, objective)))
            verts = [Distribution(decode_weights(game, v)) for v in entry["vertices"]]
            pools.append((game, [mixture(rng, verts, 1) for _ in range(DEVICE_POOL)]))
        deck = []
        for kind in _deal(rng, DEVICE_BLOCK, DEVICE_BLOCKS):
            if kind == "objective":
                game, pool = rng.choice(pools)
                deck.append(DeviceOp(game, (rng.choice(pool),)))
            else:
                deck.append(self._sized(rng, pools, DEVICE_STATES[kind]))
        return deck

    @staticmethod
    def _sized(rng, pools, band) -> DeviceOp:
        """A subjective op whose product state space lies in `band`."""
        for _ in range(10_000):
            game, pool = rng.choice(pools)
            dists = tuple(rng.choice(pool) for _ in game.players)
            if band[0] <= product_states(dists) <= band[1]:
                return DeviceOp(game, dists)
        raise RuntimeError(f"no mixture of the solved vertices has {band} states")

    def setup_checks(self) -> list:
        return [check_solve(*solve) for solve in self.solves]

    def block_size(self) -> int:
        return sum(DEVICE_BLOCK.values())

    def run(self, op: DeviceOp) -> DeviceOut:
        game = op.game
        if op.objective:
            built = from_objective_ce(game, op.dists[0])
        else:
            built = from_subjective_ce(game, list(op.dists))
        m = EpistemicStructure.from_dict(json_round_trip(built.structure.to_dict()), game)
        reports = [
            check_signal_uniqueness(m),
            check_partition_consistency(m),
            check_action_uniqueness(m),
            check_cell_positivity(m),
            check_rationality(m),
            check_strategy_valid(m, built.strategy),
            check_self_enforcing(m, built.strategy),
        ]
        induced = tuple(induce(m, p) for p in game.players)
        verified = verify_induced_equilibrium(m, built.strategy).ok
        return DeviceOut(all(r.ok for r in reports), verified, induced)

    def check(self, op: DeviceOp, out: DeviceOut) -> str | None:
        if not out.checks_ok:
            return "a structural, rationality or strategy check failed"
        if not out.verified:
            return "verify_induced_equilibrium(...).ok is false"
        wanted = op.dists * len(op.game.players) if op.objective else op.dists
        if out.induced != wanted:
            return "induce(m, p) differs from player p's input"
        if not oracle.naive_is_subjective_ce(op.game, out.induced):
            return "induced distributions are not a subjective CE by the oracle"
        return None


# --------------------------------------------------------------------- cli

# Per 31-op block (~0.15 s).  No record of how the CLI is used exists, so
# these weights are a choice, not a measurement: "check", the command that
# exercises parser, formulas and semantics together, gets the largest share so
# that the median falls on check ops; every other subcommand and every
# malformed-input class appears in every block.
CLI_BLOCK = {
    "check": 13,
    "parse": 3,
    "validate": 2,
    "induce": 2,
    "verify": 2,
    "construct": 2,
    "solve-ce": 2,
    "bad_json": 1,
    "schema_error": 1,
    "parse_error": 1,
    "unknown_identifier": 1,
    "deep_nesting": 1,
}
CLI_BLOCKS = 10
FORMULA_DEPTH = (3, 5)
DEEP_NESTING = 2000  # well past the interpreter's default recursion limit
CHECK_FIXTURES = ("coord", "cycle", "weather")


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple
    expect: object  # what the gate compares against; depends on kind


@dataclass(frozen=True)
class CliOut:
    code: object
    stdout: str
    written: str | None = None  # structure.json written by construct


def random_formula(rng: random.Random, game: Game, signals, atoms, depth: int):
    """A formula whose spine is exactly `depth` operators deep.

    Each operator has one compound operand (the spine) and leaves elsewhere,
    so size grows linearly with depth.  Operators include CB, EB^m, B_i and
    pr_ inequalities; leaves include rat_ and opt_.  EB^m appears at most
    once: its expansion copies the operand once per player per level, so
    nested EBs make `parse` print (and the oracle walk) exponentially large
    formulas, and a few such draws would dominate a seed's cost.
    """

    def leaf():
        kind = rng.choice(("play", "receive", "opt", "rat") + (("prim",) if atoms else ()))
        p = rng.choice(game.players)
        if kind == "play":
            return Play(p, rng.choice(game.actions_of(p)))
        if kind == "receive":
            return Receive(p, rng.choice(signals))
        if kind == "opt":
            return Optimal(p, rng.choice(game.actions_of(p)))
        if kind == "rat":
            return Rationality(p)
        return Prim(rng.choice(atoms))

    f = leaf()
    eb_used = False
    for _ in range(depth):
        op = rng.choice(("not", "and", "implies", "pr", "pr", "B", "EB", "CB", "CB"))
        if op == "EB" and eb_used:
            op = "B"
        eb_used = eb_used or op == "EB"
        if op == "not":
            f = Not(f)
        elif op == "and":
            f = And(f, leaf()) if rng.random() < 0.5 else And(leaf(), f)
        elif op == "implies":
            f = Implies(leaf(), f) if rng.random() < 0.5 else Implies(f, leaf())
        elif op == "pr":
            terms = [(Fraction(rng.choice((1, 2, 3)), rng.randint(1, 2)), f)]
            if rng.random() < 0.5:
                terms.append((Fraction(-1, rng.randint(1, 3)), leaf()))
            bound = Fraction(rng.randint(0, 2), rng.randint(2, 4))
            f = ProbGe(rng.choice(game.players), tuple(terms), bound)
        elif op == "B":
            f = Belief(rng.choice(game.players), f)
        elif op == "EB":
            f = MutualBelief(rng.randint(1, 2), f)
        else:
            f = CommonBelief(f)
    return f


@dataclass(frozen=True)
class _Files:
    """One game/structure/strategy triple on disk, with its ground truth."""

    game: str
    structure: str
    strategy: str | None
    inputs: tuple | None  # per-player distributions the device was built from
    objective: bool = False  # built by from_objective_ce


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _read_structure(game_path, structure_path) -> EpistemicStructure:
    game = Game.from_dict(json.loads(Path(game_path).read_text(encoding="utf-8")))
    data = json.loads(Path(structure_path).read_text(encoding="utf-8"))
    return EpistemicStructure.from_dict(data, game)


class Cli(Workload):
    """One op = one in-process ``cli.main(argv)`` with stdout/stderr captured."""

    def setup(self, seed: int, work: Path) -> list:
        # The files are the same for every seed, as the fixtures are: a cold
        # call's cost follows the size of the files it loads.  The seed draws
        # the calls: subcommands, formulas, states, players and files.
        rng = random.Random(f"cli/{seed}")
        self.work = work
        self._expected: dict = {}
        self._structures: dict = {}
        corpus = read_data("cli")
        devices = self._devices([e for e in corpus if e["kind"] == "device"], work)
        fixtures = [
            _Files(
                str(FIXTURES / f"{name}_game.json"),
                str(FIXTURES / f"{name}_structure.json"),
                None,
                None,
            )
            for name in CHECK_FIXTURES
        ]
        solvable = []
        for k, entry in enumerate(e for e in corpus if e["kind"] == "solve"):
            game = decode_game(entry)
            objective = decode_weights(game, entry["objective"])
            g = _write(work / f"solve{k}_game.json", game.to_dict())
            o = _write(work / f"solve{k}_objective.json", Distribution(objective).to_dict(game))
            solvable.append((g, o, (game, objective, Fraction(entry["value"]))))
        bad = self._malformed(work, devices[0])

        deck = []
        for kind in _deal(rng, CLI_BLOCK, CLI_BLOCKS):
            deck.append(self._op(rng, kind, devices, fixtures, solvable, bad, len(deck)))
        return deck

    def _devices(self, entries, work: Path) -> list:
        """Small devices (so the oracle stays affordable), written as files."""
        out = []
        for k, entry in enumerate(entries):
            game = decode_game(entry)
            objective = entry["objective_device"]
            inputs = tuple(Distribution(decode_weights(game, d)) for d in entry["inputs"])
            if objective:
                inputs *= game.n
                built = from_objective_ce(game, inputs[0])
            else:
                built = from_subjective_ce(game, list(inputs))
            base = work / f"device{k}"
            base.mkdir()
            files = _Files(
                _write(base / "game.json", game.to_dict()),
                _write(base / "structure.json", built.structure.to_dict()),
                _write(base / "strategy.json", built.strategy.to_dict()),
                inputs,
                objective,
            )
            for i, d in enumerate(inputs):
                _write(base / f"dist{i}.json", d.to_dict(game))
            out.append(files)
        return out

    @staticmethod
    def _malformed(work: Path, device: _Files) -> dict:
        text = Path(device.game).read_text(encoding="utf-8")
        bad_json = work / "bad.json"
        bad_json.write_text(text[: len(text) // 2], encoding="utf-8")
        structure = json.loads(Path(device.structure).read_text(encoding="utf-8"))
        structure["colour"] = "blue"
        return {
            "bad_json": str(bad_json),
            "schema_error": _write(work / "schema_error.json", structure),
        }

    def _op(self, rng, kind, devices, fixtures, solvable, bad, index) -> CliOp:
        if kind in ("check", "parse"):
            files = rng.choice(devices + fixtures)
            m = self._load(files)
            depth = rng.randint(*FORMULA_DEPTH)
            f = random_formula(rng, m.game, m.signals, m.atoms, depth)
            if kind == "parse":
                structure = ("--structure", files.structure) if rng.random() < 0.5 else ()
                return CliOp(kind, ("parse", "--game", files.game, *structure, str(f)), f)
            state = rng.choice(m.states)
            player = rng.choice(m.game.players)
            argv = (
                "check", "--game", files.game, "--structure", files.structure,
                "--state", state, "--player", player, str(f),
            )
            return CliOp(kind, argv, (files, state, player, f))
        if kind in ("validate", "induce", "verify"):
            files = rng.choice(devices)
            argv = (kind, "--game", files.game, "--structure", files.structure)
            return CliOp(kind, argv + ("--strategy", files.strategy), files)
        if kind == "construct":
            files = rng.choice(devices)
            base = Path(files.game).parent
            if files.objective:
                source = ("--objective", str(base / "dist0.json"))
            else:
                source = ("--subjective",) + tuple(
                    str(base / f"dist{i}.json") for i in range(len(files.inputs))
                )
            out = str(self.work / f"out{index}")
            return CliOp(kind, ("construct", "--game", files.game, *source, "--out", out), files)
        if kind == "solve-ce":
            g, o, problem = rng.choice(solvable)
            return CliOp(kind, ("solve-ce", "--game", g, "--objective", o), problem)
        files = devices[0]
        if kind == "bad_json":
            argv = ("validate", "--game", bad["bad_json"], "--structure", files.structure)
        elif kind == "schema_error":
            argv = ("validate", "--game", files.game, "--structure", bad["schema_error"])
        else:
            text = {
                "parse_error": "pl(1,a1) & & rat_2",
                "unknown_identifier": "pl(1,a1) -> rec(2,nosuchsignal)",
                "deep_nesting": "!" * DEEP_NESTING + "pl(1,a1)",
            }[kind]
            argv = (
                "check", "--game", files.game, "--structure", files.structure,
                "--state", self._load(files).states[0], "--player", "1", text,
            )
        return CliOp(kind, argv, 2)

    def _load(self, files: _Files) -> EpistemicStructure:
        if files.structure not in self._structures:
            self._structures[files.structure] = _read_structure(files.game, files.structure)
        return self._structures[files.structure]

    def block_size(self) -> int:
        return sum(CLI_BLOCK.values())

    def run(self, op: CliOp) -> CliOut:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects an argv
                code = exc.code
        return CliOut(code, out.getvalue())

    def collect(self, op: CliOp, out: CliOut) -> CliOut:
        """Keep what construct wrote, and clear its directory for the next pass."""
        if op.kind != "construct":
            return out
        out_dir = Path(op.argv[op.argv.index("--out") + 1])
        structure = out_dir / "structure.json"
        written = structure.read_text(encoding="utf-8") if structure.is_file() else None
        shutil.rmtree(out_dir, ignore_errors=True)
        return CliOut(out.code, out.stdout, written)

    def check(self, op: CliOp, out: CliOut) -> str | None:
        if op.argv not in self._expected:
            self._expected[op.argv] = self._expectation(op)
        code, test = self._expected[op.argv]
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        if test is None:
            return None
        try:
            right = test(out)
        except Exception as exc:  # unreadable output is a wrong answer
            return f"output unreadable: {type(exc).__name__}: {exc}"
        return None if right else "wrong output"

    def _expectation(self, op: CliOp):
        """(expected exit code, predicate on the output or None)."""
        kind = op.kind
        if kind == "check":
            files, state, player, f = op.expect
            verdict = oracle.naive_holds(self._load(files), state, player, f)
            line = "true\n" if verdict else "false\n"
            return (0 if verdict else 1), (lambda out: out.stdout == line)
        if kind == "parse":
            return 0, (lambda out: out.stdout.startswith(f"canonical: {op.expect}\n"))
        if kind == "validate":
            return 0, (lambda out: all(line.endswith(": pass") for line in out.stdout.splitlines()))
        if kind in ("induce", "verify"):
            files = op.expect
            m = self._load(files)
            game = m.game
            want = {p: d.to_dict(game)["weights"] for p, d in zip(game.players, files.inputs)}
            ce = oracle.naive_is_subjective_ce(game, files.inputs)
            if kind == "induce":
                return 0, (lambda out: {p: d["weights"] for p, d in json.loads(out.stdout).items()} == want)
            lines = [f"player {p}: {json.dumps({'weights': w})}" for p, w in want.items()]
            kind_line = "objective" if files.objective else "subjective"
            lines.append(f"{kind_line} CE: true")
            return (0 if ce else 1), (lambda out: out.stdout.splitlines() == lines)
        if kind == "construct":
            files = op.expect
            game = self._load(files).game

            def written_device_is_right(out):
                m = EpistemicStructure.from_dict(json.loads(out.written), game)
                return all(
                    _naive_induce(m, p) == d.weights for p, d in zip(m.game.players, files.inputs)
                )

            return 0, written_device_is_right
        if kind == "solve-ce":
            game, objective, value = op.expect

            def solved(out):
                x = Distribution.from_dict(json.loads(out.stdout), game)
                return check_solve(game, objective, value, x) is None

            return 0, solved
        return op.expect, None

    def known_defect(self, op: CliOp, exc) -> str | None:
        # the parser recurses once per nesting level, so this input escapes
        # cli.main as RecursionError instead of exiting 2; it stays in the
        # mix, counted as failed, until the parser bounds its depth
        if op.kind == "deep_nesting" and isinstance(exc, RecursionError):
            return "deep_nesting"
        return None


WORKLOADS = {"solve": Solve, "device": Device, "cli": Cli}
