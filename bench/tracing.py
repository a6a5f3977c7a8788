"""Spans around calls into each layer of the package, for the traced run.

`Tracer.install()` replaces selected public functions and methods of the
package's modules with recording wrappers, and `uninstall()` puts the
originals back; an untraced run never imports wrappers into play.  A span is
(name, start, end, parent span, op id).  Spans live in flat arrays while the
run lasts and are written out, one line each, when it ends.

A span directly inside a span of the same name is not recorded: recursion
(`expand` calling itself, `intension` calling `Evaluator.intension_mask`)
counts once, as the outer call.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import ambicoord
from ambicoord import cli, construct, coordination, formulas, games, lp, parser, semantics, structures
from ambicoord.formulas import CommonBelief, Formula

# Layer = first component of the span name.  rationals, reports and errors
# are too thin to wrap: their time counts in the layer that calls them.
# "json" is not the package's: it is the device op's stdlib JSON round trip,
# traced so that the root spans cover the op.
LAYERS = (
    "cli",
    "parser",
    "formulas",
    "structures",
    "semantics",
    "games",
    "lp",
    "construct",
    "coordination",
    "json",
)
SHAPES = ("2x2", "3x3", "2x2x3", "2x3x3", "3x3x3")
CLI_COMMANDS = ("parse", "check", "validate", "induce", "verify", "construct", "solve-ce")


def _bits(x: list[Fraction]) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in x), default=0)


def _nodes(f: Formula) -> int:
    """AST node count of a formula (iterative: formulas may be deep)."""
    count, todo = 0, [f]
    while todo:
        g = todo.pop()
        count += 1
        for attr in ("arg", "left", "right"):
            sub = getattr(g, attr, None)
            if sub is not None:
                todo.append(sub)
        for _, sub in getattr(g, "terms", ()):
            todo.append(sub)
    return count


class Tracer:
    """Records spans for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.self_time = array("d")
        self.outer_name = array("b")  # no ancestor span has the same name
        self.outer_layer = array("b")  # no ancestor span is in the same layer
        self.op = -1
        self.samples: dict[str, list[float]] = {}  # per-call values (ms, states)
        self.peaks: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active_names: dict[int, int] = {}
        self._active_layers: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def wrap(self, fn, name, post=None):
        """`name` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            k = tracer._id(span)
            stack = tracer._stack
            if stack and tracer.name_id[stack[-1]] == k:
                return fn(*args, **kwargs)
            layer = span.split(".", 1)[0]
            idx = len(tracer.start)
            tracer.name_id.append(k)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_id.append(tracer.op)
            tracer.outer_name.append(tracer._active_names.get(k, 0) == 0)
            tracer.outer_layer.append(tracer._active_layers.get(layer, 0) == 0)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            tracer._active_names[k] = tracer._active_names.get(k, 0) + 1
            tracer._active_layers[layer] = tracer._active_layers.get(layer, 0) + 1
            stack.append(idx)
            tracer._child.append(0.0)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                child = tracer._child.pop()
                tracer._active_names[k] -= 1
                tracer._active_layers[layer] -= 1
                tracer.end[idx] = t1
                tracer.self_time[idx] = (t1 - t0) - child
                if tracer._child:
                    tracer._child[-1] += t1 - t0
            if post is not None:
                post(tracer, result, t1 - t0, *args, **kwargs)
            return result

        return wrapper

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installing -----------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap every entry point, in the package and in the `callers` modules."""
        modules = [ambicoord, cli, construct, coordination, formulas, games, lp, parser, semantics, structures]
        modules += callers
        for owner, attr, name, post in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, post))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self.wrap(original, name, post)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:  # every `from .x import f` binding too
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n"
                )

    def totals(self):
        """Per span name and per layer: calls, busy time and self time."""
        names = {n: {"calls": 0, "busy": 0.0, "self": 0.0} for n in self.names}
        layers = {layer: {"busy": 0.0, "self": 0.0} for layer in LAYERS}
        root = 0.0
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            row = names[name]
            row["calls"] += 1
            row["self"] += self.self_time[i]
            if self.outer_name[i]:
                row["busy"] += dur
            layer = layers[name.split(".", 1)[0]]
            layer["self"] += self.self_time[i]
            if self.outer_layer[i]:
                layer["busy"] += dur
            if self.parent[i] < 0:
                root += dur
        return names, layers, root


def _cli_name(argv=None):
    return f"cli.{argv[0]}" if argv else "cli.main"


def _intension_name(self, viewer, f):
    return "semantics.cb" if isinstance(f, CommonBelief) else "semantics.intension"


def _after_maximize(tracer, result, dur, *args, **kwargs):
    tracer.peak("lp.solution_bits_max", _bits(result[1]))


def _after_solve(tracer, result, dur, game, *args, **kwargs):
    shape = "x".join(str(len(game.actions_of(p))) for p in game.players)
    tracer.sample(f"games.solve_ce.ms.{shape}", dur * 1000)


def _after_construct(tracer, result, dur, *args, **kwargs):
    tracer.sample("construct.states", len(result.structure.states))


def _after_parse(tracer, result, dur, *args, **kwargs):
    tracer.count("parser.nodes", _nodes(result))


def _after_cli(tracer, result, dur, argv=None):
    tracer.sample(_cli_name(argv) + ".ms", dur * 1000)
    if result in (2, 3):
        tracer.count("cli.error_exit")


def _targets():
    """(owner, attribute, span name, post hook) for every wrapped entry point."""
    import workloads

    S, C, G = structures, coordination, games
    return [
        (workloads, "json_round_trip", "json.round_trip", None),
        (cli, "main", _cli_name, _after_cli),
        (parser, "parse_formula", "parser.parse_formula", _after_parse),
        (formulas, "expand", "formulas.expand", None),
        (formulas, "optimality_core", "formulas.optimality_core", None),
        (S.EpistemicStructure, "from_dict", "structures.from_dict", None),
        (S.EpistemicStructure, "to_dict", "structures.to_dict", None),
        (S, "check_signal_uniqueness", "structures.audit", None),
        (S, "check_partition_consistency", "structures.audit", None),
        (S, "check_action_uniqueness", "structures.audit", None),
        (S, "check_cell_positivity", "structures.audit", None),
        (S, "check_signal_definitions", "structures.check_signal_definitions", None),
        (S, "check_rationality", "structures.check_rationality", None),
        (S, "is_common_interpretation", "structures.is_common_interpretation", None),
        (semantics.Evaluator, "__init__", "semantics.compile", None),
        (semantics.Evaluator, "intension_mask", _intension_name, None),
        (semantics, "intension", "semantics.intension", None),
        (semantics, "posterior", "semantics.posterior", None),
        (G.Game, "from_dict", "games.from_dict", None),
        (G.Distribution, "from_dict", "games.from_dict", None),
        (G, "validate_game", "games.validate_game", None),
        (G, "check_objective_ce", "games.check_ce", None),
        (G, "check_subjective_ce", "games.check_ce", None),
        (G, "solve_ce", "games.solve_ce", _after_solve),
        (lp, "maximize", "lp.maximize", _after_maximize),
        (construct, "from_objective_ce", "construct.from_objective_ce", _after_construct),
        (construct, "from_subjective_ce", "construct.from_subjective_ce", _after_construct),
        (C.CoordinationStrategy, "from_dict", "coordination.strategy_from_dict", None),
        (C, "check_strategy_valid", "coordination.check_strategy_valid", None),
        (C, "check_self_enforcing", "coordination.check_self_enforcing", None),
        (C, "induce", "coordination.induce", None),
        (C, "verify_induced_equilibrium", "coordination.verify", None),
    ]


def per_layer_metrics(tracer: Tracer, op_seconds: float) -> dict:
    """The per-layer metric values (name -> (value, unit)) for one traced pass.

    Busy and self times are seconds over the pass, which is a fixed amount of
    work, so they compare across commits.  `op_seconds` is the pass's summed
    op time, against which the root spans' coverage is measured.
    """
    names, layers, root = tracer.totals()

    def row(name):
        return names.get(name, {"calls": 0, "busy": 0.0, "self": 0.0})

    def p50(key):
        values = tracer.samples.get(key)
        return statistics.median(values) if values else 0.0

    states = tracer.samples.get("construct.states", [])
    parse_busy = row("parser.parse_formula")["busy"]
    intension_calls = row("semantics.intension")["calls"] + row("semantics.cb")["calls"]
    out = {
        "lp.maximize.busy_s": (row("lp.maximize")["busy"], "s"),
        "lp.maximize.calls": (row("lp.maximize")["calls"], "count"),
        "lp.solution_bits_max": (tracer.peaks.get("lp.solution_bits_max", 0), "bits"),
        "games.solve_ce.self_s": (row("games.solve_ce")["self"], "s"),
    }
    for shape in SHAPES:
        out[f"games.solve_ce.p50_ms.{shape}"] = (p50(f"games.solve_ce.ms.{shape}"), "ms")
    out.update(
        {
            "games.check_ce.busy_s": (row("games.check_ce")["busy"], "s"),
            "games.from_dict.busy_s": (row("games.from_dict")["busy"], "s"),
            "construct.busy_s": (layers["construct"]["busy"], "s"),
            "construct.states_mean": (statistics.fmean(states) if states else 0.0, "states"),
            "construct.states_max": (max(states, default=0), "states"),
            "structures.from_dict.busy_s": (row("structures.from_dict")["busy"], "s"),
            "structures.to_dict.busy_s": (row("structures.to_dict")["busy"], "s"),
            "structures.audit.busy_s": (row("structures.audit")["busy"], "s"),
            "structures.check_rationality.busy_s": (row("structures.check_rationality")["busy"], "s"),
            "semantics.compile.busy_s": (row("semantics.compile")["busy"], "s"),
            "semantics.intension.busy_s": (
                row("semantics.intension")["busy"] + row("semantics.cb")["busy"],
                "s",
            ),
            "semantics.intension.calls": (intension_calls, "count"),
            "semantics.cb.busy_s": (row("semantics.cb")["busy"], "s"),
            "parser.parse_formula.busy_s": (parse_busy, "s"),
            "parser.nodes_per_s": (
                tracer.counts.get("parser.nodes", 0) / parse_busy if parse_busy else 0.0,
                "1/s",
            ),
            "formulas.expand.busy_s": (row("formulas.expand")["busy"], "s"),
            "coordination.induce.busy_s": (row("coordination.induce")["busy"], "s"),
            "coordination.check_strategy_valid.busy_s": (
                row("coordination.check_strategy_valid")["busy"],
                "s",
            ),
            "coordination.check_self_enforcing.busy_s": (
                row("coordination.check_self_enforcing")["busy"],
                "s",
            ),
            "coordination.verify.self_s": (row("coordination.verify")["self"], "s"),
        }
    )
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.p50_ms"] = (p50(f"cli.{cmd}.ms"), "ms")
        out[f"cli.{cmd}.calls"] = (row(f"cli.{cmd}")["calls"], "count")
    out["cli.error_exit.calls"] = (tracer.counts.get("cli.error_exit", 0), "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layers[layer]["self"], "s")
    out["trace.coverage_ratio"] = (root / op_seconds if op_seconds else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.start), "count")
    return out
