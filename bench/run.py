"""Seeded benchmark of ambicoord: one client, one thread, a closed loop.

    python3 bench/run.py --workload solve|device|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` and
the gate's oracle from ``tests/oracle.py``.  The workload's inputs are made
from the seed.  The deck's blocks are run in order, each op starting when the
previous one returns, until the blocks have taken at least ``--seconds``,
stopping at a block boundary.  Set-up runs once before the first block and
again between blocks, outside their timing, about every four set-up times.
Every op's output is then checked outside the timed region.  The times
reported are scaled to a reference host speed, which a fixed computation
that does not use the package measures every half second of the run (see
``HostSpeed``); the raw figures are printed too.  Human-readable lines come
first; the last line of stdout is one JSON object with the metrics.

``--trace 1`` runs whole decks untraced until half of ``--seconds`` has
passed, then the deck once traced, and reports the per-layer metrics of that
traced pass (see bench/README.md).  Spans are written to
bench/.work/traces/.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_SPACING = 4  # set-up repeats after blocks that took this many set-up times
SETUP_GAP_S = 1.0  # ... and at least this many seconds
SPEED_GAP_S = 0.25  # the host's speed is measured this often
SPEED_REF_S = 0.010  # the speed probe's time at the reference speed
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def _memoized(fn):
    """Cache keyed by argument identity.

    Expanded formulas are large trees whose structural hash costs their size
    on every lookup; identity keys cost nothing.  Each entry keeps its
    arguments alive, so an id is never reused for another object.
    """
    cache = {}

    @functools.wraps(fn)
    def wrapper(*args):
        key = tuple(map(id, args))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = (fn(*args), args)
        return hit[0]

    return wrapper


def _load_package():
    """Import the checkout's package and the independent oracle, or exit 2."""
    if not (SRC / "ambicoord" / "__init__.py").is_file() or not ORACLE.is_file():
        print(f"error: run from a checkout of the repository; missing {SRC} or {ORACLE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    # The oracle recomputes every subformula at every state from scratch,
    # which is exponential in formula depth.  Its helpers are pure, so
    # memoizing them (in this private copy of the module) keeps its answers
    # and makes depth-5 formulas affordable.
    for name in ("_sat", "cells_of", "naive_cb_set"):
        setattr(oracle, name, _memoized(getattr(oracle, name)))
    workloads.oracle = oracle
    return workloads


class Raised:
    """An op's output when it raised: the exception, kept for the gate."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __eq__(self, other):
        return isinstance(other, Raised) and (type(self.exc), str(self.exc)) == (type(other.exc), str(other.exc))


def attempt(workload, op):
    try:
        return workload.run(op)
    except Exception as exc:  # the gate counts it; the loop keeps running
        return Raised(exc.with_traceback(None))  # frames would pin memory


def run_blocks(workload, deck, seconds: float, on_op=None, between=None, whole_decks=False):
    """Run the deck's blocks in order, cycling, until the ops took `seconds`.

    Stops only at a block boundary (a deck boundary with `whole_decks`), so
    the op mix is always the deck's; with `seconds` 0 it runs the deck once.  `between(busy)` runs after each op,
    untimed.  Returns per-op latencies, the outcomes and the seconds the
    ops took, with the loop's own bookkeeping.  `outcomes[k]` holds each
    distinct output of deck op k with the number of attempts that gave it,
    so every attempt is checked and memory does not grow with the number of
    passes.
    """
    stride = len(deck) if whole_decks else workload.block_size()
    latencies = []
    outcomes = [[] for _ in deck]
    busy = 0.0
    while True:
        k = len(latencies) % len(deck)
        if on_op is not None:
            on_op(k)
        t0 = perf_counter()
        out = attempt(workload, deck[k])
        latencies.append(perf_counter() - t0)
        _tally(outcomes[k], workload.collect(deck[k], out))
        busy += perf_counter() - t0
        if len(latencies) % stride == 0:
            if seconds == 0 and len(latencies) == len(deck):
                return latencies, outcomes, busy
            if seconds and busy >= seconds and len(latencies) >= MIN_OPS:
                return latencies, outcomes, busy
        if between is not None:
            between(busy)


def _tally(seen: list, out) -> None:
    for entry in seen:
        if entry[0] == out:
            entry[1] += 1
            return
    seen.append([out, 1])


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    The host switches between two speeds (see HostSpeed): a median jumps
    from one to the other as their shares cross one half; this mean moves
    with the shares.
    """
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut : len(values) - cut]
    return sum(middle) / len(middle)


def speed_probe() -> None:
    """Fixed work in the package's style, done without the package.

    Exact Fraction elimination (as in the LP), tuple-keyed dicts and sets (as
    in structures and semantics) and a JSON round trip (as in the CLI).  The
    cyclic collector is off so that the size of the benchmark's heap, which
    a change to the package may alter, does not move its time.
    """
    gc.disable()
    try:
        rng = random.Random(7)
        n = 9
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)] for _ in range(n)]
        for i in range(n):
            pivot = next(r for r in range(i, n) if rows[r][i] != 0)
            rows[i], rows[pivot] = rows[pivot], rows[i]
            for r in range(n):
                if r != i and rows[r][i] != 0:
                    f = rows[r][i] / rows[i][i]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
        counts: dict = {}
        for k in range(12000):
            key = (k % 97, k % 89, str(k % 13))
            counts[key] = counts.get(key, 0) + k
        kept = sorted({v for v in counts.values() if v % 3 == 0})
        json.loads(json.dumps({"rows": [[str(x) for x in row] for row in rows], "kept": kept}))
    finally:
        gc.enable()


class HostSpeed:
    """How slow the host runs, as the mean time of a fixed probe.

    The host this was built on switches between a fast and a slow speed
    about 1.5x apart, every second or so, and the slow share drifts over
    minutes: the same code ran 1.35x slower in one stretch of runs than in
    the next.  The probe runs every `SPEED_GAP_S` of the ops' time, so its
    middle mean sees the speeds in the shares the ops saw them;
    `factor()` scales the run's times to the reference speed.  The probe
    does not use the package, so a change to the package cannot move it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.due = 0.0

    def between(self, busy: float) -> None:
        if busy >= self.due:
            t0 = perf_counter()
            speed_probe()
            self.times.append(perf_counter() - t0)
            self.due = busy + SPEED_GAP_S

    def factor(self) -> float:
        """Reference time over the measured time: below 1 on a slow host."""
        return SPEED_REF_S / middle_mean(self.times)


class SetupTimer:
    """Times the workload's set-up: once before the run, then between ops.

    Set-ups run back to back would all catch one of the host's speeds;
    spread over the run they sample both, like the ops do.
    """

    def __init__(self, make, seed: int, root: Path):
        self.make, self.seed, self.root = make, seed, root
        self.times: list[float] = []
        self.due = 0.0

    def run(self):
        """Set up a fresh workload: (workload, deck, its work directory)."""
        work = self.root / f"setup{len(self.times)}"
        work.mkdir()
        workload = self.make()
        t0 = perf_counter()
        deck = workload.setup(self.seed, work)
        self.times.append(perf_counter() - t0)
        return workload, deck, work

    def between(self, busy: float) -> None:
        if busy < self.due:
            return
        _, _, work = self.run()
        shutil.rmtree(work)
        self.plan(busy)

    def plan(self, busy: float) -> None:
        """Set up again once the ops have taken a few more set-up times."""
        self.due = busy + max(SETUP_GAP_S, SETUP_SPACING * self.times[-1])

    def seconds(self) -> float:
        return middle_mean(self.times)


def gate(workload, deck, outcomes):
    """Check every output: (failed, unexpected failures, known-defect counts)."""
    failed, unexpected, known = 0, [], {}
    for k, seen in enumerate(outcomes):
        op = deck[k]
        for out, n in seen:
            if isinstance(out, Raised):
                reason = f"raised {type(out.exc).__name__}: {out.exc}"
            else:
                reason = workload.check(op, out)
            if reason is None:
                continue
            failed += n
            defect = workload.known_defect(op, out.exc if isinstance(out, Raised) else None)
            if defect is None:
                unexpected.append(f"op {k} ({n} attempts): {reason}")
            else:
                known[defect] = known.get(defect, 0) + n
    return failed, unexpected, known


def gate_setup(workload):
    """Check the solves set-up ran: (checked, failed, reasons)."""
    reasons = workload.setup_checks()
    bad = [f"set-up solve {k}: {r}" for k, r in enumerate(reasons) if r is not None]
    return len(reasons), len(bad), bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "device", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = _load_package()
    WORK.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(workloads, args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _run(workloads, args, work_root: Path) -> int:
    setups = SetupTimer(workloads.WORKLOADS[args.workload], args.seed, work_root)
    workload, deck, _ = setups.run()
    setups.plan(0.0)

    if args.trace:
        return _traced(workloads, workload, deck, args)

    speed = HostSpeed()

    def between(busy: float) -> None:
        setups.between(busy)
        speed.between(busy)

    between(0.0)
    latencies, outcomes, busy = run_blocks(workload, deck, args.seconds, between=between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, unexpected, known = gate(workload, deck, outcomes)
    checked, setup_failed, setup_unexpected = gate_setup(workload)
    attempted = len(latencies) + checked
    failed += setup_failed
    unexpected += setup_unexpected
    raw = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1000, "ms"),
        "setup_s": (setups.seconds(), "s"),
    }
    f = speed.factor()
    metrics = {
        name: (value / f if name == "ops_per_s" else value * f, unit) for name, (value, unit) in raw.items()
    }
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    extra = {
        **{f"raw.{name}": value for name, value in raw.items()},
        "host.speed_factor": (f, "ratio"),
        "host.probes": (len(speed.times), "count"),
        "failed_ratio": (failed / attempted, "ratio"),
        "ops": (len(latencies), "count"),
        "setup_solves": (checked, "count"),
        "setup_runs": (len(setups.times), "count"),
        "busy_s": (busy, "s"),
    }
    return _report(args, metrics, extra, attempted, failed, unexpected, known)


def _traced(workloads, workload, deck, args) -> int:
    import tracing

    # each pass measures the host's speed, so that the overhead ratio does
    # not take a change of speed between the passes for tracing's cost
    plain_speed, traced_speed = HostSpeed(), HostSpeed()
    plain_lat, plain_out, plain_busy = run_blocks(
        workload, deck, args.seconds / 2, between=plain_speed.between, whole_decks=True
    )
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    try:
        lat, out, busy = run_blocks(
            workload, deck, 0, on_op=lambda k: setattr(tracer, "op", k), between=traced_speed.between
        )
    finally:
        tracer.uninstall()
    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.tsv.gz")

    failed, unexpected, known = gate(workload, deck, plain_out)
    traced_failed, traced_unexpected, traced_known = gate(workload, deck, out)
    failed += traced_failed
    unexpected += traced_unexpected
    for defect, n in traced_known.items():
        known[defect] = known.get(defect, 0) + n
    checked, setup_failed, setup_unexpected = gate_setup(workload)
    failed += setup_failed
    unexpected += setup_unexpected
    attempted = len(plain_lat) + len(lat) + checked
    metrics = tracing.per_layer_metrics(tracer, sum(lat))
    plain_rate, traced_rate = len(plain_lat) / plain_busy, len(lat) / busy
    speed_ratio = traced_speed.factor() / plain_speed.factor()
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate / speed_ratio, "ratio")
    extra = {
        "raw.untraced.ops_per_s": (plain_rate, "1/s"),
        "raw.traced.ops_per_s": (traced_rate, "1/s"),
        "host.speed_factor.untraced": (plain_speed.factor(), "ratio"),
        "host.speed_factor.traced": (traced_speed.factor(), "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    return _report(args, metrics, extra, attempted, failed, unexpected, known)


def _report(args, metrics, extra, attempted, failed, unexpected, known) -> int:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for defect, n in known.items():
        print(f"  known defect {defect}: {n} failed ops (counted in failed)")
    for line in unexpected[:20]:
        print(f"  unexpected failure: {line}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
