"""Smoke test of the benchmark itself: every workload on a tiny deck.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {
    "SOLVE_BLOCK": {(2, 2): 3, (3, 3): 2, (2, 2, 3): 1, (2, 3, 3): 1},
    "SOLVE_BLOCKS": 1,
    "DEVICE_BLOCK": {"objective": 2, "small": 2, "large": 1},
    "DEVICE_BLOCKS": 1,
    "CLI_BLOCKS": 1,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "MIN_OPS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert any(line.split()[:1] == ["failed_ratio"] for line in lines[:-1])

    assert result["correct"] is True
    assert result["attempted"] >= 1
    known = sum(
        int(line.split(":")[1].split()[0]) for line in lines if "known defect deep_nesting" in line
    )
    # only the deep-nesting RecursionError may fail, and only in cli
    assert result["failed"] == known
    if workload != "cli":
        assert known == 0


@pytest.mark.parametrize("workload", ["solve", "device"])
def test_gate_rejects_a_feasible_but_suboptimal_solve(tiny, capsys, monkeypatch, workload):
    # minimizing returns a correlated equilibrium, but not the optimal one
    solve_ce = workloads.solve_ce
    minimize = lambda game, objective: solve_ce(game, {a: -w for a, w in objective.items()})
    monkeypatch.setattr(workloads, "solve_ce", minimize)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
