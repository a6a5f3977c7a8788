"""Command-line interface: verdicts on stdout, diagnostics on stderr,
exit codes 0 (ok/true), 1 (false/failed), 2 (input errors), 3 (preconditions).
"""

import importlib.metadata
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ambicoord
from ambicoord import (
    DeviationIssue,
    EpistemicStructure,
    Game,
    check_objective_ce,
    cli,
    expand,
    formulas,
    induce,
    parse_formula,
)
from ambicoord.cli import MAX_EXPANDED, main
from ambicoord.parser import MAX_DEPTH
from conftest import FIXTURES

WG = str(FIXTURES / "weather_game.json")
WS = str(FIXTURES / "weather_structure.json")
CG = str(FIXTURES / "cycle_game.json")
CS = str(FIXTURES / "cycle_structure.json")
CST = str(FIXTURES / "cycle_strategy.json")
CCE = str(FIXTURES / "cycle_ce.json")
GG = str(FIXTURES / "coord_game.json")
GS = str(FIXTURES / "coord_structure.json")
GST = str(FIXTURES / "coord_strategy.json")
OG = str(FIXTURES / "own_action_game.json")
OS = str(FIXTURES / "own_action_structure.json")


class TestParse:
    def test_prints_canonical_and_expanded_forms(self, capsys):
        assert main(["parse", "--game", WG, "B_A(p)"]) == 0
        out = capsys.readouterr().out
        assert "canonical: B_A(p)" in out
        assert "expanded: pr_A(p) >= 1 & -1*pr_A(p) >= -1" in out

    def test_structure_closes_the_vocabulary(self, capsys):
        assert main(["parse", "--game", WG, "--structure", WS, "p & q"]) == 0
        assert main(["parse", "--game", WG, "--structure", WS, "zz"]) == 2
        assert "column" in capsys.readouterr().err

    def test_open_vocabulary_without_structure(self):
        assert main(["parse", "--game", WG, "anything_goes"]) == 0

    def test_syntax_errors_exit_2_with_position(self, capsys):
        assert main(["parse", "--game", WG, "p &"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "column 4" in err

    @pytest.mark.parametrize(
        "text",
        ["EB^2000(p)", "EB^12(p)", "B_A(" * 16 + "p" + ")" * 16],
        ids=["EB^2000", "EB^12", "B_A x16"],
    )
    def test_expansion_too_long_to_print_exits_3(self, capsys, text):
        start = time.perf_counter()
        assert main(["parse", "--game", WG, text]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"precondition violated: the expanded formula would print more than {MAX_EXPANDED}")

    def test_long_expansion_under_the_bound_prints(self, capsys):
        text = "B_A(" * 14 + "p" + ")" * 14
        assert main(["parse", "--game", WG, text]) == 0
        game = Game.from_dict(json.loads(Path(WG).read_text()))
        expanded = str(expand(parse_formula(text, game), game))
        assert MAX_EXPANDED // 4 < len(expanded) <= MAX_EXPANDED
        same = capsys.readouterr().out.splitlines()[1] == f"expanded: {expanded}"
        assert same  # not compared in the assert: a failure would print half a megabyte

    def test_each_optimality_core_is_built_once_per_call(self, monkeypatch, capsys):
        built = []
        core = formulas.optimality_core
        monkeypatch.setattr(formulas, "optimality_core", lambda p, a, game: built.append((p, a)) or core(p, a, game))
        assert main(["parse", "--game", CG, "rat_1 & opt_1(T) & opt_2(L)"]) == 0
        assert sorted(built) == [("1", "B"), ("1", "M"), ("1", "T"), ("2", "L")]
        assert capsys.readouterr().out.count("\n") == 2


class TestCheck:
    def test_true_is_exit_0(self, capsys):
        code = main(
            ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", "EB(p)"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_is_exit_1(self, capsys):
        code = main(
            ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", "EB^2(p)"]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_numeric_player_selector(self, capsys):
        code = main(
            ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "2", "B_B(p)"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    @pytest.mark.parametrize(
        "text, same",
        [
            ("!" * (MAX_DEPTH - 1) + "p", "!p"),
            ("(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1), "p"),
            ("p -> " * (MAX_DEPTH - 1) + "p", "p -> p"),
            ("p & " * (MAX_DEPTH - 1) + "p", "p"),
            # A's probability of an event A's own cell decides is 0 or 1
            ("pr_A(" * (MAX_DEPTH - 1) + "p" + ") >= 1/2" * (MAX_DEPTH - 1), "pr_A(p) >= 1/2"),
        ],
        ids=["not", "parens", "implies", "and", "prob"],
    )
    def test_formula_at_the_nesting_limit_evaluates(self, capsys, text, same):
        argv = ["check", "--game", WG, "--structure", WS, "--player", "A", "--state"]
        for state in ("w1", "w3"):
            code = main(argv + [state, text])
            out = capsys.readouterr().out
            assert (code, out) == (main(argv + [state, same]), capsys.readouterr().out)
            assert out == ("true\n" if code == 0 else "false\n")

    @pytest.mark.parametrize(
        "text",
        [
            "!" * 2000 + "pl(1,stay)",
            "(" * 600 + "p" + ")" * 600,
            "p -> " * 3000 + "p",
            "p & " * 3000 + "p",
        ],
        ids=["not", "parens", "implies", "and"],
    )
    def test_formula_over_the_nesting_limit_exits_2(self, capsys, text):
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A"]
        assert main(argv + [text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"parse error: formula nested more than {MAX_DEPTH} levels")

    @pytest.mark.parametrize("text, code", [("EB^2000(p)", 1), ("EB^2000(p -> p)", 0)])
    def test_mutual_belief_too_long_to_expand_keeps_its_verdict(self, capsys, text, code):
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", text]
        assert main(argv) == code
        assert capsys.readouterr().out == ("true\n" if code == 0 else "false\n")

    @pytest.mark.parametrize(
        "text, code", [("EB^1000000000(p)", 1), ("EB^1000000000(p -> p)", 0)]
    )
    def test_mutual_belief_of_any_order_answers_at_once(self, capsys, text, code):
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", text]
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == ("true\n" if code == 0 else "false\n")

    @pytest.mark.parametrize(
        "text",
        [
            "EB^" + "9" * 5000 + "(p)",
            "9" * 5000 + "*pr_A(p) >= 1",
            "pr_A(p) >= 1/" + "7" * 4400,
            "B_" + "9" * 5000 + "(p)",
        ],
        ids=["EB order", "coefficient", "denominator", "player position"],
    )
    def test_integers_past_the_int_string_limit_exit_2(self, capsys, text):
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", text]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("parse error: ")

    @pytest.mark.parametrize("player", ["\u00b2", "\u0662"], ids=["superscript-2", "arabic-indic-2"])
    def test_non_ascii_digits_are_no_player(self, capsys, player):
        argv = ["check", "--game", WG, "--structure", WS, "--state", "w1", "--player", player, "p"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: unknown player {player!r}\n"

    def test_a_player_with_two_signals_leaves_the_others_beliefs_alone(self, capsys, tmp_path):
        data = json.loads(Path(WS).read_text())
        data["partitions"] = None
        data["interpretation"]["A"]["rec(A,snp)"] = ["w1", "w3", "w4"]
        split = tmp_path / "split.json"
        split.write_text(json.dumps(data))
        argv = ["check", "--game", WG, "--structure", str(split), "--state", "w1", "--player"]
        for player, text in (("A", "p"), ("B", "pr_B(p) >= 1/2")):
            assert main(argv + [player, text]) == 0
            assert capsys.readouterr().out == "true\n"
        assert main(argv + ["B", "pr_A(p) >= 1/2"]) == 3
        assert capsys.readouterr().err == "precondition violated: player 'A' receives 2 signals at state 'w1'\n"
        assert main(["validate", "--game", WG, "--structure", str(split)]) == 1
        assert "signal-definitions: fail\n" in capsys.readouterr().out

    def test_unknown_state_is_an_input_error(self):
        code = main(
            ["check", "--game", WG, "--structure", WS, "--state", "w9", "--player", "A", "p"]
        )
        assert code == 2


class TestValidate:
    def test_structure_only(self, capsys):
        assert main(["validate", "--game", WG, "--structure", WS]) == 0
        out = capsys.readouterr().out
        for label in (
            "signal-uniqueness",
            "partition-consistency",
            "action-uniqueness",
            "cell-positivity",
            "signal-definitions",
            "rationality",
        ):
            assert f"{label}: pass" in out
        assert "strategy-validity" not in out

    def test_with_strategy(self, capsys):
        assert main(["validate", "--game", CG, "--structure", CS, "--strategy", CST]) == 0
        out = capsys.readouterr().out
        assert "strategy-validity: pass" in out
        assert "self-enforcement: pass" in out

    def test_failures_exit_1_and_explain_on_stderr(self, capsys, tmp_path):
        data = json.loads(Path(GS).read_text())
        data["interpretation"]["2"]["rec(2,sp)"] = ["wp"]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(data))
        code = main(["validate", "--game", GG, "--structure", str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert "signal-uniqueness: fail" in captured.out
        assert "rationality: skipped" in captured.out
        assert captured.err  # the offending triple is named

    def test_failures_are_listed_in_the_same_order_under_any_hash_seed(self, tmp_path):
        # every recommendation shifted by one action: each instruction fails
        # at several states, named in state order whatever the string hashes
        actions = json.loads(Path(CG).read_text())["actions"]
        table = json.loads(Path(CST).read_text())
        shifted = {
            p: {s: actions[p][(actions[p].index(a) + 1) % len(actions[p])] for s, a in row.items()}
            for p, row in table.items()
        }
        strategy = tmp_path / "shifted.json"
        strategy.write_text(json.dumps(shifted))
        main_ep = importlib.metadata.EntryPoint("ambicoord", "ambicoord.cli:main", "console_scripts")
        args = ("validate", "--game", CG, "--structure", CS, "--strategy", str(strategy))
        runs = [_run_entry_point(main_ep, *args, hash_seed=seed) for seed in ("1", "2")]
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stderr.count("strategy-validity: ValidityIssue") > 2
        assert runs[0].stderr == runs[1].stderr

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["validate", "--game", WG, "--structure", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [["w1", "w2"], {"w1": 1}], ids=["list", "object"])
    def test_partition_entries_must_be_state_names(self, capsys, tmp_path, entry):
        data = json.loads(Path(WS).read_text())
        data["partitions"]["A"] = [[entry], ["w3", "w4"]]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--game", WG, "--structure", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")

    def test_missing_file_is_exit_2(self):
        assert main(["validate", "--game", WG, "--structure", "/nowhere.json"]) == 2

    def test_rational_play_unknown_to_its_player_passes_yet_is_no_ce(self, capsys):
        """B has one cell and is indifferent in it, but plays x at w0 and y
        at w1, so she does not know her own action.  Every audit and
        CB(rat_A & rat_B) pass, yet the play they induce breaks both of B's
        incentive inequalities.  An audit that each player's play is
        constant on her cells, run before rationality, would make this
        `validate` fail: the verdict pinned here flips with it."""
        assert main(["validate", "--game", OG, "--structure", OS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(line.endswith(": pass") for line in lines)
        for state in ("w0", "w1"):
            argv = ["check", "--game", OG, "--structure", OS, "--state", state, "--player", "A"]
            assert main(argv + ["CB(rat_A & rat_B)"]) == 0
        game = Game.from_dict(json.loads(Path(OG).read_text()))
        m = EpistemicStructure.from_dict(json.loads(Path(OS).read_text()), game)
        dist = induce(m, "A")
        assert dist.to_dict(game) == {"weights": {"x,y": "1/3", "y,x": "2/3"}}
        report = check_objective_ce(game, dist)
        assert report.failures == (
            DeviationIssue("B", "x", "y", Fraction(-2, 3)),
            DeviationIssue("B", "y", "x", Fraction(-2, 3)),
        )


class TestInduce:
    def test_single_viewer(self, capsys):
        code = main(
            ["induce", "--game", CG, "--structure", CS, "--strategy", CST, "--player", "1"]
        )
        assert code == 0
        dist = json.loads(capsys.readouterr().out)
        assert dist["weights"]["T,C"] == "1/6"
        assert len(dist["weights"]) == 6

    def test_all_viewers(self, capsys):
        code = main(["induce", "--game", GG, "--structure", GS, "--strategy", GST])
        assert code == 0
        per_viewer = json.loads(capsys.readouterr().out)
        assert per_viewer["1"]["weights"] == {"U,L": "1/2", "D,R": "1/2"}
        assert per_viewer["2"]["weights"] == {"U,L": "1"}

    def test_preconditions_exit_3(self, capsys, tmp_path):
        # the weather structure has no action atoms, so nothing can be induced
        strategy = tmp_path / "strategy.json"
        strategy.write_text(
            json.dumps({"A": {"sp": "stay", "snp": "stay"}, "B": {"sp": "stay", "snp": "stay"}})
        )
        code = main(
            ["induce", "--game", WG, "--structure", WS, "--strategy", str(strategy)]
        )
        assert code == 3
        assert "precondition violated" in capsys.readouterr().err


class TestVerify:
    def test_objective_device(self, capsys):
        code = main(["verify", "--game", CG, "--structure", CS, "--strategy", CST])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective CE: true" in out
        assert out.count("player") == 2

    def test_subjective_device(self, capsys):
        code = main(["verify", "--game", GG, "--structure", GS, "--strategy", GST])
        assert code == 0
        out = capsys.readouterr().out
        assert "subjective CE: true" in out
        assert 'player 2: {"weights": {"U,L": "1"}}' in out

    def test_problems_exit_3(self, capsys, tmp_path):
        data = json.loads(Path(GS).read_text())
        data["interpretation"]["2"]["rec(2,sp)"] = ["wp"]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(data))
        code = main(["verify", "--game", GG, "--structure", str(bad), "--strategy", GST])
        assert code == 3
        assert capsys.readouterr().err == (
            "precondition violated: signal uniqueness fails (1 issue(s)); "
            "partition consistency fails (1 issue(s)); rationality and strategy checks skipped\n"
        )


class TestConstruct:
    def test_objective_pipeline_closes(self, capsys, tmp_path):
        out_dir = tmp_path / "built"
        code = main(
            ["construct", "--game", CG, "--objective", CCE, "--out", str(out_dir)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("wrote") == 3
        for name in ("structure.json", "strategy.json", "signal_map.json"):
            assert (out_dir / name).exists()

        # everything the construct step wrote must validate and verify cleanly
        structure = str(out_dir / "structure.json")
        strategy = str(out_dir / "strategy.json")
        assert main(["validate", "--game", CG, "--structure", structure, "--strategy", strategy]) == 0
        capsys.readouterr()
        assert main(["verify", "--game", CG, "--structure", structure, "--strategy", strategy]) == 0
        assert "objective CE: true" in capsys.readouterr().out

    def test_subjective_pipeline_closes(self, capsys, tmp_path):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        g1.write_text(json.dumps({"weights": {"U,L": "1/2", "D,R": "1/2"}}))
        g2.write_text(json.dumps({"weights": {"U,L": "1"}}))
        out_dir = tmp_path / "built"
        code = main(
            ["construct", "--game", GG, "--subjective", str(g1), str(g2), "--out", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        structure = str(out_dir / "structure.json")
        strategy = str(out_dir / "strategy.json")
        assert main(["validate", "--game", GG, "--structure", structure, "--strategy", strategy]) == 0
        capsys.readouterr()
        assert main(["verify", "--game", GG, "--structure", structure, "--strategy", strategy]) == 0
        assert "subjective CE: true" in capsys.readouterr().out

    def test_non_equilibrium_input_exits_3(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"weights": {"T,L": "1"}}))
        out_dir = tmp_path / "built"
        code = main(
            ["construct", "--game", CG, "--objective", str(point), "--out", str(out_dir)]
        )
        assert code == 3
        assert "precondition violated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, out, failing",
        [
            (lambda root: (root / "taken").write_text(""), "taken", "taken"),
            (lambda root: (root / "taken").write_text(""), "taken/sub", "taken/sub"),
            (lambda root: (root / "built" / "structure.json").mkdir(parents=True), "built", "built/structure.json"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "output-is-a-directory"],
    )
    def test_an_unwritable_out_exits_2_with_one_line(self, capsys, tmp_path, make, out, failing):
        make(tmp_path)
        code = main(["construct", "--game", CG, "--objective", CCE, "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / failing}: ")

    def test_wrong_subjective_arity_exits_3(self, tmp_path):
        g1 = tmp_path / "g1.json"
        g1.write_text(json.dumps({"weights": {"U,L": "1"}}))
        out_dir = tmp_path / "built"
        code = main(
            ["construct", "--game", GG, "--subjective", str(g1), "--out", str(out_dir)]
        )
        assert code == 3


class TestSolveCe:
    def test_returns_a_distribution(self, capsys):
        assert main(["solve-ce", "--game", CG]) == 0
        dist = json.loads(capsys.readouterr().out)
        total = sum(
            eval_fraction(w) for w in dist["weights"].values()
        )
        assert total == 1

    def test_with_objective_file(self, capsys, tmp_path):
        objective = tmp_path / "objective.json"
        weights = {
            "T,C": "3", "T,R": "3", "M,L": "3", "M,R": "3", "B,L": "3", "B,C": "3"
        }
        objective.write_text(json.dumps({"weights": weights}))
        assert main(["solve-ce", "--game", CG, "--objective", str(objective)]) == 0
        dist = json.loads(capsys.readouterr().out)
        # all optimum mass sits on the six scored profiles
        assert set(dist["weights"]) <= set(weights)

    def test_bad_objective_schema_exits_2(self, tmp_path):
        objective = tmp_path / "objective.json"
        objective.write_text(json.dumps({"weights": {"T,C": "0.5"}}))
        assert main(["solve-ce", "--game", CG, "--objective", str(objective)]) == 2


class TestHostileFiles:
    def test_json_nested_too_deeply_is_exit_2(self, capsys, tmp_path):
        data = json.loads(Path(WS).read_text())
        text = json.dumps(data).replace(json.dumps(data["atoms"]), "[" * 100_000 + "]" * 100_000)
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        assert main(["validate", "--game", WG, "--structure", str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {deep}: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "raw",
        [b'\xff\xfe{"players": []}', b'{"players": [' + b"9" * 5000 + b"]}"],
        ids=["not UTF-8", "5000-digit number"],
    )
    def test_undecodable_json_is_exit_2(self, capsys, tmp_path, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["parse", "--game", str(bad), "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {bad}: invalid JSON: ")

    @pytest.mark.parametrize("name", ["\u00b2", "\u0662"], ids=["superscript-2", "arabic-indic-2"])
    def test_non_ascii_digit_player_name_is_refused(self, capsys, tmp_path, name):
        data = json.loads(Path(WG).read_text())
        data["players"] = ["A", name]
        data["actions"] = {"A": ["stay"], name: ["stay"]}
        game = tmp_path / "game.json"
        game.write_text(json.dumps(data))
        assert main(["parse", "--game", str(game), "p"]) == 2
        assert capsys.readouterr().err == f"error: {game}: game: player name {name!r} is not an identifier\n"

    def test_duplicate_player_name_is_named(self, capsys, tmp_path):
        data = json.loads(Path(WG).read_text())
        data["players"] = ["A", "A"]
        game = tmp_path / "game.json"
        game.write_text(json.dumps(data))
        assert main(["validate", "--game", str(game), "--structure", WS]) == 2
        assert capsys.readouterr().err == f"error: {game}: game: duplicate player name 'A'\n"

    @pytest.mark.parametrize(
        "kind, fixture, edit, argv, message",
        [
            (
                "game",
                WG,
                lambda d: d["payoffs"].update({"zz,stay": d["payoffs"].pop("stay,stay")}),
                ["validate", "--game", "{bad}", "--structure", WS],
                "game: missing payoff entry for profile 'stay,stay'; "
                "payoff entry for unknown profile 'zz,stay': 'zz' is not an action of player 'A'",
            ),
            (
                "game",
                WG,
                lambda d: d.update(players="AB"),
                ["validate", "--game", "{bad}", "--structure", WS],
                "game: 'players' must be a list of strings",
            ),
            (
                "structure",
                CS,
                lambda d: d.update(colour="blue"),
                ["validate", "--game", CG, "--structure", "{bad}"],
                "structure: unknown keys ['colour']",
            ),
            (
                "strategy",
                CST,
                lambda d: d["1"].update(sig1="zz"),
                ["validate", "--game", CG, "--structure", CS, "--strategy", "{bad}"],
                "strategy: 'zz' is not an action of player '1'",
            ),
            (
                "objective distribution",
                CCE,
                lambda d: d["weights"].update({"zz,C": "0"}),
                ["construct", "--game", CG, "--objective", "{bad}", "--out", "{out}"],
                "profile key 'zz,C': 'zz' is not an action of player '1'",
            ),
            (
                "subjective distribution",
                CCE,
                lambda d: d["weights"].update({"T,C": "1/7"}),
                ["construct", "--game", CG, "--subjective", CCE, "{bad}", "--out", "{out}"],
                "distribution: weights sum to 41/42, not 1",
            ),
            (
                "objective",
                CCE,
                lambda d: d["weights"].update({"T,C": "0.5"}),
                ["solve-ce", "--game", CG, "--objective", "{bad}"],
                "objective: weight for 'T,C': not a rational literal: '0.5'",
            ),
        ],
        ids=["game payoff key", "game players", "structure", "strategy", "objective", "subjective", "solve-ce objective"],
    )
    def test_a_schema_error_names_its_file(self, capsys, tmp_path, kind, fixture, edit, argv, message):
        data = json.loads(Path(fixture).read_text())
        edit(data)
        bad = tmp_path / f"bad {kind}.json"
        bad.write_text(json.dumps(data))
        argv = [a.format(bad=bad, out=tmp_path / "out") for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_a_game_missing_most_payoffs_is_refused_at_once(self, capsys, tmp_path):
        """18 two-action players and one payoff entry: the missing entries
        are named by the first and a count, in one short line, not one by
        one across all 2**18 profiles."""
        players = [str(k) for k in range(1, 19)]
        game = tmp_path / "game.json"
        actions = {p: ["a", "b"] for p in players}
        payoffs = {",".join(["a"] * 18): ["0"] * 18}
        game.write_text(json.dumps({"players": players, "actions": actions, "payoffs": payoffs}))
        start = time.perf_counter()
        code = main(["parse", "--game", str(game), "p"])
        assert time.perf_counter() - start < 1
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first = ",".join(["a"] * 17 + ["b"])
        assert captured.err == f"error: {game}: game: missing payoff entry for profile {first!r} and 262142 more\n"
        assert len(captured.err) < 1024

    def test_oversized_solve_ce_exits_3_at_once(self, capsys, tmp_path):
        players = ["1", "2", "3"]
        actions = {p: ["a1", "a2", "a3", "a4", "a5"] for p in players}
        profiles = [",".join(a) for a in itertools.product(*actions.values())]
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"players": players, "actions": actions, "payoffs": {a: ["0"] * 3 for a in profiles}}))
        start = time.perf_counter()
        code = main(["solve-ce", "--game", str(game)])
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "precondition violated: the game has 125 action profiles, more than the cap of 48\n"

    def test_uniform_3x3x3_subjective_device_is_built_at_once(self, capsys, tmp_path):
        players = ["1", "2", "3"]
        actions = {p: ["a1", "a2", "a3"] for p in players}
        profiles = [",".join(a) for a in itertools.product(*actions.values())]
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"players": players, "actions": actions, "payoffs": {a: ["0"] * 3 for a in profiles}}))
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps({"weights": {a: "1/27" for a in profiles}}))
        out_dir = tmp_path / "built"
        start = time.perf_counter()
        code = main(["construct", "--game", str(game), "--subjective", *[str(uniform)] * 3, "--out", str(out_dir)])
        assert time.perf_counter() - start < 1
        assert code == 0
        # at most sum(|support_i|) - n + 1 = 27 * 3 - 3 + 1 states
        assert len(json.loads((out_dir / "structure.json").read_text())["states"]) <= 79
        files = ["--game", str(game), "--structure", str(out_dir / "structure.json")]
        files += ["--strategy", str(out_dir / "strategy.json")]
        assert main(["validate", *files]) == 0
        assert main(["verify", *files]) == 0
        # identical inputs give a common interpretation
        assert "objective CE: true" in capsys.readouterr().out


def test_argument_parser_is_built_once_and_reused(capsys):
    """One process: an argparse rejection, then check, then validate, each
    answering as a fresh process does, from a parser built once."""
    cli.build_parser.cache_clear()
    calls = [
        ("check", "--structure", WS, "--state", "w1", "--player", "A", "p"),
        ("check", "--game", WG, "--structure", WS, "--state", "w1", "--player", "A", "p"),
        ("validate", "--game", WG, "--structure", WS),
    ]
    ep = _declared_console_script()
    codes = []
    for argv in calls:
        try:
            codes.append(main(list(argv)))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        fresh = _run_entry_point(ep, *argv)
        assert (captured.out, captured.err, codes[-1]) == (fresh.stdout, fresh.stderr, fresh.returncode)
    assert codes == [2, 0, 0]
    assert cli.build_parser.cache_info().misses == 1


def eval_fraction(text):
    return Fraction(text)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_console_script() -> importlib.metadata.EntryPoint:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    assert "ambicoord" in scripts, "pyproject.toml declares no ambicoord console script"
    return importlib.metadata.EntryPoint("ambicoord", scripts["ambicoord"], "console_scripts")


def _run_entry_point(
    ep: importlib.metadata.EntryPoint, *args: str, hash_seed: str | None = None
) -> subprocess.CompletedProcess:
    """Run `ep` the way a generated console script does, against the package under test."""
    code = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    src = str(Path(ambicoord.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _assert_help_lists_subcommands(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    assert "solve-ce" in proc.stdout


def test_console_script_is_wired_up():
    ep = _declared_console_script()
    assert ep.load() is main
    _assert_help_lists_subcommands(_run_entry_point(ep, "--help"))
    # the exit code must survive the process boundary, not only main's return value
    proc = _run_entry_point(ep, "parse", "--game", WG, "p &")
    assert proc.returncode == 2
    assert "column 4" in proc.stderr


@pytest.mark.skipif(
    shutil.which("ambicoord") is None,
    reason="ambicoord console script not on PATH (pip install -e .)",
)
def test_installed_console_script_runs():
    proc = subprocess.run([shutil.which("ambicoord"), "--help"], capture_output=True, text=True)
    _assert_help_lists_subcommands(proc)
