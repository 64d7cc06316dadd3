"""CLI subcommands, exit codes, and flag handling."""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tasklimits
import tasklimits.modal.decide as decide_module
import tasklimits.modal.formula as formula_module
import tasklimits.scenario as scenario_module
from tasklimits.cli import build_parser, main
from tasklimits.scenario import MAX_SCENARIO_BYTES, parse_scenario
from tasklimits.trajectory import build_trajectory
from support import SCENARIO_DIR


class TestRunCommands:
    def test_simulate_passes(self, capsys):
        assert main(["simulate", str(SCENARIO_DIR / "uniform_threshold.json")]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "telescoping_residual" in out

    def test_predict_passes(self, capsys):
        assert main(["predict", str(SCENARIO_DIR / "bernoulli_pair.json")]) == 0
        out = capsys.readouterr().out
        assert "tv_vs_tail" in out and "result: PASS" in out

    def test_logic_scenario_passes(self, capsys):
        assert main(["logic", str(SCENARIO_DIR / "logic_basics.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict: valid") == 3
        assert out.count("verdict: invalid") == 1

    def test_logic_accepts_bare_formula(self, capsys):
        assert main(["logic", "[]([]p0 -> p0) -> []p0"]) == 0
        assert "verdict: valid" in capsys.readouterr().out

    def test_formula_text_is_decided_before_a_file_of_that_name(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p0 -> p0").write_text("{}", encoding="utf-8")
        assert main(["logic", "p0 -> p0"]) == 0
        assert "verdict: valid" in capsys.readouterr().out
        # A target that is no formula is still read as a scenario file.
        shutil.copy(SCENARIO_DIR / "logic_basics.json", tmp_path)
        assert main(["logic", "logic_basics.json"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_mistyped_scenario_path_is_reported_as_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["logic", "scenarios/nope.json"]) == 2
        assert "error: scenarios/nope.json: cannot read scenario file" in capsys.readouterr().err

    def test_oversized_scenario_file_is_refused_before_reading(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "huge.json"
        with path.open("wb") as f:  # sparse: no block is written
            f.truncate(MAX_SCENARIO_BYTES + 1)
        opened = Path.open

        class Unread:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

            def fileno(self):
                return self.file.fileno()

            def read(self, *args):
                pytest.fail("file was read")

        monkeypatch.setattr(Path, "open", lambda self, *a, **k: Unread(opened(self, *a, **k)))
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: scenario file is {MAX_SCENARIO_BYTES + 1} bytes, "
            f"limit is {MAX_SCENARIO_BYTES}\n"
        )

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
    def test_endless_device_is_refused_at_the_limit(self, monkeypatch, capsys):
        # ``stat`` reads 0 bytes for a device, so only a bounded read stops it.
        monkeypatch.setattr(scenario_module, "MAX_SCENARIO_BYTES", 1024)
        assert main(["simulate", "/dev/zero"]) == 2
        assert capsys.readouterr().err == (
            "error: /dev/zero: scenario file exceeds the limit of 1024 bytes\n"
        )

    def test_bad_formula_exits_2(self, capsys):
        assert main(["logic", "[]("]) == 2
        assert "position 3" in capsys.readouterr().err

    def test_bad_formula_in_a_file_names_the_field_and_the_formula(self, tmp_path, capsys):
        path = tmp_path / "logic.json"
        logic = {"name": "l", "kind": "logic", "seed": 0, "payload": {"formulas": ["p0", "p0 &"]}}
        path.write_text(json.dumps(logic), encoding="utf-8")
        assert main(["logic", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: field 'formulas', formula 2: expected a formula (position 4)" in err

    def test_formula_text_over_a_limit_gets_the_loaders_message(self, capsys):
        text = " & ".join(f"p{i}" for i in range(9))
        assert main(["logic", text]) == 2
        assert capsys.readouterr().err == (
            "error: field 'formulas', formula 1: formula uses 9 atoms, limit is 8\n"
        )

    def test_each_file_formula_is_walked_once_from_load_to_report(self, monkeypatch, capsys):
        """The loader's walk is the decision's and the one-world probe's."""
        path = SCENARIO_DIR / "logic_basics.json"
        formulas = list(parse_scenario(path).payload.formulas)
        calls = []
        walk = formula_module._postorder

        def counted(phi):
            calls.append(phi)
            return walk(phi)

        monkeypatch.setattr(formula_module, "_postorder", counted)
        monkeypatch.setattr(decide_module, "_postorder", counted)
        assert main(["logic", str(path)]) == 0
        assert "result: PASS" in capsys.readouterr().out
        assert calls == formulas

    def test_missing_scenario_exits_2(self, capsys):
        assert main(["simulate", "/nonexistent/path.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_tolerance_forces_failure_exit(self, capsys):
        # With tolerance -1 every tight bound fails; exercises the gating path.
        code = main(["predict", str(SCENARIO_DIR / "bernoulli_pair.json"), "--tolerance", "-1"])
        assert code == 1
        assert "result: FAIL" in capsys.readouterr().out


class TestParser:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        assert main(["logic", "p0 -> p0"]) == 0
        once = len(built)
        assert main(["simulate", str(SCENARIO_DIR / "uniform_threshold.json")]) == 0
        assert once == 6 and len(built) == once


class TestUnusableInput:
    """Each case exits 2 with a message that names the problem, never a traceback."""

    @pytest.mark.parametrize(
        "command, scenario",
        [
            ("simulate", "bernoulli_pair.json"),
            ("predict", "uniform_threshold.json"),
            ("logic", "random_coverage.json"),
        ],
    )
    def test_run_command_rejects_another_kind(self, command, scenario, capsys):
        assert main([command, str(SCENARIO_DIR / scenario)]) == 2
        captured = capsys.readouterr()
        assert f"'{command}' runs" in captured.err and captured.out == ""

    def test_nan_epsilon_override_exits_2(self, capsys):
        target = str(SCENARIO_DIR / "uniform_threshold.json")
        assert main(["simulate", target, "--epsilon", "nan"]) == 2
        assert "'epsilon'" in capsys.readouterr().err

    def test_nan_tolerance_exits_2(self, capsys):
        target = str(SCENARIO_DIR / "bernoulli_pair.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", target, "--tolerance", "nan"])
        assert exit_info.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_formula_longer_than_a_file_name_is_decided(self, capsys):
        text = " & ".join(["p0"] * 100)
        assert len(text.encode()) > 255
        assert main(["logic", text]) == 0
        assert "verdict: invalid" in capsys.readouterr().out

    def test_deeply_nested_formula_exits_2(self, capsys):
        assert main(["logic", "(" * 600 + "p0" + ")" * 600]) == 2
        assert "nests deeper than" in capsys.readouterr().err
        # A chain builds a node per level, so the node limit refuses it first.
        assert main(["logic", "~" * 600 + "p0"]) == 2
        assert "more than 200 nodes (position 200)" in capsys.readouterr().err
        assert main(["logic", " & ".join(["p0"] * 1500)]) == 2
        assert "more than 200 nodes (position 500)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index, message",
        [
            ("1" * 5000, "unreadable atom index: Exceeds the limit (4300 digits)"),
            ("\u00b2", "expected digits after 'p' (position 6)"),
            ("\u0663", "expected digits after 'p' (position 6)"),
        ],
        ids=["5000-digit-atom", "superscript-two", "arabic-indic-three"],
    )
    def test_unusable_atom_index_exits_2(self, index, message, capsys):
        assert main(["logic", "p0 & p" + index]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, cause",
        [
            (b'{"name": "\xff"}', "not UTF-8 text"),
            (b'{"seed": ' + b"7" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "5000-digit-integer", "nested-100000-deep"],
    )
    def test_undecodable_file_exits_2(self, content, cause, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and cause in err

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["emit", "--format", "structured", "--out"]],
        ids=["simulate", "emit-structured"],
    )
    def test_lone_surrogate_name_exits_2(self, command, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "uniform_threshold.json").read_text(encoding="utf-8"))
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**data, "name": "\ud800"}), encoding="utf-8")
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "emit":
            argv.append(str(tmp_path / "report.json"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "field 'name' is not Unicode text" in err

    def test_no_input_escapes_main_in_a_fresh_interpreter(self, tmp_path):
        """From a fresh interpreter's stack, each input returns 2 with one error line."""
        chain = " & ".join(["p0"] * 1500)
        logic = {"name": "chain", "kind": "logic", "seed": 0, "payload": {"formulas": [chain]}}
        (tmp_path / "chain.json").write_text(json.dumps(logic), encoding="utf-8")
        argv = [["logic", chain], ["logic", str(tmp_path / "chain.json")]]
        for field, value in [("context_weights", [True]), ("loss", [["0", "1"], ["1", "0"]])]:
            data = json.loads((SCENARIO_DIR / "bernoulli_pair.json").read_text(encoding="utf-8"))
            data["payload"][field] = value
            (tmp_path / f"{field}.json").write_text(json.dumps(data), encoding="utf-8")
            argv.append(["predict", str(tmp_path / f"{field}.json")])
        argv.append(["verify", str(tmp_path / "missing")])
        out = str(tmp_path / "no" / "such" / "dir.csv")
        target = str(SCENARIO_DIR / "uniform_threshold.json")
        argv.append(["emit", target, "--format", "csv", "--out", out])
        script = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(Path(tasklimits.__file__).parents[1])!r}]
from tasklimits.cli import main

results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(argv),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        for args, (code, err) in zip(argv, json.loads(done.stdout), strict=True):
            assert code == 2 and re.fullmatch(r"error: [^\n]+\n", err), (args, code, err)


class TestVerify:
    def test_bundled_directory_passes(self, capsys):
        assert main(["verify", str(SCENARIO_DIR)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_failure_is_reflected_in_exit_code(self, tmp_path, capsys):
        shutil.copy(SCENARIO_DIR / "bernoulli_pair.json", tmp_path / "b.json")
        assert main(["verify", str(tmp_path), "--tolerance", "-1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2

    def test_not_a_directory_is_an_error(self, capsys):
        assert main(["verify", str(SCENARIO_DIR / "logic_basics.json")]) == 2


class TestEmit:
    def test_csv_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["emit", str(SCENARIO_DIR / "uniform_threshold.json"), "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass\n")

    def test_structured_file_parses_as_json(self, tmp_path):
        out = tmp_path / "report.json"
        main(["emit", str(SCENARIO_DIR / "logic_basics.json"), "--format", "structured", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["kind"] == "logic" and data["passed"] is True

    def test_unwritable_destination_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "emit",
                str(SCENARIO_DIR / "uniform_threshold.json"),
                "--format",
                "csv",
                "--out",
                str(tmp_path / "no" / "such" / "dir.csv"),
            ]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestFlagOverrides:
    def test_n_max_override_shortens_the_run(self, capsys):
        assert main(["simulate", str(SCENARIO_DIR / "uniform_threshold.json"), "--n-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out and "n=3" not in out

    def test_seed_override_changes_coverage_path(self, tmp_path, capsys):
        target = str(SCENARIO_DIR / "random_coverage.json")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["emit", target, "--format", "structured", "--out", str(out_a), "--seed", "1"])
        main(["emit", target, "--format", "structured", "--out", str(out_b), "--seed", "2"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_override_is_checked_as_the_field_it_replaces(self, tmp_path, capsys):
        # A logic scenario never reads n_max, yet the override is refused as a file value is.
        target = str(SCENARIO_DIR / "logic_basics.json")
        out = str(tmp_path / "report.csv")
        assert main(["emit", target, "--format", "csv", "--out", out, "--n-max", "-1"]) == 2
        assert "field 'n_max' must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, scenario, flag",
        [
            ("simulate", "uniform_threshold.json", "--tolerance"),
            ("predict", "bernoulli_pair.json", "--seed"),
            ("predict", "bernoulli_pair.json", "--epsilon"),
            ("logic", "logic_basics.json", "--seed"),
            ("logic", "logic_basics.json", "--n-max"),
            ("logic", "logic_basics.json", "--epsilon"),
            ("logic", "logic_basics.json", "--tolerance"),
        ],
    )
    def test_flag_the_command_never_reads_exits_2(self, command, scenario, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(SCENARIO_DIR / scenario), flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestBenchmarkTracer:
    """``perfbench/tracing.py`` still runs over the library and counts what it wraps."""

    def test_trace_counts_match_the_first_levels(self):
        root = Path(__file__).resolve().parent.parent
        runs = [
            ["simulate", str(SCENARIO_DIR / "random_coverage.json")],
            ["logic", str(SCENARIO_DIR / "logic_basics.json")],
            ["logic", "p0 &"],
            ["predict", str(SCENARIO_DIR / "bernoulli_pair.json")],
            # Sweep countermodels of 2, 3 and 4 worlds, whose frames the tracer looks up.
            ["logic", "[][](p0 & ~p0) -> [](p0 & ~p0)"],
            ["logic", "[][][](p0 & ~p0) -> [][](p0 & ~p0)"],
            ["logic", "[][][][](p0 & ~p0) -> [][][](p0 & ~p0)"],
        ]
        script = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(Path(tasklimits.__file__).parents[1])!r}, {str(root / "perfbench")!r}]
import tasklimits.cli as cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
statuses = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        statuses.append(cli.main(argv))
print(json.dumps({{"statuses": statuses, "counts": tracer.counts, "missing": tracer.missing}}))
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["statuses"] == [0, 0, 2, 0, 0, 0, 0]
        # The sites the library no longer calls through; any other missing
        # site is one a refactor untraced.
        assert result["missing"] == [
            "tasklimits.cli.gl_decide",
            "tasklimits.cli.model_check",
            "tasklimits.runner.decomposition_residual",
        ]
        # One prior split per level of bernoulli_pair (n_max 3).
        assert result["counts"]["prior.truncate_calls"] == 4
        scenario = parse_scenario(SCENARIO_DIR / "random_coverage.json")
        traj = build_trajectory(scenario.payload.rule, scenario.n_max, scenario.payload.mu)
        solved = [level for level in traj.first_level if level > 0]
        assert solved
        assert result["counts"]["trajectory.set_members"] == sum(
            traj.levels - level + 1 for level in solved
        )
        assert result["counts"]["trajectory.ever_solved"] == len(solved)
