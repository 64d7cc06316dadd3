"""CLI subcommands, exit codes, and flag handling."""

import argparse
import json
import shutil

import pytest

from tasklimits.cli import build_parser, main
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

    def test_bad_formula_exits_2(self, capsys):
        assert main(["logic", "[]("]) == 2
        assert "position 3" in capsys.readouterr().err

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
        assert main(["logic", "~" * 600 + "p0"]) == 2
        assert "nests deeper than" in capsys.readouterr().err

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
