"""Tests for the command line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "msn" in out and "lazylist" in out
        assert "relaxed" in out
        assert "T0" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Two-lock queue" in out and "snark" in out

    def test_check_pass(self, capsys):
        code = main(["check", "--impl", "msn", "--test", "T0", "--model", "relaxed"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fail_returns_nonzero(self, capsys):
        code = main([
            "check", "--impl", "msn-unfenced", "--test", "T0", "--model", "relaxed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample" in out

    def test_spec(self, capsys):
        assert main(["spec", "--impl", "msn", "--test", "T0"]) == 0
        out = capsys.readouterr().out
        assert "4 observations" in out

    def test_litmus(self, capsys):
        assert main(["litmus", "--model", "sc"]) == 0
        out = capsys.readouterr().out
        assert "store-buffering" in out
        assert "forbidden" in out

    def test_check_flags_carry_no_encoder_baselines(self):
        """The seven checking subcommands share one flag set; the dense
        order and scratch encoding are not on it."""
        import argparse

        from repro.cli import build_parser

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        checking = {
            name for name, sub in subparsers.choices.items()
            if "--no-simplify" in sub._option_string_actions
        }
        assert checking == {
            "check", "sweep", "litmus", "matrix", "oracle", "synthesize",
            "fuzz",
        }
        for name in checking:
            for flag in subparsers.choices[name]._option_string_actions:
                assert "dense" not in flag, (name, flag)
                assert "share" not in flag, (name, flag)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--impl", "msn", "--test", "T0",
            "--models", "sc,relaxed",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "compiled 1x" in out and "spec mined 1x" in out
        assert "sc" in out and "relaxed" in out

    def test_sweep_fail_returns_nonzero(self, capsys):
        code = main([
            "sweep", "--impl", "msn-unfenced", "--test", "T0",
            "--models", "sc,relaxed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_check_with_solver_flag(self, capsys):
        code = main([
            "check", "--impl", "msn", "--test", "T0",
            "--model", "sc", "--solver", "internal",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "solver: internal" in out


class TestOracleCommand:
    def test_litmus_agreement(self, capsys):
        code = main(["oracle", "--litmus", "store-buffering", "--model", "tso"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agree on 4 outcomes" in out
        assert "[both]" in out

    def test_spec_agreement(self, capsys):
        code = main(["oracle", "--spec", "x=1 r0=y | y=1 r1=x",
                     "--model", "sc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agree on 3 outcomes" in out

    def test_requires_exactly_one_input(self, capsys):
        assert main(["oracle", "--model", "sc"]) == 2
        assert main([
            "oracle", "--litmus", "store-buffering", "--spec", "x=1",
        ]) == 2

    def test_unknown_litmus_name(self, capsys):
        assert main(["oracle", "--litmus", "nope"]) == 2
        assert "unknown litmus test" in capsys.readouterr().err

    def test_malformed_spec_is_a_clean_error(self, capsys):
        assert main(["oracle", "--spec", "garbage", "--model", "sc"]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestFuzzCommand:
    def test_small_campaign(self, capsys):
        code = main([
            "fuzz", "--budget", "5", "--seed", "11",
            "--models", "sc,relaxed", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 programs x 2 models = 10 cells" in out
        assert "0 divergences" in out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--budget", "3", "--seed", "2", "--models", "sc",
            "--quiet", "--json", str(target),
        ])
        assert code == 0
        import json as json_module

        payload = json_module.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["programs"] == 3
        assert payload["cells"] == 3
        assert payload["seed"] == 2
        assert payload["programs_per_second"] > 0

    def test_no_cells_is_an_error_not_a_vacuous_pass(self, capsys):
        assert main(["fuzz", "--models", ",", "--budget", "5",
                     "--quiet"]) == 2
        assert "no cells selected" in capsys.readouterr().err
        assert main(["fuzz", "--budget", "0", "--quiet"]) == 2

    def test_json_stdout_is_pure(self, capsys):
        # `--json - | jq` must work: the human summary goes to stderr.
        code = main([
            "fuzz", "--budget", "2", "--seed", "3", "--models", "sc",
            "--quiet", "--json", "-",
        ])
        assert code == 0
        captured = capsys.readouterr()
        import json as json_module

        payload = json_module.loads(captured.out)
        assert payload["programs"] == 2
        assert "fuzz:" in captured.err

    def test_max_knobs_below_defaults_are_honored(self, capsys):
        code = main([
            "fuzz", "--budget", "4", "--seed", "6", "--models", "sc",
            "--max-threads", "1", "--max-ops", "2", "--quiet", "--json", "-",
        ])
        assert code == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        from repro.fuzz import FuzzProgram

        for cell in payload["matrix"]["cells"]:
            program = FuzzProgram.parse(cell["test"])
            assert len(program.threads) == 1
            assert all(len(t) <= 2 for t in program.threads)

    def test_divergence_sets_exit_code(self, capsys, drop_same_address_axiom):
        code = main([
            "fuzz", "--budget", "25", "--seed", "1", "--jobs", "1",
            "--models", "relaxed", "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "replay: checkfence oracle" in out
