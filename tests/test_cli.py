"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.dataset == "sift"
        assert args.methods == "acorn,acorn1,pre,post"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--dataset", "imagenet"])

    def test_subcommands_are_exactly_sweep_correlation_info(self):
        """Numbers come from benchmarks/e2e/run.py, not from this CLI."""
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands.choices) == {"sweep", "correlation", "info"}

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k", "0"],
        ["sweep", "--n", "-5"],
        ["sweep", "--queries", "ten"],
        ["sweep", "--m", "0"],
        ["sweep", "--gamma", "0"],
        ["sweep", "--efforts", ""],
        ["sweep", "--efforts", "10,,40"],
        ["sweep", "--efforts", "10,0"],
        ["sweep", "--methods", "acorn,bogus"],
        ["correlation", "--n", "0"],
        ["correlation", "--queries", "-1"],
    ])
    def test_bad_input_is_a_usage_error_before_anything_is_built(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")

    def test_efforts_parse_to_ints(self):
        args = build_parser().parse_args(["sweep", "--efforts", "8,32"])
        assert args.efforts == [8, 32]
        assert build_parser().parse_args(["sweep"]).efforts == [10, 40, 160]


class TestCommands:
    def test_info(self, capsys):
        main(["info"])
        out = capsys.readouterr().out
        assert "ACORN" in out
        assert "datasets:" in out

    def test_correlation_small(self, capsys):
        main(["correlation", "--n", "300", "--queries", "10"])
        out = capsys.readouterr().out
        assert "pos-cor" in out and "neg-cor" in out

    def test_sweep_small(self, capsys):
        main([
            "sweep", "--dataset", "sift", "--n", "400", "--queries", "10",
            "--m", "8", "--gamma", "6", "--methods", "acorn,pre",
            "--efforts", "16", "--recall-target", "0.5",
        ])
        out = capsys.readouterr().out
        assert "ACORN-gamma" in out
        assert "pre-filter" in out

    def test_sweep_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown method"):
            main([
                "sweep", "--dataset", "sift", "--n", "300", "--queries", "5",
                "--methods", "magic",
            ])
