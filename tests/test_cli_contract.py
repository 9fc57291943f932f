"""CLI contract tests: the noun-verb surface is a stable, snapshotted API.

Every subcommand's ``--help`` text is snapshotted under
``tests/snapshots/cli/``; an unintentional flag rename, default change, or
removed command shows up as a snapshot diff. Regenerate deliberately with::

    REPRO_REGEN_CLI_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_cli_contract.py

Help output is normalized (pinned width, the Python 3.9 "optional
arguments:" heading rewritten to the 3.10+ "options:") so snapshots are
identical across the CI interpreter matrix.
"""

import argparse
import os
from pathlib import Path

import pytest

from repro.cli import CLI_COMMANDS, _parse_args, build_parser, main

SNAPSHOT_DIR = Path(__file__).resolve().parent / "snapshots" / "cli"
REGEN = os.environ.get("REPRO_REGEN_CLI_SNAPSHOTS") == "1"

#: One snapshot per command path; () is the root parser.
COMMAND_PATHS = ((),) + tuple(CLI_COMMANDS)

#: Removed spellings, by test id: those deprecated in 1.1 (removed in
#: 1.2), the 1.3 result-store spellings (removed in 1.4) and the 1.5
#: ``serve --shards`` no-op (removed in 1.6).
REMOVED_SPELLINGS = {
    "run": ["run", "fft"],
    "compare": ["compare", "fft"],
    "profile": ["profile", "fft"],
    "figure": ["figure", "fig6"],
    "verify": ["verify", "--campaign", "smoke"],
    "apps": ["apps"],
    "trace-record": ["trace", "record", "fft", "--out", "x.wtr"],
    "trace-convert": ["trace", "convert", "ops.csv", "--out", "x.wtr"],
    "trace-info": ["trace", "info", "x.wtr"],
    "trace-validate": ["trace", "validate", "x.wtr"],
    "trace-replay": ["trace", "replay", "x.wtr"],
    "profile-output": ["sim", "profile", "fft", "--output", "r.txt"],
    "campaign-submit": ["campaign", "submit"],
    "serve-store": ["campaign", "serve", "--out", "x", "--store", "s"],
    "serve-tenant": ["campaign", "serve", "--out", "x", "--tenant", "t"],
    "serve-shards": ["campaign", "serve", "--out", "x", "--shards", "4"],
}


def _subparser_action(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    raise AssertionError(f"{parser.prog} has no subcommands")


def _parser_for(path):
    parser = build_parser()
    for name in path:
        parser = _subparser_action(parser).choices[name]
    return parser


def _normalize(text: str) -> str:
    text = text.replace("optional arguments:", "options:")
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def _snapshot_name(path) -> str:
    return ("root" if not path else "-".join(path)) + ".txt"


@pytest.fixture(autouse=True)
def _pinned_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


class TestHelpSnapshots:
    @pytest.mark.parametrize(
        "path", COMMAND_PATHS, ids=[_snapshot_name(p) for p in COMMAND_PATHS]
    )
    def test_help_matches_snapshot(self, path):
        rendered = _normalize(_parser_for(path).format_help())
        snapshot = SNAPSHOT_DIR / _snapshot_name(path)
        if REGEN:
            snapshot.parent.mkdir(parents=True, exist_ok=True)
            snapshot.write_text(rendered, encoding="utf-8")
        assert snapshot.exists(), (
            f"missing snapshot {snapshot}; regenerate with "
            "REPRO_REGEN_CLI_SNAPSHOTS=1"
        )
        assert rendered == _normalize(snapshot.read_text(encoding="utf-8")), (
            f"`repro {' '.join(path)} --help` drifted from its snapshot — "
            "if intentional, regenerate with REPRO_REGEN_CLI_SNAPSHOTS=1"
        )

    def test_no_orphaned_snapshots(self):
        expected = {_snapshot_name(p) for p in COMMAND_PATHS}
        on_disk = {p.name for p in SNAPSHOT_DIR.glob("*.txt")}
        assert on_disk == expected


class TestGrammar:
    def test_every_declared_command_parses_help(self):
        for path in CLI_COMMANDS:
            parser = _parser_for(path)
            assert parser.format_usage().startswith("usage: repro ")

    @pytest.mark.parametrize(
        "argv", REMOVED_SPELLINGS.values(), ids=REMOVED_SPELLINGS.keys()
    )
    def test_removed_spellings_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "deprecated" not in capsys.readouterr().err

    def test_canonical_spellings_carry_no_deprecation(self, capsys):
        assert main(["apps", "list"]) == 0
        assert capsys.readouterr().err == ""

    def test_shared_execution_flags(self):
        args = _parse_args(
            ["sim", "run", "fft", "--workers", "3", "--no-cache"]
        )
        assert args.workers == 3 and args.no_cache is True
        args = _parse_args(
            ["campaign", "run", "--apps", "fft", "--out", "x",
             "--workers", "2", "--no-cache"]
        )
        assert args.workers == 2 and args.no_cache is True

    def test_shared_machine_flags(self):
        for argv in (
            ["sim", "run", "fft", "--cores", "8", "--seed", "7"],
            ["sim", "compare", "fft", "--cores", "8", "--seed", "7"],
            ["figure", "render", "fig6", "--cores", "8", "--seed", "7"],
            ["campaign", "run", "--apps", "fft", "--out", "x",
             "--cores", "8", "--seed", "7"],
        ):
            args = _parse_args(argv)
            assert (args.cores, args.seed) == (8, 7), argv

    def test_unknown_noun_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parse_args(["meteor"])
        assert excinfo.value.code == 2
