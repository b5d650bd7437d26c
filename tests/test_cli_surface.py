"""The CLI's documented surface stays in sync with the parser tree.

The module docstring of :mod:`repro.cli` is the command reference users
see first; it has drifted before (commands added without a docstring
row). These tests regenerate the surface from the argparse tree itself
and pin the two views together, so adding a command without documenting
it — or documenting one that does not exist — fails CI.
"""

from __future__ import annotations

import argparse
import re

import repro.cli as cli


def _subparser_actions(parser: argparse.ArgumentParser):
    return [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]


def top_level_commands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (sub,) = _subparser_actions(parser)
    return dict(sub.choices)


def documented_commands() -> set[str]:
    """Command names carrying a ``command`` reference row in the docstring."""
    return set(re.findall(r"^``([a-z0-9]+)``\s+—", cli.__doc__, re.MULTILINE))


class TestDocstringParserSync:
    def test_every_command_is_documented(self):
        missing = set(top_level_commands()) - documented_commands()
        assert not missing, f"undocumented CLI commands: {sorted(missing)}"

    def test_every_documented_command_exists(self):
        stale = documented_commands() - set(top_level_commands())
        assert not stale, f"docstring rows for removed commands: {sorted(stale)}"

    def test_subcommand_groups_documented(self):
        # nested groups must list each subcommand name in their docstring row
        commands = top_level_commands()
        for group in ("perf", "campaign"):
            (sub,) = _subparser_actions(commands[group])
            for name in sub.choices:
                assert f"``{group} {name}``" in cli.__doc__, (
                    f"docstring misses ``{group} {name}``"
                )

    def test_no_result_cache_surface(self):
        # the campaign store is the only result store: no command, flag
        # or help text offers a separate result cache
        def walk(parser):
            for action in parser._actions:
                yield action
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from walk(child)

        for action in walk(cli.build_parser()):
            for text in (*action.option_strings, action.help or ""):
                assert "cache" not in text.lower(), text

    def test_retired_perf_commands_do_not_parse(self, capsys):
        import pytest

        for argv in (["perf", "bench"], ["perf", "campaign", "--smoke"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.build_parser().parse_args(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_tenancy_and_ioserver_present(self):
        # the PR-6..8 subsystems must stay on the documented surface
        commands = top_level_commands()
        assert "tenancy" in commands and "ioserver" in commands
        assert "tenancy" in documented_commands()
        assert "ioserver" in documented_commands()

    def test_help_renders(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in top_level_commands():
            assert name in out
