"""The README's examples run as written.

The "Library quickstart" block runs statement by statement; where a line's
trailing comment starts with ``Fraction(a, b)``, the repr of the line's
value must equal it, and where it is ``> 0`` the value must be positive.

Each ``tsirnorm ...`` line of the "Command line" block runs through
``cli.main``.  It must exit 0, or 3 where its trailing comment is
``refused (REASON)``; where the comment is a rational, stdout must equal it;
where it has ``--json``, stdout must be a JSON report whose engine_stats
holds the four session counters and, on a refused line, whose
``refused.reason`` is REASON.  Its option table lists, for every command,
the long options of that command's parser.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from tsirnorm.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
COUNTERS = {"ranges_evaluated", "dp_transitions", "tables_built", "families_enumerated"}


def block(heading: str, language: str) -> list[str]:
    text = README.split(heading, 1)[1].split(f"```{language}", 1)[1].split("```", 1)[0]
    return text.strip().splitlines()


def statements(lines):
    """(statement, trailing comment) pairs; a statement continued on the
    next line, up to its closing parenthesis, is one statement."""
    pending = ""
    for line in lines:
        code, _, comment = line.partition("#")
        pending += code + "\n"
        if pending.count("(") > pending.count(")"):
            continue
        yield pending.strip(), comment.strip()
        pending = ""


def test_library_quickstart():
    namespace, checked = {}, 0
    for statement, comment in statements(block("## Library quickstart", "python")):
        want = re.match(r"Fraction\(-?\d+, \d+\)", comment)
        if not (want or comment == "> 0"):
            exec(statement, namespace)
            continue
        value = eval(statement, namespace)
        if want:
            assert repr(value) == want.group(0), statement
        else:
            assert value > 0, statement
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("line", block("## Command line", "bash"),
                         ids=lambda line: line.partition("#")[0].strip())
def test_command_line(capsys, line):
    command, _, comment = line.partition("#")
    program, *argv = shlex.split(command)
    want = comment.strip()
    refused = re.fullmatch(r"refused \((\S+)\)", want)
    assert program == "tsirnorm"
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (3 if refused else 0)
    if re.fullmatch(r"-?\d+(/\d+)?", want):
        assert out.strip() == want
    if "--json" in argv:
        report = json.loads(out)
        assert COUNTERS <= set(report["engine_stats"])
        if refused:
            assert report["refused"]["reason"] == refused.group(1)


def commands(parser, words=()):
    """(command words, parser) for every command, each mode of a nested one included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from commands(sub, (*words, name))
            return
    yield " ".join(words), parser


def test_option_table_matches_the_parser():
    table = README.split("| command | options |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.strip().splitlines()[1:]:
        names, options = line.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            rows[name] = set(re.findall(r"--[a-z][a-z-]*", options))
    parsers = dict(commands(build_parser()))
    assert set(rows) == set(parsers)
    for name, parser in parsers.items():
        taken = {o for action in parser._actions for o in action.option_strings if o[1] == "-"}
        assert rows[name] == taken - {"--help", "--json"}, name
