"""Help, usage and argument errors stay byte-identical.

`tests/golden/parser.json` maps a command line to the exit code, stdout
and stderr it gave when every subparser and argument was built on each
call, recorded at 80 columns.  The parser now adds the arguments of the
invoked command only; every command and action name is still registered,
so help listings, usage lines and "invalid choice" errors must not move.
"""

import json
import os

import pytest

from fhplab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "parser.json")

with open(GOLDEN, encoding="utf-8") as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("argv", sorted(CASES))
def test_parser_output_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    want = CASES[argv]
    assert (code, out, err) == (want["code"], want["stdout"], want["stderr"])

