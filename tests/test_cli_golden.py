"""Replay of recorded CLI invocations: stdout, stderr and exit code.

cli_golden.json holds one entry per invocation -- argv, exit code, stdout
and stderr as ``adicdyn.cli.run`` produced them -- covering every
subcommand in text and --json form, with domain (exit 1) and parse
(exit 2) errors.  The three nonpositive-level entries of ``chain build``
and ``project`` carry the divisibility-chain message
``bad level N: levels are positive integers``.
"""

import json
from pathlib import Path

import pytest

from adicdyn.cli import run

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_replay(case, capsys):
    code = run(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit"], case["stdout"], case["stderr"])
