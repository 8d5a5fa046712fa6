"""The CLI layer: hand-checked commands, and interpreter start-up timings.

CASES covers every subcommand once as text and once with --json, plus one
command that must exit 1 (domain error) and one that must exit 2 (parse
error).  Traced runs send each case through ``adicdyn.cli.run`` in-process
(cli.run.self_s) and check exit code and stdout byte for byte.  Expected
outputs are written out by hand: the README's examples where it has them,
and values worked out from the definitions elsewhere (the comment on each
says how).  They are never produced by running the CLI.  JSON expectations
are hand-written objects serialized the way the CLI documents it
(``json.dumps(payload, indent=2)``).

spawn_ms and import_ms time fresh interpreters: the floor a CLI call pays
before adicdyn runs, and the import of ``adicdyn.cli``.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from reference import expect
from workloads import Request

SPAWN_SAMPLES = 9
IMPORT_SAMPLES = 5


def _text(*lines) -> str:
    return "".join(line + "\n" for line in lines)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


SINGLETONS_8 = [[x] for x in range(8)]

# (argv, exit code, stdout)
CASES = (
    # sn: exponentwise sum / min / max; default suffix when all others are inf
    (["sn", "mul", "2^3*3", "2*5"], 0, _text("2^4*3*5")),
    (["sn", "mul", "2^inf", "3", "--json"], 0, _json({"result": "2^inf*3"})),
    (["sn", "gcd", "2^3*3", "2^2*3^2"], 0, _text("2^2*3")),  # README
    (["sn", "gcd", "2^3*3", "2^2*3^2", "--json"], 0, _json({"result": "2^2*3"})),
    (["sn", "lcm", "2^3*3", "2^2*3^2"], 0, _text("2^3*3^2")),
    (["sn", "lcm", "2^3", "5;default=inf", "--json"], 0, _json({"result": "5;default=inf"})),
    (["sn", "leq", "2^2", "2^inf*3"], 0, _text("true")),
    (["sn", "leq", "2^inf", "2^9", "--json"], 0, _json({"result": False})),
    (["sn", "phi0", "360"], 0, _text("2^3*3^2*5")),
    (["sn", "phi0", "1", "--json"], 0, _json({"result": "1"})),
    (["sn", "phi-set", "4", "6", "10"], 0, _text("2^2*3*5")),  # lcm 60
    (["sn", "phi-set", "9", "12", "--json"], 0, _json({"result": "2^2*3^2"})),  # lcm 36
    # ess: the divisors of the gcd of the cycle lengths
    (["ess", "(0 1 2)(3 4 5)"], 0, _text("periods: 1,3", "phi: 3")),  # README
    (["ess", "(0 1 2 3)(4 5 6 7 8 9 10 11)", "--json"], 0,
     _json({"periods": [1, 2, 4], "phi": "2^2"})),
    # oracle: each cycle picks the label of its first point; sorted blocks
    (["oracle", "(0 1)(2 3)", "2"], 0,
     _text("[[0,2],[1,3]]", "[[0,3],[1,2]]", "[[1,2],[0,3]]", "[[1,3],[0,2]]")),
    (["oracle", "(0 1 2)", "3", "--json"], 0,
     _json({"partitions": [[[0], [1], [2]], [[1], [2], [0]], [[2], [0], [1]]]})),
    # compat check: label difference constant mod gcd of the lengths?
    (["compat", "check", "(0 1 2 3)", "[[0,2],[1,3]]", "[[0],[1],[2],[3]]"], 0,
     _text("compatible: true")),
    (["compat", "check", "(0 1)(2 3)", "[[0,2],[1,3]]", "[[0,3],[1,2]]", "--json"], 0,
     _json({"compatible": False})),
    # compat make: README; then a 6-cycle folded mod 3
    (["compat", "make", "(0 1 2 3)", "[[0,1,2,3]]", "2"], 0, _text("[[0,2],[1,3]]")),
    (["compat", "make", "(0 1 2 3 4 5)", "[[0,2,4],[1,3,5]]", "3", "--json"], 0,
     _json({"partition": [[0, 3], [1, 4], [2, 5]]})),
    # compat enumerate: a partition and its one shift, in one class
    (["compat", "enumerate", "(0 1 2 3)", "[[0,1,2,3]]", "2"], 0,
     _text("class 0: [[0,2],[1,3]]", "class 0: [[1,3],[0,2]]")),
    (["compat", "enumerate", "(0 1)(2 3)", "[[0,2],[1,3]]", "2", "--json"], 0,
     _json({"partitions": [{"blocks": [[0, 2], [1, 3]], "class": 0},
                           {"blocks": [[1, 3], [0, 2]], "class": 0}],
            "class_count": 1})),
    # chain build: README; then a one-level chain
    (["chain", "build", "(0 1 2 3 4 5)", "2,6"], 0,
     _text("levels: 2,6", "[[0,2,4],[1,3,5]]", "[[0],[1],[2],[3],[4],[5]]")),
    (["chain", "build", "(0 1 2 3)", "2", "--json"], 0,
     _json({"levels": [2], "partitions": [[[0, 2], [1, 3]]]})),
    # chain validate: a good chain; then lengths 2 and 3, which do not divide
    (["chain", "validate", "(0 1 2 3)", "[[[0,2],[1,3]],[[0],[1],[2],[3]]]"], 0,
     _text("valid: true")),
    (["chain", "validate", "(0 1 2 3 4 5)", "[[[0,2,4],[1,3,5]],[[0,3],[1,4],[2,5]]]",
      "--json"], 0,
     _json({"valid": False, "problems": ["2 does not divide 3"]})),
    # chain extend: refine at the end; then coarsen 8 to 2 at the front
    (["chain", "extend", "(0 1 2 3)", "[[[0,2],[1,3]]]", "4"], 0,
     _text("levels: 2,4", "[[0,2],[1,3]]", "[[0],[1],[2],[3]]")),
    (["chain", "extend", "(0 1 2 3 4 5 6 7)", json.dumps([SINGLETONS_8]), "2", "--json"], 0,
     _json({"levels": [2, 8], "partitions": [[[0, 2, 4, 6], [1, 3, 5, 7]], SINGLETONS_8]})),
    # project: labels (x mod 2, x mod 4); maximal iff n_L is the gcd
    (["project", "(0 1 2 3 4 5 6 7 8 9 10 11)", "2,4"], 0,
     _text("target: 2,4", "fibers: 4", "maximal: false", "sigma_top: 2^2*3")),
    (["project", "(0 1 2 3)", "2,4", "--json"], 0,
     _json({"target_levels": [2, 4],
            "labels": {"0": [0, 0], "1": [1, 1], "2": [0, 2], "3": [1, 3]},
            "fibers": [[0], [2], [1], [3]],
            "maximal": True,
            "sigma_top": "2^2"})),
    # odo: componentwise arithmetic mod each level
    (["odo", "add", "2,4,8", "[1,1,5]", "[0,2,2]"], 0, _text("[1,3,7]")),  # README
    (["odo", "add", "3,9", "[2,8]", "[1,1]", "--json"], 0, _json({"result": [0, 0]})),
    (["odo", "neg", "2,4,8", "[1,3,7]"], 0, _text("[1,1,1]")),
    (["odo", "neg", "5", "[0]", "--json"], 0, _json({"result": [0]})),
    (["odo", "translate", "2,4,8", "[1,3,7]"], 0, _text("[0,0,0]")),
    (["odo", "translate", "6,12", "[2,8]", "--json"], 0, _json({"result": [3, 9]})),
    (["odo", "metric", "2,4", "[0,0]", "[1,1]"], 0, _text("1/2")),  # README
    (["odo", "metric", "2,4", "[1,3]", "[1,3]", "--json"], 0,
     _json({"distance": "0", "agrees_to_depth": True})),
    (["odo", "cylinder", "2,4,8", "2", "1"], 0, _text("1,5")),  # z < 8 with z = 1 mod 4
    (["odo", "cylinder", "2,4,8", "2", "1", "--json"], 0,
     _json({"level": 2, "residue": 1, "members": [1, 5]})),
    (["odo", "truncate", "2,4,8", "2"], 0, _text("(0 1 2 3)")),
    (["odo", "truncate", "3,6", "2", "--json"], 0, _json({"size": 6, "cycles": "(0 1 2 3 4 5)"})),
    # errors: a 3-cycle has no length-2 partition (domain); a bad literal (parse)
    (["compat", "make", "(0 1 2)", "[[0,1,2]]", "2"], 1, ""),
    (["sn", "gcd", "2^x", "3"], 2, ""),
)


def _spawn(argv, root):
    """Run one process to completion; return (seconds, exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    start = perf_counter()
    out = subprocess.run(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True)
    return perf_counter() - start, out.returncode, out.stdout


def spawn_ms(root, samples: int = SPAWN_SAMPLES) -> float:
    """Median start-up of the bare interpreter: a floor, not adicdyn's cost."""
    argv = [sys.executable, "-c", "pass"]
    return 1e3 * statistics.median(_spawn(argv, root)[0] for _ in range(samples))


def import_ms(root, samples: int = IMPORT_SAMPLES) -> float:
    """Median time to import adicdyn.cli, measured inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import adicdyn.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    values = []
    for _ in range(samples):
        _, status, out = _spawn([sys.executable, "-c", code], root)
        if status != 0:
            raise RuntimeError("importing adicdyn.cli failed in a child process")
        values.append(float(out))
    return statistics.median(values)


def _check(case):
    argv, code, stdout = case

    def check(out):
        got_code, got_stdout = out
        expect(got_code == code, f"{argv}: exit {got_code}, expected {code}")
        expect(got_stdout == stdout, f"{argv}: stdout {got_stdout!r}, expected {stdout!r}")

    return check


def in_process(rng) -> list:
    """Requests that each send one case through ``adicdyn.cli.run``."""
    module = sys.modules["adicdyn.cli"]
    pool = []
    for case in CASES:
        def call(argv=case[0]):
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = module.run(list(argv))
            return code, buf.getvalue()

        pool.append(Request("cli.run", call, _check(case)))
    rng.shuffle(pool)
    return pool
