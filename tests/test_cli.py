"""End-to-end command dispatch: golden outputs, exit codes, JSON stability,
the shape of every command's parser, and the package's public names."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import types

import pytest

import adicdyn
from adicdyn import cli, factors
from adicdyn.cli import _build_parser, run
from adicdyn.dynsys import MAX_ENUMERATION, MAX_POINTS


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------- golden text


def test_sn_gcd_golden(capsys):
    code, out, _ = invoke(capsys, "sn", "gcd", "2^inf*3", "2^2*3^inf")
    assert code == 0
    assert out == "2^2*3\n"


def test_sn_mul_unit_golden(capsys):
    code, out, _ = invoke(capsys, "sn", "mul", "1", "2^3")
    assert code == 0
    assert out == "2^3\n"


def test_ess_golden(capsys):
    code, out, _ = invoke(capsys, "ess", "(0 1 2)(3 4 5 6 7 8)")
    assert code == 0
    assert out == "periods: 1,3\nphi: 3\n"


def test_sn_lcm_leq_phi(capsys):
    assert invoke(capsys, "sn", "lcm", "2", "3")[1] == "2*3\n"
    assert invoke(capsys, "sn", "leq", "2", "2^3")[1] == "true\n"
    assert invoke(capsys, "sn", "leq", "2^3", "2")[1] == "false\n"
    assert invoke(capsys, "sn", "phi0", "12")[1] == "2^2*3\n"
    assert invoke(capsys, "sn", "phi-set", "2", "3", "4")[1] == "2^2*3\n"


# ------------------------------------------------------------- exit codes


def test_parse_error_is_exit_2(capsys):
    code, _, err = invoke(capsys, "sn", "gcd", "2^^3", "5")
    assert code == 2
    assert "error:" in err


def test_domain_error_is_exit_1(capsys):
    code, _, err = invoke(capsys, "oracle", "(0 1 2 3 4 5 6 7 8 9 10 11 12)", "13")
    assert code == 1
    assert "error:" in err


def test_unknown_subcommand_is_exit_2(capsys):
    assert invoke(capsys, "definitely-not-a-command")[0] == 2


def test_missing_arguments_is_exit_2(capsys):
    assert invoke(capsys, "sn", "gcd", "2")[0] == 2


def test_bad_cycle_text_is_exit_2(capsys):
    assert invoke(capsys, "ess", "(0 1")[0] == 2


def test_bad_partition_json_is_exit_2(capsys):
    code, _, _ = invoke(capsys, "compat", "check", "(0 1)(2 3)", "[[0,2],[1,3]", "[[0,3],[1,2]]")
    assert code == 2


def test_invalid_partition_is_exit_1(capsys):
    # well-formed JSON that fails the partition conditions
    code, _, _ = invoke(capsys, "compat", "check", "(0 1)(2 3)", "[[0,1],[2,3]]", "[[0,2],[1,3]]")
    assert code == 1


def test_long_tokens_are_cut_in_error_messages(capsys):
    """A token past Python's 4,300-digit int-string limit is a parse error
    that quotes the token's first 50 characters and states its length."""
    digits = "1" * 5000
    cut = f"'{digits[:50]}'... (5000 characters)"
    cases = [
        (("odo", "truncate", f"2,{digits}", "1"), f"bad level {cut}"),
        (("odo", "neg", "2", f"[{digits}]"), f"bad residue {cut}"),
        (("chain", "build", "(0 1)", digits), f"bad length {cut}"),
        (("ess", f"(0 {digits})"), f"bad point {cut}"),
        (("sn", "gcd", digits, "2"), f"bad factor {cut}"),
        (("sn", "gcd", f"2^{digits}", "2"),
         f"bad exponent in '2^{digits[:48]}'... (5002 characters)"),
        # a token of 50 characters is quoted whole
        (("odo", "truncate", "2," + "x" * 50, "1"), f"bad level '{'x' * 50}'"),
    ]
    for argv, message in cases:
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")
    # every argparse int argument, and text left over around the cycles
    for argv in (
        ("odo", "truncate", "2", digits),
        ("odo", "cylinder", "2", digits, "0"),
        ("odo", "cylinder", "2", "1", digits),
        ("oracle", "(0 1)", digits),
        ("ess", "(0 1)", "--size", digits),
        ("oracle", "(0 1)", "2", "--bound", digits),
        ("sn", "phi0", digits),
        ("sn", "phi-set", "2", digits),
        ("compat", "make", "(0 1)", "[[0,1]]", digits),
        ("compat", "enumerate", "(0 1)", "[[0,1]]", digits),
        ("chain", "extend", "(0 1)", "[[[0],[1]]]", digits),
        ("ess", "(0 1) " + "x" * 5000),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.encode()) < 300 and "'... (5000 characters)" in err, argv


def _undecidable_prime() -> str:
    """A number past the primality limit with no prime factor up to 41."""
    n = 10**80 + 1
    while math.gcd(n, math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))) > 1:
        n += 2
    return str(n)


def test_usage_errors_and_echoed_inputs_are_cut(capsys):
    """Every long token a message echoes is cut by quoted(): argparse's
    unrecognized arguments, invalid choices and explicit arguments, and
    the integers the library's messages print whole."""
    x, ones, twos, spaced = "x" * 5000, "1" * 4000, "2" * 4000, "x " * 2500
    cut_x = f"'{x[:50]}'... (5000 characters)"
    cut_spaced = f"'{spaced[:50]}'... (5000 characters)"
    cut_1 = f"'{ones[:50]}'... (4000 characters)"
    minus_1 = f"'-{ones[:49]}'... (4001 characters)"
    prime = _undecidable_prime()
    cases = [
        (("ess", "(0 1)", x), 2, f"unrecognized arguments: {cut_x}"),
        ((x,), 2, f"argument cmd: invalid choice: {cut_x} (choose from"),
        (("sn", x), 2, f"argument op: invalid choice: {cut_x} (choose from"),
        (("ess", "(0 1)", spaced), 2, f"unrecognized arguments: {cut_spaced}\n"),
        ((spaced,), 2, f"argument cmd: invalid choice: {cut_spaced} (choose from"),
        (("ess", "(0 1)", "--json=" + x), 2, f"ignored explicit argument {cut_x}"),
        (("sn", "gcd", f"2;{x}", "2"), 2, f"bad default clause {cut_x}"),
        (("ess", f"({ones} 1 {ones})"), 2, f"point {cut_1} appears twice"),
        (("chain", "build", "(0 1)", f"-{ones}"), 1, f"bad level {minus_1}: levels are"),
        (("chain", "build", "(0 1)", f"2,{ones}"), 1, f"2 does not divide {cut_1}"),
        (("sn", "gcd", ones, "2"), 2, f"{cut_1} is not prime"),
        (("sn", "gcd", prime, "2"), 2, f"cannot decide whether '{prime[:50]}'... (81 characters)"),
        (("ess", "(0 1)", "--size", ones), 2, f"a system of {cut_1} points"),
        (("oracle", "(0 1)", "2", "--bound", f"-{ones}"), 1, f"oracle bound {minus_1} exceeded"),
        (("odo", "truncate", ones, "1"), 1, f"a truncation of {cut_1} points"),
        (("odo", "cylinder", f"2,{twos}", "1", "0"), 1, f"a cylinder of {cut_1} points"),
        (("odo", "neg", f"2,{twos}", f"[0,{ones}]"), 2, f"level 1: {cut_1} mod 2 != 0"),
    ]
    for argv, want_code, message in cases:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (want_code, ""), argv
        assert message in err and len(err.encode()) < 300, argv


def test_usage_errors_echo_short_tokens_as_argparse_does(capsys, monkeypatch):
    """A usage error that echoes no word of more than 50 characters is byte
    for byte what argparse's own error() prints."""
    y = "y" * 50
    calls = (
        ("ess", "(0 1)", y), ("ess", "(0 1)", "a", "b c"), (y,), ("sn", y),
        ("ess", "(0 1)", f"--json={y}"), ("odo", "truncate", "2", y), ("nosuch",),
    )
    got = [invoke(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert got == [invoke(capsys, *argv) for argv in calls]
    assert all(code == 2 and y in err for (code, _, err), argv in zip(got, calls) if y in argv)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """run() builds its parser once per process.  A usage error, a command
    and two --help requests in turn, in this process, each print what a
    fresh process prints, with the same exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _build_parser() is _build_parser()
    env = {**os.environ, "COLUMNS": "80"}
    calls = (["sn", "gcd", "2"], ["sn", "gcd", "2^3*3", "2^2*3^2"], ["--help"])
    for argv in (*calls, ["odo", "add", "--help"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "adicdyn.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert invoke(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# ------------------------------------------------------------- subcommands


def test_oracle_lists_partitions(capsys):
    data = invoke_json(capsys, "oracle", "(0 1 2 3)", "2")
    assert data == {"partitions": [[[0, 2], [1, 3]], [[1, 3], [0, 2]]]}


def test_compat_check(capsys):
    data = invoke_json(capsys, "compat", "check", "(0 1)(2 3)", "[[0,2],[1,3]]", "[[0,3],[1,2]]")
    assert data == {"compatible": False}


def test_compat_make(capsys):
    data = invoke_json(capsys, "compat", "make", "(0 1)(2 3)", "[[0,1,2,3]]", "2")
    assert data == {"partition": [[0, 2], [1, 3]]}


def test_compat_enumerate(capsys):
    data = invoke_json(capsys, "compat", "enumerate", "(0 1)(2 3)", "[[0,1,2,3]]", "2")
    assert data["class_count"] == 2
    assert len(data["partitions"]) == 4


def test_chain_build_and_validate(capsys):
    built = invoke_json(capsys, "chain", "build", "(0 1 2 3 4 5)", "2,6")
    assert built["levels"] == [2, 6]
    chain_text = json.dumps(built["partitions"])
    data = invoke_json(capsys, "chain", "validate", "(0 1 2 3 4 5)", chain_text)
    assert data == {"valid": True, "problems": []}


def test_chain_validate_reports_problems(capsys):
    bad = "[[[0],[1],[2],[3]],[[0,2],[1,3]]]"
    data = invoke_json(capsys, "chain", "validate", "(0 1 2 3)", bad)
    assert data["valid"] is False
    assert data["problems"]
    # a consecutive incompatible pair is listed once, then the distant pairs
    levels = "[[[0,2,4,6],[1,3,5,7]],[[0,4],[1,5],[2,6],[3,7]],[[0,5],[1,6],[2,7],[3,4]]]"
    assert invoke(capsys, "chain", "validate", "(0 1 2 3)(4 5 6 7)", levels) == (0, (
        "valid: false\n"
        "problem: levels 1 and 2 are incompatible\n"
        "problem: levels 0 and 2 are incompatible\n"
        "problem: level 2 does not refine level 1 blockwise\n"
    ), "")


def test_chain_extend(capsys):
    built = invoke_json(capsys, "chain", "build", "(0 1 2 3 4 5 6 7 8 9 10 11)", "4,12")
    data = invoke_json(
        capsys, "chain", "extend", "(0 1 2 3 4 5 6 7 8 9 10 11)",
        json.dumps(built["partitions"]), "2",
    )
    assert data["levels"] == [2, 4, 12]


def test_project_report(capsys):
    data = invoke_json(capsys, "project", "(0 1 2 3)(4 5 6 7)", "2,4")
    assert list(data) == ["target_levels", "labels", "fibers", "maximal", "sigma_top"]
    assert data["fibers"] == [[0, 4], [2, 6], [1, 5], [3, 7]]
    assert data["sigma_top"] == "2^2"


def test_project_text_builds_no_report(capsys, monkeypatch):
    """Text output reads its four lines off the chain; only --json builds
    the report, which lists every point."""

    def refuse(F):
        raise AssertionError("factor_report called for text output")

    monkeypatch.setattr(factors, "factor_report", refuse)
    for argv, text in [
        (("(0 1 2 3)(4 5 6 7)", "2,4"), "target: 2,4\nfibers: 4\nmaximal: true\nsigma_top: 2^2\n"),
        (("(0 1 2 3 4 5)", "1,3,3"), "target: 1,3,3\nfibers: 3\nmaximal: false\nsigma_top: 2*3\n"),
    ]:
        assert invoke(capsys, "project", *argv) == (0, text, "")
        with pytest.raises(AssertionError, match="text output"):
            run(["project", *argv, "--json"])


def test_odo_subcommands(capsys):
    assert invoke(capsys, "odo", "add", "2,4,8", "[1,1,5]", "[0,2,2]")[1] == "[1,3,7]\n"
    assert invoke(capsys, "odo", "neg", "2,4,8", "[1,1,5]")[1] == "[1,3,3]\n"
    assert invoke(capsys, "odo", "translate", "2,4,8", "[1,1,5]")[1] == "[0,2,6]\n"
    assert invoke(capsys, "odo", "metric", "2,4", "[0,0]", "[1,1]")[1] == "1/2\n"
    same = invoke(capsys, "odo", "metric", "2,4", "[1,3]", "[1,3]")[1]
    assert same == "0 (agrees to depth 2)\n"
    assert invoke(capsys, "odo", "truncate", "2,4,8", "2")[1] == "(0 1 2 3)\n"
    assert invoke(capsys, "odo", "cylinder", "2,4,8", "2", "1")[1] == "1,5\n"


def test_odo_metric_json_flag(capsys):
    data = invoke_json(capsys, "odo", "metric", "2,4", "[1,3]", "[1,3]")
    assert data == {"distance": "0", "agrees_to_depth": True}


def test_odo_base_mismatch_shapes(capsys):
    assert invoke(capsys, "odo", "add", "2,3", "[1,1]", "[0,0]")[0] == 2  # bad base
    assert invoke(capsys, "odo", "add", "2,4", "[1,2]", "[0,0]")[0] == 2  # incoherent


# ------------------------------------------------------------- stability


def test_json_outputs_are_byte_stable(capsys):
    cases = [
        ("sn", "gcd", "2^inf*3", "2^2*3^inf"),
        ("ess", "(0 1 2)(3 4 5 6 7 8)"),
        ("oracle", "(0 1 2 3)", "2"),
        ("project", "(0 1 2 3)(4 5 6 7)", "2,4"),
        ("chain", "build", "(0 1 2 3 4 5)", "2,6"),
        ("odo", "cylinder", "2,4,8", "3", "5"),
    ]
    for argv in cases:
        first = invoke(capsys, *argv, "--json")
        second = invoke(capsys, *argv, "--json")
        assert first == second


def test_round_trip_sn_result(capsys):
    data = invoke_json(capsys, "sn", "lcm", "2^inf*3", "2^2*3^inf")
    again = invoke_json(capsys, "sn", "gcd", data["result"], data["result"])
    assert again["result"] == data["result"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "sn", "gcd", "2^inf*3", "2^2*3^inf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2^2*3\n"


def test_large_numbers_answer_in_bounded_time():
    # each of these ran trial division past any practical time limit
    big = str(1125899906842679 * 1125899906842723)  # above the primality limit
    cases = [
        (["sn", "gcd", "1000000000000000000000007", "2"], 0, "1\n"),
        (["sn", "phi0", "2305843009213693951"], 0, "2305843009213693951\n"),
        (["sn", "phi0", str(2147483629 * 2147483647)], 0, "2147483629*2147483647\n"),
        (["sn", "gcd", big, "2"], 2, ""),
        (["sn", "phi0", big], 1, ""),
    ]
    for argv, code, out in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "adicdyn.cli", *argv],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stdout == out


def test_missing_point_is_named_in_bounded_memory():
    # naming the missing point once built the whole range of point ids
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "ess", "(0 30000000)"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert "point 1 is missing" in proc.stderr


def test_declared_size_is_bounded_before_allocating():
    # the size was once allocated as list(range(n)) before anything refused it
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "ess", "(0 1)", "--size", "10000000000"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert "larger than the limit of" in proc.stderr
    assert MAX_POINTS >= 720720  # the largest system the tests build


def test_oracle_search_is_bounded_before_it_starts():
    # 2^20 labelings of twenty 2-cycles once ran past any timeout
    cycles = "".join(f"({2 * i} {2 * i + 1})" for i in range(20))
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "oracle", cycles, "2", "--bound", "40"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"would list more than {MAX_ENUMERATION} partitions" in proc.stderr


def test_oracle_answers_at_once_when_a_cycle_cannot_wrap_round():
    # (0 1) at m = 10^8 once tried each of the m start labels of the cycle,
    # about 40 s, to print (none)
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "oracle", "(0 1)", "100000000",
         "--bound", "100000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(none)\n"


def test_oracle_deals_each_labeling_in_one_pass():
    # one 1,000-cycle at m = 1,000 once gathered each block by a scan of
    # every point, 10^9 steps in all, about 25 s
    cycle = "(" + " ".join(map(str, range(1000))) + ")"
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "oracle", cycle, "1000", "--bound", "1000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1000
    assert lines[0] == json.dumps([[x] for x in range(1000)], separators=(",", ":"))


def test_compat_enumerate_is_bounded_before_it_allocates():
    # 2^20 compatible partitions of twenty 2-cycles once ran out of a 1 GiB
    # address space after half a minute
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cycles = "".join(f"({2 * i} {2 * i + 1})" for i in range(20))
    block = json.dumps([list(range(40))])
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "compat", "enumerate", cycles, block, "2"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"more than {MAX_ENUMERATION} partitions" in proc.stderr


def test_oracle_answers_on_many_cycles():
    # 1,200 fixed points once overflowed the recursion of the search
    proc = subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", "oracle", "(0)", "1", "--size", "1200",
         "--bound", "1200"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps([list(range(1200))], separators=(",", ":")) + "\n"


def test_boolean_point_ids_are_parse_errors(capsys):
    code, out, err = invoke(capsys, "compat", "make", "(0 1 2 3)", "[[0,2],[true,3]]", "2")
    assert (code, out) == (2, "")
    assert "integer point ids" in err
    code, out, _ = invoke(capsys, "chain", "extend", "(0 1 2 3)", "[[[0,2],[true,3]]]", "4")
    assert (code, out) == (2, "")


def test_chain_validate_reports_boolean_point_ids(capsys):
    data = invoke_json(capsys, "chain", "validate", "(0 1 2 3)", "[[[0,2],[true,3]]]")
    assert data["valid"] is False
    assert "point ids out of range" in data["problems"][0]


def test_deeply_nested_json_is_a_parse_error(capsys):
    deep = "[" * 100000
    for argv in (("compat", "check", "(0 1)", deep, "[[0,1]]"),
                 ("chain", "validate", "(0 1)", deep)):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert "nested too deeply" in err


def test_json_integers_of_too_many_digits_are_parse_errors(capsys):
    # Python's json refuses an int of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError, which once escaped run() as a traceback
    partition = "[[0," + "1" * 5000 + "]]"
    for argv in (("compat", "check", "(0 1)", partition, "[[0,1]]"),
                 ("chain", "validate", "(0 1)", "[" + "1" * 5000 + "]")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error: bad JSON: ") and len(err) < 300


def test_chain_levels_must_be_block_lists(capsys):
    # a level that is not an array of arrays, or a block entry that is an
    # array or an object, once reached the library and raised TypeError
    shape, ids = "a partition is a JSON array of point arrays", "integer point ids"
    cases = [("[[1]]", shape), ("[[[0,1]],[2]]", shape), ("[[[[0],[1]]]]", ids),
             ('[[[0],[{"a":1}]]]', ids), ("[1]", "a chain is a JSON array of partitions")]
    for chain, message in cases:
        for argv in (("chain", "validate", "(0 1)", chain),
                     ("chain", "extend", "(0 1)", chain, "2")):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), (argv, err)
            assert message in err


def test_chain_extend_parses_every_level_before_building(capsys):
    # a level that is not a periodic partition is a domain error, but only
    # once every level has parsed
    assert invoke(capsys, "chain", "extend", "(0 1 2 3)", "[[[0,1],[2,3]]]", "4")[0] == 1
    code, _, err = invoke(capsys, "chain", "extend", "(0 1 2 3)", "[[[0,1],[2,3]],[2]]", "4")
    assert code == 2 and "a partition is a JSON array of point arrays" in err


def test_chain_extend_refuses_with_the_chain_rule(capsys):
    # the chain is checked by validate_chain's rule, in its words
    levels = "[[[0,2],[1,3]],[[0,3],[1,2]]]"
    code, out, err = invoke(capsys, "chain", "extend", "(0 1)(2 3)", levels, "4")
    assert (code, out, err) == (1, "", "error: levels 0 and 1 are incompatible\n")
    levels = "[[[0],[1],[2],[3]],[[0,2],[1,3]]]"
    code, out, err = invoke(capsys, "chain", "extend", "(0 1 2 3)", levels, "4")
    assert (code, out, err) == (1, "", "error: 4 does not divide 2\n")


def _bounded_run(*argv):
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "adicdyn.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )


def test_truncation_is_bounded_before_allocating():
    # a 10^12-point truncation once ran out of a 1 GiB address space
    proc = _bounded_run("odo", "truncate", "1000000000000", "1")
    assert proc.returncode == 1, proc.stderr
    assert f"points is larger than the limit of {MAX_POINTS}" in proc.stderr


def test_cylinder_is_bounded_before_allocating():
    # 5 * 10^7 members once ran out of a 1 GiB address space
    proc = _bounded_run("odo", "cylinder", "2,100000000", "1", "0")
    assert proc.returncode == 1, proc.stderr
    assert "a cylinder of 50000000 points is larger than the limit of" in proc.stderr
    # more members than len() of a range can report
    proc = _bounded_run("odo", "cylinder", f"2,{2**70}", "1", "0")
    assert proc.returncode == 1, proc.stderr
    assert "larger than the limit of" in proc.stderr
    # one member of a level of 10^9 points, once found by scanning them all
    proc = _bounded_run("odo", "cylinder", "1000000000,1000000000", "1", "5")
    assert (proc.returncode, proc.stdout) == (0, "5\n"), proc.stderr


def test_compat_enumerate_is_bounded_by_the_points_it_lists():
    # few answers of many points each: the 4,096 partitions of one
    # 4,096-cycle once took 22 s, 113 MB of output and 2.9 GB
    cycle = "(" + " ".join(map(str, range(4096))) + ")"
    proc = _bounded_run("compat", "enumerate", cycle, json.dumps([list(range(4096))]), "4096")
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert f"would list more than {MAX_POINTS} points" in proc.stderr


def test_oracle_is_bounded_by_the_points_it_lists():
    # the 1,600 partitions of one 1,600-cycle once took 4 s and 16 MB
    cycle = "(" + " ".join(map(str, range(1600))) + ")"
    proc = _bounded_run("oracle", cycle, "1600", "--bound", "1600")
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert f"would list more than {MAX_POINTS} points" in proc.stderr


# ------------------------------------------------------- parser and package

# every leaf command with arguments it accepts
LEAVES = {
    "sn mul": ["2", "3"],
    "sn gcd": ["2", "3"],
    "sn lcm": ["2", "3"],
    "sn leq": ["2", "3"],
    "sn phi0": ["12"],
    "sn phi-set": ["2", "3"],
    "ess": ["(0 1)"],
    "oracle": ["(0 1)", "2"],
    "compat check": ["(0 1)", "[[0,1]]", "[[0,1]]"],
    "compat make": ["(0 1)", "[[0,1]]", "2"],
    "compat enumerate": ["(0 1)", "[[0,1]]", "2"],
    "chain build": ["(0 1)", "2"],
    "chain extend": ["(0 1)", "[[[0],[1]]]", "1"],
    "chain validate": ["(0 1)", "[[[0],[1]]]"],
    "project": ["(0 1)", "2"],
    "odo add": ["2", "[1]", "[1]"],
    "odo metric": ["2", "[1]", "[0]"],
    "odo neg": ["2", "[1]"],
    "odo translate": ["2", "[1]"],
    "odo cylinder": ["2,4", "1", "0"],
    "odo truncate": ["2,4", "1"],
}


def _leaf_paths(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [path for name, p in subs[0].choices.items() for path in _leaf_paths(p, (*prefix, name))]


def test_every_leaf_command_is_listed():
    assert sorted(_leaf_paths(_build_parser())) == sorted(LEAVES)


@pytest.mark.parametrize("path", sorted(LEAVES))
def test_leaf_command_shape(path, capsys):
    words = path.split()
    code, usage, _ = invoke(capsys, *words, "--help")
    assert code == 0 and usage.startswith(f"usage: adicdyn {path} ")
    assert invoke(capsys, *words, *LEAVES[path])[0] == 0
    assert invoke(capsys, *words, *LEAVES[path], "--json")[0] == 0
    assert invoke(capsys, *words)[0] == 2  # positionals missing
    # an option this command does not take
    option = next(o for o in ("--size", "--bound", "--seed") if o not in usage)
    code, out, err = invoke(capsys, *words, *LEAVES[path], option, "3")
    assert (code, out) == (2, "") and "unrecognized arguments" in err


def test_public_names():
    names = adicdyn.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    for name in names:
        value = getattr(adicdyn, name)
        assert not name.startswith("_") and not isinstance(value, types.ModuleType)
    assert "Cylinder" not in names and "cylinder" in names
