"""End-to-end command dispatch: golden outputs, exit codes, JSON stability."""

import json
import subprocess
import sys

from adicdyn.cli import run


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
