"""Tests of the benchmark itself, on tiny pools.

    python3 -m pytest bench/test_bench.py -q

Every metric named in BENCHMARK.json must come out with its unit, and a
deliberately corrupted program output must be counted as a failure rather
than pass.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_layer  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    # a few small requests of every kind, and few passes over them
    monkeypatch.setattr(workloads, "SWEEPS", 1)
    monkeypatch.setattr(workloads, "PER_KIND", 1)
    monkeypatch.setattr(workloads, "MAX_POINTS", workloads.MIN_POINTS)
    monkeypatch.setattr(workloads, "COMPAT_SHAPES", ((2, 1, 4, 1), (3, 1, 3, 1)))
    monkeypatch.setattr(workloads, "MAP_SHAPES", ((2, (2, 4), 1), (3, (2,), 1)))
    monkeypatch.setattr(bench, "MIN_SAMPLES", 10)


def _tiny_run(workload):
    run = bench.Run(workload, seed=7)
    run.setup()
    return run


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, context = bench.measure(_tiny_run(workload), 0.0, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {"nproc", "python", "platform", "seed"} <= set(context)
    assert context["passes"] * context["pool"] >= bench.MIN_SAMPLES
    if trace:
        assert result["metrics"]["cli.run.self_s"]["value"] > 0
        assert context["absent"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert context["cli.spawn_ms"] > 0


def _corrupt(workload, api, monkeypatch):
    if workload == "algebra":
        monkeypatch.setattr(api, "gcd", api.lcm)
    elif workload == "project":
        monkeypatch.setattr(api, "make_compatible", lambda P1, m2: P1)
        real = api.max_odometer_factor
        monkeypatch.setattr(api, "max_odometer_factor",
                            lambda S: (api.parse_base("1"), real(S)[1]))
    else:
        real_c, real_m = api.enumerate_compatible, api.enumerate_factor_maps
        monkeypatch.setattr(api, "enumerate_compatible", lambda P1, m2: real_c(P1, m2)[:-1])
        monkeypatch.setattr(api, "enumerate_factor_maps", lambda S, ls: real_m(S, ls)[1:])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload, monkeypatch):
    run = _tiny_run(workload)
    _corrupt(workload, sys.modules["adicdyn"], monkeypatch)
    result, context = bench.measure(run, 0.0, trace=False)
    assert result["failed"] > 0 and not result["correct"]
    assert context["fail_ratio"] == result["failed"] / result["attempted"] > 0


def test_corrupted_cli_output_is_counted_as_failed(monkeypatch):
    run = _tiny_run("algebra")
    cli = sys.modules["adicdyn.cli"]
    real = cli.run

    def run_and_add_a_line(argv):
        code = real(argv)
        print("extra")
        return code

    monkeypatch.setattr(cli, "run", run_and_add_a_line)
    result, _ = bench.measure(run, 0.0, trace=True)
    assert result["failed"] == len(cli_layer.CASES) and not result["correct"]


def test_missing_sources_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    with pytest.raises(ImportError):
        bench.import_fresh()
