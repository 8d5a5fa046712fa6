"""The adicdyn benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload algebra --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else, so the script fails (exit 2, no result) when
the sources are missing.  Set-up -- import, input generation and a fixed
warm-up -- runs SETUPS times before the first timed request, and the
median is reported.  The timed loop replays the whole request pool while
another full pass fits in ``--seconds``, and until MIN_SAMPLES requests
are timed; each request is timed alone and checked afterwards, outside the
timed region.  Throughput is the median over passes of requests per second
of timed time; latency percentiles are taken over every timed request.

--trace 0 prints every end-to-end metric; --trace 1 runs untraced passes
for half the time, then exactly one traced pass, and prints the per-layer
metrics (self time and counts for one pass over the pool) and the traced
over untraced throughput.  Metric names and units come from BENCHMARK.json.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cli_layer  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402

SETUPS = 5
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
SHOWN_FAILURES = 5
WORKLOADS = {"algebra": workloads.algebra, "project": workloads.project,
             "enumerate": workloads.enumerate_}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# "<layer>.<function>.self_s" and ".calls" read the span "<layer>.<function>"
SPANS = sorted({n.rsplit(".", 1)[0] for n in PER_LAYER
                if n.endswith((".self_s", ".calls")) and n.count(".") == 2})


def import_fresh():
    """Import adicdyn (and its CLI) anew from ROOT/src, and only from there."""
    for name in [k for k in sys.modules if k == "adicdyn" or k.startswith("adicdyn.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    api = importlib.import_module("adicdyn")
    importlib.import_module("adicdyn.cli")
    where = Path(api.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"adicdyn was imported from {where}, not from {src}")
    return api


class Run:
    """One workload's request pool and what its execution measured."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_times = []
        self.pool = None
        self.attempted = 0
        self.failures = []

    def setup(self):
        """One timed set-up (import, input generation, warm-up); its pool
        replaces the previous one.  The seed draws the same pool every
        time, and the warm-up requests do not depend on it."""
        gc.unfreeze()
        self.pool = None
        start = perf_counter()
        api = import_fresh()
        pool, warmups = WORKLOADS[self.workload](api, random.Random(f"{self.workload}:{self.seed}"))
        for req in warmups:
            try:
                req.call()
            except Exception:  # a broken program shows in the timed loop
                pass
        self.setup_times.append(perf_counter() - start)
        self.pool = pool
        # the pool lives through the passes; keep it out of the program's
        # garbage collections
        gc.collect()
        gc.freeze()

    def one(self, req, tracer=None) -> float:
        """Time one request, then check its output; failures are counted."""
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                out = req.call()
            else:
                tracer.request_id = self.attempted
                tracer.active = True
                try:
                    out = tracer.span("bench.request", req.call)
                finally:
                    tracer.active = False
        except Exception as exc:  # an unexpected raise is a failed request
            self.failures.append(f"{req.kind}: raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        try:
            req.check(out)
        except Exception as exc:  # a wrong or malformed output
            self.failures.append(f"{req.kind}: {type(exc).__name__}: {exc}")
        return elapsed

    def passes(self, seconds: float, tracer=None):
        """Whole passes over the pool while another one fits in ``seconds``
        and until MIN_SAMPLES requests are timed; one pass when traced.

        Returns one latency list per pass, in pool order, and the wall time
        spent."""
        per_pass = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            per_pass.append([self.one(req, tracer) for req in self.pool])
            now = perf_counter()
            if tracer is not None:
                break
            if now - start + (now - t0) > seconds and sum(map(len, per_pass)) >= MIN_SAMPLES:
                break
        return per_pass, now - start


def throughput(per_pass) -> float:
    """Median over passes of requests completed per second of timed time."""
    return statistics.median(len(p) / sum(p) for p in per_pass)


def end_to_end(run: Run, per_pass) -> dict:
    latencies = [t for p in per_pass for t in p]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": throughput(per_pass),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(run.setup_times),
    }


def per_layer(tracer: Tracer, cli_tracer: Tracer, traced_ops: float, untraced_ops: float) -> dict:
    """Every PER_LAYER metric, read by its name: "<layer>.self_s" and
    "<layer>.calls" sum a layer's spans, "<span>.self_s" and "<span>.calls"
    read one span (from the CLI tracer for "cli.*"), hook counters count
    validations, and the rest are computed here."""
    m = {}
    # returned / validated inside enumerate_compatible; 1 when nothing was
    # validated but partitions came back, 0 when it never ran
    if tracer.enum_validated:
        m["dynsys.enumerate.kept_ratio"] = tracer.enum_returned / tracer.enum_validated
    else:
        m["dynsys.enumerate.kept_ratio"] = 1.0 if tracer.enum_returned else 0.0
    m["cli.spawn_ms"] = cli_layer.spawn_ms(str(ROOT))
    m["cli.import_ms"] = cli_layer.import_ms(str(ROOT))
    m["trace.overhead"] = traced_ops / untraced_ops
    for counter in HOOKS.values():
        m[counter] = tracer.hooks[counter]
    for name in PER_LAYER:
        if name in m:
            continue
        span, kind = name.rsplit(".", 1)
        if kind not in ("self_s", "calls"):
            raise KeyError(f"no rule computes the per-layer metric {name}")
        source = cli_tracer if span.startswith("cli.") else tracer
        if "." not in span:
            m[name] = source.layer_self_s(span) if kind == "self_s" else source.layer_calls(span)
        else:
            m[name] = source.self_s[span] if kind == "self_s" else source.calls[span]
    return m


def measure(run: Run, seconds: float, trace: bool):
    """Run the timed loop on a set-up Run; return (result, context)."""
    context = {
        "workload": run.workload, "seed": run.seed, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "loop": "closed, 1 client",
    }
    if trace:
        per_pass, measured = run.passes(seconds / 2)
        tracer = Tracer()
        tracer.install(SPANS)
        try:
            traced, traced_s = run.passes(0, tracer)
        finally:
            tracer.uninstall()
        # the CLI layer: every hand-checked command once through cli.run,
        # traced apart so the workload's own layer figures stay its own
        cli_tracer = Tracer()
        cli_tracer.install(SPANS)
        try:
            for req in cli_layer.in_process(random.Random(f"cli:{run.seed}")):
                run.one(req, cli_tracer)
        finally:
            cli_tracer.uninstall()
        metrics = per_layer(tracer, cli_tracer, throughput(traced), throughput(per_pass))
        units = PER_LAYER
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"trace-{run.workload}-{run.seed}.json"
        tracer.write(span_file)
        context.update(untraced_passes=len(per_pass), traced_samples=len(traced[0]),
                       traced_s=round(traced_s, 3), spans=str(span_file.relative_to(ROOT)),
                       absent=tracer.absent)
        per_pass += traced
    else:
        per_pass, measured = run.passes(seconds)
        metrics = end_to_end(run, per_pass)
        units = END_TO_END
        context["samples"] = sum(map(len, per_pass))
        context["cli.spawn_ms"] = round(cli_layer.spawn_ms(str(ROOT)), 3)

    failed = len(run.failures)
    context.update(passes=len(per_pass), pool=len(run.pool),
                   measured_s=round(measured, 3), attempted=run.attempted, failed=failed,
                   fail_ratio=failed / run.attempted)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed)
    try:
        for _ in range(SETUPS):
            run.setup()
    except ImportError as exc:
        print(f"bench: cannot import adicdyn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result, context = measure(run, args.seconds, bool(args.trace))

    for line in run.failures[:SHOWN_FAILURES]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print("context " + json.dumps(context))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {context['fail_ratio']:.6g} (of {run.attempted} requests)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
