#!/usr/bin/env python3
"""Benchmark of the fracstefan package: one workload per run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ./src.  Every
pass of a workload runs in a fresh interpreter, as a CLI call or a script
would, so no pass inherits a warm allocator or cache from the one before.
With --trace 0 the run repeats untraced passes for about --seconds and
reports the end-to-end metrics.  With --trace 1 it alternates untraced and
traced passes (up to TRACE_PAIRS pairs), times the calls into each module
(see tracing.py) and reports the per-layer metrics.  Either way it checks the
workload's outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it give every metric and the
accuracy figures by name and unit.  The full record (computed outputs,
percentiles, per-layer totals, environment) is written to
perfbench/out/<workload>-seed<seed>-trace<trace>.json (-tiny.json with
--tiny).  The exit code is 0 when every output check passed, 1 when one
failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
SETUP_RUNS = 5
PASS_TIMEOUT_S = 170
TRACE_PAIRS = 3  # untraced/traced pass pairs of a traced run, at most
TRACE_BUDGET_S = 90  # a traced run starts no pair that would end past this
SETUP_CODE = (
    "import time; start = time.perf_counter(); import fracstefan.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - start)"
)
REPORT_UNITS = {"p_rel_gap": "ratio", "s_gap": "ratio", "u_err": "abs",
                "exact_gaps": "count", "fail_ratio": "ratio"}


def child_env() -> dict:
    """Environment of every child interpreter: ./src on the path, one BLAS thread.

    The workloads' mat-vecs are small; one BLAS thread gave steadier times
    than nproc threads on a shared 2-core machine.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class WarningCounter(logging.Handler):
    """Counts `fracstefan` warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.warnings = 0
        self.dominance_violations = 0

    def emit(self, record):
        self.warnings += 1
        if str(record.msg).startswith("diagonal dominance violated"):
            self.dominance_violations += int(record.args[0])

    def attach(self):
        log = logging.getLogger("fracstefan")
        log.addHandler(self)
        log.setLevel(logging.WARNING)
        log.propagate = False
        return self


def measure_setup(runs: int) -> list:
    """Seconds to import fracstefan.cli and build its parser, each in a fresh interpreter."""
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(args, index: int, traced: bool) -> dict:
    """One pass of the workload in a fresh interpreter; returns what pass_main printed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)), "--pass-index", str(index)]
    if args.tiny:
        argv.append("--tiny")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"pass {index} exceeded {PASS_TIMEOUT_S} s"], "attempted": 1}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"failures": [f"pass {index} exited {done.returncode}: "
                             f"{done.stderr.strip()[-500:]}"], "attempted": 1}
    return json.loads(lines[-1])


def pass_main(args) -> int:
    """Child side: run one pass, print its result as one JSON line."""
    sys.path.insert(0, str(SRC))
    import workloads

    warnings = WarningCounter().attach()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = workloads.WORKLOADS[args.workload](f"{args.seed}:{args.pass_index}",
                                                   args.tiny, workdir)
    tracer = None
    if args.trace:  # untraced passes load no tracing code, so it adds nothing to their RSS
        import tracing
        tracer = tracing.Tracer()
    try:
        if tracer is None:
            start = time.perf_counter()
            result = workload.run_pass()
            wall = time.perf_counter() - start
        else:
            with tracer.installed():
                start = time.perf_counter()
                result = workload.run_pass(tracer)
                wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy
    from fracstefan import backend

    out = {"wall": wall, "rss_mb": rss_mb,
           "outputs": result.outputs, "report": result.report, "attempted": result.attempted,
           "failures": result.failures, "op_seconds": result.op_seconds,
           "packages": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                        "numba": importlib.util.find_spec("numba") is not None,
                        "backend": backend.active()}}
    if tracer is not None:
        violations = warnings.dominance_violations
        probes = tracing.probe_layers(*workload.probe())
        out.update(metrics=layer_metrics(tracer, violations, probes, result.csv_bytes),
                   layers=tracer.summary())
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, violations, probes, csv_bytes) -> dict:
    advances = tracer.counts["advances"]
    advance_s = tracer.seconds("scheme.advance.phase1") + tracer.seconds("scheme.advance.phase2")
    node_steps = tracer.counts["node_steps"]
    return {
        "specfun.wright_calls": tracer.calls("specfun.wright"),
        "specfun.wright_terms": tracer.counts["wright_terms"],
        "specfun.wright_s": tracer.seconds("specfun.wright"),
        "specfun.nonconverged": tracer.counts["nonconverged"],
        "analytic.root_calls": tracer.calls("analytic.root"),
        "analytic.root_s": tracer.seconds("analytic.root"),
        "analytic.field_points": tracer.calls("analytic.field"),
        "analytic.field_gaps": tracer.counts["field_gaps"],
        "analytic.field_s": tracer.seconds("analytic.field"),
        **probes,
        "scheme.advance_calls": advances,
        "scheme.advance_s.phase1": tracer.seconds("scheme.advance.phase1"),
        "scheme.advance_s.phase2": tracer.seconds("scheme.advance.phase2"),
        "scheme.node_steps": node_steps,
        "scheme.ns_per_node_step": 1e9 * advance_s / node_steps if node_steps else 0.0,
        "scheme.recover_s": tracer.seconds("scheme.recover"),
        "scheme.dominance_violations": violations,
        "fronttrack.bisections": tracer.calls("fronttrack.bisection"),
        "fronttrack.candidates": tracer.calls("fronttrack.candidate"),
        "fronttrack.solve_s.p50": tracer.percentile("fronttrack.candidate", 50),
        "fronttrack.solve_s.p90": tracer.percentile("fronttrack.candidate", 90),
        "fronttrack.balance_s": tracer.seconds("fronttrack.balance"),
        "fronttrack.series_s": tracer.seconds("fronttrack.series"),
        "fronttrack.advance_useful_ratio":
            len(tracer.advance_keys) / advances if advances else 1.0,
        "cli.self_s": tracer.seconds("cli", "self"),
        "cli.csv_bytes": csv_bytes,
    }


def timed_run(args, record):
    """Untraced passes until the next would end past --seconds; at least one."""
    setup = measure_setup(2 if args.tiny else SETUP_RUNS)
    passes, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(args, len(passes), traced=False))
        elapsed.append(time.perf_counter() - t0)
        if "wall" not in passes[-1] or \
                time.perf_counter() - start + statistics.median(elapsed) > args.seconds:
            break
    timed = [p for p in passes if "wall" in p]
    walls = [p["wall"] for p in timed]
    ops = [s for p in timed for s in p["op_seconds"]]
    record.update(wall_s=tail(walls) if walls else None, op_s=tail(ops) if ops else None,
                  wall_samples=walls, op_samples=ops, setup_samples=setup,
                  rss_samples=[p["rss_mb"] for p in timed])
    metrics = {}
    if timed:
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed)}
    return metrics, passes


def traced_run(args, record):
    """Alternating untraced and traced passes, each in its own interpreter.

    Up to TRACE_PAIRS pairs while the next would end within TRACE_BUDGET_S;
    at least one.  Each per-layer metric is its median over the traced
    passes, and trace_overhead is the median traced pass time over the
    median untraced one.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(args, 2 * len(plain), traced=False))
        traced.append(run_pass(args, 2 * len(traced) + 1, traced=True))
        pair_s = time.perf_counter() - t0
        if "wall" not in plain[-1] or "metrics" not in traced[-1] or \
                len(traced) == TRACE_PAIRS or \
                time.perf_counter() - start + pair_s > TRACE_BUDGET_S:
            break
    metrics = {}
    if all("wall" in p for p in plain) and all("metrics" in p for p in traced):
        plain_s = statistics.median(p["wall"] for p in plain)
        traced_s = statistics.median(p["wall"] for p in traced)
        metrics = {name: statistics.median(p["metrics"][name] for p in traced)
                   for name in traced[0]["metrics"]}
        metrics["trace_overhead"] = traced_s / plain_s
        record.update(untraced_samples=[p["wall"] for p in plain],
                      traced_samples=[p["wall"] for p in traced], layers=traced[0]["layers"])
    return metrics, [p for pair in zip(plain, traced) for p in pair]


def tail(samples):
    """Median, the highest whole percentile with at least ten samples above it, count."""
    out = {"p50": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 11:
        q = (100 * (len(samples) - 10)) // len(samples)
        ranked = sorted(samples)
        out[f"p{q}"] = ranked[max(0, -(-q * len(samples) // 100) - 1)]
    return out


def environment(first_pass: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": NPROC, "cpu": cpu,
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            **first_pass.get("packages", {}), "commit": git_commit()}


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="fracstefan benchmark, one workload per run")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny meshes and two set-up samples (self-test only)")
    parser.add_argument("--pass-index", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fracstefan" / "__init__.py").is_file():
        print(f"error: no fracstefan package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.pass_index is not None:
        return pass_main(args)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny}
    metrics, passes = (traced_run if args.trace else timed_run)(args, record)
    first = passes[0]
    failures = [f for p in passes for f in p["failures"]]
    if any(p.get("outputs") != first.get("outputs") for p in passes[1:]):
        failures.append("outputs differ between passes")
    attempted = sum(p["attempted"] for p in passes)
    failed = min(len(failures), attempted)
    report = dict(first.get("report", {}), fail_ratio=failed / attempted)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record.update(correct=not failures, attempted=attempted, failed=failed,
                  failures=failures[:50], metrics=metrics, report=report,
                  outputs=first.get("outputs"), environment=environment(first))
    record_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"{'-tiny' if args.tiny else ''}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in report.items():
        print(f"{name} = {value:.6g} {REPORT_UNITS[name]}")
    print(f"record: {record_path}")
    if not metrics:
        return 1
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
