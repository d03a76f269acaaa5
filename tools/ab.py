"""Alternating A/B comparisons of two fracstefan trees, each run in fresh interpreters.

    python3 tools/ab.py advance --against PARENT/src [--pair] [--meshes M] [--phases 1,2]
    python3 tools/ab.py import --against PARENT/src [--rounds 15]
    python3 tools/ab.py wright --against PARENT/src
    python3 tools/ab.py bench --against PARENT --workload tables [--pairs 10] [--seed 1]

--against names the other tree and --src this one (default: this checkout's
src); bench runs this checkout against the checkout at --against.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SINGLE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run(src: Path, args, single_thread: bool = False, stdin: str | None = None) -> str:
    """The stdout of one fresh interpreter running args, importing fracstefan from src."""
    env = {**os.environ, **(SINGLE_THREAD if single_thread else {}), "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *map(str, args)], env=env, input=stdin,
                          capture_output=True, text=True, check=True).stdout


def header(trees: dict, *lines: str) -> None:
    print(f"this = {trees['this']}\nother = {trees['other']}", *lines, sep="\n")


def alternate(rounds: int, measure) -> dict:
    """Per tree, measure(tree, round) for each round, the other tree first on even rounds."""
    values = {"this": [], "other": []}
    for i in range(rounds):
        for name in ("other", "this") if i % 2 == 0 else ("this", "other"):
            values[name].append(measure(name, i))
    return values


def quartiles(samples: list) -> list:
    """[q1, median, q3] of samples; one sample is all three."""
    return statistics.quantiles(samples, n=4) if len(samples) > 1 else list(samples) * 3


def wins(this: list, other: list) -> tuple:
    """The pairs in which this tree's value is lower and those in which the other's is."""
    return sum(a < b for a, b in zip(this, other)), sum(b < a for a, b in zip(this, other))


def report(samples: dict, word="faster", unit="ms", spec=".2f", scale=1e3) -> str:
    """Each tree's median [quartiles], the ratio of the medians (this tree over the other)
    and the rounds each tree won, a tie counting for neither."""
    this, other = samples["this"], samples["other"]
    q = [f"{scale * value:{spec}}" for values in (this, other) for value in quartiles(values)]
    won = wins(this, other)
    return (f"this {q[1]} {unit} [{q[0]}, {q[2]}], other {q[4]} {unit} [{q[3]}, {q[5]}], "
            f"ratio {statistics.median(this) / statistics.median(other):.2f}, "
            f"this {word} in {won[0]}/{len(this)}, other in {won[1]}/{len(this)}")


ADVANCE = """
import hashlib, sys, time, tracemalloc
from fracstefan import analytic, scheme
m1, m2, n, what, alpha, p = sys.argv[1:]  # what: a phase (advance_phase) or "pair" (advance_pair)
mesh = scheme.MeshConfig(m1=int(m1), m2=int(m2), n=int(n))
params = analytic.PhysicalParams(alpha=float(alpha))
phases = (1, 2) if what == "pair" else (int(what),)
advance = scheme.advance_pair if what == "pair" else scheme.advance_phase
fresh = lambda: [scheme.make_phase_grid(phase, float(p), mesh, params) for phase in phases]
advance(*fresh())
grids, start = fresh(), time.perf_counter()
advance(*grids)
seconds, traced = time.perf_counter() - start, fresh()
tracemalloc.start()
advance(*traced)
digest = hashlib.sha256(b"".join(grid.ubar.tobytes() + (b"" if grid.half is None else
                                                       grid.half.tobytes()) for grid in grids))
print(seconds, tracemalloc.get_traced_memory()[1], digest.hexdigest())
"""


def advance(args, trees: dict) -> None:
    """Time one phase advance, or with --pair one advance_pair, per tree and round.

    Each interpreter (one BLAS thread) advances fresh grids untimed (a warm-up),
    timed, and under tracemalloc (the traced peak above its grids).  Per alpha,
    p, mesh and phase it prints the report, the median traced peaks and whether
    every timed advance's grids (each ubar and the solid's half) had one
    SHA-256.  With --rounds 1 it is a byte sweep; the meshes 2/2/10 and 3/5/37
    reach the smallest scans (no offset, and one).
    """
    header(trees, f"{args.rounds} rounds per case; median [quartiles] of one advance; "
                  f"median traced peak above its grids; whether the trees' grids agree bit for bit")
    cases = [("pair", "pair")] if args.pair else [(f"phase {i}", i) for i in args.phases.split(",")]
    meshes = [tuple(map(int, mesh.split("/"))) for mesh in args.meshes.split(",")]
    for alpha, p, mesh in itertools.product(map(float, args.alpha.split(",")),
                                            map(float, args.p.split(",")), meshes):
        for label, what in cases:
            out = alternate(args.rounds, lambda name, _: run(
                trees[name], ["-c", ADVANCE, *mesh, what, alpha, p], True).split())
            seconds, peaks = ({name: [float(line[i]) for line in lines]
                               for name, lines in out.items()} for i in (0, 1))
            peak = {name: statistics.median(values) / 2 ** 20 for name, values in peaks.items()}
            agree = len({line[2] for lines in out.values() for line in lines}) == 1
            print(f"alpha {alpha} p {p} {'/'.join(map(str, mesh))} {label}: {report(seconds)}; "
                  f"traced peak this {peak['this']:.2f} MiB, other {peak['other']:.2f} MiB; "
                  f"grids {'agree' if agree else 'DIFFER'}", flush=True)


SETUP = ("import time; start = time.perf_counter(); import fracstefan.cli as cli; "
         "cli.build_parser(); print(time.perf_counter() - start)")
LOADED = ("import sys; before = set(sys.modules); import fracstefan.cli; "
          "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
          " - set(sys.stdlib_module_names) - {'fracstefan'})))")
EXACT = ("-m", "fracstefan.cli", "exact", "--alpha", "0.5")


def import_(args, trees: dict) -> None:
    """Time the command line's import cost per tree and round, and list what it loads.

    set-up is `import fracstefan.cli` plus build_parser(), timed inside the
    interpreter as perfbench's setup_s times it; exact is a whole `exact`
    process, timed from outside.  It first lists each tree's third-party
    top-level modules that `import fracstefan.cli` loads.
    """
    header(trees, f"{args.rounds} rounds; median [quartiles]")
    for name, src in trees.items():
        loaded = run(src, ["-c", LOADED]).strip() or "none"
        print(f"third-party modules after `import fracstefan.cli`, {name}: {loaded}")

    def exact(name, _):
        start = time.perf_counter()
        run(trees[name], EXACT)
        return time.perf_counter() - start

    for label, measure in (("set-up (import cli + build_parser)",
                            lambda name, _: float(run(trees[name], ["-c", SETUP]))),
                           ("exact (whole process)", exact)):
        print(f"{label}: {report(alternate(args.rounds, measure), spec='.1f')}", flush=True)


# reads "z gamma delta" lines (float.hex) on stdin, writes one outcome per line
WRIGHT = """
import sys
from fracstefan import specfun
out = []
for line in sys.stdin:
    z, gamma, delta = map(float.fromhex, line.split())
    try:
        value, bound, terms = specfun.wright_series(z, gamma, delta)
    except Exception as exc:  # any error is an outcome to compare, by its class
        out.append(type(exc).__name__)
    else:
        out.append(f"{value.hex()} {bound.hex()} {terms}")
sys.stdout.write("\\n".join(out) + "\\n")
"""
OUTCOMES = ("same bits", "different bits", "newly accepted", "newly rejected", "rejected by both")


def wright_arguments(seed: int = 2025, orders: int = 200, per_order: int = 50) -> dict:
    """The argument sets (z, gamma, delta) by name, each grouped by order so
    each tree builds every coefficient table once."""
    route, grid, sample = [], [], []
    for alpha in (0.25, 0.5, 0.75):
        for delta in (1.0, 1.0 - alpha / 2.0):
            route += [(-i / 20.0, -alpha / 2.0, delta) for i in range(4001)]
    tiny = [s * 10.0 ** -e for s in (1.0, -1.0) for e in (10, 50, 100, 200, 300, 307, 310, 320)]
    for i in range(1, 70):
        gamma = -i / 100.0
        for delta in (1.0, 1.0 + gamma, 0.5):
            grid += [(j / 4.0, gamma, delta) for j in range(-180, 181)]
            grid += [(z, gamma, delta) for z in tiny]
    rng = random.Random(seed)
    for _ in range(orders):
        gamma, delta = rng.uniform(-1.0, 3.0), rng.uniform(-5.0, 5.0)
        if gamma <= -1.0:
            continue
        sample += [(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-4.0, 2.7), gamma, delta)
                   for _ in range(per_order)]
    return {"route orders, z in [-200, 0]": route,
            "gamma in [-0.69, -0.01], z in [-45, 45] and tiny |z|": grid,
            "random gamma in (-1, 3)": sample}


def value_change(this: str, other: str) -> tuple:
    """The change in value between two WRIGHT outcome lines that both hold one:
    |this - other|, absolute and relative to max(|other|, 1)."""
    a, b = (float.fromhex(line.split()[0]) for line in (this, other))
    return abs(a - b), abs(a - b) / max(abs(b), 1.0)


def wright(args, trees: dict) -> None:
    """Compare the specfun.wright_series outcome of the two trees, bit for bit.

    One interpreter per tree sums the series at every wright_arguments
    argument.  An outcome is the bits of value and term_bound with the term
    count, or the class of the error raised.  Per set it counts the
    arguments with the same bits, different bits, newly accepted (this tree
    returns, the other raises), newly rejected and rejected by both, with
    the gamma range of each change, and gives the largest change in value
    among the different bits (value_change; each maximum on its own).
    """
    sets = wright_arguments()
    cases = [case for group in sets.values() for case in group]
    stdin = "".join(f"{z.hex()} {g.hex()} {d.hex()}\n" for z, g, d in cases)
    outcomes = {name: run(src, ["-c", WRIGHT], stdin=stdin).splitlines()
                for name, src in trees.items()}
    for name, lines in outcomes.items():
        if len(lines) != len(cases):
            raise RuntimeError(f"{trees[name]}: {len(lines)} outcomes for {len(cases)} arguments")
    header(trees)
    paired = zip(cases, outcomes["this"], outcomes["other"])
    for label, group in sets.items():
        gammas = {name: [] for name in OUTCOMES}
        changes = [(0.0, 0.0)]
        for (_, gamma, _), a, b in itertools.islice(paired, len(group)):
            name = {(True, True): "same bits" if a == b else "different bits",
                    (True, False): "newly accepted", (False, True): "newly rejected",
                    (False, False): "rejected by both"}[" " in a, " " in b]  # an error has no space
            gammas[name].append(gamma)
            if name == "different bits":
                changes.append(value_change(a, b))
        counts = [f"{name} {len(values)}" + (f" (gamma in [{min(values):.4g}, {max(values):.4g}])"
                  if values and name in OUTCOMES[1:4] else "") for name, values in gammas.items()]
        print(f"{label}, {len(group)} arguments: " + ", ".join(counts)
              + "; largest change in value {:.3g} absolute, {:.3g} relative".format(
                  *map(max, zip(*changes))))


class Verdict(NamedTuple):
    wins: tuple  # pairs won by this tree and by the other; a tie counts for neither
    gain: bool  # this tree's gain passes the claim rule
    within: bool  # this tree's median is no worse than the other's by more than the bound


def verdict(this: list, other: list, bound: float, better: str = "lower") -> Verdict:
    """Paired samples of one metric, this tree's against the other's, bound a
    fraction of the other's median.  A gain passes the claim rule when this
    tree wins at least nine tenths of the pairs and its median is better than
    the other's by more than the other's quartile spread (q3 - q1)."""
    sign = 1.0 if better == "lower" else -1.0
    this, other = [sign * v for v in this], [sign * v for v in other]
    won, (q1, median, q3) = wins(this, other), quartiles(other)
    gap = median - statistics.median(this)  # > 0 when this tree is better
    return Verdict(won, 10 * won[0] >= 9 * len(this) and gap > q3 - q1, -gap <= bound * abs(median))


def output_change(this, other) -> tuple:
    """How far two workload outputs lie apart: (the largest relative change
    |this - other| / |other| over their numeric leaves, the number of their
    other leaves, the hashes, that differ).  A leaf on one side only differs."""
    if isinstance(this, dict) and isinstance(other, dict):
        changes = [output_change(this.get(key), other.get(key))
                   for key in this.keys() | other.keys()]
        return max((c[0] for c in changes), default=0.0), sum(c[1] for c in changes)
    if all(isinstance(v, (int, float)) for v in (this, other)):
        if this == other:
            return 0.0, 0
        return (abs(this - other) / abs(other) if other else math.inf), 0
    return 0.0, int(this != other)


def bench(args, trees: dict) -> None:
    """A/B the benchmark pass by pass: single passes of one workload in two checkouts.

    Per pair each checkout's own perfbench/run.py takes one set-up sample
    (measure_setup) and one untraced pass in its child mode (run_pass, the
    pair's index as --pass-index).  Per end-to-end metric of BENCHMARK.json it
    prints the report and the verdict over the pairs in which both passes
    passed, then whether their outputs agree, with their largest change over
    those pairs (output_change), and each checkout's failures.
    """
    modules = {name: importlib.util.module_from_spec(importlib.util.spec_from_file_location(
        f"perfbench_run_{name}", root / "perfbench" / "run.py")) for name, root in trees.items()}
    for module in modules.values():
        module.__spec__.loader.exec_module(module)

    def measure(name, index):
        setup = modules[name].measure_setup(1)[0]
        out = modules[name].run_pass(args, index, traced=False)
        return {"setup_s": setup, "wall_s": out.get("wall"), "peak_rss_mb": out.get("rss_mb"),
                **out}

    header(trees, f"{args.workload}, seed {args.seed}, {args.pairs} pairs; median [quartiles]")
    results = alternate(args.pairs, measure)
    passed = [pair for pair in zip(results["this"], results["other"])
              if not any(result["failures"] for result in pair)]
    for metric in args.metrics if passed else ():
        name, bound = metric["name"], metric["bound"]
        samples = dict(zip(trees, zip(*((a[name], b[name]) for a, b in passed))))
        judged = verdict(samples["this"], samples["other"], bound, metric["better"])
        print(f"{name}: {report(samples, 'better', metric['unit'], '.4g', 1.0)}; "
              f"a gain {'would' if judged.gain else 'would not'} pass the claim rule; "
              f"{'within' if judged.within else 'OUTSIDE'} the {bound} bound", flush=True)
    same = sum(a["outputs"] == b["outputs"] for a, b in passed)
    changes = [output_change(a["outputs"], b["outputs"]) for a, b in passed] or [(0.0, 0)]
    print(f"outputs: the same in {same} of the {len(passed)} pairs in which both checkouts "
          f"passed; largest relative change of a number {max(c[0] for c in changes):.3g}, "
          f"most hashes that differ in a pair {max(c[1] for c in changes)}")
    for name, values in results.items():
        failures = [failure for result in values for failure in result["failures"]]
        print(f"failed passes, {name}: {len(failures)}" + "".join(f"\n  {f}" for f in failures))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    trees = argparse.ArgumentParser(add_help=False)
    trees.add_argument("--against", type=Path, required=True, help="the other tree's src")
    trees.add_argument("--src", type=Path, default=ROOT / "src", help="this tree's src")

    def mode(function, name, parents=(trees,)):
        sub = modes.add_parser(name, parents=parents, help=function.__doc__.splitlines()[0])
        sub.set_defaults(function=function)
        return sub

    sub = mode(advance, "advance")
    sub.add_argument("--meshes", default="50/250/200,100/500/400,50/250/1600", help="m1/m2/n,...")
    sub.add_argument("--phases", default="1,2", help="comma-separated phases (default: 1,2)")
    sub.add_argument("--pair", action="store_true", help="time advance_pair in each tree")
    sub.add_argument("--rounds", type=int, default=7, help="rounds per mesh and phase")
    sub.add_argument("--alpha", default="0.5", help="comma-separated orders (default: 0.5)")
    sub.add_argument("--p", default="0.74", help="comma-separated p values (default: 0.74)")
    mode(import_, "import").add_argument("--rounds", type=int, default=15, help="rounds")
    mode(wright, "wright")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sub = mode(bench, "bench", parents=())
    sub.set_defaults(metrics=spec["end_to_end"], seconds=1, tiny=False)  # run_pass reads both
    sub.add_argument("--against", type=Path, required=True, help="the other checkout's root")
    sub.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    sub.add_argument("--pairs", type=int, default=10, help="pairs of passes (default: 10)")
    sub.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    args = parser.parse_args(argv)
    this = ROOT if args.function is bench else args.src
    args.function(args, {"this": this.resolve(), "other": args.against.resolve()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
