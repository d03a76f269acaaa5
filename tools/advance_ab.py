"""Alternating A/B timing of phase advances from two source trees.

For each mesh and phase, each round starts one fresh interpreter per tree,
in alternating order.  Each interpreter imports fracstefan from its tree,
advances the grid once untimed (so the allocator and numpy are warm), then
times one `scheme.advance_phase` of a fresh grid with `time.perf_counter`.
With --pair it times one candidate's two phases instead, one
`scheme.advance_pair` in each tree.  After
the timed advance each interpreter advances fresh grids once more, untimed,
under `tracemalloc`, for the traced peak of one advance above its grids.
It also prints a SHA-256 of the timed advance's grids: every grid's `ubar`
and the solid's `half`.  BLAS runs one thread.  Per alpha, p, mesh and
phase (or pair) it prints each tree's median and quartiles, the ratio of the
medians (this tree over the other), how many rounds each tree was faster
in, each tree's median traced peak, and whether the two trees advanced the
same grids, bit for bit, in every round:

    python3 tools/advance_ab.py --against PARENT/src
    python3 tools/advance_ab.py --against PARENT/src --meshes 100/500/400 --phases 2 --rounds 11
    python3 tools/advance_ab.py --against PARENT/src --pair --meshes 50/250/200,100/500/400

--alpha and --p take comma-separated lists, so one command sweeps the
grids' bytes over alpha x p x mesh.  With one round per case it is a byte
check more than a timing; the meshes 2/2/10 and 3/5/37 reach the smallest
scans (one unknown per phase, so no offset, and a liquid of two unknowns,
so one offset).  Run it once with --pair and once with the lone phases:

    python3 tools/advance_ab.py --against PARENT/src --rounds 1 --alpha 0.25,0.5,0.75,1 \
        --p 0.1,0.74,2 --meshes 2/2/10,3/5/37,50/250/200,100/500/400 --pair
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import hashlib, sys, time, tracemalloc
from fracstefan.analytic import PhysicalParams
from fracstefan import scheme
m1, m2, n = map(int, sys.argv[1:4])
what = sys.argv[4]  # a phase (advance_phase) or "pair" (advance_pair)
alpha, p = map(float, sys.argv[5:7])
mesh, params = scheme.MeshConfig(m1=m1, m2=m2, n=n), PhysicalParams(alpha=alpha)
phases = (1, 2) if what == "pair" else (int(what),)

def advance(traced=False):
    # (seconds, grids) of one advance of fresh grids, or its traced peak in bytes above them
    grids = [scheme.make_phase_grid(phase, p, mesh, params) for phase in phases]
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    (scheme.advance_pair if what == "pair" else scheme.advance_phase)(*grids)
    seconds = time.perf_counter() - start
    if not traced:
        return seconds, grids
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak

advance()
seconds, grids = advance()
digest = hashlib.sha256()
for grid in grids:
    digest.update(grid.ubar.tobytes())
    if grid.half is not None:
        digest.update(grid.half.tobytes())
print(seconds, advance(traced=True), digest.hexdigest())
"""

SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _time(src: Path, mesh: tuple, what: str, alpha: float, p: float) -> tuple:
    """CHILD's advance what in a fresh interpreter importing src's fracstefan: (seconds, peak, digest).

    peak is the traced peak of the untimed advance, in bytes above its grids,
    and digest the SHA-256 of the timed advance's grids.
    """
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(src)}
    args = [str(v) for v in (*mesh, what, alpha, p)]
    out = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                         capture_output=True, text=True, check=True)
    seconds, peak, digest = out.stdout.split()
    return float(seconds), int(peak), digest


def _summary(samples: list) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return f"{1e3 * median:.2f} ms [{1e3 * q1:.2f}, {1e3 * q3:.2f}]"


def _mesh(text: str) -> tuple:
    m1, m2, n = (int(v) for v in text.split("/"))
    return m1, m2, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="source directory of the other tree (for example PARENT/src)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory of this tree (default: src of this checkout)")
    parser.add_argument("--meshes", default="50/250/200,100/500/400,50/250/1600",
                        help="comma-separated m1/m2/n meshes (default: %(default)s)")
    parser.add_argument("--phases", default="1,2", help="comma-separated phases (default: 1,2)")
    parser.add_argument("--pair", action="store_true",
                        help="time advance_pair of both phases in each tree")
    parser.add_argument("--rounds", type=int, default=7, help="rounds per mesh and phase")
    parser.add_argument("--alpha", default="0.5",
                        help="comma-separated orders alpha (default: %(default)s)")
    parser.add_argument("--p", default="0.74",
                        help="comma-separated front coefficients (default: %(default)s)")
    args = parser.parse_args(argv)
    trees = {"this": args.src.resolve(), "other": args.against.resolve()}
    print(f"this = {trees['this']}\nother = {trees['other']}\n"
          f"{args.rounds} rounds per case; "
          f"median [quartiles] of one advance; median traced peak above its grids; "
          f"whether the trees' grids agree bit for bit")
    # per timed case: its label and what both trees' CHILD advances
    cases = ([("pair", "pair")] if args.pair else
             [(f"phase {phase}", phase) for phase in args.phases.split(",")])
    sweep = [(alpha, p, mesh) for alpha in map(float, args.alpha.split(","))
             for p in map(float, args.p.split(",")) for mesh in map(_mesh, args.meshes.split(","))]
    for alpha, p, mesh in sweep:
        for label, what in cases:
            samples, peaks = {"this": [], "other": []}, {"this": [], "other": []}
            digests = set()
            for i in range(args.rounds):
                for name in (("other", "this") if i % 2 == 0 else ("this", "other")):
                    seconds, peak, digest = _time(trees[name], mesh, what, alpha, p)
                    samples[name].append(seconds)
                    peaks[name].append(peak)
                    digests.add(digest)
            wins = sum(a < b for a, b in zip(samples["this"], samples["other"]))
            ratio = statistics.median(samples["this"]) / statistics.median(samples["other"])
            peak = {name: statistics.median(values) / 2 ** 20 for name, values in peaks.items()}
            print(f"alpha {alpha} p {p} {'/'.join(map(str, mesh))} {label}: "
                  f"this {_summary(samples['this'])}, "
                  f"other {_summary(samples['other'])}, ratio {ratio:.2f}, "
                  f"this faster in {wins}/{args.rounds}, other in {args.rounds - wins}/{args.rounds}; "
                  f"traced peak this {peak['this']:.2f} MiB, other {peak['other']:.2f} MiB; "
                  f"grids {'agree' if len(digests) == 1 else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
