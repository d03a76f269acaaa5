"""Compare the `specfun.wright_series` outcome of two source trees, bit for bit.

One fresh interpreter per tree imports fracstefan from that tree and sums
the Wright series at a fixed set of arguments (z, gamma, delta):

- the closed-form route's orders, gamma = -alpha/2 for alpha in
  {0.25, 0.5, 0.75} and delta in {1, 1 - alpha/2}, for z in [-200, 0];
- gamma in [-0.69, -0.01] with delta in {1, 1 + gamma, 0.5}, for z in
  [-45, 45] and for |z| from 1e-10 down to 1e-320;
- a seeded random sample: gamma in (-1, 3), delta in (-5, 5) and
  |z| = 10**u with u in (-4, 2.7), either sign.

An outcome is the bits of value and term_bound with the term count, or the
class of the error raised.  It prints how many arguments give the same
bits, different bits, are newly accepted (this tree returns, the other
raises), newly rejected, or rejected by both, with the gamma range of each
change:

    python3 tools/wright_ab.py --against PARENT/src
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

# reads "z gamma delta" lines (float.hex) on stdin, writes one outcome per line
CHILD = """
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


def arguments(seed: int = 2025, orders: int = 200, per_order: int = 50) -> dict:
    """The fixed argument sets by name, each grouped by order so each tree
    builds every coefficient table once."""
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


def outcomes(src: Path, args: list) -> list:
    """CHILD's outcome for each argument, in a fresh interpreter importing fracstefan from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    stdin = "".join(f"{z.hex()} {g.hex()} {d.hex()}\n" for z, g, d in args)
    out = subprocess.run([sys.executable, "-c", CHILD], input=stdin, env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    if len(lines) != len(args):
        raise RuntimeError(f"{src}: {len(lines)} outcomes for {len(args)} arguments")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="source directory of the other tree (for example PARENT/src)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory of this tree (default: src of this checkout)")
    args = parser.parse_args(argv)
    sets = arguments()
    cases = [case for group in sets.values() for case in group]
    this, other = outcomes(args.src.resolve(), cases), outcomes(args.against.resolve(), cases)
    print(f"this = {args.src.resolve()}\nother = {args.against.resolve()}")
    paired = zip(cases, this, other)
    for label, group in sets.items():
        gammas = {name: [] for name in ("same bits", "different bits", "newly accepted",
                                        "newly rejected", "rejected by both")}
        for (_, gamma, _), a, b in itertools.islice(paired, len(group)):
            accepted = (" " in a, " " in b)  # a result has three fields, an error one
            if accepted == (True, True):
                name = "same bits" if a == b else "different bits"
            elif accepted == (False, False):
                name = "rejected by both"
            else:
                name = "newly accepted" if accepted[0] else "newly rejected"
            gammas[name].append(gamma)
        counts = []
        for name, values in gammas.items():
            span = ""
            if values and name not in ("same bits", "rejected by both"):
                span = f" (gamma in [{min(values):.4g}, {max(values):.4g}])"
            counts.append(f"{name} {len(values)}{span}")
        print(f"{label}, {len(group)} arguments: " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
