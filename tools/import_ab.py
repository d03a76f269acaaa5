"""Alternating A/B timing of the command line's import cost in two source trees.

Each round starts fresh interpreters for both trees, in alternating order,
and times two things in each:

- set-up: `import fracstefan.cli` plus `build_parser()`, timed inside the
  interpreter with `time.perf_counter`, as perfbench's `setup_s` times it;
- exact: one whole `python -m fracstefan.cli exact --alpha 0.5` process,
  timed from outside, interpreter start and exit included.

For each it prints both trees' medians and quartiles, the ratio of the
medians (this tree over the other) and how many rounds each tree was
faster in.  It also lists, per tree, the third-party top-level modules
that `import fracstefan.cli` loads (numpy, or none):

    python3 tools/import_ab.py --against PARENT/src
    python3 tools/import_ab.py --against PARENT/src --rounds 21
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP = ("import time; start = time.perf_counter(); import fracstefan.cli as cli; "
         "cli.build_parser(); print(time.perf_counter() - start)")

LOADED = ("import sys; before = set(sys.modules); import fracstefan.cli; "
          "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
          " - set(sys.stdlib_module_names) - {'fracstefan'})))")

EXACT = ("-m", "fracstefan.cli", "exact", "--alpha", "0.5")


def _run(src: Path, args) -> str:
    """stdout of one fresh interpreter importing src's fracstefan."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def _setup_seconds(src: Path) -> float:
    return float(_run(src, ["-c", SETUP]))


def _exact_seconds(src: Path) -> float:
    start = time.perf_counter()
    _run(src, EXACT)
    return time.perf_counter() - start


def _summary(samples: list) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return f"{1e3 * median:.1f} ms [{1e3 * q1:.1f}, {1e3 * q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="source directory of the other tree (for example PARENT/src)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory of this tree (default: src of this checkout)")
    parser.add_argument("--rounds", type=int, default=15, help="rounds per measurement")
    args = parser.parse_args(argv)
    trees = {"this": args.src.resolve(), "other": args.against.resolve()}
    print(f"this = {trees['this']}\nother = {trees['other']}\n"
          f"{args.rounds} rounds; median [quartiles]")
    for name, src in trees.items():
        print(f"third-party modules after `import fracstefan.cli`, {name}: "
              f"{_run(src, ['-c', LOADED]).strip() or 'none'}")
    for label, measure in (("set-up (import cli + build_parser)", _setup_seconds),
                           ("exact (whole process)", _exact_seconds)):
        samples = {"this": [], "other": []}
        for i in range(args.rounds):
            for name in (("other", "this") if i % 2 == 0 else ("this", "other")):
                samples[name].append(measure(trees[name]))
        wins = sum(a < b for a, b in zip(samples["this"], samples["other"]))
        ratio = statistics.median(samples["this"]) / statistics.median(samples["other"])
        print(f"{label}: this {_summary(samples['this'])}, other {_summary(samples['other'])}, "
              f"ratio {ratio:.2f}, this faster in {wins}/{args.rounds}, "
              f"other in {args.rounds - wins}/{args.rounds}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
