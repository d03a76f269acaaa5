"""SHA-256 of every output of a fixed set of CLI runs, for output-identity checks.

Each run is `python3 -m fracstefan.cli ...` with PYTHONPATH set to the source
directory, in a temporary directory of its own.  One line is printed per
output file (*.csv and run.txt) and one per run for its standard output:

    sha256  run  file

Runs and files come in a fixed order, so two source trees give the same
lines exactly when every output is byte-identical:

    diff <(python3 tools/output_digests.py --src PARENT/src) \\
         <(python3 tools/output_digests.py)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = (
    ("tables", "--m1", "50", "--m2", "250", "--n", "200"),
    ("profiles", "--alpha", "0.5"),
    ("profiles", "--alpha", "1.0", "--lambda2", "2.0"),
    ("convergence", "--alpha", "0.5", "--m1", "10", "--m2", "50", "--n", "40"),
    ("convergence", "--alpha", "1.0", "--m1", "10", "--m2", "50", "--n", "40"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(src: Path, args: tuple) -> list:
    """(sha256, file) for each output of one run, stdout last."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-m", "fracstefan.cli", *args, "--out", "out"],
                             cwd=tmp, env=env, capture_output=True, check=True)
        files = sorted(Path(tmp, "out").glob("*.csv")) + [Path(tmp, "out", "run.txt")]
        lines = [(_sha256(path.read_bytes()), path.name) for path in files]
    return lines + [(_sha256(out.stdout), "<stdout>")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory to run (default: src of this checkout)")
    src = parser.parse_args(argv).src.resolve()
    for args in RUNS:
        for sha, name in digests(src, args):
            print(f"{sha}  {' '.join(args)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
