"""SHA-256 of every output of a fixed set of CLI runs, for output-identity checks.

Each run is `python3 -m fracstefan.cli ...` with PYTHONPATH set to the source
directory, in a temporary directory of its own, which also holds the config
file run.cfg (CONFIG) for the runs that name it.  One line is printed per
output file the run writes (*.csv and run.txt) and one per run for each of
its standard output and standard error, which carries the logged warnings
(such as the stepper's dominance counts):

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
    ("tables", "--m1", "20", "--m2", "100", "--n", "80", "--config", "run.cfg"),
    ("numeric", "--alpha", "0.25", "--m1", "20", "--m2", "100", "--n", "80"),
    ("numeric", "--alpha", "1.0", "--m1", "20", "--m2", "100", "--n", "80"),
    ("numeric", "--alpha", "0.5", "--m1", "20", "--m2", "100", "--n", "1600"),
    ("profiles", "--alpha", "0.25", "--m1", "20", "--m2", "100", "--n", "80"),
    # two sample times inside (0, tau_n], tau_n about 2.9
    ("profiles", "--alpha", "0.75", "--lambda2", "2.0", "--m1", "20", "--m2", "100", "--n", "80",
     "--profile-times", "0.5,2"),
    ("exact", "--alpha", "0.75"),
    ("numeric", "--alpha", "0.75", "--m1", "20", "--m2", "100", "--n", "4", "--p-max", "10"),
    # both phases span three of the stepper's blocks of levels (330 each at m = 100)
    ("numeric", "--alpha", "0.5", "--m1", "100", "--m2", "100", "--n", "800"),
    # a solid truncated at L = 3, whose width L - s**(alpha/2) nears L - 1
    ("numeric", "--alpha", "0.5", "--m1", "20", "--m2", "100", "--n", "80", "--ratio", "3"),
    # a solid of 599 unknowns, whose scan runs ten offsets, up to 512
    ("numeric", "--alpha", "0.5", "--m1", "20", "--m2", "600", "--n", "40"),
    # a liquid larger than the solid: the pair's scan offsets stop below the liquid's unknowns
    ("numeric", "--alpha", "0.5", "--m1", "300", "--m2", "40", "--n", "120"),
    # the alpha = 1 closed forms at large arguments: a root at small diffusivities,
    # and a solid far field with erfc arguments up to about 16
    ("exact", "--alpha", "1.0", "--kappa1", "0.1", "--kappa2", "0.1"),
    ("profiles", "--alpha", "1.0", "--kappa2", "0.1", "--m1", "20", "--m2", "100", "--n", "80"),
    # one phase: the solid is all zeros, so a signed zero from its start would print -0
    ("profiles", "--alpha", "0.5", "--theta-inf", "0", "--m1", "20", "--m2", "100", "--n", "80"),
)

#: Two extra table rows that share phase grids with the built-in ones: the
#: first shares kappa1 with rows 0 and 1 but has a new kappa2, the second
#: shares both kappas with row 0 and differs in lambda1.
CONFIG = "extra_rows = 1,1,1,2 ; 2,1,1,1\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(src: Path, args: tuple) -> list:
    """(sha256, file) for each output of one run, stdout and stderr last."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "run.cfg").write_text(CONFIG, encoding="utf-8")
        out = subprocess.run([sys.executable, "-m", "fracstefan.cli", *args, "--out", "out"],
                             cwd=tmp, env=env, capture_output=True, check=True)
        out_dir = Path(tmp, "out")
        files = sorted(out_dir.glob("*.csv")) + sorted(out_dir.glob("run.txt"))
        lines = [(_sha256(path.read_bytes()), path.name) for path in files]
    return lines + [(_sha256(out.stdout), "<stdout>"), (_sha256(out.stderr), "<stderr>")]


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
