"""Byte audit of the command line: run a fixed set of commands, each with
``--out`` at its own base under one output directory.

    python tests/cli_audit.py OUTDIR

runs ``python -m quditwalk`` from the ``src`` of the checkout that holds
this file, with OUTDIR as the working directory, so every ``--out`` base
and the seeded qudit file have the same relative path in every run.  Each
command also leaves ``<name>.log`` with its exit code, stdout and stderr.
Run it from two checkouts and compare the trees with ``diff -r``: a change
that keeps the CLI's bytes leaves no difference.

The commands are the README's nine, as ``perfbench/workloads.py`` holds
them in ``README_COMMANDS``; ``density``, ``moments``,
``moments --t 30`` and ``compare --t 80 --bin-width 0.1`` on a dense
5-component qudit file (``numpy.random.default_rng(17)``, normal real and
imaginary parts) at beta = 22pi/25, gamma = 0.4; the moments of
``paper-sym`` at 50 components and beta = 0.002; and the spin-1/2
``compare`` at beta = 0.01.  pytest does not collect this file.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from workloads import README_COMMANDS  # noqa: E402

QUDIT_FILE = "dense5.qudit"
DENSE = ["--j", "2", "--beta", "22pi/25", "--gamma", "0.4", "--qudit", QUDIT_FILE]

COMMANDS = {
    **{f"readme_{name}": line for name, line, _ in README_COMMANDS},
    "dense5_density": ["density", *DENSE, "--grid", "-4:4:201"],
    "dense5_moments": ["moments", *DENSE],
    "dense5_moments_t30": ["moments", *DENSE, "--t", "30"],
    "dense5_compare": ["compare", *DENSE, "--t", "80", "--bin-width", "0.1"],
    "paper_sym_50_moments": "moments --j 49/2 --beta 0.002 --qudit paper-sym --rmax 8",
    "spin_half_compare": "compare --j 1/2 --beta 0.01 --qudit paper-sym --t 300 --bin-width 0.01",
}


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_audit.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    (out / QUDIT_FILE).write_text("".join(f"{complex(c)!r}\n" for c in amps), encoding="utf-8")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    failed = 0
    for name, args in COMMANDS.items():
        args = args.split() if isinstance(args, str) else args
        proc = subprocess.run(
            [sys.executable, "-m", "quditwalk", *args, "--out", name],
            cwd=out,
            env=env,
            capture_output=True,
            text=True,
        )
        log = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (out / f"{name}.log").write_text(log, encoding="utf-8")
        failed += proc.returncode != 0
        print(f"{name}: exit {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
