"""Byte audit of the command line: run a fixed set of commands, each with
``--out`` at its own base under one output directory.

    python tests/cli_audit.py OUTDIR

runs ``python -m quditwalk`` from the ``src`` of the checkout that holds
this file, with OUTDIR as the working directory, so every ``--out`` base
and the seeded qudit file have the same relative path in every run.  Each
command also leaves ``<name>.log`` with its exit code, stdout and stderr.
Run it from two checkouts and compare the trees with ``diff -r``: a change
that keeps the CLI's bytes leaves no difference.

    python tests/cli_audit.py OUTDIR --against OTHER

then names what moved against OTHER, the OUTDIR of an earlier run: for each
CSV column that differs, the rows that moved, the largest absolute
difference and that difference over the column's largest magnitude; and
each manifest ``results`` key whose value changed.

The commands are the README's nine, as ``perfbench/workloads.py`` holds
them in ``README_COMMANDS``; ``density``, ``moments``,
``moments --t 30`` and ``compare --t 80 --bin-width 0.1`` on a dense
5-component qudit file (``numpy.random.default_rng(17)``, normal real and
imaginary parts) at beta = 22pi/25, gamma = 0.4; the moments of
``paper-sym`` at 50 components and beta = 0.002; and the spin-1/2
``compare`` at beta = 0.01.  pytest does not collect this file.
"""

import argparse
import csv
import json
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


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _moved_columns(name: str, mine: str, theirs: str) -> list[str]:
    """One line per column of CSV ``name`` whose cells differ."""
    new, old = list(csv.reader(mine.splitlines())), list(csv.reader(theirs.splitlines()))
    if not new or not old or new[0] != old[0] or len(new) != len(old):
        return [f"{name}: header or row count changed ({len(old)} -> {len(new)} lines)"]
    lines = []
    for col, head in enumerate(new[0]):
        pairs = [(a[col], b[col]) for a, b in zip(new[1:], old[1:])]
        moved = [(a, b) for a, b in pairs if a != b]
        if not moved:
            continue
        nums = [(_number(a), _number(b)) for a, b in moved]
        line = f"{name} {head}: {len(moved)} of {len(pairs)} rows moved"
        if all(a is not None and b is not None for a, b in nums):
            gap = max(abs(a - b) for a, b in nums)
            scale = max(abs(v) for a, b in pairs for v in (_number(a), _number(b)) if v is not None)
            line += f", max |diff| {gap:.3g}" + (f", {gap / scale:.3g} of max |value|" if scale else "")
        lines.append(line)
    return lines


def _moved_results(name: str, mine: str, theirs: str) -> list[str]:
    """One line per manifest ``results`` key whose value changed."""
    new = json.loads(mine).get("results", {})
    old = json.loads(theirs).get("results", {})
    return [
        f"{name} results.{key}: {old.get(key)!r} -> {new.get(key)!r}"
        for key in sorted(set(new) | set(old))
        if new.get(key) != old.get(key)
    ]


def audit_against(out: Path, other: Path) -> list[str]:
    """What moved in the CSVs and manifests of ``out`` against ``other``."""
    lines = []
    names = {p.name for tree in (out, other) for p in tree.iterdir() if p.suffix in (".csv", ".json")}
    for name in sorted(names):
        mine, theirs = out / name, other / name
        if not (mine.exists() and theirs.exists()):
            lines.append(f"{name}: only in {out if mine.exists() else other}")
            continue
        a, b = mine.read_text(encoding="utf-8"), theirs.read_text(encoding="utf-8")
        if a != b:
            lines += (_moved_columns if mine.suffix == ".csv" else _moved_results)(name, a, b)
    return lines


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python tests/cli_audit.py")
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", type=Path, help="an earlier OUTDIR to name the moved cells against")
    args = parser.parse_args(argv)
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    (out / QUDIT_FILE).write_text("".join(f"{complex(c)!r}\n" for c in amps), encoding="utf-8")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    failed = 0
    for name, cmd in COMMANDS.items():
        cmd = cmd.split() if isinstance(cmd, str) else cmd
        proc = subprocess.run(
            [sys.executable, "-m", "quditwalk", *cmd, "--out", name],
            cwd=out,
            env=env,
            capture_output=True,
            text=True,
        )
        log = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (out / f"{name}.log").write_text(log, encoding="utf-8")
        failed += proc.returncode != 0
        print(f"{name}: exit {proc.returncode}")
    if args.against is not None:
        moved = audit_against(out, args.against)
        print(f"--- against {args.against}: {len(moved) or 'nothing'} moved")
        for line in moved:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
