"""Command-line interface: simulation, exact densities, and comparisons.

Every command emits CSV (UTF-8, LF, header row, full round-trip floats).
With --out BASE the tables go to BASE.csv (or BASE_moments.csv plus
BASE_binned.csv for compare) next to a BASE.manifest.json recording the
exact inputs; without --out the tables go to stdout and no manifest is
written.  The manifest's parameters hold every flag of the command by
name, except --out: a spin as <name>_doubled (the integer 2j), a grid as
the text it was given, every other flag as parsed.  Identical invocations
produce byte-identical files: every sum in the package has a fixed order
and nothing here looks at clocks or environment.

Exit codes: 0 success, 2 malformed flags, 1 domain errors (including
degenerate parameter sets, with no representable density, and an --out
that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .analysis import (
    critical_j,
    pike_weight,
    pike_weight_scaled,
    rescaled_density,
)
from .errors import DegenerateSpecError, DomainError
from .halfint import HalfInt, doubled_channels, walk_index

if TYPE_CHECKING:
    from .density import LimitSpec
    from .qudit import Qudit

# Each handler imports the modules it uses, so a command loads only those:
# the closed-form scans (d2, jc, hfun) run without numpy.

__all__ = ["main", "parse_angle"]


def parse_angle(text: str) -> float:
    """Radians from 'pi/2', '22pi/25', '0.3', '3/4', or '-pi'; finite only."""
    s = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"([+-]?(?:\d+(?:\.\d*)?|\.\d+)?)pi(?:/(\d+))?", s)
    if m:
        num = m.group(1)
        if num in ("", "+"):
            coeff = 1.0
        elif num == "-":
            coeff = -1.0
        else:
            coeff = float(num)
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        val = coeff * math.pi / den
    else:
        try:
            val = float(s)
        except ValueError:
            try:
                val = float(Fraction(s))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return val


def _parse_j(text: str) -> HalfInt:
    try:
        j = HalfInt.parse(text.strip())
        walk_index(j)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return j


# Largest grid point count; a density on 10^6 points takes about 200 MiB.
_MAX_GRID = 10**6


def _parse_grid(text: str):
    parts = text.strip().split(":")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:n, got {text!r}"
        ) from None
    # a finite hi - lo refuses an infinite end and a span that overflows
    if len(parts) != 3 or not (lo < hi and hi - lo < math.inf and n >= 2):
        raise argparse.ArgumentTypeError(f"grid must look like lo:hi:n, got {text!r}")
    if n > _MAX_GRID:
        raise argparse.ArgumentTypeError(f"grid has more than {_MAX_GRID} points: {text!r}")
    return lo, hi, n, text.strip()


def _parse_states(text: str) -> tuple[int, ...]:
    try:
        states = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"states must be comma-separated integers, got {text!r}"
        ) from None
    if not states or any(n < 2 for n in states):
        raise argparse.ArgumentTypeError(f"each component count must be >= 2: {text!r}")
    return states


def _nonneg_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return val


def _pos_int(text: str) -> int:
    val = _nonneg_int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return val


# Largest --rmax.  Every order shares the largest order's Gauss rule, from
# one dense Jacobi matrix of side (2j + rmax)/2 + 1.  `moments --j 1/2 --beta
# pi/2 --qudit up --rmax 1000` took 0.31 s wall (0.50-0.52 s CPU) in two warm
# runs on a 2-core box, with OpenBLAS at its default two threads.
_MAX_RMAX = 1000


def _rmax(text: str) -> int:
    val = _pos_int(text)
    if val > _MAX_RMAX:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_RMAX}: {text!r}")
    return val


def _pos_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return val


def _qudit_from_file(path: Path, j: HalfInt) -> Qudit:
    from .qudit import Qudit

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read qudit file {path}: {exc}") from None
    amps = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for tok in line.split():
            try:
                amps.append(complex(tok))
            except ValueError:
                raise DomainError(f"bad amplitude {tok!r} in {path}") from None
    return Qudit(j, amps)


def _resolve_qudit(args) -> Qudit:
    from .qudit import PRESET_NAMES, preset_qudit

    name = args.qudit
    if name in PRESET_NAMES:
        return preset_qudit(name, args.j)
    path = Path(name)
    if path.is_file():
        return _qudit_from_file(path, args.j)
    args.parser.error(f"argument --qudit: unknown preset or missing file: {name!r}")


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None


def _emit(args, tables: dict[str, str], results: dict | None = None) -> int:
    if args.out is None:
        sys.stdout.write("\n".join(tables.values()))
        return 0
    params = {}
    for name, value in vars(args).items():
        if name in ("command", "target", "func", "parser", "out"):
            continue  # routing and output, not inputs of the run
        if isinstance(value, HalfInt):
            params[f"{name}_doubled"] = value.doubled
        elif name == "grid":
            params[name] = value[3]
        else:
            params[name] = value
    outputs = []
    for suffix, text in tables.items():
        path = f"{args.out}{suffix}.csv"
        _write(path, text)
        outputs.append(path)
    manifest = {
        "artifact": f"quditwalk {__version__}",
        "command": args.command if args.command != "scan" else f"scan {args.target}",
        "parameters": params,
        "outputs": outputs,
    }
    if results:
        manifest["results"] = results
    _write(f"{args.out}.manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return 0


def _require_live(spec: LimitSpec) -> None:
    if spec.is_degenerate:
        raise DegenerateSpecError(
            f"beta = {spec.beta!r} leaves no representable limit density "
            f"for {spec.tj + 1} components"
        )


def _live_spec(args) -> LimitSpec:
    from .density import LimitSpec

    spec = LimitSpec(_resolve_qudit(args), args.beta, args.gamma)
    _require_live(spec)
    return spec


def _distribution(args, qudit: Qudit):
    from .coin import EulerAngles
    from .walk import evolve, position_distribution

    field = evolve(qudit, EulerAngles(args.alpha, args.beta, args.gamma), args.t)
    return position_distribution(field)


def _cmd_simulate(args) -> int:
    dist = _distribution(args, _resolve_qudit(args))
    rows = zip((int(x) for x in dist.x), dist.p)
    return _emit(args, {"": _csv_text(("x", "probability"), rows)})


def _cmd_density(args) -> int:
    import numpy as np

    from .density import continuous_density, delta_mass

    spec = _live_spec(args)
    lo, hi, n, _ = args.grid
    v = np.linspace(lo, hi, n)
    dens = continuous_density(spec, v)
    results = {"delta_mass": delta_mass(spec)} if spec.has_point_mass else None
    return _emit(args, {"": _csv_text(("v", "density"), zip(v, dens))}, results)


def _cmd_moments(args) -> int:
    from .density import _law_moments
    from .walk import pseudovelocity_moment

    spec = _live_spec(args)
    orders = range(1, args.rmax + 1)
    # one Gauss rule, the largest order's, for every order: no order from 1
    # on sees the point mass
    limits = _law_moments(spec, orders)
    if args.t is None:
        text = _csv_text(("r", "limit"), zip(orders, limits))
    else:
        dist = _distribution(args, spec.qudit)
        rows = []
        for r, lim in zip(orders, limits):
            sim = pseudovelocity_moment(dist, args.t, r)
            rows.append((r, lim, sim, abs(sim - lim)))
        text = _csv_text(("r", "limit", "simulated", "abs_error"), rows)
    return _emit(args, {"": text})


def _cmd_compare(args) -> int:
    import numpy as np

    from .density import _law_moments, limit_bin_masses
    from .walk import binned_density, pseudovelocity_moment

    spec = _live_spec(args)
    dist = _distribution(args, spec.qudit)
    mrows = []
    for r, lim in enumerate(_law_moments(spec, range(1, 5)), 1):
        sim = pseudovelocity_moment(dist, args.t, r)
        mrows.append((r, sim, lim, abs(sim - lim)))
    binned = binned_density(dist, args.t, args.bin_width, v_max=spec.tj * spec.a)
    masses = limit_bin_masses(spec, binned.edges)
    l1 = float(np.sum(np.abs(binned.masses - masses)))
    brows = zip(binned.centers, binned.density, masses / args.bin_width)
    tables = {
        "_moments": _csv_text(("r", "simulated", "limit", "abs_error"), mrows),
        "_binned": _csv_text(("v_center", "simulated_density", "limit_density"), brows),
    }
    return _emit(args, tables, {"l1_distance": l1})


def _curvature_csv(report) -> str:
    rows = [(jv.doubled, str(jv), d2) for jv, d2 in report.rows]
    return _csv_text(("j_doubled", "j", "d2_at_origin"), rows)


def _cmd_scan_d2(args) -> int:
    return _emit(args, {"": _curvature_csv(critical_j(args.beta, args.jmax))})


def _cmd_scan_jc(args) -> int:
    report = critical_j(args.beta, args.jmax)
    text = _curvature_csv(report)
    jc = None if report.j_critical is None else str(report.j_critical)
    if args.out is None:
        sys.stdout.write(text)
        sys.stdout.write(f"# j_critical = {jc}\n")
        return 0
    return _emit(args, {"": text}, {"j_critical": jc})


def _cmd_scan_hfun(args) -> int:
    rows = [
        (tm, str(HalfInt(tm)), pike_weight(args.j, args.beta, HalfInt(tm)))
        for tm in doubled_channels(args.j.doubled)
    ]
    return _emit(args, {"": _csv_text(("m_doubled", "m", "weight_at_pike"), rows)})


def _cmd_scan_hscaled(args) -> int:
    xs, ys = pike_weight_scaled(args.j, args.beta)
    return _emit(args, {"": _csv_text(("m_over_sigma", "sigma_h"), zip(xs, ys))})


def _cmd_scan_rescaled(args) -> int:
    import numpy as np

    from .density import LimitSpec
    from .qudit import preset_qudit

    lo, hi, n, _ = args.grid
    u = np.linspace(lo, hi, n)
    columns = []
    for states in args.states:
        spec = LimitSpec(preset_qudit("paper-sym", HalfInt(states - 1)), args.beta)
        _require_live(spec)
        columns.append(rescaled_density(spec, u))
    header = ("u",) + tuple(f"density_{nst}" for nst in args.states)
    return _emit(args, {"": _csv_text(header, zip(u, *columns))})


# (target, handler, spin flag, its help, command help); rescaled has no spin
_SCANS = (
    ("d2", _cmd_scan_d2, "--jmax", "largest spin to include",
     "curvature of the density at the origin versus j"),
    ("jc", _cmd_scan_jc, "--jmax", None, "like d2, plus the critical j where the sign settles"),
    ("hfun", _cmd_scan_hfun, "--j", None, "channel weight at each pike"),
    ("hscaled", _cmd_scan_hscaled, "--j", None, "pike weights on the sqrt(2) j scale"),
    ("rescaled", _cmd_scan_rescaled, None, None, "rescaled limit densities on (-1, 1)"),
)


def _beta_arg(p) -> None:
    p.add_argument(
        "--beta",
        required=True,
        type=parse_angle,
        help="polar coin angle in radians; accepts pi fractions like pi/2 or 22pi/25",
    )


class _Parser(argparse.ArgumentParser):
    # a '-' then a digit, '.digit' or 'pi' starts a value, not an option:
    # every negative angle (-3/4, -.5, -1e-3, -pi/2) and grid (-1:1:401)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|pi)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditwalk",
        description="Multi-component quantum walks and their exact pseudovelocity limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, alpha=False, t=None):
        p.add_argument("--j", required=True, type=_parse_j, help="spin, like 1/2, 11/2, or 3")
        _beta_arg(p)
        if alpha:
            p.add_argument("--alpha", type=parse_angle, default=0.0, help="first Euler angle (simulation only)")
        p.add_argument("--gamma", type=parse_angle, default=0.0, help="third Euler angle")
        p.add_argument(
            "--qudit",
            required=True,
            help="initial state: preset (up, paper-sym, fig1b) or a file of amplitudes",
        )
        if t == "required":
            p.add_argument("--t", required=True, type=_pos_int, help="number of steps")
        elif t == "simulate":
            p.add_argument("--t", required=True, type=_nonneg_int, help="number of steps")
        elif t == "optional":
            p.add_argument("--t", type=_pos_int, default=None, help="also simulate this many steps")
        p.add_argument("--out", default=None, help="output base path; omit to print to stdout")

    p = sub.add_parser("simulate", help="run the walk and dump the position distribution")
    common(p, alpha=True, t="simulate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("density", help="evaluate the exact limit density on a grid")
    common(p)
    p.add_argument("--grid", required=True, type=_parse_grid, help="evaluation grid lo:hi:n")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("moments", help="limit moments, optionally against a finite-t run")
    common(p, alpha=True, t="optional")
    p.add_argument("--rmax", type=_rmax, default=4, help="highest moment order (default 4, at most 1000)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("compare", help="simulate, bin, and compare against the exact law")
    common(p, alpha=True, t="required")
    p.add_argument("--bin-width", type=_pos_float, default=0.05, help="pseudovelocity bin width")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("scan", help="parameter scans over j or m")
    scan_sub = p.add_subparsers(dest="target", required=True)
    for target, func, spin, spin_help, text in _SCANS:
        q = scan_sub.add_parser(target, help=text)
        _beta_arg(q)
        if spin is None:
            q.add_argument("--states", required=True, type=_parse_states, help="component counts, like 10,20,50")
            q.add_argument("--grid", type=_parse_grid, default=_parse_grid("-0.95:0.95:191"))
        else:
            q.add_argument(spin, required=True, type=_parse_j, help=spin_help)
        q.add_argument("--out", default=None)
        q.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.parser = parser
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except DegenerateSpecError as exc:
        print(f"error: degenerate spec: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
