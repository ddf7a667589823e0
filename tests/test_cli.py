import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from argparse import ArgumentTypeError

from quditwalk import konno_density
from quditwalk.cli import main, parse_angle


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",") if _is_number(tok)] for ln in lines[1:]]
    return header, rows


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------- parsing

def test_angle_syntax():
    table = {
        "pi/2": math.pi / 2,
        "22pi/25": 22 * math.pi / 25,
        "-pi": -math.pi,
        "2pi": 2 * math.pi,
        "1.5pi/3": math.pi / 2,
        "0.3": 0.3,
        "3/4": 0.75,
    }
    for text, value in table.items():
        assert parse_angle(text) == pytest.approx(value, abs=1e-15), text
    for bad in ("pi/0", "grue", "nan", "inf", "1" * 400 + "/3"):
        with pytest.raises(ArgumentTypeError):
            parse_angle(bad)


# ------------------------------------------------------------- happy paths

def test_simulate_prints_the_distribution():
    code, out, _ = run_cli(
        ["simulate", "--j", "1/2", "--beta", "pi/2", "--qudit", "up", "--t", "1"]
    )
    header, rows = parse_csv(out)
    assert code == 0 and header == ["x", "probability"]
    assert [r[0] for r in rows] == [-1.0, 1.0]
    assert rows[0][1] == pytest.approx(0.5, abs=1e-15)

    code, out, _ = run_cli(
        ["simulate", "--j", "1/2", "--beta", "pi/2", "--qudit", "up", "--t", "0"]
    )
    _, rows = parse_csv(out)
    assert code == 0 and rows == [[0.0, 1.0]]

    # a negative pi angle is a value, not an option name
    code, out, _ = run_cli(
        ["simulate", "--j", "1/2", "--beta", "pi/2", "--alpha", "-pi", "--qudit", "up",
         "--t", "1"]
    )
    _, rows = parse_csv(out)
    assert code == 0 and [r[0] for r in rows] == [-1.0, 1.0]

    # so is every other negative angle parse_angle accepts; at 2j+1 = 3 and
    # t = 3 alpha changes the distribution, so the value must arrive intact
    run = ["simulate", "--j", "1", "--beta", "pi/2", "--qudit", "paper-sym", "--t", "3"]
    for alpha in ("-pi", "-3/4", "-.5", "-1e-3"):
        code, out, err = run_cli(run + ["--alpha", alpha])
        assert code == 0, (alpha, err)
        assert (0, out, "") == run_cli(run + [f"--alpha={alpha}"]), alpha


def test_density_grid_reduces_to_the_base_law():
    # negative grid endpoints must survive argparse's option detection
    code, out, _ = run_cli(
        ["density", "--j", "1/2", "--beta", "pi/2", "--qudit", "paper-sym",
         "--grid", "-1:1:401"]
    )
    header, rows = parse_csv(out)
    assert code == 0 and header == ["v", "density"] and len(rows) == 401
    v = np.array([r[0] for r in rows])
    dens = np.array([r[1] for r in rows])
    assert float(np.abs(dens - konno_density(v, 1.0 / math.sqrt(2.0))).max()) < 1e-12


def test_moments_with_and_without_a_run():
    code, out, _ = run_cli(["moments", "--j", "1", "--beta", "pi/2", "--qudit", "paper-sym"])
    header, rows = parse_csv(out)
    assert code == 0 and header == ["r", "limit"] and len(rows) == 4
    assert abs(rows[0][1]) < 1e-12  # odd moments vanish by symmetry

    code, out, _ = run_cli(
        ["moments", "--j", "1", "--beta", "pi/2", "--qudit", "paper-sym",
         "--t", "30", "--rmax", "2"]
    )
    header, rows = parse_csv(out)
    assert code == 0 and header == ["r", "limit", "simulated", "abs_error"]
    assert len(rows) == 2 and rows[1][3] < 0.05


def test_compare_writes_tables_and_manifest(tmp_path):
    base = str(tmp_path / "cmp")
    code, out, _ = run_cli(
        ["compare", "--j", "1", "--beta", "pi/2", "--qudit", "paper-sym",
         "--t", "20", "--out", base]
    )
    assert code == 0 and out == ""
    header, mrows = parse_csv((tmp_path / "cmp_moments.csv").read_text())
    assert header == ["r", "simulated", "limit", "abs_error"] and len(mrows) == 4
    header, _ = parse_csv((tmp_path / "cmp_binned.csv").read_text())
    assert header == ["v_center", "simulated_density", "limit_density"]
    manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["artifact"].startswith("quditwalk")
    assert manifest["parameters"]["t"] == 20
    assert "l1_distance" in manifest["results"]


PI_2 = 1.5707963267948966
README_PARAMETERS = {
    "simulate": {"j_doubled": 3, "beta": PI_2, "alpha": 0.0, "gamma": 0.0,
                 "qudit": "paper-sym", "t": 200},
    "density": {"j_doubled": 1, "beta": PI_2, "gamma": 0.0, "qudit": "paper-sym",
                "grid": "-1:1:401"},
    "moments": {"j_doubled": 2, "beta": PI_2, "alpha": 0.0, "gamma": 0.0,
                "qudit": "paper-sym", "t": 100, "rmax": 4},
    "compare": {"j_doubled": 3, "beta": PI_2, "alpha": 0.0, "gamma": 0.0,
                "qudit": "paper-sym", "t": 100, "bin_width": 0.05},
    "scan d2": {"beta": PI_2, "jmax_doubled": 50},
    "scan jc": {"beta": PI_2, "jmax_doubled": 49},
    "scan hfun": {"beta": PI_2, "j_doubled": 49},
    "scan hscaled": {"beta": PI_2, "j_doubled": 129},
    "scan rescaled": {"beta": PI_2, "grid": "-0.95:0.95:191", "states": [10, 20, 50]},
}


def _readme_commands():
    """The argv of each command in the README's command-line block, without
    its --out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = line.split()[1:]
        if "--out" in argv:
            k = argv.index("--out")
            del argv[k:k + 2]
        commands.append(argv)
    return commands


def _manifest_of(argv, base):
    code, out, _ = run_cli([*argv, "--out", str(base)])
    assert code == 0 and out == "", argv
    return json.loads(Path(f"{base}.manifest.json").read_text(encoding="utf-8"))


def test_manifest_records_every_flag(tmp_path):
    commands = _readme_commands()
    assert len(commands) == len(README_PARAMETERS)
    for k, argv in enumerate(commands):
        manifest = _manifest_of(argv, tmp_path / f"run{k}")
        name = " ".join(argv[:2]) if argv[0] == "scan" else argv[0]
        assert manifest["command"] == name
        assert manifest["parameters"] == README_PARAMETERS[name], name

    manifest = _manifest_of(
        ["moments", "--j", "1", "--beta", "pi/2", "--qudit", "paper-sym"], tmp_path / "nt"
    )
    assert manifest["parameters"] == {"j_doubled": 2, "beta": PI_2, "alpha": 0.0,
                                      "gamma": 0.0, "qudit": "paper-sym", "t": None,
                                      "rmax": 4}

    path = tmp_path / "state.txt"
    path.write_text("0.6\n0\n0.8j\n")
    manifest = _manifest_of(
        ["density", "--j", "1", "--beta", "22pi/25", "--gamma", "0.4", "--qudit", str(path),
         "--grid", "-0.8:0.8:5"],
        tmp_path / "file",
    )
    assert manifest["command"] == "density"
    assert manifest["parameters"] == {"j_doubled": 2, "beta": 2.764601535159018,
                                      "gamma": 0.4, "qudit": str(path),
                                      "grid": "-0.8:0.8:5"}


def test_qudit_amplitudes_from_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("# two components, already normalized\n0.6 0.8j\n")
    code, out, _ = run_cli(
        ["simulate", "--j", "1/2", "--beta", "pi/2", "--qudit", str(path), "--t", "0"]
    )
    _, rows = parse_csv(out)
    assert code == 0 and rows == [[0.0, 1.0]]

    path.write_text("0.6 grue\n")
    code, _, err = run_cli(
        ["simulate", "--j", "1/2", "--beta", "pi/2", "--qudit", str(path), "--t", "0"]
    )
    assert code == 1 and "bad amplitude" in err


# ------------------------------------------------------------------- scans

def test_scan_d2_rows_and_signs():
    code, out, _ = run_cli(["scan", "d2", "--beta", "pi/2", "--jmax", "25"])
    header, rows = parse_csv(out)
    assert code == 0 and header == ["j_doubled", "j", "d2_at_origin"] and len(rows) == 50
    byd = {int(r[0]): r[-1] for r in rows}
    assert byd[5] > 0 and byd[7] < 0


def test_scan_jc_prints_the_critical_j():
    code, out, _ = run_cli(["scan", "jc", "--beta", "pi/2", "--jmax", "49/2"])
    assert code == 0
    assert out.splitlines()[-1] == "# j_critical = 9/2"


def test_scan_hfun_innermost_weight():
    code, out, _ = run_cli(["scan", "hfun", "--beta", "pi/2", "--j", "49/2"])
    header, rows = parse_csv(out)
    assert code == 0 and header == ["m_doubled", "m", "weight_at_pike"] and len(rows) == 25
    assert rows[0][-1] == pytest.approx(1.3384243566896497e-08, rel=1e-9)


def test_scan_hscaled_half_spin():
    code, out, _ = run_cli(["scan", "hscaled", "--beta", "pi/2", "--j", "1/2"])
    header, rows = parse_csv(out)
    assert code == 0 and header == ["m_over_sigma", "sigma_h"] and len(rows) == 1
    assert rows[0] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-12)
    # at 1100 components C(2j, j+m) alone is past the float range
    code, out, err = run_cli(["scan", "hscaled", "--beta", "pi/2", "--j", "1099/2"])
    _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 550, err


def test_scan_rescaled_default_grid():
    code, out, _ = run_cli(["scan", "rescaled", "--beta", "pi/2", "--states", "10,20,50"])
    header, rows = parse_csv(out)
    assert code == 0 and len(rows) == 191
    assert header == ["u", "density_10", "density_20", "density_50"]


# ------------------------------------------------------------------ errors

def test_degenerate_spec_is_a_runtime_error():
    code, _, err = run_cli(
        ["density", "--j", "1/2", "--beta", "0", "--qudit", "up", "--grid", "-1:1:11"]
    )
    assert code == 1 and "degenerate spec" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--j", "1", "--beta", "pi/0", "--qudit", "up", "--grid", "-1:1:5"],
        ["simulate", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--t", "-3"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "nope", "--grid", "-1:1:5"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid", "1:0:5"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid=0:inf:3"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid=-inf:0:3"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid=-1e308:1e308:3"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid=-1:1:1000001"],
        ["density", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--grid=-1:1:1000000000000000"],
        ["scan", "rescaled", "--beta", "pi/2", "--states", "1,4"],
        ["moments", "--j", "1", "--beta", "pi/2", "--qudit", "up", "--rmax", "1001"],
        ["frobnicate"],
        ["scan", "hfun", "--beta", "nan", "--j", "1/2"],
        ["scan", "hscaled", "--beta", "inf", "--j", "1/2"],
    ],
)
def test_usage_errors_exit_with_two(argv):
    code, _, _ = run_cli(argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # 4097 components: the J_y generator is over the dense-matrix budget
        ["density", "--j", "2048", "--beta", "pi/2", "--qudit", "up", "--grid", "-1:1:3"],
        ["scan", "rescaled", "--beta", "pi/2", "--states", "10,4097"],
    ],
)
def test_spins_over_the_dense_budget_are_runtime_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and out == "" and "budget" in err


def test_closed_form_scans_run_past_the_dense_budget():
    code, out, _ = run_cli(["scan", "hfun", "--beta", "pi/2", "--j", "4097/2"])
    assert code == 0 and len(parse_csv(out)[1]) == 2049


def test_unwritable_out_is_a_runtime_error(tmp_path):
    code, _, err = run_cli(
        ["density", "--j", "1/2", "--beta", "pi/2", "--qudit", "up", "--grid", "-1:1:5",
         "--out", str(tmp_path / "missing" / "x")]
    )
    assert code == 1 and "cannot write" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quditwalk", "simulate", "--j", "1/2", "--beta", "pi/2",
         "--qudit", "up", "--t", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x,probability"
