"""The package namespace resolves its names on first use, and the CLI's
closed-form commands run without importing numpy."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import quditwalk


def _run(script: str, cwd) -> str:
    src = str(Path(quditwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_closed_form_commands_never_import_numpy(tmp_path):
    # a fresh interpreter: this test process has numpy loaded already
    out = _run(
        """
        import sys
        import quditwalk
        print("import", "numpy" in sys.modules)
        from quditwalk.cli import main
        for argv in (
            ["scan", "d2", "--beta", "pi/2", "--jmax", "25", "--out", "d2"],
            ["scan", "jc", "--beta", "pi/2", "--jmax", "49/2", "--out", "jc"],
            ["scan", "hfun", "--beta", "pi/2", "--j", "49/2", "--out", "hfun"],
        ):
            code = main(argv)
            print(argv[1], code, "numpy" in sys.modules)
        """,
        tmp_path,
    )
    assert out.splitlines() == ["import False", "d2 0 False", "jc 0 False", "hfun 0 False"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}{suffix}" for name in ("d2", "jc", "hfun") for suffix in (".csv", ".manifest.json")
    )


def test_every_public_name_resolves_to_its_home_module():
    for name in quditwalk.__all__:
        home = importlib.import_module(f"quditwalk.{quditwalk._HOMES[name]}")
        value = getattr(quditwalk, name)
        assert value is getattr(home, name), name
        # the home is where the name is defined, not a module importing it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(quditwalk.__all__) <= set(dir(quditwalk))
    assert quditwalk.__version__ == "0.1.0"


def test_star_import_and_submodule_import(tmp_path):
    out = _run(
        """
        import sys
        from quditwalk import *
        import quditwalk
        missing = [n for n in quditwalk.__all__ if globals().get(n) is not getattr(quditwalk, n)]
        print("star", missing)
        from quditwalk import walk
        print("walk", walk is sys.modules["quditwalk.walk"], walk.evolve is evolve)
        try:
            quditwalk.no_such_name
        except AttributeError:
            print("unknown raises")
        """,
        tmp_path,
    )
    assert out.splitlines() == ["star []", "walk True True", "unknown raises"]
