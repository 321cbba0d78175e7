"""A command that fits no model never imports SciPy.

Only the PMNF fit uses SciPy (``scipy.optimize.leastsq``), and it
imports it at the fit. ``import repro.cli`` and a golden-served
``repro tune --db`` must therefore leave ``scipy`` out of
``sys.modules``: each runs in a fresh interpreter, as a user's command
does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHECK = """
import sys
sys.path.insert(0, {src!r})
import repro.cli
assert "scipy" not in sys.modules, "import repro.cli loaded scipy"
argv = {argv!r}
if argv:
    assert repro.cli.main(argv) == 0
    assert "scipy" not in sys.modules, "the command loaded scipy"
print("ok")
"""


def _run(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CHECK.format(src=str(SRC), argv=argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_cli_leaves_scipy_out():
    assert _run([]).strip() == "ok"


def test_golden_served_tune_leaves_scipy_out(db):
    out = _run(["tune", "j3d7pt", "--db", str(db.root)])
    assert "golden record" in out and out.strip().endswith("ok")


def test_the_guard_sees_a_scipy_import():
    """The check fails when the command does load SciPy."""
    proc = subprocess.run(
        [sys.executable, "-c",
         CHECK.format(src=str(SRC), argv=[]).replace(
             "import repro.cli\n", "import repro.cli\nimport scipy.optimize\n", 1
         )],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "loaded scipy" in proc.stderr
