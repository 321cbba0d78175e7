"""Every example script must run end-to-end (scaled by its own defaults).

Examples are part of the public contract; these tests execute them as
subprocesses, exactly as a user would, with tight timeouts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, *args: str, timeout: int = 480) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "best setting" in out
        assert "__global__" in out  # the generated kernel is shown

    def test_custom_stencil(self):
        out = run_example("custom_stencil.py")
        assert "reference sweep OK" in out
        assert "wave3d" in out

    def test_motivation_study(self):
        out = run_example("motivation_study.py", "j3d7pt", "400")
        assert "Fig 2" in out and "Fig 4" in out

    def test_cross_device(self):
        out = run_example("cross_device.py", "j3d7pt")
        assert "V100-retuned" in out

    def test_temporal_blocking(self):
        out = run_example("temporal_blocking.py", "j3d7pt")
        assert "temporal blocking factor" in out
