"""Shared benchmark-artifact writer.

Every ``bench_*.py`` records its machine-readable result as
``BENCH_<name>.json`` at the repository root: the one copy readers
commit and the regression gate (``check_regression.py``) compares
against ``benchmarks/baselines/``. The pytest-benchmark text reports
stay in ``benchmarks/results/``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Repository root (benchmarks/ lives directly below it).
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_result(name: str, payload: dict) -> Path:
    """Serialize ``payload`` to ``BENCH_<name>.json``; return its path."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
