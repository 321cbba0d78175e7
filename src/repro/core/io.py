"""Serialization of tuning results.

Experiments that take minutes to run should be inspectable later
without re-running; results round-trip through JSON, including the full
best-so-far trace the iso-comparisons are built from.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.result import TracePoint, TuningResult
from repro.errors import DatasetError
from repro.space.setting import Setting
from repro.utils.journal import rewrite


def result_to_dict(result: TuningResult) -> dict[str, object]:
    """JSON-safe dictionary form of a tuning result."""
    return {
        "stencil": result.stencil,
        "device": result.device,
        "tuner": result.tuner,
        "best_setting": (
            result.best_setting.to_dict() if result.best_setting else None
        ),
        "best_time_s": result.best_time_s,
        "evaluations": result.evaluations,
        "iterations": result.iterations,
        "cost_s": result.cost_s,
        "trace": [
            {
                "evaluations": p.evaluations,
                "iteration": p.iteration,
                "cost_s": p.cost_s,
                "best_time_s": p.best_time_s,
            }
            for p in result.trace
        ],
        "phase_seconds": dict(result.phase_seconds),
        "meta": {k: v for k, v in result.meta.items() if _json_safe(v)},
    }


def _json_safe(value: object) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


def result_from_dict(payload: dict[str, object]) -> TuningResult:
    """Inverse of :func:`result_to_dict`."""
    try:
        best = payload["best_setting"]
        return TuningResult(
            stencil=str(payload["stencil"]),
            device=str(payload["device"]),
            tuner=str(payload["tuner"]),
            best_setting=(
                Setting({k: int(v) for k, v in best.items()})
                if best is not None
                else None
            ),
            best_time_s=float(payload["best_time_s"]),
            evaluations=int(payload["evaluations"]),
            iterations=int(payload["iterations"]),
            cost_s=float(payload["cost_s"]),
            trace=[
                TracePoint(
                    evaluations=int(p["evaluations"]),
                    iteration=int(p["iteration"]),
                    cost_s=float(p["cost_s"]),
                    best_time_s=float(p["best_time_s"]),
                )
                for p in payload["trace"]
            ],
            phase_seconds={
                k: float(v) for k, v in payload.get("phase_seconds", {}).items()
            },
            meta=dict(payload.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(f"malformed tuning-result payload: {exc}") from exc


def save_result(result: TuningResult, path: str | Path) -> None:
    rewrite(path, json.dumps(result_to_dict(result), indent=1, sort_keys=True))


def load_result(path: str | Path) -> TuningResult:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed tuning-result JSON: {exc}") from exc
    return result_from_dict(payload)
