#!/usr/bin/env python
"""Benchmark regression gate: fresh results vs committed baselines.

Compares every ``BENCH_<name>.json`` in a fresh results directory (the
repository root by default, where the benchmarks write them) against
its committed baseline (``benchmarks/baselines/`` by default)
and fails when a metric regressed beyond the tolerance band:

* leaves whose key ends in ``_s`` are wall-clock **seconds** (lower is
  better): fail when ``fresh > baseline * (1 + tolerance)``;
* leaves named ``speedup`` / ending in ``_speedup`` or named
  ``*_per_sec`` are **rates** (higher is better): fail when
  ``fresh < baseline / (1 + tolerance)``;
* the boolean ``identical`` leaf is a hard gate: a baseline ``true``
  that turns ``false`` fails regardless of tolerance.

Seconds below ``--min-seconds`` (default 5 ms) are skipped — at that
scale timer jitter dominates and a "regression" is noise. Scale
parameters (``n_settings``, ``reps``, ``fast_mode``, …) must match
between fresh and baseline, otherwise the comparison itself is invalid
and the gate fails with a regenerate-the-baseline hint.

Exit codes: 0 all gates pass, 1 regression (or scale mismatch), 2 bad
invocation / missing files.

CI runs this after ``make bench-fast`` with the default 20 % band::

    python benchmarks/check_regression.py

Regenerate baselines after an intentional performance change::

    make bench-baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
DEFAULT_FRESH_DIR = REPO_ROOT

#: Default tolerance band: >20 % slowdown fails.
DEFAULT_TOLERANCE = 0.20

#: Seconds leaves smaller than this are jitter, not signal.
DEFAULT_MIN_SECONDS = 0.005

#: Leaves that describe the benchmark's scale rather than its outcome.
#: A fresh/baseline mismatch on any of these is a configuration error.
SCALE_KEYS = {
    "n_settings", "reps", "fast_mode", "iterations", "budget_iterations",
    "dataset_size", "samples", "budget_s", "repetitions", "workers",
    "strict_every", "trees", "rows", "noise", "capacity",
    "generation_size", "random_settings",
}

#: Leaves that are environment-dependent or informational — never gated
#: numerically. ``speedup_gate_applied`` is *not* merely informational:
#: it is handled by the waiver scan below, which reports a waived gate
#: as "not a pass" instead of silently green.
IGNORE_KEYS = {
    "cpu_count", "min_speedup", "min_warm_hit_rate", "speedup_gate_applied",
    "speedup_gate_skip_reason", "efficiency_floor",
    "max_overhead_fraction", "stencil", "stencils", "device", "tuner",
}


def _leaves(obj: object, prefix: str = "") -> dict[str, object]:
    """Flatten a JSON document into ``{"a/b[0]/c": leaf}``."""
    out: dict[str, object] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_leaves(v, f"{prefix}/{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_leaves(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = obj
    return out


def _key_name(path: str) -> str:
    """Last key segment of a flattened path (index suffixes stripped)."""
    name = path.rsplit("/", 1)[-1]
    return name.split("[", 1)[0]


def compare_documents(
    name: str,
    baseline: object,
    fresh: object,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[str]:
    """All regression messages for one benchmark pair (empty = pass)."""
    problems: list[str] = []
    base_leaves = _leaves(baseline)
    fresh_leaves = _leaves(fresh)

    for path, base_val in base_leaves.items():
        key = _key_name(path)
        if key in IGNORE_KEYS:
            continue
        fresh_val = fresh_leaves.get(path)
        if fresh_val is None:
            problems.append(f"{name}: {path} missing from fresh results")
            continue
        if key in SCALE_KEYS:
            if fresh_val != base_val:
                problems.append(
                    f"{name}: scale mismatch at {path} "
                    f"(baseline {base_val!r}, fresh {fresh_val!r}) — "
                    f"regenerate the baseline at this scale "
                    f"(make bench-baselines)"
                )
            continue
        if key == "identical":
            if base_val is True and fresh_val is not True:
                problems.append(
                    f"{name}: {path} was bit-identical at baseline time "
                    f"and no longer is"
                )
            continue
        if not isinstance(base_val, (int, float)) or isinstance(
            base_val, bool
        ):
            continue
        if not isinstance(fresh_val, (int, float)):
            problems.append(
                f"{name}: {path} changed type "
                f"({type(base_val).__name__} → {type(fresh_val).__name__})"
            )
            continue
        if key.endswith("_s"):
            if base_val < min_seconds and fresh_val < min_seconds:
                continue
            if base_val > 0 and fresh_val > base_val * (1.0 + tolerance):
                problems.append(
                    f"{name}: {path} slowed down "
                    f"{fresh_val / base_val - 1.0:+.1%} "
                    f"({base_val:.4f}s → {fresh_val:.4f}s, "
                    f"band ±{tolerance:.0%})"
                )
        elif key == "speedup" or key.endswith("_speedup") or key.endswith(
            "_per_sec"
        ):
            if base_val > 0 and fresh_val < base_val / (1.0 + tolerance):
                problems.append(
                    f"{name}: {path} dropped "
                    f"{fresh_val / base_val - 1.0:+.1%} "
                    f"({base_val:.3f} → {fresh_val:.3f}, "
                    f"band ±{tolerance:.0%})"
                )
    return problems


def scan_waived_gates(fresh_dir: Path) -> list[str]:
    """Waiver messages for every fresh benchmark with an unapplied gate.

    A benchmark that records ``"speedup_gate_applied": false`` did run,
    but its headline performance floor was never asserted (typically a
    core-starved machine). Treating that as an ordinary pass would let
    a real regression hide behind the waiver, so the messages here are
    surfaced next to the regression report — with the benchmark's own
    skip reason when it recorded one. Scans *every* fresh result, not
    only those with committed baselines.
    """
    waivers: list[str] = []
    for path in sorted(fresh_dir.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        name = path.stem.removeprefix("BENCH_")
        leaves = _leaves(doc)
        for leaf_path, value in sorted(leaves.items()):
            if _key_name(leaf_path) != "speedup_gate_applied":
                continue
            if value is not False:
                continue
            reason_path = leaf_path.replace(
                "speedup_gate_applied", "speedup_gate_skip_reason"
            )
            reason = leaves.get(reason_path) or "no reason recorded"
            where = leaf_path.rsplit("/", 1)[0] if "/" in leaf_path else ""
            prefix = f"{name}[{where}]" if where else name
            waivers.append(f"{prefix}: speedup gate waived — {reason}")
    return waivers


def check_directories(
    baseline_dir: Path,
    fresh_dir: Path,
    *,
    names: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[list[str], list[str]]:
    """Compare every baseline against fresh results.

    Returns ``(checked_names, problems)``. A baseline without a fresh
    counterpart is a problem (the benchmark silently stopped running);
    a fresh result without a baseline is ignored (new benchmark, gate
    starts once a baseline is committed).
    """
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if names:
        wanted = {f"BENCH_{n}.json" for n in names}
        baselines = [p for p in baselines if p.name in wanted]
        missing = wanted - {p.name for p in baselines}
        if missing:
            raise FileNotFoundError(
                f"no baseline for: {', '.join(sorted(missing))} "
                f"(in {baseline_dir})"
            )
    checked: list[str] = []
    problems: list[str] = []
    for base_path in baselines:
        name = base_path.stem.removeprefix("BENCH_")
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            problems.append(
                f"{name}: no fresh result at {fresh_path} — "
                f"did the benchmark run?"
            )
            continue
        try:
            baseline = json.loads(base_path.read_text(encoding="utf-8"))
            fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: unreadable JSON ({exc})")
            continue
        checked.append(name)
        problems.extend(
            compare_documents(
                name, baseline, fresh,
                tolerance=tolerance, min_seconds=min_seconds,
            )
        )
    return checked, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "names", nargs="*",
        help="benchmark names to check (default: every committed baseline)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=DEFAULT_BASELINE_DIR,
        help="committed baseline directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--fresh-dir", type=Path, default=DEFAULT_FRESH_DIR,
        help="fresh results directory (default: the repository root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown before failing (default: 0.20)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="ignore seconds leaves below this value (default: 0.005)",
    )
    parser.add_argument(
        "--strict-waivers", action="store_true",
        help="fail (exit 1) when any benchmark waived its speedup gate "
             "instead of only reporting the waiver",
    )
    args = parser.parse_args(argv)

    if not args.baseline_dir.is_dir():
        print(
            f"error: baseline directory {args.baseline_dir} does not exist",
            file=sys.stderr,
        )
        return 2
    try:
        checked, problems = check_directories(
            args.baseline_dir, args.fresh_dir,
            names=args.names or None,
            tolerance=args.tolerance,
            min_seconds=args.min_seconds,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not checked and not problems:
        print(
            f"error: no baselines found in {args.baseline_dir}",
            file=sys.stderr,
        )
        return 2
    for name in checked:
        print(f"checked {name} (band ±{args.tolerance:.0%})")
    waivers = scan_waived_gates(args.fresh_dir)
    for w in waivers:
        print(f"  WAIVED {w}")
    if problems:
        print(f"\n{len(problems)} regression(s):", file=sys.stderr)
        for p in problems:
            print(f"  FAIL {p}", file=sys.stderr)
        return 1
    if waivers:
        print(
            f"no regressions, but {len(waivers)} speedup gate(s) waived — "
            f"not a pass"
        )
        return 1 if args.strict_waivers else 0
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
