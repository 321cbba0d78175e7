"""Regenerate ``reference_times.json``, the denominators of quality_ratio.

For every suite stencil on A100 and V100 the reference time is the best
noise-free model time over a seeded sample of valid settings
(``SearchSpace.sample`` + ``GpuSimulator.true_time_batch``); no tuner is
involved. Run from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SAMPLES = 4096
SEED = 0


def reference_times() -> dict[str, dict[str, float]]:
    import numpy as np

    from repro.gpusim.device import get_device
    from repro.gpusim.simulator import GpuSimulator
    from repro.space.space import build_space
    from repro.stencil.suite import STENCIL_SUITE

    out: dict[str, dict[str, float]] = {}
    for device_name in ("A100", "V100"):
        device = get_device(device_name)
        sim = GpuSimulator(device=device, seed=SEED)
        row = out.setdefault(device_name, {})
        for pattern in STENCIL_SUITE:
            space = build_space(pattern, device)
            settings = space.sample(np.random.default_rng(SEED), SAMPLES)
            times = sim.true_time_batch(pattern, settings, invalid="nan")
            row[pattern.name] = float(np.nanmin(times))
    return out


def main() -> int:
    payload = {
        "method": "best noise-free time over a seeded sample of valid "
                  "settings (SearchSpace.sample + true_time_batch)",
        "samples": SAMPLES,
        "seed": SEED,
        "times": reference_times(),
    }
    path = HERE / "reference_times.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
