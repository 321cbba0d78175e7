"""One tuning protocol: search-side code never probes what a space or a
simulator can do.

Every space provides the matrix primitives (``names``,
``_batch_valid_matrix``, ``repair_full_matrix``, ``decode_matrix``) and
every simulator is a :class:`~repro.gpusim.simulator.GpuSimulator`, so
the layers that drive them call them directly. A capability probe in
those layers is a second, per-setting path coming back.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.ext.temporal import TemporalSimulator, TemporalSpace
from repro.gpusim.simulator import GpuSimulator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LAYERS = ("core", "baselines", "resultsdb", "profiler")

#: Capability probes on a space or a simulator (attribute or type
#: tests), and the stencil-type skip.
PROBES = re.compile(
    r"(?:getattr|hasattr|isinstance)\([^,)]*(?:space|simulator)[^,)]*,"
    r"|isinstance\(\s*pattern\s*,\s*StencilPattern\s*\)"
)


def _sources() -> list[Path]:
    return sorted(p for layer in LAYERS for p in (SRC / layer).rglob("*.py"))


def test_the_layers_exist():
    assert all((SRC / layer).is_dir() for layer in LAYERS)
    assert len(_sources()) > 10


@pytest.mark.parametrize("path", _sources(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_capability_probes(path):
    hits = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if PROBES.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_the_probe_pattern_catches_each_form():
    for line in (
        'batch_valid = getattr(space, "_batch_valid", None)',
        'run_batch = getattr(self.simulator, "run_batch", None)',
        'if hasattr(self.space, "repair_full_matrix"):',
        "if isinstance(self.simulator, GpuSimulator):",
        "if isinstance(pattern, StencilPattern):",
    ):
        assert PROBES.search(line), line
    assert not PROBES.search('cache_dir = getattr(args, "cache_dir", None)')


def test_the_temporal_extension_is_on_the_protocol():
    assert issubclass(TemporalSimulator, GpuSimulator)
    for name in ("names", "_batch_valid", "_batch_valid_matrix",
                 "repair_full_matrix", "decode_matrix"):
        assert hasattr(TemporalSpace, name), name
