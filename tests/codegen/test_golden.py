"""Golden-file tests: generated CUDA is byte-stable for the whole suite.

Each golden file holds one ``// golden: k=v,...`` header recording the
setting, followed by the exact ``generate_cuda`` output. Settings are
the first three seed-42 samples of each stencil's A100 space, so the
snapshots cover shared/constant staging, streaming, prefetching and
retiming across the suite. Regenerate after an intentional codegen
change with::

    PYTHONPATH=src python tests/codegen/test_golden.py
"""

from pathlib import Path

import pytest

from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan
from repro.gpusim.device import A100
from repro.space.setting import Setting
from repro.space.space import build_space
from repro.stencil.suite import get_stencil, suite_names
from repro.utils.rng import rng_from_seed

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SEED = 42
GOLDEN_PER_STENCIL = 3


def golden_settings(pattern):
    space = build_space(pattern, A100)
    return space.sample(rng_from_seed(GOLDEN_SEED), GOLDEN_PER_STENCIL)


def _parse_header(header: str) -> Setting:
    assert header.startswith("// golden: ")
    pairs = header[len("// golden: "):].split(",")
    return Setting({k: int(v) for k, v in (kv.split("=") for kv in pairs)})


@pytest.mark.parametrize("name", suite_names())
def test_generated_source_matches_golden(name):
    pattern = get_stencil(name)
    for i, setting in enumerate(golden_settings(pattern)):
        path = GOLDEN_DIR / f"{name}_{i}.cu"
        header, _, body = path.read_text().partition("\n")
        assert _parse_header(header) == setting, (
            f"{path.name}: sampled setting drifted from snapshot header"
        )
        assert body == generate_cuda(build_plan(pattern, setting)), (
            f"{path.name}: generated source drifted from golden snapshot"
        )


@pytest.mark.parametrize("name", suite_names())
def test_golden_files_exist(name):
    files = sorted(GOLDEN_DIR.glob(f"{name}_*.cu"))
    assert len(files) == GOLDEN_PER_STENCIL


def _regenerate() -> None:
    for name in suite_names():
        pattern = get_stencil(name)
        for i, setting in enumerate(golden_settings(pattern)):
            header = "// golden: " + ",".join(
                f"{k}={setting[k]}" for k in setting.keys()
            )
            path = GOLDEN_DIR / f"{name}_{i}.cu"
            path.write_text(header + "\n" + generate_cuda(build_plan(pattern, setting)))
            print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
