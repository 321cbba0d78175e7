#!/usr/bin/env python
"""Freeze the identity corpus into committed digest fixtures.

The corpus (``tests/identity_corpus.py``) reduces seeded simulator
scripts, tuner trajectories and PMNF term matrices to SHA-256 digests.
Write mode runs every case twice — through the live implementation and
through its reference twin (``GpuSimulator(columnar=False)``,
``EvolutionarySearch(vectorized=False)``, ``pmnf_term_matrix_reference``)
— and writes ``tests/fixtures/identity/<family>.json`` only when every
pair of digests matches. The twins have since been deleted, so write
mode only works on a source tree that still has them (the fixtures
record the commit they were frozen at); ``--check`` recomputes the
live digests against the committed fixtures on any tree, as
``tests/test_identity_fixtures.py`` does.

Usage::

    PYTHONPATH=<src of a tree with the twins> python tools/freeze_identity.py
    python tools/freeze_identity.py --check [--family simulator]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the corpus lives in tests/
sys.path.append(str(ROOT / "src"))  # an explicit PYTHONPATH wins

from tests import identity_corpus as corpus  # noqa: E402


def _twin_paths() -> corpus.Paths | None:
    """The reference twins of the live paths, or None once deleted."""
    from repro.gpusim.simulator import GpuSimulator
    from repro.ml import regression

    reference = getattr(regression, "pmnf_term_matrix_reference", None)
    if "columnar" not in GpuSimulator.__dataclass_fields__ or reference is None:
        return None
    twin_sim = functools.partial(GpuSimulator, columnar=False)
    return corpus.Paths(
        make_sim=twin_sim, term_matrix=reference, shuffled_term_matrix=reference
    )


@contextlib.contextmanager
def _scalar_ga() -> Iterator[None]:
    """Route every csTuner search through the scalar GA reference."""
    from repro.core import genetic, tuner

    scalar = functools.partial(genetic.EvolutionarySearch, vectorized=False)
    with mock.patch.object(tuner, "EvolutionarySearch", scalar):
        yield


def _source_revision() -> tuple[str, bool]:
    """(commit, dirty) of the git tree the imported ``repro`` comes from."""
    import repro

    src = Path(repro.__file__).resolve().parent
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "."], cwd=src,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return commit, bool(status)


def _digests(paths: corpus.Paths, family: str) -> dict[str, str]:
    return {name: case() for name, case in corpus.FAMILIES[family](paths).items()}


def _check(families: list[str]) -> int:
    bad = 0
    for family in families:
        frozen = corpus.load_fixture(family)
        t0 = time.perf_counter()
        live = _digests(corpus.LIVE, family)
        for name, digest in live.items():
            if frozen.get(name) != digest:
                bad += 1
                print(f"MISMATCH {family}:{name}")
        for name in frozen.keys() - live.keys():
            bad += 1
            print(f"MISSING {family}:{name} (in the fixture, not the corpus)")
        print(f"{family}: {len(live)} cases in {time.perf_counter() - t0:.1f}s")
    print("all fixtures match" if not bad else f"{bad} case(s) differ")
    return 1 if bad else 0


def _freeze(families: list[str]) -> int:
    twin = _twin_paths()
    if twin is None:
        print(
            "refusing to write: this source tree no longer has the reference "
            "twins, so the fixtures cannot be re-derived from them "
            "(use --check)"
        )
        return 1
    commit, dirty = _source_revision()
    if dirty:
        print(f"refusing to write: the source tree at {commit} has local changes")
        return 1
    frozen: dict[str, dict[str, str]] = {}
    for family in families:
        t0 = time.perf_counter()
        live = _digests(corpus.LIVE, family)
        with _scalar_ga():
            ref = _digests(twin, family)
        differ = sorted(n for n in live if live[n] != ref[n])
        print(
            f"{family}: {len(live)} cases, live and reference in "
            f"{time.perf_counter() - t0:.1f}s"
        )
        if differ:
            for name in differ:
                print(f"  live != reference: {family}:{name}")
            print("refusing to write: the twins disagree")
            return 1
        frozen[family] = live
    corpus.FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for family, cases in frozen.items():
        doc = {"frozen_at": commit, "family": family, "cases": cases}
        path = corpus.fixture_path(family)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(cases)} cases, frozen at {commit[:12]})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare live digests with the committed fixtures; write nothing",
    )
    parser.add_argument(
        "--family", action="append", choices=sorted(corpus.FAMILIES),
        help="restrict to one family (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    families = args.family or list(corpus.FAMILIES)
    return _check(families) if args.check else _freeze(families)


if __name__ == "__main__":
    raise SystemExit(main())
