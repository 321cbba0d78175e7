"""Seeded runs must reproduce the frozen identity fixtures bit for bit.

Every case of :mod:`tests.identity_corpus` (simulator scripts, tuner
trajectories, PMNF term matrices) is recomputed and its digest compared
with ``tests/fixtures/identity/<family>.json``. The fixtures were frozen
by ``tools/freeze_identity.py`` only after each case matched between
the live code and the reference twins it replaced, so a mismatch here
means a seeded run now charges, measures or finds something different.
"""

from __future__ import annotations

import pytest

from tests import identity_corpus as corpus

_CASES = corpus.all_cases()


@pytest.fixture(scope="module")
def frozen() -> dict[str, dict[str, str]]:
    return {family: corpus.load_fixture(family) for family in corpus.FAMILIES}


def test_fixtures_cover_the_corpus(frozen):
    for family, cases in frozen.items():
        live = [name for fam, name in _CASES if fam == family]
        assert sorted(cases) == sorted(live), family


@pytest.mark.parametrize(
    "family,case", _CASES, ids=[f"{fam}:{name}" for fam, name in _CASES]
)
def test_case_matches_fixture(frozen, family, case):
    build = corpus.FAMILIES[family](corpus.LIVE)
    assert build[case]() == frozen[family][case]
