"""Row-backed settings: the contract between the two constructors.

``Setting._from_row`` keeps only a full setting's row; ``Setting(dict)``
keeps its dict and lowers on demand. Either must work as the other's
dict and set key, hash the same in every interpreter, pickle and
iterate as before.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import UnknownParameterError
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting, settings_from_matrix

SRC = Path(__file__).resolve().parents[2] / "src"


def _rows(n: int, seed: int = 0) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(seed)
    return [tuple(r) for r in rng.integers(1, 65, (n, len(PARAMETER_ORDER))).tolist()]


def _by_hand(row: tuple[int, ...], reverse: bool = False) -> Setting:
    items = list(zip(PARAMETER_ORDER, row))
    return Setting(dict(reversed(items) if reverse else items))


class TestInterchangeable:
    def test_dict_keys(self):
        rows = _rows(50)
        table = {Setting._from_row(r): i for i, r in enumerate(rows)}
        for i, r in enumerate(rows):
            assert table[_by_hand(r)] == i
            assert table[_by_hand(r, reverse=True)] == i
        table2 = {_by_hand(r, reverse=True): i for i, r in enumerate(rows)}
        assert all(table2[Setting._from_row(r)] == i for i, r in enumerate(rows))

    def test_set_members(self):
        rows = _rows(40, seed=1)
        mixed = {Setting._from_row(r) for r in rows} | {_by_hand(r) for r in rows}
        assert len(mixed) == len(set(rows))
        assert all(_by_hand(r, reverse=True) in mixed for r in rows)

    def test_unequal_rows_differ(self):
        a, b = _rows(2, seed=2)
        assert Setting._from_row(a) != _by_hand(b)
        assert Setting._from_row(a) != Setting._from_row(b)

    def test_plain_mapping_equality(self):
        (row,) = _rows(1, seed=3)
        assert Setting._from_row(row) == dict(zip(PARAMETER_ORDER, row))
        assert Setting._from_row(row) != dict(zip(PARAMETER_ORDER, row[::-1]))


class TestPartial:
    def test_partial_never_equals_full(self):
        (row,) = _rows(1, seed=4)
        full = Setting._from_row(row)
        partial = Setting(dict(zip(PARAMETER_ORDER[:-1], row[:-1])))
        assert partial != full and full != partial
        assert partial != _by_hand(row)
        assert len({full, partial}) == 2

    def test_extra_name_is_partial(self):
        (row,) = _rows(1, seed=5)
        values = dict(zip(PARAMETER_ORDER, row))
        values["extra"] = 1
        assert Setting(values) != Setting._from_row(row)
        del values["TBx"]  # 19 names, but not the parameter set
        assert Setting(values) != Setting._from_row(row)
        assert Setting(values)._vt is None

    def test_partial_lowering_names_missing_parameter(self):
        partial = Setting({"TBx": 4})
        with pytest.raises(UnknownParameterError, match="TBy"):
            partial.values_tuple()

    def test_partial_keys_by_sorted_items(self):
        assert Setting({"b": 1, "a": 2})._key == (("a", 2), ("b", 1))


class TestHash:
    def test_full_hash_is_the_row_hash(self):
        for row in _rows(20, seed=6):
            assert hash(Setting._from_row(row)) == hash(row)
            assert hash(_by_hand(row, reverse=True)) == hash(row)

    def test_full_hash_survives_another_hash_seed(self):
        rows = _rows(5, seed=7)
        code = (
            "from repro.space.parameters import PARAMETER_ORDER\n"
            "from repro.space.setting import Setting\n"
            f"rows = {rows!r}\n"
            "for r in rows:\n"
            "    print(hash(Setting._from_row(tuple(r))),"
            " hash(Setting(dict(zip(PARAMETER_ORDER, r)))))\n"
        )
        local = [hash(Setting._from_row(r)) for r in rows]
        for seed in ("1", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.split("\n")
            pairs = [tuple(map(int, line.split())) for line in out if line]
            assert pairs == [(h, h) for h in local]


class TestRoundTrips:
    def test_pickle_round_trips(self):
        for row in _rows(10, seed=8):
            for s in (Setting._from_row(row), _by_hand(row, reverse=True)):
                back = pickle.loads(pickle.dumps(s))
                assert back == s and hash(back) == hash(s)
                assert list(back) == list(s)
                assert back.values_tuple() == row
        partial = Setting({"TBx": 8, "SD": 2})
        back = pickle.loads(pickle.dumps(partial))
        assert back == partial and list(back) == ["TBx", "SD"]

    def test_iteration_order(self):
        (row,) = _rows(1, seed=9)
        born = Setting._from_row(row)
        assert list(born) == list(PARAMETER_ORDER)
        assert list(born.to_dict()) == list(PARAMETER_ORDER)
        assert list(born.items()) == list(zip(PARAMETER_ORDER, row))
        reverse = _by_hand(row, reverse=True)
        assert list(reverse) == list(reversed(PARAMETER_ORDER))
        assert list(reverse.replace(TBx=2)) == list(reversed(PARAMETER_ORDER))
        assert repr(born) == repr(reverse)

    def test_row_born_settings_read_by_name(self):
        values = np.arange(1, len(PARAMETER_ORDER) + 1, dtype=np.int64)[None, :]
        (s,) = settings_from_matrix(values)
        assert [s[name] for name in PARAMETER_ORDER] == values[0].tolist()
        assert len(s) == len(PARAMETER_ORDER)
        assert "TBx" in s and "nope" not in s
        with pytest.raises(UnknownParameterError):
            s["nope"]
