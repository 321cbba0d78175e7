"""Unit tests for the immutable Setting mapping."""

import math

import numpy as np
import pytest

from repro.errors import UnknownParameterError
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting, settings_from_matrix, settings_matrix


def make(**kw):
    base = {"TBx": 32, "TBy": 4, "useShared": 2}
    base.update(kw)
    return Setting(base)


class TestMapping:
    def test_getitem(self):
        assert make()["TBx"] == 32

    def test_missing_key(self):
        with pytest.raises(UnknownParameterError):
            make()["UFx"]

    def test_len_iter(self):
        s = make()
        assert len(s) == 3
        assert set(s) == {"TBx", "TBy", "useShared"}

    def test_equality_order_insensitive(self):
        a = Setting({"x": 1, "y": 2})
        b = Setting({"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_with_plain_dict(self):
        assert Setting({"x": 1}) == {"x": 1}

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Setting({"x": 1.5})  # type: ignore[dict-item]
        with pytest.raises(TypeError):
            Setting({"x": True})  # type: ignore[dict-item]

    def test_usable_as_dict_key(self):
        d = {make(): "v"}
        assert d[make()] == "v"


class TestHelpers:
    def test_enabled(self):
        assert make(useShared=2).enabled("useShared")
        assert not make(useShared=1).enabled("useShared")

    def test_enabled_rejects_non_switch(self):
        with pytest.raises(UnknownParameterError):
            make().enabled("TBx")

    def test_replace(self):
        s = make().replace(TBx=64)
        assert s["TBx"] == 64
        assert make()["TBx"] == 32  # original untouched

    def test_replace_unknown_rejected(self):
        with pytest.raises(UnknownParameterError):
            make().replace(UFx=2)

    def test_values_tuple_roundtrip(self):
        order = ("TBx", "TBy", "useShared")
        s = make()
        t = s.values_tuple(order)
        assert Setting.from_values(t, order) == s

    def test_settings_from_matrix_seeds_value_tuple(self):
        values = np.ones((3, len(PARAMETER_ORDER)), dtype=np.int64)
        values[1, 0] = 2
        values[2, 3] = 2
        settings = settings_from_matrix(values)
        for s, row in zip(settings, values.tolist()):
            assert s._vt == tuple(row) == s.values_tuple()
        assert settings_matrix(settings).tolist() == values.tolist()

    def test_trusted_row_constructor_matches_public_one(self):
        rows = np.random.default_rng(0).integers(
            1, 1025, size=(200, len(PARAMETER_ORDER))
        )
        for row in map(tuple, rows.tolist()):
            fast = Setting._from_row(row)
            slow = Setting(dict(zip(PARAMETER_ORDER, row)))
            assert fast._key == slow._key
            assert hash(fast) == hash(slow)
            assert fast == slow
            assert fast.to_dict() == slow.to_dict()
            assert list(fast) == list(PARAMETER_ORDER)
            assert fast.values_tuple() == slow.values_tuple() == row

    def test_hand_built_setting_lowers_lazily(self):
        values = np.ones((1, len(PARAMETER_ORDER)), dtype=np.int64)
        values[0, 0] = 16
        (born,) = settings_from_matrix(values)
        by_hand = Setting(born.to_dict())
        assert by_hand._vt is None
        assert by_hand.values_tuple() == born.values_tuple()

    def test_from_values_length_mismatch(self):
        with pytest.raises(ValueError):
            Setting.from_values((1, 2), ("a", "b", "c"))

    def test_log2(self):
        s = make(TBx=32)
        assert s.log2_value("TBx") == 5.0
        assert s.log2_vector(("TBx", "TBy")) == (5.0, 2.0)

    def test_log2_of_one_is_zero(self):
        assert Setting({"p": 1}).log2_value("p") == 0.0

    def test_to_dict_is_copy(self):
        s = make()
        d = s.to_dict()
        d["TBx"] = 999
        assert s["TBx"] == 32

    def test_repr_readable(self):
        assert "TBx=32" in repr(make())


@pytest.mark.parametrize(
    "x, lo, hi",
    [
        (np.array([-3, 0, 2, 5, 9]), 0, 5),
        (np.array([-0.5, 0.0, 1.25, 2.0, 7.5]), 0.0, 2.0),
        (np.array([1, 4, 9]), np.array([2, 2, 2]), np.array([3, 5, 8])),
    ],
    ids=["int", "float", "per-row bounds"],
)
def test_column_clip_matches_row_clip(x, lo, hi):
    """``COLUMNS.clip`` below, at and above the bounds, against the row
    table's, and with ``np.clip``'s result type."""
    from repro.space.setting import COLUMNS, ROW

    got = COLUMNS.clip(x, lo, hi)
    rows = zip(*np.broadcast_arrays(x, lo, hi))
    assert got.tolist() == [ROW.clip(*(v.item() for v in r)) for r in rows]
    assert got.dtype == np.clip(x, lo, hi).dtype
