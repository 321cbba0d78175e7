"""Columnar record types: lazy views equal to their dict references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.records import MetricsRow, MetricsTable


def _table() -> MetricsTable:
    names = ("occupancy", "dram_bytes", "elapsed_time")
    data = np.array(
        [[0.5, 1e9, 0.001], [0.75, 2e9, 0.002], [1.0, 3e9, 0.003]]
    )
    return MetricsTable(names, data)


class TestMetricsTable:
    def test_as_dicts_matches_rows(self):
        t = _table()
        dicts = t.as_dicts()
        assert len(t) == 3 == len(dicts)
        for i, d in enumerate(dicts):
            assert dict(t.row(i)) == d
            assert t[i] == d  # Mapping equality against plain dict

    def test_column_view(self):
        t = _table()
        np.testing.assert_array_equal(t.column("occupancy"), [0.5, 0.75, 1.0])
        with pytest.raises(KeyError):
            t.column("nope")

    def test_with_column_appends(self):
        t = _table()
        t2 = t.with_column("extra", np.array([1.0, 2.0, 3.0]))
        assert t2.names == t.names + ("extra",)
        assert t2.row(1)["extra"] == 2.0
        assert "extra" not in t.row(1)  # original untouched
        with pytest.raises(ValueError):
            t.with_column("occupancy", np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetricsTable(("a", "b"), np.zeros((2, 3)))


class TestMetricsRow:
    def test_mapping_protocol(self):
        row = _table().row(1)
        assert row["occupancy"] == 0.75
        assert len(row) == 3
        assert list(row) == ["occupancy", "dram_bytes", "elapsed_time"]
        assert "dram_bytes" in row and "nope" not in row
        with pytest.raises(KeyError):
            row["nope"]

    def test_iteration_order_is_column_order(self):
        # dict(row) must reproduce the scalar reference's insertion
        # order — JSON serialization depends on it.
        row = _table().row(0)
        assert list(dict(row)) == list(row.as_dict()) == list(_table().names)

    def test_equality_and_unhashable(self):
        t = _table()
        assert t.row(0) == t.row(0)
        assert t.row(0) != t.row(1)
        assert t.row(2) == {"occupancy": 1.0, "dram_bytes": 3e9,
                            "elapsed_time": 0.003}
        with pytest.raises(TypeError):
            hash(t.row(0))

    def test_items_are_plain_floats(self):
        for _, v in _table().row(0).items():
            assert type(v) is float

