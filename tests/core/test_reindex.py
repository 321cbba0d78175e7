"""Unit tests for group value re-indexing (Fig 7)."""

import numpy as np
import pytest

from repro.core.reindex import GroupIndex, build_group_indexes
from repro.errors import SearchError
from repro.space.setting import Setting, settings_matrix


class TestGroupIndex:
    def test_fig7_example(self):
        """The paper's example: tuples {(0,1), (4,2), (3,4)} sorted
        ascending become indices 0..2."""
        gi = GroupIndex(["P0", "P1"], [(0, 1), (4, 2), (3, 4)])
        assert gi.tuples == ((0, 1), (3, 4), (4, 2))
        assert len(gi) == 3
        assert gi.decode(0) == {"P0": 0, "P1": 1}
        assert gi.decode(2) == {"P0": 4, "P1": 2}

    def test_duplicates_collapsed(self):
        gi = GroupIndex(["a"], [(1,), (2,), (1,)])
        assert len(gi) == 2

    def test_bits(self):
        assert GroupIndex(["a"], [(1,)]).bits == 1
        assert GroupIndex(["a"], [(i,) for i in range(5)]).bits == 3
        assert GroupIndex(["a"], [(i,) for i in range(8)]).bits == 3
        assert GroupIndex(["a"], [(i,) for i in range(9)]).bits == 4

    def test_decode_out_of_range(self):
        gi = GroupIndex(["a"], [(1,), (2,)])
        with pytest.raises(SearchError):
            gi.decode(2)
        with pytest.raises(SearchError):
            gi.decode(-1)

    def test_index_of(self):
        gi = GroupIndex(["a", "b"], [(1, 2), (4, 8)])
        assert gi.index_of(Setting({"a": 4, "b": 8, "c": 1})) == 1
        assert gi.index_of(Setting({"a": 2, "b": 2, "c": 1})) is None

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            GroupIndex(["a"], [])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SearchError):
            GroupIndex(["a", "b"], [(1,)])


class TestBuildGroupIndexes:
    def test_from_settings(self):
        settings = [
            Setting({"a": 1, "b": 2, "c": 4}),
            Setting({"a": 1, "b": 8, "c": 4}),
            Setting({"a": 2, "b": 2, "c": 8}),
        ]
        names = ("a", "b", "c")
        out = build_group_indexes(
            [["a", "b"], ["c"]], settings_matrix(settings, names), names
        )
        assert len(out) == 2
        assert len(out[0]) == 3  # (1,2), (1,8), (2,2)
        assert len(out[1]) == 2  # (4,), (8,)

    def test_empty_settings_rejected(self):
        with pytest.raises(SearchError):
            build_group_indexes([["a"]], np.zeros((0, 1), dtype=np.int64), ("a",))


class TestAgainstSetReference:
    """``build_group_indexes`` over one lowered matrix equals the
    set-based reference: ``sorted(set(tuples))`` of each group's values
    over the settings."""

    @staticmethod
    def reference(groups, settings):
        return [
            tuple(sorted({tuple(s[n] for n in group) for s in settings}))
            for group in groups
        ]

    def check(self, groups, settings, names):
        got = build_group_indexes(groups, settings_matrix(settings, names), names)
        want = self.reference(groups, settings)
        assert [gi.tuples for gi in got] == want
        for gi, tuples in zip(got, want):
            assert gi.tuple_array.tolist() == [list(t) for t in tuples]
            assert all(gi.index_of(s) is not None for s in settings)

    def test_partial_settings(self, rng):
        names = ("c", "a", "b")
        settings = [
            Setting({"a": int(a), "b": int(b), "c": int(c)})
            for a, b, c in rng.integers(1, 5, size=(60, 3))
        ]
        self.check([["a", "b"], ["c"], ["b", "c", "a"]], settings, names)

    def test_stencil_space(self, small_space, rng):
        settings = small_space.sample(rng, 80)
        groups = [["TBx", "TBy"], ["useShared"], ["SB", "SD", "useStreaming"]]
        self.check(groups, settings, small_space.names)

    def test_temporal_space_names(self, small_space, rng):
        from repro.ext.temporal import TEMPORAL_PARAMETER, TemporalSpace

        space = TemporalSpace(small_space)
        settings = space.sample(rng, 40)
        groups = [[TEMPORAL_PARAMETER, "SB"], ["TBx"], ["useStreaming"]]
        self.check(groups, settings, space.names)
