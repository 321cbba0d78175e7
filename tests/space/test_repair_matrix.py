"""Row-for-row equivalence of the matrix repair/validity primitives.

The vectorized search path lowers whole populations through
``repair_full_matrix`` / ``_batch_valid_matrix``; these tests pin them
to the scalar ``repair_full`` / ``is_valid`` reference on
property-based random value matrices and across every suite stencil.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.space.constraints import canonicalize_matrix, canonicalize_values
from repro.space.parameters import PARAMETER_ORDER, build_parameters
from repro.space.setting import Setting, settings_from_matrix, settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import get_stencil, suite_names

seeds = st.integers(min_value=0, max_value=2**31 - 1)
relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _random_matrix(space, rng, n: int) -> np.ndarray:
    """Garbage rows: mostly in-domain values, some arbitrary integers."""
    cols = []
    for name in PARAMETER_ORDER:
        domain = space.param(name).values_array
        in_domain = domain[rng.integers(0, domain.size, size=n)]
        garbage = rng.integers(-3, 2 * int(domain[-1]) + 3, size=n)
        use_garbage = rng.random(n) < 0.25
        cols.append(np.where(use_garbage, garbage, in_domain))
    return np.stack(cols, axis=1).astype(np.int64)


def _row_dict(row: np.ndarray) -> dict[str, int]:
    return {name: int(v) for name, v in zip(PARAMETER_ORDER, row)}


class TestRepairFullMatrix:
    @relaxed
    @given(seed=seeds)
    def test_matches_scalar_repair_row_for_row(self, seed, small_space):
        rng = np.random.default_rng(seed)
        mat = _random_matrix(small_space, rng, 40)
        repaired = small_space.repair_full_matrix(mat)
        for row, out in zip(mat, repaired):
            expected = small_space.repair_full(_row_dict(row))
            assert tuple(out.tolist()) == expected.values_tuple(), row

    @pytest.mark.parametrize("name", suite_names())
    def test_every_suite_stencil(self, name, a100):
        space = build_space(get_stencil(name), a100)
        rng = np.random.default_rng(7)
        mat = _random_matrix(space, rng, 30)
        repaired = space.repair_full_matrix(mat)
        for row, out in zip(mat, repaired):
            expected = space.repair_full(_row_dict(row))
            assert tuple(out.tolist()) == expected.values_tuple(), (name, row)

    def test_results_are_valid_settings(self, small_space):
        rng = np.random.default_rng(3)
        mat = _random_matrix(small_space, rng, 50)
        for s in settings_from_matrix(small_space.repair_full_matrix(mat)):
            assert small_space.is_valid(s)


class TestBatchValidMatrix:
    @relaxed
    @given(seed=seeds)
    def test_matches_is_valid(self, seed, small_space):
        rng = np.random.default_rng(seed)
        mat = _random_matrix(small_space, rng, 40)
        got = small_space._batch_valid_matrix(mat)
        for row, ok in zip(mat, got):
            assert bool(ok) == small_space.is_valid(
                Setting(_row_dict(row))
            ), row

    def test_matches_batch_valid_on_settings(self, small_space, rng):
        pool = small_space.sample(rng, 64)
        mat = settings_matrix(pool)
        assert list(small_space._batch_valid_matrix(mat)) == list(
            small_space._batch_valid(pool)
        )


def _scalar_clipped(space, mat: np.ndarray) -> np.ndarray:
    """``repair_matrix``'s reference: scalar ``Parameter.clip`` per
    element, then the streaming gating rules."""
    clipped = np.array(
        [[space.param(n).clip(int(v)) for n, v in zip(PARAMETER_ORDER, row)]
         for row in mat.tolist()],
        dtype=np.int64,
    ).reshape(mat.shape)
    return canonicalize_matrix(space.pattern, clipped)


class TestParameterArrays:
    @pytest.mark.parametrize("name", suite_names()[:3])
    def test_clip_and_contains_match_scalar(self, name, a100):
        space = build_space(get_stencil(name), a100)
        rng = np.random.default_rng(11)
        mat = np.stack(
            [rng.integers(-4, 2 * int(space.param(n).values[-1]) + 5, size=200)
             for n in PARAMETER_ORDER],
            axis=1,
        )
        expected = _scalar_clipped(space, mat)
        assert space.repair_matrix(mat).tolist() == expected.tolist()
        for j, p in enumerate(space.param(n) for n in PARAMETER_ORDER):
            member = p.contains_array(mat[:, j])
            for v, m in zip(mat[:, j].tolist(), member.tolist()):
                assert m == p.contains(v), (p.name, v)

    def test_unstructured_domain_falls_back(self, small_pattern):
        from repro.space.parameters import Parameter, ParameterKind
        from repro.space.space import SearchSpace

        p = Parameter("TBz", ParameterKind.ENUM, (1, 3, 9))
        assert not p._structured_domain
        probe = np.array([-2, 0, 1, 2, 3, 6, 8, 9, 10, 5000])
        assert list(p.contains_array(probe)) == [
            p.contains(int(v)) for v in probe
        ]
        params = [
            p if q.name == "TBz" else q for q in build_parameters(small_pattern)
        ]
        space = SearchSpace(small_pattern, params)
        mat = np.ones((probe.size, len(PARAMETER_ORDER)), dtype=np.int64)
        mat[:, PARAMETER_ORDER.index("TBz")] = probe
        expected = _scalar_clipped(space, mat)
        assert space.repair_matrix(mat).tolist() == expected.tolist()


class TestCanonicalizeMatrix:
    @relaxed
    @given(seed=seeds)
    def test_matches_scalar_canonicalize(self, seed, small_pattern, small_space):
        rng = np.random.default_rng(seed)
        # canonicalize_matrix requires clipped rows (SD in {1,2,3}),
        # matching how repair_matrix invokes it.
        mat = small_space.repair_matrix(_random_matrix(small_space, rng, 30))
        canon = canonicalize_matrix(small_pattern, mat)
        for row, out in zip(mat, canon):
            expected = canonicalize_values(small_pattern, _row_dict(row))
            assert _row_dict(out) == expected, row


class TestDecodeMatrix:
    @relaxed
    @given(seed=seeds)
    def test_matches_scalar_decode_row_for_row(self, seed, small_space):
        rng = np.random.default_rng(seed)
        cards = np.array(
            [small_space.param(n).cardinality for n in PARAMETER_ORDER]
        )
        # In-range indices plus out-of-range ones on both sides.
        idx = rng.integers(-3, cards + 3, size=(40, len(PARAMETER_ORDER)))
        decoded = small_space.decode_matrix(idx)
        for row, out in zip(idx, decoded):
            assert tuple(out.tolist()) == small_space.decode(row).values_tuple()

    def test_rejects_wrong_width(self, small_space):
        with pytest.raises(ValueError):
            small_space.decode_matrix(np.zeros((2, 3), dtype=np.int64))
