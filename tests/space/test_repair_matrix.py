"""Row-for-row equivalence of the matrix repair/validity primitives.

The vectorized search path lowers whole populations through
``repair_full_matrix`` / ``_batch_valid_matrix``; these tests pin them
to the scalar ``repair_full`` / ``is_valid`` reference on
property-based random value matrices and across every suite stencil.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.space.space as space_module
from repro.space.constraints import (
    RESOURCE_RULES,
    canonicalize_matrix,
    canonicalize_values,
    feasible_mask,
)
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

    @pytest.mark.parametrize("dims", [(0, 1), (1, 2), (0, 2), (0, 1, 2)])
    def test_tiles_too_big_in_several_dimensions(self, dims, small_space):
        """Rows whose work tile overflows its extent in two or three
        dimensions at once repair as the scalar per-dimension loops do."""
        rng = np.random.default_rng(sum(dims))
        cards = [small_space.param(n).cardinality for n in PARAMETER_ORDER]
        mat = small_space.decode_matrix(rng.integers(0, cards, size=(40, 19)))
        cols = np.array([[PARAMETER_ORDER.index(p + s) for p in ("UF", "CM", "BM")]
                         for s in "xyz"])
        mat[:, cols[list(dims)]] = rng.integers(8, 17, size=(40, len(dims), 3))
        tb = np.array([PARAMETER_ORDER.index("TB" + s) for s in "xyz"])
        work = mat[:, tb] * mat[:, cols].prod(axis=2)
        over = work > np.array(small_space.pattern.grid)
        assert over[:, list(dims)].all()
        repaired = small_space.repair_full_matrix(mat)
        for row, out in zip(mat, repaired):
            expected = small_space.repair_full(_row_dict(row))
            assert tuple(out.tolist()) == expected.values_tuple(), row

    def test_results_are_valid_settings(self, small_space):
        rng = np.random.default_rng(3)
        mat = _random_matrix(small_space, rng, 50)
        for s in settings_from_matrix(small_space.repair_full_matrix(mat)):
            assert small_space.is_valid(s)


def _decoded(space, rng, n: int) -> np.ndarray:
    """Rows of in-domain values, most with merge factors to halve."""
    cards = [space.param(name).cardinality for name in PARAMETER_ORDER]
    return space.decode_matrix(rng.integers(0, cards, size=(n, 19)))


class TestResourceHalvingBlocks:
    """The resource loop screens ``_HALVING_BLOCK`` halving states of
    every spilling row per rule pass; each row must still end where the
    scalar loop, one state per check, ends."""

    @staticmethod
    def _passes(space, mat: np.ndarray, monkeypatch) -> list[int]:
        """Resource-rule passes the matrix repair makes on each row alone."""
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += kwargs.get("rules") is RESOURCE_RULES
            return feasible_mask(*args, **kwargs)

        monkeypatch.setattr(space_module, "feasible_mask", counting)
        passes = []
        for row in mat:
            calls[0] = 0
            space.repair_full_matrix(row[None])
            passes.append(calls[0])
        monkeypatch.undo()
        return passes

    @staticmethod
    def _check(space, mat: np.ndarray) -> np.ndarray:
        repaired = space.repair_full_matrix(mat)
        for row, out in zip(mat, repaired):
            expected = space.repair_full(_row_dict(row))
            assert tuple(out.tolist()) == expected.values_tuple(), row
        return repaired

    @staticmethod
    def _space(regs: int | None, a100):
        device = a100 if regs is None else dataclasses.replace(
            a100, max_regs_per_thread=regs
        )
        return build_space(get_stencil("j3d7pt"), device)

    def test_chain_longer_than_a_block(self, a100, monkeypatch):
        space = self._space(None, a100)
        mat = _decoded(space, np.random.default_rng(5), 30)
        passes = self._passes(space, mat, monkeypatch)
        # The first pass screens the tile-repaired rows; a row still
        # spilling after _HALVING_BLOCK halvings needs a third.
        assert max(passes) >= 3
        self._check(space, mat[np.array(passes) >= 3])

    def test_nothing_left_to_halve(self, a100):
        """With too few registers for any setting, every row halves down
        to all-ones merge factors and keeps its violation."""
        space = self._space(16, a100)
        mat = _decoded(space, np.random.default_rng(6), 30)
        repaired = self._check(space, mat)
        tiles = repaired[:, space_module._MERGE_COLUMNS]
        assert (tiles == 1).all()
        assert not feasible_mask(
            space.pattern, repaired, space.resource_device, rules=RESOURCE_RULES
        ).any()

    def test_mixed_batch(self, a100, monkeypatch):
        """Rows that pass at once, end within the first block, run past it
        or dead-end, repaired in one batch."""
        space = self._space(40, a100)
        rng = np.random.default_rng(7)
        mat = _decoded(space, rng, 60)
        ok = feasible_mask(space.pattern, space.repair_full_matrix(mat),
                           space.resource_device, rules=RESOURCE_RULES)
        fixed = space.repair_full_matrix(mat[ok][:10])  # repair passes at once
        # Doubling the unroll factors of a passing row spills a little.
        nudged = fixed.copy()
        nudged[:, space_module._MERGE_COLUMNS[:3]] *= 2
        mat = rng.permutation(np.concatenate([mat, fixed, nudged]))
        passes = np.array(self._passes(space, mat, monkeypatch))
        assert {1, 2} <= set(passes.tolist()) and (passes >= 3).any()
        repaired = self._check(space, mat)
        dead = ~feasible_mask(space.pattern, repaired, space.resource_device,
                              rules=RESOURCE_RULES)
        assert dead.any() and not dead.all()


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


def _probe_rows(base: np.ndarray, column: int, probe) -> np.ndarray:
    """``base`` once per probe value, with ``column`` set to it."""
    mat = np.repeat(np.asarray(base, dtype=np.int64)[None], len(probe), axis=0)
    mat[:, column] = probe
    return mat


def _domain_oracle(space, mat: np.ndarray) -> np.ndarray:
    """Scalar :meth:`Parameter.contains` on every value of every row."""
    return np.array([
        all(space.param(n).contains(v) for n, v in zip(PARAMETER_ORDER, row))
        for row in mat.tolist()
    ])


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
        # Membership through the screen: each column's probes on one
        # valid row, so the rule table rarely hides the domain test.
        (base,) = settings_matrix(space.sample(np.random.default_rng(2), 1))
        decisive = 0
        for j in range(len(PARAMETER_ORDER)):
            rows = _probe_rows(base, j, mat[:, j])
            feasible = feasible_mask(space.pattern, rows, space.resource_device)
            member = _domain_oracle(space, rows)
            got = space._batch_valid_matrix(rows)
            assert got.tolist() == (member & feasible).tolist(), PARAMETER_ORDER[j]
            decisive += int(np.count_nonzero(feasible & ~member))
        assert decisive > 0

    def test_unstructured_domain_falls_back(self, small_pattern):
        from repro.space.parameters import Parameter, ParameterKind
        from repro.space.space import SearchSpace

        p = Parameter("TBz", ParameterKind.ENUM, (1, 3, 9))
        probe = np.array([-2, 0, 1, 2, 3, 6, 8, 9, 10, 5000])
        params = [
            p if q.name == "TBz" else q for q in build_parameters(small_pattern)
        ]
        space = SearchSpace(small_pattern, params)
        mat = np.ones((probe.size, len(PARAMETER_ORDER)), dtype=np.int64)
        mat[:, PARAMETER_ORDER.index("TBz")] = probe
        member = np.array([p.contains(int(v)) for v in probe])
        feasible = feasible_mask(small_pattern, mat)
        assert (feasible & ~member).any() and (feasible & member).any()
        assert space._batch_valid_matrix(mat).tolist() == (member & feasible).tolist()
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
            # The per-parameter reference: clip the index into its domain,
            # look the value up, then the scalar gating repair.
            params = [small_space.param(n) for n in PARAMETER_ORDER]
            values = {p.name: p.values[min(max(int(i), 0), p.cardinality - 1)]
                      for p, i in zip(params, row)}
            expected = small_space.repair(values).values_tuple()
            assert tuple(out.tolist()) == expected
            assert small_space.decode(row).values_tuple() == expected

    def test_rejects_wrong_width(self, small_space):
        with pytest.raises(ValueError):
            small_space.decode_matrix(np.zeros((2, 3), dtype=np.int64))
