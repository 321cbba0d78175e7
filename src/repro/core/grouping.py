"""Parameter grouping (Section IV-C, Algorithm 1).

Correlation between two parameters is quantified as the coefficient of
variation of the *best-response* values: fix all other parameters at
the optimal setting from the performance dataset, sweep parameter
``a``, and for each value of ``a`` record which value of ``b`` performs
best. The CVs of these best-response sequences (in log2 space so the
power-of-two domains become continuous) are pushed into a double-ended
queue in ascending order; Algorithm 1 then pops alternately from both
ends, merging strongly-correlated (low-CV) pairs into groups and
splitting weakly-correlated (high-CV) pairs into singleton groups.

Note on Algorithm 1 as printed: the paper's pseudocode swaps the
merge/singleton branches between the left and right pops, which would
group the *least* correlated pairs — contradicting the stated principle
("put strongly correlated parameters in a group"). We implement the
stated principle: left pops (strong correlation) merge, right pops
(weak correlation) create singletons.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.gpusim.simulator import GpuSimulator
from repro.ml.stats import coefficient_of_variation_rows
from repro.space.setting import Setting, settings_from_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern


def _probe_values(domain: Sequence[int], limit: int) -> list[int]:
    """Evenly thinned probe subset of a parameter domain.

    ``limit <= 0`` (or a limit at least the domain size) means the whole
    domain; ``limit == 1`` probes only the first value.
    """
    if limit >= len(domain) or limit <= 0:
        return list(domain)
    if limit == 1:
        return [domain[0]]
    idx = [round(i * (len(domain) - 1) / (limit - 1)) for i in range(limit)]
    return [domain[i] for i in sorted(set(idx))]


@dataclass(frozen=True)
class Sweep:
    """Best responses of one :func:`best_response_sweep`.

    One segment per (sweep, probed ``a`` value), sweep-major:
    ``best[s]`` is the best value of ``b`` in segment ``s`` where
    ``found[s]``, and ``found[s]`` is false when no feasible ``b``
    priced finitely. ``counts[k]`` is the number of segments of the
    ``k``-th sweep. ``candidates`` counts every (pair, a-value, b-value)
    row of the grid, ``feasible`` the rows that passed the validity
    screen and reached the simulator.
    """

    best: np.ndarray
    found: np.ndarray
    counts: np.ndarray
    candidates: int
    feasible: int

    @property
    def winners(self) -> list[list[int | None]]:
        """``winners[k][i]``: the best ``b`` for the ``i``-th probed value
        of ``a`` in the ``k``-th sweep, or ``None``."""
        flat = [
            v if f else None
            for v, f in zip(self.best.tolist(), self.found.tolist())
        ]
        ends = np.cumsum(self.counts).tolist()
        return [flat[e - c:e] for e, c in zip(ends, self.counts.tolist())]


def best_response_sweep(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    base: Setting,
    sweeps: Sequence[tuple[str, str, Sequence[int]]],
) -> Sweep:
    """Price every ``(a, b, a_values)`` sweep around ``base`` at once.

    The grid holds, sweep by sweep and ``a`` value by ``a`` value, the
    base setting with ``a`` set to the probed value and ``b`` to each
    value of its domain in order; it is built with array ops from the
    segments' columns and a padded table of the domains. It is
    validity-screened once and its feasible rows are priced in one
    ``true_time_batch``, in that row order. A batch commits exactly what
    a loop of smaller batches over the same rows commits, so cache
    counters, LRU order and store journal lines match one batch per
    (sweep, ``a``-value). Each (sweep, ``a``-value) winner is the first
    strictly smallest non-NaN time in ``b``'s domain order.
    """
    names = space.names
    column = {name: j for j, name in enumerate(names)}
    counts = np.array([len(dom_a) for _, _, dom_a in sweeps], dtype=np.int64)
    # One segment per (sweep, a-value): its rows run over b's domain.
    seg_sweep = np.repeat(np.arange(len(sweeps)), counts)
    a_cols, b_cols = (
        np.array([column[a] for a, _, _ in sweeps], dtype=np.int64),
        np.array([column[b] for _, b, _ in sweeps], dtype=np.int64),
    )
    seg_a_col, seg_b_col = a_cols[seg_sweep], b_cols[seg_sweep]
    seg_a_val = np.array(
        [va for _, _, dom_a in sweeps for va in dom_a], dtype=np.int64
    )
    # Every parameter's domain, padded to the widest.
    domains = [space.param(name).values for name in names]
    width = max(map(len, domains))
    dom_len = np.array([len(d) for d in domains], dtype=np.int64)
    dom_table = np.array([d + (0,) * (width - len(d)) for d in domains])
    seg_len = dom_len[seg_b_col]
    n = int(seg_len.sum())
    if not n:
        empty = np.zeros(0, dtype=np.int64)
        return Sweep(empty, empty.astype(bool), counts, candidates=0, feasible=0)
    seg_start = np.cumsum(seg_len) - seg_len
    row_seg = np.repeat(np.arange(seg_len.size), seg_len)
    rows = np.arange(n)
    b_vals = dom_table[seg_b_col[row_seg], rows - seg_start[row_seg]]
    grid = np.tile(np.asarray(base.values_tuple(names), dtype=np.int64), (n, 1))
    grid[rows, seg_a_col[row_seg]] = seg_a_val[row_seg]
    grid[rows, seg_b_col[row_seg]] = b_vals
    ok = space._batch_valid_matrix(grid)
    feasible = settings_from_matrix(grid[ok], names)
    times = np.full(n, np.inf)
    if feasible:
        priced = simulator.true_time_batch(pattern, feasible, invalid="nan")
        # NaN (rejected by the simulator) never wins, like +inf.
        times[ok] = np.where(np.isnan(priced), np.inf, priced)

    # Segmented argmin: the first row of each segment holding the
    # segment's minimum, if that minimum is finite.
    seg_min = np.minimum.reduceat(times, seg_start)
    hit = np.flatnonzero((times == seg_min[row_seg]) & np.isfinite(times))
    seg_hit = row_seg[hit]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = seg_hit[1:] != seg_hit[:-1]
    best = np.zeros(seg_len.size, dtype=np.int64)
    found = np.zeros(seg_len.size, dtype=bool)
    best[seg_hit[first]] = b_vals[hit[first]]
    found[seg_hit[first]] = True
    return Sweep(best, found, counts, candidates=n, feasible=len(feasible))


def _log2_responses(winners: list[int | None]) -> list[float]:
    return [math.log2(vb) for vb in winners if vb is not None]


def best_response_values(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    base: Setting,
    a: str,
    b: str,
    *,
    probe_limit: int = 6,
) -> list[float]:
    """Best value of ``b`` (log2) for each probed value of ``a``.

    All other parameters are pinned to ``base`` (the dataset optimum).
    Combinations violating any constraint are skipped — the paper skips
    settings "not existing" in the evaluated space; an ``a`` value with
    no feasible ``b`` contributes nothing. This is the one-pair case of
    :func:`best_response_sweep`.
    """
    dom_a = _probe_values(space.param(a).values, probe_limit)
    sweep = best_response_sweep(simulator, pattern, space, base, [(a, b, dom_a)])
    return _log2_responses(sweep.winners[0])


def _response_cvs(sweep: Sweep) -> np.ndarray:
    """CV of each sweep's log2 best responses, shifted by +1.

    One pass: the responses of every sweep with the same number of
    them form one matrix, whose rows
    :func:`~repro.ml.stats.coefficient_of_variation_rows` reduces at
    once. A sweep with fewer than two responses reads ``inf``.
    """
    winners = sweep.best[sweep.found]
    distinct, inverse = np.unique(winners, return_inverse=True)
    # log2(1) = 0 can zero the mean; shift by +1 so the CV stays finite
    # and comparable across pairs.
    responses = np.array([math.log2(v) + 1.0 for v in distinct.tolist()])[inverse]
    n = np.bincount(
        np.repeat(np.arange(sweep.counts.size), sweep.counts)[sweep.found],
        minlength=sweep.counts.size,
    )
    start = np.cumsum(n) - n
    out = np.full(n.size, math.inf)
    for m in np.unique(n[n >= 2]).tolist():
        ks = np.flatnonzero(n == m)
        out[ks] = coefficient_of_variation_rows(
            responses[start[ks][:, None] + np.arange(m)]
        )
    return out


class PairwiseCV(dict[tuple[str, str], float]):
    """CV per ordered pair, plus the size of the sweep that priced them
    (:attr:`Sweep.candidates` and :attr:`Sweep.feasible`)."""

    candidates: int = 0
    feasible: int = 0


def pairwise_cv(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    base: Setting,
    *,
    probe_limit: int = 6,
    parameters: Sequence[str] | None = None,
) -> PairwiseCV:
    """CV of the best-response sequence for every ordered parameter pair.

    Ordered pairs — ``CV(a, b)`` sweeps ``a`` and tracks ``b`` — giving
    the paper's :math:`A_N^{N-1}` correlation values, all priced by one
    :func:`best_response_sweep` over each parameter's probe values
    (thinned once per parameter). Pairs with fewer than two feasible
    probes get CV ``inf`` (nothing observable, treated as uncorrelated).
    """
    names = list(parameters) if parameters is not None else list(space.names)
    probes = {a: _probe_values(space.param(a).values, probe_limit) for a in names}
    pairs = [(a, b) for a in names for b in names if a != b]
    sweep = best_response_sweep(
        simulator, pattern, space, base, [(a, b, probes[a]) for a, b in pairs]
    )
    out = PairwiseCV(zip(pairs, _response_cvs(sweep).tolist()))
    out.candidates, out.feasible = sweep.candidates, sweep.feasible
    return out


def group_parameters(
    cv_pairs: Mapping[tuple[str, str], float],
    *,
    max_group_size: int | None = None,
) -> list[list[str]]:
    """Algorithm 1: deque-driven grouping from pairwise CVs.

    Pairs are sorted ascending by CV (ties broken by name for
    determinism). Alternating pops: the left end (strong correlation)
    merges pairs into groups; the right end (weak correlation) ensures
    parameters exist as singletons. Every parameter mentioned in any
    pair ends up in exactly one group.

    ``max_group_size`` optionally caps merges (an extension knob used by
    the ablation benchmarks; ``None`` reproduces the paper).
    """
    ordered = sorted(cv_pairs.items(), key=lambda kv: (kv[1], kv[0]))
    dq: deque[tuple[str, str]] = deque(pair for pair, _ in ordered)

    groups: list[list[str]] = []

    def find(name: str) -> int | None:
        for i, g in enumerate(groups):
            if name in g:
                return i
        return None

    que_size = len(dq)
    for i in range(que_size):
        if i % 2 == 0:
            # Left pop: strongly correlated — merge into one group.
            a, b = dq.popleft()
            ia, ib = find(a), find(b)
            if ia is None and ib is None:
                groups.append([a, b])
            elif ia is not None and ib is not None:
                continue
            elif ia is not None:
                if max_group_size is None or len(groups[ia]) < max_group_size:
                    groups[ia].append(b)
                else:
                    groups.append([b])
            else:
                assert ib is not None
                if max_group_size is None or len(groups[ib]) < max_group_size:
                    groups[ib].append(a)
                else:
                    groups.append([a])
        else:
            # Right pop: weakly correlated — keep apart as singletons.
            a, b = dq.pop()
            if find(a) is None:
                groups.append([a])
            if find(b) is None:
                groups.append([b])
    return groups
