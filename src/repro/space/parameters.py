"""Parameter definitions for the Table I optimization space.

Nineteen parameters cover the optimization techniques of Section II-B:

====================  =======================  ==========================
Optimization          Parameter(s)             Range (Table I)
====================  =======================  ==========================
TB dimension          TBx, TBy, TBz            [1,1024], [1,1024], [1,64]
Shared memory         useShared                {1, 2}
Constant memory       useConstant              {1, 2}
Streaming             useStreaming             {1, 2}
Streaming dimension   SD                       {1, 2, 3}
Concurrent streaming  SB                       [1, M_SD]
Loop unrolling        UFx, UFy, UFz            [1, M1], [1, M2], [1, M3]
Cyclic merging        CMx, CMy, CMz            [1, M1], [1, M2], [1, M3]
Block merging         BMx, BMy, BMz            [1, M1], [1, M2], [1, M3]
Retiming              useRetiming              {1, 2}
Prefetching           usePrefetching           {1, 2}
====================  =======================  ==========================

Boolean and enumeration parameters start at 1 (not 0) so the log
operations of the PMNF regression stay legitimate (Section IV-B), and
all numerical parameters take power-of-two values only.

Dimension naming: the grid is ``(M1, M2, M3)`` with ``x`` ↔ dimension 1
(innermost, contiguous), ``y`` ↔ 2, ``z`` ↔ 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from repro.errors import UnknownParameterError
from repro.stencil.pattern import StencilPattern
from repro.utils.pow2 import powers_of_two_upto

#: Canonical parameter ordering used by vector encodings everywhere.
PARAMETER_ORDER: tuple[str, ...] = (
    "TBx", "TBy", "TBz",
    "useShared", "useConstant",
    "useStreaming", "SD", "SB",
    "UFx", "UFy", "UFz",
    "CMx", "CMy", "CMz",
    "BMx", "BMy", "BMz",
    "useRetiming", "usePrefetching",
)

#: Column index of each parameter in the canonical ordering — the
#: structure-of-arrays layout used by the batch evaluation engine.
PARAM_INDEX: dict[str, int] = {name: i for i, name in enumerate(PARAMETER_ORDER)}

#: Boolean switches where 1 = disabled, 2 = enabled (paper's convention).
BOOL_PARAMETERS: frozenset[str] = frozenset(
    {"useShared", "useConstant", "useStreaming", "useRetiming", "usePrefetching"}
)


class ParameterKind(str, Enum):
    """Domain family of a parameter.

    ``BOOL`` uses {1, 2} with 2 = enabled; ``ENUM`` a small categorical
    set starting at 1; ``POW2`` powers of two in [1, cap].
    """

    BOOL = "bool"
    ENUM = "enum"
    POW2 = "pow2"


@dataclass(frozen=True)
class Parameter:
    """One tunable parameter: a name plus a finite ordered value domain."""

    name: str
    kind: ParameterKind
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"{self.name}: empty domain")
        if tuple(sorted(set(self.values))) != self.values:
            raise ValueError(f"{self.name}: domain must be sorted and duplicate-free")

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def index_of(self, value: int) -> int:
        """Domain index of ``value`` (raises for out-of-domain values)."""
        try:
            return self.values.index(value)
        except ValueError:
            raise UnknownParameterError(
                f"{value} not in domain of {self.name}: {self.values}"
            ) from None

    def contains(self, value: int) -> bool:
        return value in self.values

    def clip(self, value: int) -> int:
        """Nearest domain value (ties resolve downward) — used for repair."""
        best = min(self.values, key=lambda v: (abs(v - value), v))
        return best

    @cached_property
    def values_array(self) -> np.ndarray:
        """The domain as a sorted int64 array (the vectorized paths' view)."""
        return np.asarray(self.values, dtype=np.int64)


def _pow2_param(name: str, cap: int) -> Parameter:
    return Parameter(name, ParameterKind.POW2, tuple(powers_of_two_upto(cap)))


def _bool_param(name: str) -> Parameter:
    return Parameter(name, ParameterKind.BOOL, (1, 2))


def build_parameters(
    pattern: StencilPattern,
    *,
    max_tb_xy: int = 1024,
    max_tb_z: int = 64,
    max_factor: int | None = None,
) -> list[Parameter]:
    """Instantiate the Table I parameter list for one stencil.

    ``max_factor`` optionally caps the unroll/merge domains below the
    grid extent — useful for scaled-down test spaces; ``None`` keeps the
    paper's full ``[1, M_n]`` ranges.
    """
    m1, m2, m3 = pattern.grid

    def cap(m: int) -> int:
        return m if max_factor is None else min(m, max_factor)

    params = [
        _pow2_param("TBx", max_tb_xy),
        _pow2_param("TBy", max_tb_xy),
        _pow2_param("TBz", max_tb_z),
        _bool_param("useShared"),
        _bool_param("useConstant"),
        _bool_param("useStreaming"),
        Parameter("SD", ParameterKind.ENUM, (1, 2, 3)),
        _pow2_param("SB", max(m1, m2, m3)),
        _pow2_param("UFx", cap(m1)),
        _pow2_param("UFy", cap(m2)),
        _pow2_param("UFz", cap(m3)),
        _pow2_param("CMx", cap(m1)),
        _pow2_param("CMy", cap(m2)),
        _pow2_param("CMz", cap(m3)),
        _pow2_param("BMx", cap(m1)),
        _pow2_param("BMy", cap(m2)),
        _pow2_param("BMz", cap(m3)),
        _bool_param("useRetiming"),
        _bool_param("usePrefetching"),
    ]
    assert tuple(p.name for p in params) == PARAMETER_ORDER
    return params
