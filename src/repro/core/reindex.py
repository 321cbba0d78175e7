"""Group value re-indexing (Fig 7).

After sampling, the surviving values of each parameter group are no
longer contiguous — a gene initialised or mutated over the raw domain
would constantly land outside the sampled space. csTuner therefore
re-indexes each group's available value *tuples*: the observed tuples
are sorted ascending and mapped onto ``0 .. n-1``, and each gene's
valid range becomes the dense integer interval ``[0, n-1]``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SearchError
from repro.space.setting import Setting


class GroupIndex:
    """Dense index over one parameter group's sampled value tuples.

    ``tuples`` is anything :func:`numpy.asarray` reads as an
    ``(m, arity)`` integer matrix: a list of value tuples, or the
    group's columns of a lowered settings matrix. Its distinct rows,
    sorted ascending (``np.unique(axis=0)``, which equals
    ``sorted(set(tuples))``), are the index.
    """

    def __init__(
        self, group: Sequence[str], tuples: Sequence[Sequence[int]] | np.ndarray
    ) -> None:
        self.group: tuple[str, ...] = tuple(group)
        rows = np.asarray(tuples, dtype=np.int64)
        if rows.size == 0:
            raise SearchError(
                f"group {self.group} has no values in the sampled space"
            )
        if rows.ndim != 2 or rows.shape[1] != len(self.group):
            raise SearchError(
                f"tuples of shape {rows.shape} do not match group arity "
                f"{len(self.group)}"
            )
        #: The sorted distinct tuples as an ``(n, arity)`` int64 matrix —
        #: the gather table behind :meth:`decode_array`.
        self.tuple_array: np.ndarray = np.unique(rows, axis=0)
        self.tuples: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, self.tuple_array.tolist())
        )
        self._index = {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def bits(self) -> int:
        """Bits needed to store a gene over this index (for mutation)."""
        return max(1, (len(self.tuples) - 1).bit_length())

    def decode(self, index: int) -> dict[str, int]:
        """Gene value → parameter assignments for this group."""
        if not 0 <= index < len(self.tuples):
            raise SearchError(
                f"gene {index} outside [0, {len(self.tuples) - 1}] for {self.group}"
            )
        return dict(zip(self.group, self.tuples[index]))

    def decode_array(self, genes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`decode`: gene indices → ``(m, arity)`` values.

        One fancy-indexed gather replaces ``m`` dict constructions; rows
        align with ``genes`` and columns with :attr:`group`.
        """
        genes = np.asarray(genes, dtype=np.int64)
        if genes.size and (
            int(genes.min()) < 0 or int(genes.max()) >= len(self.tuples)
        ):
            raise SearchError(
                f"gene outside [0, {len(self.tuples) - 1}] for {self.group}"
            )
        return self.tuple_array[genes]

    def index_of(self, setting: Setting) -> int | None:
        """Index of the group's value tuple in ``setting`` (None if absent)."""
        return self._index.get(tuple(setting[name] for name in self.group))


def build_group_indexes(
    groups: Sequence[Sequence[str]],
    values: np.ndarray,
    names: Sequence[str],
) -> list[GroupIndex]:
    """One :class:`GroupIndex` per group from the sampled settings,
    lowered once into ``values`` (columns ``names``, a space's
    :attr:`names`)."""
    if len(values) == 0:
        raise SearchError("cannot index an empty sampled space")
    column = {name: j for j, name in enumerate(names)}
    return [
        GroupIndex(group, values[:, [column[name] for name in group]])
        for group in groups
    ]
