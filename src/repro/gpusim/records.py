"""Columnar (structure-of-arrays) evaluation records.

The batch evaluation pipeline computes every metric as one NumPy column
per metric name (:func:`repro.gpusim.model.evaluate_settings`).
Exploding those columns into one dict per setting would be by far the
dominant allocation cost of a warm batch, so this module keeps the
columns together:

* :class:`MetricsTable` — the SoA record: a ``(n_settings, n_metrics)``
  float64 matrix plus the metric-name row layout, shared by every
  setting in the batch.
* :class:`MetricsRow` — a lazy, immutable ``Mapping[str, float]`` view
  of one row. Iteration order is the table's column order, which the
  batch pipeline keeps equal to the row model's dict insertion order —
  so ``dict(row)``, JSON serialization and equality against the row
  dicts all agree bit-for-bit.

Dicts are materialized only at reporting boundaries
(:meth:`MetricsTable.as_dicts` / :meth:`MetricsRow.as_dict`).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np


class MetricsTable:
    """Metrics for a batch of settings in structure-of-arrays form."""

    __slots__ = ("names", "data", "_index")

    def __init__(self, names: Sequence[str], data: np.ndarray) -> None:
        self.names = tuple(names)
        self.data = data
        self._index = {n: j for j, n in enumerate(self.names)}
        if data.ndim != 2 or data.shape[1] != len(self.names):
            raise ValueError(
                f"data shape {data.shape} does not match {len(self.names)} names"
            )

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, i: int) -> "MetricsRow":
        return MetricsRow(self, i)

    def __iter__(self) -> Iterator["MetricsRow"]:
        for i in range(len(self)):
            yield MetricsRow(self, i)

    def row(self, i: int) -> "MetricsRow":
        """Lazy mapping view of one setting's metrics (no dict built)."""
        return MetricsRow(self, i)

    def column(self, name: str) -> np.ndarray:
        """One metric across the whole batch."""
        return self.data[:, self._index[name]]

    def with_column(self, name: str, values: np.ndarray) -> "MetricsTable":
        """A new table with one appended column (shared rows grow it)."""
        if name in self._index:
            raise ValueError(f"duplicate metric column {name!r}")
        data = np.concatenate(
            [self.data, np.asarray(values, dtype=np.float64)[:, None]], axis=1
        )
        return MetricsTable(self.names + (name,), data)

    def as_dicts(self) -> list[dict[str, float]]:
        """Materialize one plain-float dict per setting (reporting only)."""
        names = self.names
        return [dict(zip(names, row)) for row in self.data.tolist()]


class MetricsRow(Mapping[str, float]):
    """Immutable mapping view of one :class:`MetricsTable` row.

    Iterates in column order (== the row model dict's insertion
    order) and compares equal to the equivalent plain dict.
    """

    __slots__ = ("_table", "_i")

    def __init__(self, table: MetricsTable, i: int) -> None:
        self._table = table
        self._i = i

    def __getitem__(self, name: str) -> float:
        j = self._table._index.get(name)
        if j is None:
            raise KeyError(name)
        return float(self._table.data[self._i, j])

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.names)

    def __len__(self) -> int:
        return len(self._table.names)

    def __contains__(self, name: object) -> bool:
        return name in self._table._index

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MetricsRow):
            return self._table.names == other._table.names and bool(
                np.array_equal(
                    self._table.data[self._i], other._table.data[other._i]
                )
            )
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MetricsRow({self.as_dict()!r})"

    def as_dict(self) -> dict[str, float]:
        """Materialize the row as a plain-float dict."""
        return dict(zip(self._table.names, self._table.data[self._i].tolist()))

    def items(self) -> Any:
        """Plain-float items, in column order (overrides the O(n·lookup)
        :class:`Mapping` mixin with one ``tolist`` pass)."""
        return self.as_dict().items()
