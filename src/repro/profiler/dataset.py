"""The performance dataset: profiled (setting, time, metrics) rows.

csTuner randomly samples a small number of settings (128 in the paper's
configuration) per stencil, profiles them with Nsight and uses the
resulting dataset to group parameters and fit the PMNF models
(Section IV-A). This module is that dataset: an ordered collection of
records with the lookups, matrices and serialisation the pipeline
needs.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.space.setting import Setting


@dataclass(frozen=True)
class DatasetRecord:
    """One profiled setting: measured time plus Nsight-style metrics."""

    setting: Setting
    time_s: float
    metrics: dict[str, float]

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise DatasetError(f"record has no metric {name!r}") from None


class PerformanceDataset:
    """Ordered, setting-indexed collection of profiled runs."""

    def __init__(
        self,
        stencil: str,
        device: str,
        records: Iterable[DatasetRecord] = (),
    ) -> None:
        self.stencil = stencil
        self.device = device
        self._records: list[DatasetRecord] = []
        self._by_setting: dict[Setting, int] = {}
        for rec in records:
            self.add(rec)

    # -- mutation ----------------------------------------------------------

    def add(self, record: DatasetRecord) -> None:
        """Append a record; re-profiling the same setting replaces it."""
        idx = self._by_setting.get(record.setting)
        if idx is not None:
            self._records[idx] = record
        else:
            self._by_setting[record.setting] = len(self._records)
            self._records.append(record)

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DatasetRecord]:
        return iter(self._records)

    @property
    def records(self) -> Sequence[DatasetRecord]:
        return tuple(self._records)

    @property
    def settings(self) -> list[Setting]:
        return [r.setting for r in self._records]

    def lookup(self, setting: Setting) -> DatasetRecord | None:
        idx = self._by_setting.get(setting)
        return None if idx is None else self._records[idx]

    def times(self) -> np.ndarray:
        """Measured times, one per record, in insertion order."""
        return np.array([r.time_s for r in self._records], dtype=np.float64)

    def best(self) -> DatasetRecord:
        """Fastest record in the dataset (the grouping anchor)."""
        if not self._records:
            raise DatasetError(f"dataset for {self.stencil} is empty")
        return min(self._records, key=lambda r: r.time_s)

    def metric_names(self) -> list[str]:
        if not self._records:
            raise DatasetError(f"dataset for {self.stencil} is empty")
        return sorted(self._records[0].metrics)

    def metric_rows(
        self, names: Sequence[str] | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """(n_metrics, n_records) matrix, one contiguous row per metric
        in record order, plus the row names: every metric lowered in one
        pass."""
        cols = list(names) if names is not None else self.metric_names()
        try:
            data = np.array(
                [[r.metrics[name] for r in self._records] for name in cols],
                dtype=np.float64,
            )
        except KeyError as exc:
            raise DatasetError(f"record has no metric {exc.args[0]!r}") from None
        return data.reshape(len(cols), len(self._records)), cols

    def metric_matrix(
        self, names: Sequence[str] | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """(n_records, n_metrics) matrix plus the column names."""
        rows, cols = self.metric_rows(names)
        return rows.T, cols

    def metric_column(self, name: str) -> np.ndarray:
        return self.metric_rows([name])[0][0]

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "stencil": self.stencil,
            "device": self.device,
            "records": [
                {
                    "setting": r.setting.to_dict(),
                    "time_s": r.time_s,
                    "metrics": r.metrics,
                }
                for r in self._records
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PerformanceDataset":
        try:
            payload = json.loads(text)
            ds = cls(payload["stencil"], payload["device"])
            for row in payload["records"]:
                ds.add(
                    DatasetRecord(
                        setting=Setting(
                            {k: int(v) for k, v in row["setting"].items()}
                        ),
                        time_s=float(row["time_s"]),
                        metrics={k: float(v) for k, v in row["metrics"].items()},
                    )
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise DatasetError(f"malformed dataset JSON: {exc}") from exc
        return ds

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PerformanceDataset":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
