"""The versioned golden-record table and the serve fast path.

A *golden record* is the best-known setting for one (stencil, device,
grid) triple, stamped with the model schema it was measured under and
the table version that last changed it. ``repro db update-golden``
recomputes the table from the shards — the moral equivalent of
MITuna's ``update_golden`` step over its find database — and the serve
fast path answers "what is the best setting?" with one dict lookup, no
simulator or tuner construction.

Freshness rule: a record is served only while its ``schema`` matches
the current :data:`~repro.gpusim.diskcache.SCHEMA_VERSION` (the same
guard the evaluation journal uses — bumping the analytical model
retires stale goldens instead of replaying them wrongly) and its
device token still matches the requesting device spec byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.result import TracePoint, TuningResult
from repro.gpusim.device import DeviceSpec
from repro.gpusim.diskcache import SCHEMA_VERSION
from repro.space.setting import Setting
from repro.utils.journal import rewrite

if TYPE_CHECKING:  # import cycle: db → golden only at runtime call sites
    from repro.resultsdb.db import ResultsDB

#: Top-level kind tag of ``golden.json``.
GOLDEN_KIND = "repro-golden"

#: Golden-table key: (stencil, device token, grid).
GoldenKey = tuple[str, str, tuple[int, ...] | None]


@dataclass(frozen=True)
class GoldenRecord:
    """Best-known setting for one (stencil, device, grid)."""

    stencil: str
    device_token: str
    device_name: str | None
    grid: tuple[int, ...] | None
    values: tuple[int, ...]
    time_s: float
    schema: int
    version: int

    @property
    def fresh(self) -> bool:
        """Measured under the current analytical-model schema?"""
        return self.schema == SCHEMA_VERSION

    def key(self) -> GoldenKey:
        return (self.stencil, self.device_token, self.grid)

    def setting(self) -> Setting:
        return Setting.from_values(self.values)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stencil": self.stencil,
            "device": self.device_token,
            "device_name": self.device_name,
            "grid": list(self.grid) if self.grid is not None else None,
            "values": list(self.values),
            "time_s": self.time_s,
            "schema": self.schema,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "GoldenRecord | None":
        try:
            grid = obj.get("grid")
            values = obj["values"]
            if not (
                isinstance(obj["stencil"], str)
                and isinstance(obj["device"], str)
                and isinstance(values, list)
                and all(isinstance(v, int) for v in values)
                and isinstance(obj["time_s"], (int, float))
                and isinstance(obj["schema"], int)
                and isinstance(obj["version"], int)
                and (grid is None or (
                    isinstance(grid, list)
                    and all(isinstance(g, int) for g in grid)
                ))
            ):
                return None
            name = obj.get("device_name")
            return cls(
                stencil=obj["stencil"],
                device_token=obj["device"],
                device_name=name if isinstance(name, str) else None,
                grid=tuple(grid) if grid is not None else None,
                values=tuple(values),
                time_s=float(obj["time_s"]),
                schema=obj["schema"],
                version=obj["version"],
            )
        except (KeyError, TypeError, ValueError):
            return None


class GoldenTable:
    """In-memory golden table: version counter + keyed records."""

    def __init__(
        self,
        records: dict[GoldenKey, GoldenRecord] | None = None,
        version: int = 0,
    ) -> None:
        self.records = records or {}
        self.version = version

    def __len__(self) -> int:
        return len(self.records)

    def get(self, key: GoldenKey) -> GoldenRecord | None:
        return self.records.get(key)

    def serve(
        self, stencil: str, tok: str, grid: tuple[int, ...] | None
    ) -> GoldenRecord | None:
        """The O(1) fast path: fresh record for the triple, or None."""
        record = self.records.get((stencil, tok, grid))
        if record is not None and record.fresh:
            return record
        return None


def load_golden(path: str | Path) -> GoldenTable:
    """Read ``golden.json`` (missing or corrupt → empty table)."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return GoldenTable()
    if not isinstance(obj, dict) or obj.get("kind") != GOLDEN_KIND:
        return GoldenTable()
    version = obj.get("version")
    records: dict[GoldenKey, GoldenRecord] = {}
    for entry in obj.get("records", []):
        if not isinstance(entry, dict):
            continue
        record = GoldenRecord.from_dict(entry)
        if record is not None:
            records[record.key()] = record
    return GoldenTable(
        records, version=version if isinstance(version, int) else 0
    )


def save_golden_payload(table: GoldenTable) -> dict[str, Any]:
    return {
        "kind": GOLDEN_KIND,
        "version": table.version,
        "records": [
            table.records[key].to_dict() for key in sorted(table.records)
        ],
    }


def save_golden(path: str | Path, table: GoldenTable) -> Path:
    """Write ``golden.json`` atomically: a crash keeps the old table."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    rewrite(out, json.dumps(save_golden_payload(table), indent=2) + "\n")
    return out


def _grid_of(stencil: str) -> tuple[int, ...] | None:
    """Grid of a suite stencil (None for stencils this build doesn't know)."""
    from repro.errors import UnknownStencilError
    from repro.stencil.suite import get_stencil

    try:
        return tuple(get_stencil(stencil).grid)
    except UnknownStencilError:
        return None


def update_golden(db: "ResultsDB") -> dict[str, int]:
    """Recompute golden records from every shard and persist the table.

    For each (device token, stencil) shard the fastest record becomes a
    candidate. A candidate replaces the existing golden when the key is
    new, the existing record's schema is stale, or the candidate's time
    is strictly better. Any change bumps the table version once, and
    every touched record is stamped with the new version and the
    current schema — so consumers can tell exactly which update last
    improved a record.
    """
    table = db.golden()
    new_version = table.version + 1
    promoted = retained = 0
    for tok, stencil in db.shard_keys():
        shard = db.load_shard(tok, stencil)
        if not shard.records:
            continue
        values, (time_s, _metrics) = min(
            shard.records.items(), key=lambda kv: (kv[1][0], kv[0])
        )
        key: GoldenKey = (stencil, tok, _grid_of(stencil))
        existing = table.get(key)
        if (
            existing is not None
            and existing.fresh
            and existing.time_s <= time_s
        ):
            retained += 1
            continue
        table.records[key] = GoldenRecord(
            stencil=stencil,
            device_token=tok,
            device_name=shard.device_name,
            grid=key[2],
            values=values,
            time_s=time_s,
            schema=SCHEMA_VERSION,
            version=new_version,
        )
        promoted += 1
    if promoted:
        table.version = new_version
    save_golden(db.golden_path, table)
    return {
        "promoted": promoted,
        "retained": retained,
        "total": len(table),
        "version": table.version,
    }


def golden_result(
    record: GoldenRecord,
    tuner: str,
    stencil: str,
    device: DeviceSpec,
) -> TuningResult:
    """Synthesize the :class:`TuningResult` a golden-served run returns.

    Zero evaluations, zero tuning cost — the record *is* the answer.
    The single trace point keeps iso-time/iso-iteration plots well
    defined (best time available from cost 0 on).
    """
    return TuningResult(
        stencil=stencil,
        device=device.name,
        tuner=tuner,
        best_setting=record.setting(),
        best_time_s=record.time_s,
        evaluations=0,
        iterations=0,
        cost_s=0.0,
        trace=[TracePoint(0, 0, 0.0, record.time_s)],
        meta={
            "golden_served": True,
            "golden_version": record.version,
            "golden_schema": record.schema,
        },
    )
