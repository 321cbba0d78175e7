"""Parameter settings: one as a row, many as columns.

A :class:`Setting` is one point in the optimization space: a mapping
from parameter name to integer value, hashable so it can key caches and
dataset rows, with helpers for the vector and log2 encodings used by
the grouping statistics and the PMNF regression.

Many settings lower to an ``(n, 19)`` int64 matrix
(:func:`settings_matrix`), read by name through :class:`SettingColumns`.
A formula over settings — a constraint, a footprint, a plan, the whole
simulator model — is written once against either view; :func:`ops_for`
picks the op table (:data:`ROW` or :data:`COLUMNS`) for the handful of
operations the two spell differently: selects, min/max/clip, a gather
by index, integer ceil, ``bit_length`` and float conversion. Everything
else is plain ``+ - * / // & | == <`` on either. A select evaluates both
sides and keeps one, so on a row a branch costs nothing in accuracy;
negate a row's condition with a comparison, never ``~`` (``~True`` is
``-2``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.errors import UnknownParameterError
from repro.space.parameters import BOOL_PARAMETERS, PARAM_INDEX, PARAMETER_ORDER

#: Number of parameters of a full setting (the length of its row).
_N_PARAMS = len(PARAMETER_ORDER)


class Setting(Mapping[str, int]):
    """One assignment of values to all (or a subset of) parameters.

    Behaves as an immutable, hashable mapping. A *full* setting (every
    parameter of :data:`PARAMETER_ORDER`, nothing else) is its row: the
    default-order :meth:`values_tuple`, which is its equality key, its
    hash source and what ``setting[name]`` indexes through
    :data:`PARAM_INDEX`. The simulator keys its caches by the same
    tuple. A partial setting keys by its sorted item tuple. Either way
    two settings built in different orders compare equal, and a partial
    setting never equals a full one.

    A setting built by :meth:`_from_row` holds only its row; the name →
    value dict is made on demand (``to_dict``, ``repr``, pickling and
    comparison with a plain mapping) and iterates in
    :data:`PARAMETER_ORDER`. A hand-built setting keeps the dict it was
    given (iteration follows its insertion order) and lowers to its row
    the first time it is hashed, compared or asked for its value tuple.
    """

    __slots__ = ("_values", "_vt", "_pkey", "_hash", "_vtr")

    def __init__(self, values: Mapping[str, int]) -> None:
        for name, v in values.items():
            if not isinstance(v, (int,)) or isinstance(v, bool):
                raise TypeError(f"parameter {name} must be an int, got {v!r}")
        self._values: dict[str, int] | None = dict(values)
        self._vt: tuple[int, ...] | None = None
        self._pkey: tuple[tuple[str, int], ...] | None = None
        self._hash: int | None = None
        self._vtr: str | None = None

    @classmethod
    def _from_row(cls, row: tuple[int, ...]) -> "Setting":
        """A full setting from a trusted row, skipping ``__init__``'s checks.

        ``row`` holds plain Python ints in :data:`PARAMETER_ORDER`; the
        result equals ``Setting(dict(zip(PARAMETER_ORDER, row)))``. It
        stores the row and its hash, nothing else.
        """
        self = cls.__new__(cls)
        self._values = None
        self._vt = row
        self._pkey = None
        self._hash = hash(row)
        self._vtr = None
        return self

    def _row(self) -> tuple[int, ...] | None:
        """The row of a full setting, ``None`` for a partial one.

        Decided once: a hand-built setting caches its row, or its sorted
        item tuple when it is partial.
        """
        row = self._vt
        if row is None and self._pkey is None:
            values = self._values
            assert values is not None  # only row-born settings lack a dict
            if len(values) == _N_PARAMS and values.keys() == PARAM_INDEX.keys():
                row = self._vt = tuple([values[n] for n in PARAMETER_ORDER])
            else:
                self._pkey = tuple(sorted(values.items()))
        return row

    @property
    def _key(self) -> tuple[Any, ...]:
        """The equality key: the row, or the sorted items when partial."""
        row = self._row()
        return row if row is not None else self._pkey  # type: ignore[return-value]

    def _mapping(self) -> dict[str, int]:
        """The name → value dict (made from the row on first use)."""
        values = self._values
        if values is None:
            row: tuple[int, ...] = self._vt  # type: ignore[assignment]
            values = self._values = dict(zip(PARAMETER_ORDER, row))
        return values

    # -- Mapping protocol ------------------------------------------------

    def __getitem__(self, name: str) -> int:
        try:
            row = self._vt
            if row is not None:
                return row[PARAM_INDEX[name]]
            return self._values[name]  # type: ignore[index]
        except KeyError:
            raise UnknownParameterError(f"setting has no parameter {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        values = self._values
        return iter(PARAMETER_ORDER if values is None else values)

    def __len__(self) -> int:
        values = self._values
        return _N_PARAMS if values is None else len(values)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key)
        return h

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Setting):
            a, b = self._vt, other._vt
            if a is not None and b is not None:
                return a == b
            return self._key == other._key
        if isinstance(other, Mapping):
            return self._mapping() == dict(other)
        return NotImplemented

    def __reduce__(self) -> tuple[type["Setting"], tuple[dict[str, int]]]:
        """Pickle by value dict, re-running ``__init__`` on unpickle.

        A full setting's hash is the builtin ``hash`` of its int row,
        which is not salted: it is the same in every interpreter. A
        partial setting's hash covers its names, and string hashes are
        salted per interpreter, so the receiving process recomputes the
        hash from the dict rather than trusting a cached one.
        """
        return (Setting, (self._mapping(),))

    def __repr__(self) -> str:
        row = self._row()
        if row is not None:  # a full setting lists its row in order
            inner = ", ".join([f"{n}={v}" for n, v in zip(PARAMETER_ORDER, row)])
            return f"Setting({inner})"
        values = self._mapping()
        order = [n for n in PARAMETER_ORDER if n in values]
        order += sorted(set(values) - set(order))
        inner = ", ".join(f"{n}={values[n]}" for n in order)
        return f"Setting({inner})"

    # -- Derived views ---------------------------------------------------

    def enabled(self, switch: str) -> bool:
        """True iff a boolean switch (1/2 convention) is set to 2."""
        if switch not in BOOL_PARAMETERS:
            raise UnknownParameterError(f"{switch!r} is not a boolean switch")
        return self[switch] == 2

    def replace(self, **updates: int) -> "Setting":
        """Copy with some values replaced (unknown names are rejected)."""
        merged = self.to_dict()
        for name in updates:
            if name not in merged:
                raise UnknownParameterError(f"setting has no parameter {name!r}")
        merged.update(updates)
        return Setting(merged)

    def values_tuple(self, order: tuple[str, ...] = PARAMETER_ORDER) -> tuple[int, ...]:
        """Values in a fixed parameter order (vector encoding).

        The default-order tuple is the full setting's row — with the
        stencil name it keys the simulator's caches on every
        evaluation.
        """
        if order is PARAMETER_ORDER:
            row = self._vt
            if row is None:
                row = self._row()
                if row is None:  # partial: name the first missing parameter
                    return tuple(self[name] for name in order)
            return row
        return tuple(self[name] for name in order)
    def values_repr(self) -> str:
        """``repr(self.values_tuple())``, cached.

        The simulator hashes the value tuple on every evaluation (noise
        seeding); rendering it once per setting keeps that off the
        batch path's per-evaluation cost.
        """
        r = self._vtr
        if r is None:
            r = self._vtr = repr(self.values_tuple())
        return r

    def log2_value(self, name: str) -> float:
        """log2 of the value.

        The paper applies log2 to numerical parameters before computing
        coefficients of variation so the statistics act on a continuous
        scale; booleans/enums start at 1, keeping the log legitimate.
        """
        return math.log2(self[name])

    def log2_vector(self, order: tuple[str, ...] = PARAMETER_ORDER) -> tuple[float, ...]:
        return tuple(self.log2_value(name) for name in order)

    def to_dict(self) -> dict[str, int]:
        """Plain-dict copy (JSON-safe)."""
        return dict(self._mapping())

    @classmethod
    def from_values(
        cls, values: tuple[int, ...], order: tuple[str, ...] = PARAMETER_ORDER
    ) -> "Setting":
        """Inverse of :meth:`values_tuple`."""
        if len(values) != len(order):
            raise ValueError(f"expected {len(order)} values, got {len(values)}")
        return cls(dict(zip(order, values)))


def settings_matrix(
    settings: Sequence[Setting], names: tuple[str, ...] = PARAMETER_ORDER
) -> np.ndarray:
    """Lower settings into structure-of-arrays form.

    Returns an ``(n_settings, len(names))`` int64 matrix — the layout
    every vectorized (batch) pipeline stage consumes. Column ``j`` of
    the result is the array of values of parameter ``names[j]``; a
    space's matrices use its ``names``, which for the stencil space are
    :data:`~repro.space.parameters.PARAMETER_ORDER`.
    """
    if not settings:
        return np.empty((0, len(names)), dtype=np.int64)
    return np.array([s.values_tuple(names) for s in settings], dtype=np.int64)


def settings_from_matrix(
    values: np.ndarray, names: tuple[str, ...] = PARAMETER_ORDER
) -> list[Setting]:
    """Inverse of :func:`settings_matrix` — one :class:`Setting` per row.

    This is the single point where a vectorized pipeline stage lifts its
    structure-of-arrays matrix back into setting objects. Full rows go
    through :meth:`Setting._from_row` (the matrix holds ints, so the
    per-value type checks are skipped), which seeds the cached
    default-order value tuple (the simulator's cache key): the settings
    are born "lowered" (no later per-setting tuple rebuild). Rows over
    other ``names`` (an extended space's) become name → value settings.
    """
    if names == PARAMETER_ORDER:
        return [Setting._from_row(tuple(row)) for row in values.tolist()]
    return [Setting(dict(zip(names, row))) for row in values.tolist()]


class SettingColumns:
    """Name → column view of a settings matrix.

    Reads like a :class:`Setting` (``cols["TBx"]``,
    ``cols.enabled("useShared")``), but each lookup yields that
    parameter's column over every row, so one formula reads a setting
    and a matrix alike. The column views are taken once, and ``work``
    keeps the per-thread work tile
    (:func:`repro.space.constraints.thread_work`) once it is computed:
    a model pass lowers its matrix to one of these, which the plan, the
    footprints and the rules all read. Columns past the
    :data:`PARAMETER_ORDER` ones (an extended space's) are not read.
    """

    __slots__ = ("values", "_columns", "work")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self._columns = dict(zip(PARAMETER_ORDER, values.T))
        self.work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def enabled(self, switch: str) -> np.ndarray:
        """True where a boolean switch (1/2 convention) is set to 2."""
        return self[switch] == 2


class Ops(NamedTuple):
    """The operations a row and columns spell differently."""

    where: Callable[[Any, Any, Any], Any]
    minimum: Callable[[Any, Any], Any]
    maximum: Callable[[Any, Any], Any]
    clip: Callable[[Any, Any, Any], Any]
    #: ``choices[index]``, per row for columns.
    choose: Callable[[Any, Sequence[Any]], Any]
    ceil_int: Callable[[Any], Any]
    bit_length: Callable[[Any], Any]
    to_float: Callable[[Any], Any]
    #: ``values`` at the first true entry of ``mask``, or ``None``.
    first_true: Callable[[Any, Any], Any]


def _row_where(cond: bool, a: Any, b: Any) -> Any:
    return a if cond else b


def _row_clip(x: Any, lo: Any, hi: Any) -> Any:
    return max(lo, min(hi, x))


def _row_choose(index: int, choices: Sequence[Any]) -> Any:
    return choices[index]


def _row_first_true(mask: bool, values: Any) -> Any:
    return values if mask else None


def _col_clip(x: Any, lo: Any, hi: Any) -> Any:
    """``np.clip``'s two ufuncs, without its Python-level dispatch."""
    return np.minimum(np.maximum(x, lo), hi)


def _col_ceil_int(x: np.ndarray) -> np.ndarray:
    return np.ceil(x).astype(np.int64)


def _col_bit_length(x: np.ndarray) -> np.ndarray:
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def _col_to_float(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _col_first_true(mask: np.ndarray, values: np.ndarray) -> Any:
    return values[np.argmax(mask)] if mask.any() else None


#: Python builtins and :mod:`math`: results stay exact ``int``/``float``.
ROW = Ops(
    where=_row_where,
    minimum=min,
    maximum=max,
    clip=_row_clip,
    choose=_row_choose,
    ceil_int=math.ceil,
    bit_length=int.bit_length,
    to_float=float,
    first_true=_row_first_true,
)

#: NumPy: row *i* of each result equals the :data:`ROW` result of row *i*.
COLUMNS = Ops(
    where=np.where,
    minimum=np.minimum,
    maximum=np.maximum,
    clip=_col_clip,
    choose=np.choose,
    ceil_int=_col_ceil_int,
    bit_length=_col_bit_length,
    to_float=_col_to_float,
    first_true=_col_first_true,
)


def ops_for(setting: Any) -> Ops:
    """:data:`COLUMNS` for a :class:`SettingColumns`, else :data:`ROW`
    (a :class:`Setting` or any name → value mapping)."""
    return COLUMNS if isinstance(setting, SettingColumns) else ROW
