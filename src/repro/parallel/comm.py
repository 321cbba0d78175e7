"""The island GA's ring and the compact inter-process transport.

The ring abstraction is deliberately tiny — exactly what the island GA
needs: every rank simultaneously sends one payload to each ring
neighbour and receives the payloads addressed to it (an ``MPI_Sendrecv``
pair per neighbour in MPI terms). :class:`LocalRing` is its
deterministic in-process form: all sub-populations live in one process
and :meth:`LocalRing.exchange` performs the whole-ring exchange in
lockstep, so results are bit-reproducible.

This module also owns the **payload codec** of the warm worker fleet
(:func:`encode_payload` / :func:`decode_payload`): one
pickle-protocol-5 pass per message with every large binary buffer
(NumPy result blocks, counter-delta vectors) carried out-of-band in a
single frame. Encoding pickles once per *chunk* of work rather than
once per task, and decoding reconstructs arrays as zero-copy views
into the received frame — the parent never re-copies worker result
blocks.
"""

from __future__ import annotations

import pickle
import struct
from collections.abc import Sequence
from typing import Any

from repro.errors import CommunicatorError

#: Frame header: u32 buffer count, then u64 lengths (pickle data first).
_LEN_U32 = struct.Struct("<I")
_LEN_U64 = struct.Struct("<Q")


def encode_payload(obj: Any) -> bytes:
    """Serialize ``obj`` into one self-describing binary frame.

    The object graph is pickled exactly once (protocol 5); buffer-
    protocol leaves — NumPy arrays, ``bytes``-like blocks — are split
    out via ``buffer_callback`` and concatenated after the pickle
    stream, so nothing inside the graph is serialized twice.
    """
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raw = [buf.raw() for buf in buffers]
    parts = [
        _LEN_U32.pack(len(raw)),
        _LEN_U64.pack(len(data)),
    ]
    parts.extend(_LEN_U64.pack(len(view)) for view in raw)
    parts.append(data)
    parts.extend(raw)
    return b"".join(parts)


def decode_payload(frame: bytes | memoryview) -> Any:
    """Inverse of :func:`encode_payload`.

    Out-of-band buffers are handed to :func:`pickle.loads` as
    memoryview slices of ``frame`` — arrays inside the decoded object
    alias the received frame instead of copying it.
    """
    view = memoryview(frame)
    (n_buffers,) = _LEN_U32.unpack_from(view, 0)
    offset = _LEN_U32.size
    (data_len,) = _LEN_U64.unpack_from(view, offset)
    offset += _LEN_U64.size
    buffer_lens = []
    for _ in range(n_buffers):
        (length,) = _LEN_U64.unpack_from(view, offset)
        offset += _LEN_U64.size
        buffer_lens.append(length)
    data = view[offset:offset + data_len]
    offset += data_len
    buffers = []
    for length in buffer_lens:
        buffers.append(view[offset:offset + length])
        offset += length
    return pickle.loads(data, buffers=buffers)


class LocalRing:
    """Deterministic in-process ring used by the island GA.

    Migration in the paper exchanges individuals with the two ring
    neighbours of each sub-population (single-ring topology, Fig 6);
    :meth:`exchange` performs exactly that collective for all ranks at
    once.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise CommunicatorError(f"ring size must be >= 1, got {size}")
        self.size = size

    def exchange(self, payloads: Sequence[Any]) -> list[tuple[Any, Any]]:
        """Payload ``i`` goes to both neighbours of rank ``i``.

        Returns, for each rank, the (from_left, from_right) pair. For
        ``size == 1`` the single rank is its own neighbour (migration
        becomes a no-op re-injection), matching MPI ring semantics.
        """
        if len(payloads) != self.size:
            raise CommunicatorError(
                f"expected {self.size} payloads, got {len(payloads)}"
            )
        return [
            (payloads[(r - 1) % self.size], payloads[(r + 1) % self.size])
            for r in range(self.size)
        ]


def ring_exchange(payloads: Sequence[Any]) -> list[tuple[Any, Any]]:
    """Functional helper: one-shot ring exchange over a payload list."""
    return LocalRing(len(payloads)).exchange(payloads)
