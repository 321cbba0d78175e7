"""Deterministic, process-stable hashing.

Python's builtin ``hash`` is salted per process, which would make the
simulator's per-setting landscape roughness irreproducible across runs.
We hash through BLAKE2 instead so the same (stencil, setting, device)
triple always lands on the same pseudo-random perturbation.
"""

from __future__ import annotations

import hashlib
from typing import Any


def stable_hash(*parts: Any, bits: int = 64) -> int:
    """Hash a tuple of primitive parts into a non-negative ``bits``-bit int.

    Parts are rendered with ``repr`` — adequate for the ints, floats,
    strings and tuples used as keys in this package — and joined with an
    unambiguous separator.
    """
    if bits <= 0 or bits > 256:
        raise ValueError(f"bits must be in (0, 256], got {bits}")
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=32).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


def unit_hash(*parts: Any) -> float:
    """Map parts to a deterministic float in ``[0, 1)``.

    Used for the simulator's multiplicative "hardware roughness" terms.
    """
    return stable_hash(*parts, bits=53) / float(1 << 53)


def hash_prefix(*parts: Any) -> str:
    """Render leading hash parts once, for batched hashing.

    ``stable_hash(a, b, x)`` hashes the payload
    ``hash_prefix(a, b) + repr(x)`` — batch loops hoist the constant
    leading parts out of their per-item hash calls (see
    :func:`unit_hash_with_prefix` and the simulator's noise seeding).
    """
    return "\x1f".join(repr(p) for p in parts) + "\x1f"


def unit_hash_with_prefix(prefix: str, parts: Any) -> float:
    """:func:`unit_hash` over ``prefix`` plus an iterable of trailing parts.

    ``unit_hash(a, b, *xs)`` equals
    ``unit_hash_with_prefix(hash_prefix(a, b), xs)``.
    """
    payload = (prefix + "\x1f".join(map(repr, parts))).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=32).digest()
    return (int.from_bytes(digest, "big") % (1 << 53)) / float(1 << 53)
