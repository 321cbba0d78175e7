"""Random-number-generator plumbing.

All stochastic components (dataset sampling, GA initialisation, mutation)
take a :class:`numpy.random.Generator` so experiments are reproducible
end-to-end from a single seed. These helpers centralise construction and
independent-stream spawning. :class:`_PCG64Replay` replays NumPy's
bounded draws over raw PCG64 words for the hot loops that would
otherwise make one generator call per drawn value (the space sampler,
the forests' feature pools).
"""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed (or an existing generator, or ``None``) to a Generator.

    Passing a Generator through unchanged lets call chains share one
    stream; passing an int gives a fresh deterministic stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent child generators.

    Used by the multi-population GA so each island (rank) owns its own
    stream — results are then invariant to evaluation interleaving.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


#: Raw 64-bit words a :class:`_PCG64Replay` fetches first and at most.
#: Blocks double in between, so a short replay holds little (a forest
#: keeps one per tree alive) and a long one refills rarely.
_REPLAY_FIRST_WORDS = 64
_REPLAY_BLOCK_WORDS = 1024


class _PCG64Replay:
    """NumPy's bounded draws replayed in plain Python over PCG64 words.

    :meth:`integers` returns what ``Generator.integers(k)`` would,
    :meth:`shuffle` permutes a list as ``Generator.shuffle`` would and
    :meth:`choice` draws what ``Generator.choice(pop, size,
    replace=False)`` would, each consuming the same 32-bit halves
    NumPy's ``next_uint32`` hands out: the low half of a raw word
    first, its high half buffered for the next draw.

    The halves sit in a list read at an integer cursor. A caller may
    read them by index itself: :meth:`window` takes the caller's cursor
    back and hands out the list and cursor with enough halves ready.
    :meth:`block` does the same with the halves in a uint32 array, for
    a decoder that reads many at once (the space sampler); the replay
    stays array-backed from then on, so it is read on with
    :meth:`block` only. Words are fetched in growing blocks with
    ``random_raw``; :meth:`sync` then rewinds the generator to its
    entry state and replays the words actually consumed, so it ends
    exactly where the per-call draws would have left it, half-word
    buffer included. Only PCG64 is replayed (every generator
    :func:`numpy.random.default_rng` makes is one): other bit
    generators raise :class:`TypeError`.
    """

    __slots__ = ("_bitgen", "_entry", "_halves", "_pos", "_base")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = getattr(rng, "bit_generator", None)
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                f"exact draws replay PCG64; got a "
                f"{type(bitgen).__name__} bit generator"
            )
        self._bitgen = bitgen
        self._entry = bitgen.state
        # Halves are numbered along the stream: word w holds 2w (low)
        # and 2w + 1 (high). The entry's buffered half (NumPy keeps the
        # last one handed out in ``uinteger`` even when none is
        # pending) is the high half of a virtual word -1, still to come
        # only when pending. ``_base`` numbers ``_halves[0]``; the half
        # before the cursor is always kept, since :meth:`sync` may need
        # it as the buffered half.
        self._halves: list[int] | np.ndarray = [0, self._entry["uinteger"]]
        self._pos = 2 - self._entry["has_uint32"]
        self._base = -2

    def _fill(self, need: int) -> None:
        """Make at least ``need`` halves readable from the cursor on."""
        halves, pos = self._halves, self._pos
        if len(halves) - pos >= need:
            return
        words = max(min(max(len(halves), _REPLAY_FIRST_WORDS),
                        _REPLAY_BLOCK_WORDS), (need + 1) // 2)
        raw = self._bitgen.random_raw(words).astype("<u8").view("<u4")
        if isinstance(halves, list):
            self._halves = halves[pos - 1:] + raw.tolist()
        else:
            self._halves = np.concatenate((halves[pos - 1:], raw))
        self._base += pos - 1
        self._pos = 1

    def _next(self) -> int:
        """NumPy's ``next_uint32``: the next 32-bit half."""
        pos = self._pos
        if pos == len(self._halves):
            self._fill(1)
            pos = 1
        self._pos = pos + 1
        return self._halves[pos]

    def _lemire(self, m: int, k: int) -> int:
        """Finish Lemire's method from a first product ``m = half * k``:
        redraw while its low word is in the biased sliver; return the
        accepted product (the value is its high word)."""
        threshold = (0x100000000 - k) % k
        while m & 0xFFFFFFFF < threshold:
            m = self._next() * k
        return m

    def window(self, need: int, pos: int | None = None) -> tuple[list[int], int]:
        """The half list and the cursor into it, at least ``need``
        halves readable from the cursor on.

        ``pos`` is the caller's cursor into the list last handed out
        (``None``: the replay's own). A refill replaces the list and
        moves the cursor, so the caller reads on from what is returned.
        """
        if pos is not None:
            self._pos = pos
        self._fill(need)
        return self._halves, self._pos

    def block(self, need: int, pos: int | None = None) -> tuple[np.ndarray, int]:
        """:meth:`window` with the halves in a uint32 array."""
        if isinstance(self._halves, list):
            self._halves = np.array(self._halves, dtype=np.uint32)
        return self.window(need, pos)  # type: ignore[return-value]

    def integers(self, k: int) -> int:
        """``Generator.integers(k)`` for ``1 <= k < 2**32``: Lemire's
        method on one half, resampled only in the biased sliver."""
        if k == 1:
            return 0
        m = self._next() * k
        if m & 0xFFFFFFFF < k:
            m = self._lemire(m, k)
        return m >> 32

    def random_interval(self, max_value: int) -> int:
        """NumPy's ``random_interval`` for ``max_value >= 1``: a masked
        half, rejected while it exceeds ``max_value``."""
        mask = (1 << max_value.bit_length()) - 1
        value = self._next() & mask
        while value > max_value:
            value = self._next() & mask
        return value

    def shuffle(self, items: list[int]) -> None:
        """``Generator.shuffle`` on a list: Fisher-Yates from the end."""
        for i in range(len(items) - 1, 0, -1):
            j = self.random_interval(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, pop: int, size: int) -> list[int]:
        """``Generator.choice(pop, size, replace=False)`` for
        ``1 <= size <= pop``, as NumPy draws it.

        Up to its cutoff NumPy runs Floyd's algorithm (a draw
        ``integers(j + 1)`` per ``j`` in ``pop - size .. pop - 1``, taking
        ``j`` when the value is already picked), then shuffles the picks
        with ``integers(i + 1)`` for ``i = size - 1 .. 1``. Past it
        (``pop > 10000`` and ``size > pop // 50``) it shuffles the tail
        of ``range(pop)`` the same way and returns the last ``size``.
        """
        if pop > 10000 and size > pop // 50:
            items = list(range(pop))
            for i in range(pop - 1, max(pop - size, 1) - 1, -1):
                j = self.integers(i + 1)
                items[i], items[j] = items[j], items[i]
            return items[pop - size:]
        # Each draw is read straight from the half list; Lemire's redraw
        # (rare, in the biased sliver) goes through the replay.
        halves, pos = self._halves, self._pos
        if len(halves) - pos < 2 * size:
            halves, pos = self.window(2 * size)
        picked: list[int] = []
        seen: set[int] = set()
        first = pop - size
        if first == 0:  # integers(1) is 0 and reads nothing
            picked.append(0)
            seen.add(0)
            first = 1
        for j in range(first, pop):
            m = halves[pos] * (j + 1)
            pos += 1
            if m & 0xFFFFFFFF <= j:
                m, halves, pos = self._redraw(m, j + 1, pos, pop - j + size - 2)
            value = m >> 32
            if value in seen:
                value = j
            seen.add(value)
            picked.append(value)
        for i in range(size - 1, 0, -1):
            m = halves[pos] * (i + 1)
            pos += 1
            if m & 0xFFFFFFFF <= i:
                m, halves, pos = self._redraw(m, i + 1, pos, i - 1)
            j = m >> 32
            picked[i], picked[j] = picked[j], picked[i]
        self._pos = pos
        return picked

    def _redraw(self, m: int, k: int, pos: int, need: int) -> tuple[int, list, int]:
        """:meth:`_lemire` for a caller reading the half list at ``pos``:
        the accepted product, then the list and cursor with ``need``
        halves ready, as :meth:`window` hands them out."""
        self._pos = pos
        m = self._lemire(m, k)
        return (m, *self.window(need))

    def sync(self, pos: int | None = None) -> None:
        """Put the generator where the per-call draws would have left it.

        ``pos`` is the caller's cursor, as for :meth:`window`."""
        if pos is not None:
            self._pos = pos
        bitgen = self._bitgen
        at = self._base + self._pos  # stream number of the next half
        bitgen.state = self._entry
        bitgen.random_raw((at + 1) // 2, output=False)
        state = bitgen.state
        # Mid-word, the word's high half is pending; either way it is
        # the buffered half, the odd-numbered half of the last word
        # touched.
        state["has_uint32"] = at & 1
        state["uinteger"] = int(self._halves[((at - 1) | 1) - self._base])
        bitgen.state = state
