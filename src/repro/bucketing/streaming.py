"""Out-of-core flavoured bucketing: reservoir sampling of a stream.

The whole point of Algorithm 3.1 is that the relation is too large to sort —
in the paper it lives on disk and is only ever *scanned*.
:class:`ReservoirSampler` is the classic reservoir sampler that maintains a
uniform random sample of a stream without knowing its length; it replaces
the "S-sized random sample" step when the data cannot be indexed.  The
sample it produces is invariant to how the stream is chunked, so every
:class:`~repro.pipeline.DataSource` over the same tuples yields the same
bucket boundaries.  :class:`~repro.pipeline.ProfileBuilder` runs it in the
boundary-sampling pass of every scan plan (Algorithm 3.1 steps 1–3).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import BucketingError

__all__ = ["ReservoirSampler"]


class ReservoirSampler:
    """Uniform random sample of a stream of unknown length (Algorithm R).

    Every element seen so far has the same probability ``k / n`` of being in
    the reservoir of size ``k`` after ``n`` elements, which is exactly the
    uniformity Algorithm 3.1's analysis needs.  Feeding numpy chunks is
    vectorized, and each post-fill element consumes exactly two uniform
    draws (acceptance, then replacement slot) in element order — so for a
    fixed ``rng`` seed the final sample depends only on the element sequence,
    never on the chunk boundaries it arrived in.  That chunk invariance is
    what lets the pipeline produce bit-identical bucket boundaries across
    in-memory, chunked, and CSV sources.
    """

    def __init__(self, capacity: int, rng: np.random.Generator | None = None) -> None:
        if capacity <= 0:
            raise BucketingError("reservoir capacity must be positive")
        self._capacity = int(capacity)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._reservoir = np.empty(self._capacity, dtype=np.float64)
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained sample points."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Number of stream elements observed so far."""
        return self._seen

    def extend(self, values: Iterable[float] | np.ndarray) -> None:
        """Feed a chunk of values into the reservoir."""
        chunk = np.asarray(values, dtype=np.float64).ravel()
        if chunk.size == 0:
            return
        position = 0
        # Fill the reservoir first (consumes no randomness).
        if self._seen < self._capacity:
            take = min(self._capacity - self._seen, chunk.size)
            self._reservoir[self._seen : self._seen + take] = chunk[:take]
            self._seen += take
            position = take
        if position >= chunk.size:
            return
        # Vectorized Algorithm R for the remainder of the chunk: element i of
        # the stream (1-based index) replaces a random reservoir slot with
        # probability capacity / i.  Drawing a (size, 2) row-major block gives
        # each element its (acceptance, slot) pair in element order, keeping
        # the sample independent of chunk boundaries.
        remainder = chunk[position:]
        draws = self._rng.random((remainder.size, 2))
        indices = self._seen + 1 + np.arange(remainder.size)
        accepted = np.nonzero(draws[:, 0] < (self._capacity / indices))[0]
        slots = (draws[accepted, 1] * self._capacity).astype(np.int64)
        # Sequential semantics: later acceptances overwrite earlier ones when
        # they land on the same slot; `accepted` is ascending, so assigning in
        # order reproduces the one-element-at-a-time algorithm.
        for index, slot in zip(accepted, slots):
            self._reservoir[slot] = remainder[index]
        self._seen += remainder.size

    def sample(self) -> np.ndarray:
        """The current sample (a copy; at most ``capacity`` values)."""
        return self._reservoir[: min(self._seen, self._capacity)].copy()
