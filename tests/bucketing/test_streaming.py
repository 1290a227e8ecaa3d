"""Tests for the reservoir sampler behind out-of-core boundary sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bucketing import ReservoirSampler
from repro.exceptions import BucketingError


def _chunks(array: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    return [array[start : start + chunk_size] for start in range(0, array.shape[0], chunk_size)]


class TestReservoirSampler:
    def test_invalid_capacity(self) -> None:
        with pytest.raises(BucketingError):
            ReservoirSampler(0)

    def test_fills_up_to_capacity(self, rng: np.random.Generator) -> None:
        sampler = ReservoirSampler(100, rng=rng)
        sampler.extend(np.arange(30))
        assert sampler.seen == 30
        assert sampler.sample().shape == (30,)
        sampler.extend(np.arange(30, 80))
        assert sampler.sample().shape == (80,)

    def test_sample_size_capped(self, rng: np.random.Generator) -> None:
        sampler = ReservoirSampler(50, rng=rng)
        sampler.extend(np.arange(1000))
        assert sampler.seen == 1000
        assert sampler.sample().shape == (50,)

    def test_sample_values_come_from_stream(self, rng: np.random.Generator) -> None:
        sampler = ReservoirSampler(64, rng=rng)
        stream = rng.normal(size=5000)
        for chunk in _chunks(stream, 512):
            sampler.extend(chunk)
        assert np.isin(sampler.sample(), stream).all()

    def test_approximately_uniform(self) -> None:
        # Count how often the first stream element survives: should be ~k/n.
        hits = 0
        trials = 400
        for seed in range(trials):
            sampler = ReservoirSampler(10, rng=np.random.default_rng(seed))
            sampler.extend(np.arange(100, dtype=float))
            if 0.0 in sampler.sample():
                hits += 1
        assert hits / trials == pytest.approx(0.1, abs=0.05)

    def test_empty_chunk_is_noop(self, rng: np.random.Generator) -> None:
        sampler = ReservoirSampler(10, rng=rng)
        sampler.extend(np.array([]))
        assert sampler.seen == 0
