"""Typed failure surfacing of the executors and the CSV scanner.

A dead multiprocessing worker must come back as an
:class:`~repro.exceptions.ExecutorError` naming where in the fold it died,
and a CSV file that shrinks under a running scan must come back as a
:class:`~repro.exceptions.SourceChangedError` — never a silent under-count,
never a raw parse error.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import bank_customers
from repro.exceptions import (
    ExecutorError,
    PipelineError,
    RelationError,
    SourceChangedError,
    StoreError,
)
from repro.pipeline import CSVSource, ProfileBuilder, ScanPlan
from repro.pipeline.sources import RelationSource
from repro.relation import write_csv
from repro.relation.conditions import BooleanIs

CHUNK = 200
ROWS = 1_000


class _KillerPayload:
    """Unpickling this in a pool worker terminates the worker process."""

    def __reduce__(self):
        return (os._exit, (1,))


@pytest.fixture(scope="module")
def relation():
    relation, _ = bank_customers(ROWS, seed=23)
    return relation


class TestExecutorDeath:
    def test_dead_worker_in_plan_fold_names_the_chunk_batch(self, relation):
        builder = ProfileBuilder(
            num_buckets=10, executor="multiprocessing", max_workers=2
        )
        plan = ScanPlan()
        plan.add_bucket("balance", objectives=[BooleanIs("card_loan", True)])
        source = RelationSource(relation, chunk_size=CHUNK)
        bucketings = builder.sample_axis_bucketings(
            source, builder.plan_axis_pairs(plan)
        )
        compiled = builder.compile_plan(plan, bucketings)
        with pytest.raises(ExecutorError, match="chunk batch"):
            builder._fold_plan(compiled.kernel_plan, iter([_KillerPayload()]))

    def test_executor_error_is_a_pipeline_error(self):
        assert issubclass(ExecutorError, PipelineError)


class TestCsvShrinksMidScan:
    def test_truncation_under_a_running_scan_is_typed(self, relation, tmp_path):
        path = tmp_path / "feed.csv"
        write_csv(relation, path)
        source = CSVSource(path, chunk_size=CHUNK)
        chunks = source.scan()
        first = next(chunks)
        assert first.num_tuples == CHUNK
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SourceChangedError, match="shrank mid-scan"):
            for _ in chunks:
                pass

    def test_truncation_under_a_span_scan_is_typed(self, relation, tmp_path):
        path = tmp_path / "feed.csv"
        write_csv(relation, path)
        source = CSVSource(path, chunk_size=CHUNK)
        size = path.stat().st_size
        chunks = source.scan_span(source.data_start(), size)
        next(chunks)
        path.write_bytes(path.read_bytes()[: size // 2])
        with pytest.raises(SourceChangedError):
            for _ in chunks:
                pass

    def test_growth_mid_scan_stays_legal(self, relation, tmp_path):
        path = tmp_path / "feed.csv"
        write_csv(relation, path)
        source = CSVSource(path, chunk_size=CHUNK)
        chunks = source.scan()
        next(chunks)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("")  # touch without shrinking
        total = CHUNK + sum(chunk.num_tuples for chunk in chunks)
        assert total == ROWS

    def test_source_changed_error_spans_both_layers(self):
        """The store's append drift and the scanner's shrink share one type."""
        assert issubclass(SourceChangedError, RelationError)
        assert issubclass(SourceChangedError, StoreError)
