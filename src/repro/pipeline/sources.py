"""Pluggable data sources for the profile-construction pipeline.

Algorithm 3.1 is designed so the relation is only ever *scanned* — never
sorted or held in memory.  A :class:`DataSource` captures exactly that
contract: it can produce a fresh iterator of :class:`~repro.relation.Relation`
chunks any number of times (the pipeline needs two sequential scans: one to
sample the bucket boundaries, one to count).  Three implementations cover the
paper's deployment scenarios:

* :class:`RelationSource` — an in-memory relation, optionally served in
  chunks (the degenerate "fits in RAM" case);
* :class:`ChunkedSource` — wraps any factory of relation-chunk iterators
  (message queues, database cursors, generator pipelines);
* :class:`CSVSource` — out-of-core scanning of a CSV file via
  :func:`repro.relation.io.read_csv_chunks`, the closest analogue of the
  paper's database file on disk;
* :class:`NpyDirectorySource` — a zero-copy columnar layout: one
  memory-mapped ``.npy`` file per column (written by
  :func:`write_columnar`), scans yielding dtype-stable slice *views*
  straight into the counting kernels with no per-chunk parse or copy;
* :class:`ParquetSource` — Arrow/Parquet files through the optional
  ``pyarrow`` dependency, with per-column projection pushed into the
  Parquet reader.

Chunks are small :class:`Relation` objects so objective
:class:`~repro.relation.conditions.Condition`\\ s evaluate on them unchanged;
every source yields the same tuples in the same order for the same data,
which is what makes pipeline results bit-identical across source types.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RelationError, SourceChangedError
from repro.relation.io import (
    DEFAULT_CHUNK_SIZE,
    read_csv_chunks,
    read_csv_first_chunk,
)
from repro.relation.relation import Relation
from repro.relation.schema import Attribute, AttributeKind, Schema

__all__ = [
    "DataSource",
    "RelationSource",
    "ChunkedSource",
    "CSVSource",
    "NpyDirectorySource",
    "ParquetSource",
    "SourceFingerprint",
    "fingerprint_relation",
    "write_columnar",
    "HAVE_PYARROW",
]

#: Whether the optional ``pyarrow`` dependency is importable (probed without
#: importing it, so merely loading this module never pays Arrow's startup).
HAVE_PYARROW = importlib.util.find_spec("pyarrow") is not None


@dataclass(frozen=True)
class SourceFingerprint:
    """Content identity of (a prefix of) a data source.

    ``token`` is a digest of the first ``length`` units of the source's
    data, where the *unit* is source-defined — tuples for in-memory and
    chunked sources, bytes for CSV files — but always the same unit the
    source's :meth:`DataSource.scan_tail` resumes by.  Because the token
    covers exactly the leading ``length`` units, an append-only source keeps
    its old fingerprints valid: re-fingerprinting the grown source at the
    stored prefix (``source.fingerprint(prefix=stored.length)``) must
    reproduce the stored token bit for bit, which is how the profile store
    distinguishes "same data, grown at the tail" from "different data".
    """

    token: str
    length: int


def fingerprint_relation(
    relation: Relation, prefix: int | None = None
) -> SourceFingerprint:
    """Fingerprint the first ``prefix`` tuples of an in-memory relation.

    The digest covers the schema (names and kinds, so a re-typed column
    never collides) plus the raw bytes of every column's leading values.
    Shared by :meth:`RelationSource.fingerprint` and usable as the
    fingerprint hook of a :class:`ChunkedSource` whose chunks are backed by
    in-memory relations.
    """
    total = relation.num_tuples
    span = total if prefix is None else min(int(prefix), total)
    digest = hashlib.sha256()
    for attribute in relation.schema:
        digest.update(
            repr((attribute.name, attribute.kind.value)).encode("utf-8")
        )
    for name in relation.schema.names():
        column = np.ascontiguousarray(relation.column(name)[:span])
        digest.update(column.tobytes())
    return SourceFingerprint(token=digest.hexdigest(), length=span)


class DataSource(ABC):
    """A re-scannable stream of relation chunks with a stable schema.

    Implementations must return a *fresh* iterator from every
    :meth:`chunks` call — the profile pipeline normally folds a whole scan
    plan over **one** pass (boundary sampling with the counting payloads
    cached along the way), and re-scans to count only when the plan cache
    cannot hold a projection of the data: at most the two passes the
    paper's system makes over the database file.
    """

    @property
    @abstractmethod
    def schema(self) -> Schema:
        """Schema shared by every chunk of the stream."""

    @abstractmethod
    def chunks(self) -> Iterator[Relation]:
        """A fresh iterator over the data as relation chunks."""

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        """A fresh scan, optionally projected to the named columns.

        ``columns`` is a *hint*: sources that can parse or serve a column
        subset cheaply (``CSVSource``, ``RelationSource``) push the
        projection down, everything else may ignore it and yield full
        chunks — callers must select the columns they need from each chunk
        by name either way.  The default implementation ignores the hint.
        """
        return self.chunks()

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint | None:
        """Content fingerprint of the source's first ``prefix`` units.

        ``None`` (the default) means the source cannot be fingerprinted —
        the profile store then never caches it.  Implementations must be
        cheap relative to a scan (raw bytes / in-memory hashing, never a
        parse) and **append-stable**: fingerprinting a grown source at the
        old prefix reproduces the old token exactly.  The unit of ``prefix``
        and of the returned ``length`` is source-defined but must match what
        :meth:`scan_tail` resumes by.
        """
        return None

    def scan_tail(
        self, start: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """A scan of only the data after marker ``start``.

        ``start`` is in the units of :meth:`fingerprint` ``length`` (tuples
        by default).  This is the append contract of the profile store: on
        an append-only source, counting ``scan_tail(snapshot.length)`` and
        merging into the stored partials equals a full re-count with the
        same (frozen) bucket boundaries.  The default implementation scans
        from the top and drops the first ``start`` tuples — correct for any
        source, but it still touches the head; sources with cheap random
        access (:class:`RelationSource` slices, :class:`CSVSource` byte
        seeks) override it to touch **only** the tail.
        """
        if start < 0:
            raise RelationError("scan_tail start must be non-negative")

        def tail() -> Iterator[Relation]:
            remaining = int(start)
            for chunk in self.scan(columns):
                if remaining >= chunk.num_tuples:
                    remaining -= chunk.num_tuples
                    continue
                if remaining:
                    yield chunk.take(np.arange(remaining, chunk.num_tuples))
                    remaining = 0
                else:
                    yield chunk

        return tail()

    def scan_span(
        self, start: int, stop: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """A scan of only the data in ``[start, stop)``.

        ``start``/``stop`` are in the units of :meth:`fingerprint` ``length``
        (tuples by default, bytes for :class:`CSVSource`) — the same units
        :meth:`scan_tail` resumes by, so a shard plane can describe a
        partition of the source as fingerprint-stamped spans.  Scanning
        every span of a partition in span order yields exactly the tuples of
        one full scan, each exactly once.  The default implementation scans
        from the top and keeps only the window — correct for any source;
        sources with cheap random access override it to touch only the span.
        """
        if start < 0:
            raise RelationError("scan_span start must be non-negative")
        if stop < start:
            raise RelationError("scan_span stop must be at least start")

        def window() -> Iterator[Relation]:
            remaining = int(stop) - int(start)
            for chunk in self.scan_tail(start, columns):
                if remaining <= 0:
                    return
                if chunk.num_tuples <= remaining:
                    remaining -= chunk.num_tuples
                    yield chunk
                else:
                    yield chunk.take(np.arange(remaining))
                    return

        return window()

    @property
    def in_memory(self) -> bool:
        """Whether :meth:`materialize` is free (no extra memory or scan)."""
        return False

    def materialize(self) -> Relation:
        """Concatenate every chunk into one in-memory relation.

        Out-of-core callers should avoid this (it defeats the point of the
        source); it exists so in-memory fast paths can accept any source.
        """
        result: Relation | None = None
        for chunk in self.chunks():
            result = chunk if result is None else result.concat(chunk)
        if result is None:
            return Relation.empty(self.schema)
        return result


class RelationSource(DataSource):
    """An in-memory relation served as one chunk (or fixed-size chunks).

    Parameters
    ----------
    relation:
        The relation to serve.
    chunk_size:
        When given, scans yield consecutive slices of at most this many
        tuples; ``None`` (the default) yields the whole relation as a single
        chunk with no copying.
    """

    def __init__(self, relation: Relation, chunk_size: int | None = None) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise RelationError("chunk_size must be positive")
        self._relation = relation
        self._chunk_size = chunk_size

    @property
    def relation(self) -> Relation:
        """The wrapped relation."""
        return self._relation

    @property
    def schema(self) -> Schema:
        return self._relation.schema

    @property
    def in_memory(self) -> bool:
        return True

    def materialize(self) -> Relation:
        return self._relation

    def chunks(self) -> Iterator[Relation]:
        if self._chunk_size is None:
            yield self._relation
            return
        total = self._relation.num_tuples
        for start in range(0, total, self._chunk_size):
            stop = min(start + self._chunk_size, total)
            yield self._relation.take(np.arange(start, stop))

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        if columns is None:
            return self.chunks()
        requested = set(columns)
        names = [name for name in self.schema.names() if name in requested]
        if len(names) == len(self.schema):
            return self.chunks()
        # Project once up front so chunked scans only ever copy the
        # requested columns.
        return RelationSource(
            self._relation.project(names), chunk_size=self._chunk_size
        ).chunks()

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint:
        """Tuple-prefix digest of the in-memory data (memory-speed, no scan)."""
        return fingerprint_relation(self._relation, prefix)

    def scan_tail(
        self, start: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Slice the tail directly — the head is never copied or chunked."""
        if start < 0:
            raise RelationError("scan_tail start must be non-negative")
        total = self._relation.num_tuples
        start = min(int(start), total)
        tail = self._relation.take(np.arange(start, total))
        return RelationSource(tail, chunk_size=self._chunk_size).scan(columns)

    def scan_span(
        self, start: int, stop: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Slice the span directly — tuples outside it are never touched."""
        if start < 0:
            raise RelationError("scan_span start must be non-negative")
        if stop < start:
            raise RelationError("scan_span stop must be at least start")
        total = self._relation.num_tuples
        start = min(int(start), total)
        stop = min(int(stop), total)
        window = self._relation.take(np.arange(start, stop))
        return RelationSource(window, chunk_size=self._chunk_size).scan(columns)


class ChunkedSource(DataSource):
    """A source backed by a factory of relation-chunk iterators.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh iterable of
        :class:`Relation` chunks each time it is called.
    schema:
        Schema of the chunks.  When omitted it is discovered by peeking at
        the first chunk of one factory invocation.  Every scanned chunk is
        validated against it.
    fingerprint:
        Optional fingerprint hook ``(prefix) -> SourceFingerprint`` enabling
        the profile store for this source.  A generic chunk factory cannot
        be fingerprinted from the outside (the pipeline has no idea what
        backs it), so the owner of the data supplies the identity — e.g.
        :func:`fingerprint_relation` over the backing relation for
        list-of-chunks feeds, or a queue's own offset/epoch bookkeeping.
        The hook's length unit is tuples (matching the default
        :meth:`DataSource.scan_tail`).
    """

    def __init__(
        self,
        factory: Callable[[], Iterable[Relation]],
        schema: Schema | None = None,
        fingerprint: Callable[[int | None], SourceFingerprint] | None = None,
    ) -> None:
        self._factory = factory
        self._schema = schema
        self._fingerprint = fingerprint

    @classmethod
    def from_arrays(
        cls,
        factory: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]],
        attribute: str = "A",
        objective: str = "C",
    ) -> "ChunkedSource":
        """Adapt a ``(values, objective_mask)`` chunk factory to relation chunks.

        This is the chunk shape the pre-pipeline streaming API consumed; the
        adapter builds two-column relations (numeric ``attribute``, Boolean
        ``objective``) so the old data feeds the unified pipeline.
        """
        schema = Schema.of(Attribute.numeric(attribute), Attribute.boolean(objective))

        def relation_chunks() -> Iterator[Relation]:
            for values, mask in factory():
                yield Relation.from_columns(
                    schema,
                    {
                        attribute: np.asarray(values, dtype=np.float64).ravel(),
                        objective: np.asarray(mask, dtype=bool).ravel(),
                    },
                )

        return cls(relation_chunks, schema=schema)

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            iterator = iter(self._factory())
            try:
                first = next(iterator)
            except StopIteration as exc:
                raise RelationError(
                    "cannot infer the schema of an empty chunked source; "
                    "pass schema= explicitly"
                ) from exc
            self._schema = first.schema
        return self._schema

    def chunks(self) -> Iterator[Relation]:
        schema = self.schema
        for chunk in self._factory():
            if chunk.schema != schema:
                raise RelationError(
                    "chunked source produced a chunk with a different schema"
                )
            yield chunk

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint | None:
        if self._fingerprint is None:
            return None
        return self._fingerprint(prefix)


class _DigestMemo:
    """Bounded process-wide digest memo, safe under concurrent fingerprints.

    The service plane fingerprints sources from many threads at once; a bare
    dict here had two races: N cold threads all hashing the same span (a
    stampede that multiplies the most expensive I/O in a request by the
    thread count) and unlocked mutation of the dict itself.  This memo takes
    one lock around all bookkeeping and runs per-key **single-flight**:
    the first thread to miss becomes the leader and computes the digest
    outside the lock, every other thread parks on a per-key event and reads
    the leader's published token.  A leader that raises wakes the waiters,
    and the first of them retries as the new leader — an I/O error never
    wedges the key.  Eviction stays bounded FIFO.
    """

    def __init__(self, max_entries: int) -> None:
        self._entries: dict[tuple, str] = {}
        self._max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._inflight: dict[tuple, threading.Event] = {}

    def get_or_compute(self, key: tuple, compute: Callable[[], str]) -> str:
        while True:
            with self._lock:
                token = self._entries.get(key)
                if token is not None:
                    return token
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    leader = True
                else:
                    leader = False
            if not leader:
                event.wait()
                continue  # published, or the leader failed: re-check
            try:
                token = compute()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            with self._lock:
                while len(self._entries) >= self._max_entries:
                    self._entries.pop(next(iter(self._entries)))
                self._entries[key] = token
                self._inflight.pop(key, None)
            event.set()
            return token

    def clear(self) -> None:
        """Drop every memoized digest (test isolation only)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide memo of CSV prefix digests keyed by (resolved path, size,
#: mtime_ns, span).  Any in-place modification changes size or mtime, so a
#: stale hit would need a same-length rewrite inside one mtime tick — the
#: standard stat-cache tradeoff.  Bounded FIFO eviction, thread-safe with
#: per-key single-flight (see :class:`_DigestMemo`).
_CSV_DIGEST_CACHE = _DigestMemo(max_entries=256)


class CSVSource(DataSource):
    """Out-of-core scanning of a CSV file in bounded-size chunks.

    Parameters
    ----------
    path:
        CSV file with a header row (as written by
        :func:`repro.relation.io.write_csv`).
    schema:
        Optional explicit schema.  When omitted it is inferred from the
        first chunk of the file and then pinned, so every scan of this
        source parses identically.  The inference guesses from the first
        data row and lets the typed parse of the first chunk verify the
        guess (:func:`repro.relation.io.read_csv_first_chunk`), so the
        chunk is tokenized once and kept for the next scan; a rejected
        guess falls back to the exact per-value digest of that chunk.
        Pass an explicit schema for files whose early rows are not
        representative (e.g. a 0/1 column that later holds other
        numbers) — :func:`repro.relation.io.infer_csv_schema` derives one
        from the whole file in a single bounded-memory scan.
    chunk_size:
        Maximum tuples per chunk (bounds the resident memory of a scan).
    fast:
        ``False`` disables the ``np.loadtxt`` block tokenizer and parses
        every scan through the legacy ``csv.reader`` path (the benchmarks
        use it to time the pre-fast-path configuration verbatim; results
        are identical either way).
    """

    def __init__(
        self,
        path: str | Path,
        schema: Schema | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        fast: bool = True,
    ) -> None:
        if chunk_size <= 0:
            raise RelationError("chunk_size must be positive")
        self._path = Path(path)
        if not self._path.exists():
            raise RelationError(f"CSV file {self._path} does not exist")
        self._schema = schema
        self._chunk_size = int(chunk_size)
        self._fast = bool(fast)
        # First parsed chunk kept after fast schema inference (one chunk of
        # bounded memory) so the next scan resumes after it instead of
        # parsing it again.
        self._first_chunk: tuple[Relation, int] | None = None

    @property
    def path(self) -> Path:
        """The CSV file being scanned."""
        return self._path

    @property
    def chunk_size(self) -> int:
        """Maximum tuples per chunk."""
        return self._chunk_size

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            if self._fast:
                self._first_chunk = read_csv_first_chunk(
                    self._path, chunk_size=self._chunk_size
                )
            if self._first_chunk is not None:
                self._schema = self._first_chunk[0].schema
                return self._schema
            for chunk in read_csv_chunks(
                self._path, chunk_size=self._chunk_size, fast=self._fast
            ):
                self._schema = chunk.schema
                break
            else:
                raise RelationError(f"CSV file {self._path} contains no data rows")
        return self._schema

    def chunks(self) -> Iterator[Relation]:
        return self.scan()

    def _guarded(self, chunks: Iterator[Relation]) -> Iterator[Relation]:
        """Detect the file shrinking *mid-scan* as a typed error.

        A file truncated below its size at scan start invalidates every
        fingerprint taken of the missing bytes; depending on where the
        reader was, the raw symptom is an arbitrary parse error — or, worse,
        a silent early EOF that would under-count without complaint.  Both
        shapes are converted to :class:`~repro.exceptions.SourceChangedError`
        by re-stat-ing the file when the scan errors *and* when it
        completes.  Growth (an append-only feed) stays legal.
        """
        expected = self._path.stat().st_size

        def shrunk() -> int | None:
            try:
                size = self._path.stat().st_size
            except OSError:
                return 0
            return size if size < expected else None

        def guarded() -> Iterator[Relation]:
            try:
                yield from chunks
            except (RelationError, OSError, ValueError) as exc:
                size = shrunk()
                if size is not None:
                    raise SourceChangedError(
                        f"CSV file {self._path} shrank mid-scan from "
                        f"{expected} to {size} bytes; the scanned prefix no "
                        "longer exists"
                    ) from exc
                raise
            size = shrunk()
            if size is not None:
                raise SourceChangedError(
                    f"CSV file {self._path} shrank mid-scan from {expected} "
                    f"to {size} bytes; the scan ended early on truncated data"
                )

        return guarded()

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        schema = self.schema
        if self._first_chunk is None:
            return self._guarded(
                read_csv_chunks(
                    self._path,
                    schema=schema,
                    chunk_size=self._chunk_size,
                    columns=columns,
                    fast=self._fast,
                )
            )
        first, lines = self._first_chunk

        def resumed() -> Iterator[Relation]:
            if columns is None:
                yield first
            else:
                requested = set(columns)
                yield first.project(
                    [name for name in schema.names() if name in requested]
                )
            yield from read_csv_chunks(
                self._path,
                schema=schema,
                chunk_size=self._chunk_size,
                columns=columns,
                fast=self._fast,
                skip_lines=lines,
            )

        return self._guarded(resumed())

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint:
        """Digest of the file's first ``prefix`` bytes (raw I/O, no parse).

        The unit is **bytes** (``length`` is the file size), matching the
        byte-offset resume of :meth:`scan_tail`.  Appending rows leaves
        every earlier byte in place, so re-fingerprinting the grown file at
        the stored prefix reproduces the stored token — the append-stability
        the profile store relies on.

        Digests are memoized process-wide keyed by ``(path, size, mtime,
        span)``, so a warm store run — which fingerprints the same unchanged
        file from several code paths (schema lookup, serve, prefix checks)
        — hashes each span once, not once per caller.
        """
        stat = self._path.stat()
        size = stat.st_size
        span = size if prefix is None else min(int(prefix), size)
        key = (str(self._path.resolve()), size, stat.st_mtime_ns, span)

        def compute() -> str:
            digest = hashlib.sha256()
            with self._path.open("rb") as handle:
                remaining = span
                while remaining > 0:
                    block = handle.read(min(remaining, 1 << 20))
                    if not block:
                        break
                    digest.update(block)
                    remaining -= len(block)
            return digest.hexdigest()

        token = _CSV_DIGEST_CACHE.get_or_compute(key, compute)
        return SourceFingerprint(token=token, length=span)

    def scan_tail(
        self, start: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Parse only the rows after byte offset ``start`` (O(1) seek).

        ``start`` must be a fingerprint length of an earlier snapshot of the
        same file — i.e. a position just past a newline — so the resumed
        parse sees whole rows.  A ``start`` inside a line (the file was not
        grown append-only, or the snapshot was taken of a file without a
        trailing newline) raises :class:`~repro.exceptions.RelationError`
        rather than mis-parsing.
        """
        if start < 0:
            raise RelationError("scan_tail start must be non-negative")
        if start == 0:
            # No snapshot precedes the tail: the "tail" is the whole file
            # (a real CSV fingerprint is never shorter than its header).
            return self.scan(columns)
        size = self._path.stat().st_size
        if start >= size:
            return iter(())
        if start > 0:
            with self._path.open("rb") as handle:
                handle.seek(start - 1)
                if handle.read(1) != b"\n":
                    raise RelationError(
                        f"tail resume offset {start} of {self._path} does not "
                        "sit on a line boundary; the file is not an "
                        "append-only continuation of the snapshot"
                    )
        return read_csv_chunks(
            self._path,
            schema=self.schema,
            chunk_size=self._chunk_size,
            columns=columns,
            fast=self._fast,
            start_offset=start,
        )

    def data_start(self) -> int:
        """Byte offset of the first data row (one past the header newline)."""
        with self._path.open("rb") as handle:
            handle.readline()
            return handle.tell()

    def scan_span(
        self, start: int, stop: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Parse only the rows of byte span ``[start, stop)`` (O(1) seek).

        Both offsets must sit on line boundaries — :func:`csv_byte_spans`
        in :mod:`repro.shard.descriptors` produces exactly such partitions —
        and ``start`` must be at or past the first data row.  A ``start``
        inside a line raises :class:`~repro.exceptions.RelationError` rather
        than mis-parsing; a file that shrinks mid-span raises
        :class:`~repro.exceptions.SourceChangedError`.
        """
        if start < 0:
            raise RelationError("scan_span start must be non-negative")
        if stop < start:
            raise RelationError("scan_span stop must be at least start")
        size = self._path.stat().st_size
        stop = min(int(stop), size)
        if start >= stop:
            return iter(())
        with self._path.open("rb") as handle:
            handle.readline()
            data_start = handle.tell()
            if start < data_start:
                raise RelationError(
                    f"span start {start} of {self._path} sits inside the "
                    "header row"
                )
            handle.seek(start - 1)
            if handle.read(1) != b"\n":
                raise RelationError(
                    f"span start {start} of {self._path} does not sit on a "
                    "line boundary"
                )
            if stop < size:
                handle.seek(stop - 1)
                if handle.read(1) != b"\n":
                    raise RelationError(
                        f"span stop {stop} of {self._path} does not sit on a "
                        "line boundary"
                    )
        return self._guarded(
            read_csv_chunks(
                self._path,
                schema=self.schema,
                chunk_size=self._chunk_size,
                columns=columns,
                fast=self._fast,
                start_offset=start,
                stop_offset=stop,
            )
        )


#: Process-wide memo of columnar prefix digests keyed by the source's pinned
#: file identities plus the span.  Same stat-cache tradeoff (and the same
#: bounded FIFO eviction + per-key single-flight) as the CSV digest cache.
_COLUMNAR_DIGEST_CACHE = _DigestMemo(max_entries=256)

#: Manifest file naming the column order and kinds of a columnar directory.
COLUMNAR_MANIFEST = "columns.json"

#: Rows hashed per block when fingerprinting a columnar source (bounds the
#: resident memory of a digest over a memory-mapped column).
_COLUMNAR_DIGEST_BLOCK_ROWS = 1 << 20


def _canonical_dtype(kind: AttributeKind) -> np.dtype:
    """The dtype relation columns carry: float64 numeric, bool Boolean."""
    return np.dtype(bool) if kind is AttributeKind.BOOLEAN else np.dtype(np.float64)


def write_columnar(
    relation: Relation, directory: str | Path, append: bool = False
) -> Path:
    """Write (or append) a relation as a column directory of ``.npy`` files.

    The layout is one ``<name>.npy`` per column in the relation's canonical
    dtypes (float64 numeric, bool Boolean) plus a ``columns.json`` manifest
    pinning the attribute order and kinds.  ``append=True`` requires an
    existing directory with an identical schema and rewrites each column
    file with the new rows concatenated — the leading values are preserved
    bit for bit, so fingerprints taken before the append stay valid (the
    columnar fingerprint hashes array *values*, never the ``.npy`` file
    bytes, precisely because a rewrite changes the header).

    Every rewrite lands via a temporary file and ``os.replace``, so readers
    that already memory-mapped the old file keep their consistent snapshot
    and a crash mid-write never corrupts the directory.
    """
    directory = Path(directory)
    manifest_path = directory / COLUMNAR_MANIFEST
    if append:
        if not manifest_path.exists():
            raise RelationError(
                f"cannot append to {directory}: no {COLUMNAR_MANIFEST} manifest "
                "(write the directory first with append=False)"
            )
        existing = NpyDirectorySource(directory)
        if existing.schema != relation.schema:
            raise RelationError(
                f"cannot append to {directory}: schema mismatch with the "
                "existing column directory"
            )
    directory.mkdir(parents=True, exist_ok=True)
    for attribute in relation.schema:
        dtype = _canonical_dtype(attribute.kind)
        column = np.ascontiguousarray(relation.column(attribute.name), dtype=dtype)
        if append:
            head = np.ascontiguousarray(
                existing._column(attribute.name), dtype=dtype
            )
            column = np.concatenate([head, column])
        target = directory / f"{attribute.name}.npy"
        # np.save appends ".npy" to names without the suffix, so the
        # temporary must end with it for the replace to find the file.
        temporary = directory / f".{attribute.name}.tmp.npy"
        np.save(temporary, column)
        os.replace(temporary, target)
    if not append:
        manifest = {
            "columns": [
                [attribute.name, attribute.kind.value]
                for attribute in relation.schema
            ]
        }
        temporary = directory / (COLUMNAR_MANIFEST + ".tmp")
        temporary.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        os.replace(temporary, manifest_path)
    return directory


class NpyDirectorySource(DataSource):
    """Zero-copy scanning of a memory-mapped ``.npy`` column directory.

    Parameters
    ----------
    path:
        Either a directory written by :func:`write_columnar` (one
        ``<name>.npy`` per column plus a ``columns.json`` manifest) or a
        single ``.npz`` archive (column order and dtypes taken from the
        archive; loaded into memory, a convenience rather than the
        zero-copy path).
    chunk_size:
        Maximum tuples per chunk.  Chunks are raw slice *views* of the
        memory-mapped columns — no parse, no copy — handed to the counting
        kernels dtype-stable, so a scan's only data movement is the page
        cache faulting mapped pages in.

    The source pins its data at open time: columns are memory-mapped once,
    and :meth:`fingerprint` hashes those pinned arrays, so a directory
    rewritten behind an open source keeps serving (and fingerprinting) the
    snapshot it opened.  Open a fresh source to observe appended rows.
    :func:`write_columnar` grows a directory by *replacing* each column
    file (new inode), which leaves pinned mappings intact — but a column
    file truncated or mutated **in place** (same inode) changes the bytes
    under the live mapping, so every scan and fingerprint re-stats the
    pinned files first and raises
    :class:`~repro.exceptions.SourceChangedError` when a pinned inode's
    size or mtime moved (an in-place rewrite inside one mtime tick is the
    standard stat-cache blind spot).

    The fingerprint unit is **rows**, and the digest scheme is exactly that
    of :func:`fingerprint_relation` over the delivered values — so the same
    data fingerprints identically whether it is served from memory or from
    a column directory, and appends (which rewrite the ``.npy`` header)
    never invalidate a stored prefix token.
    """

    def __init__(
        self, path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size <= 0:
            raise RelationError("chunk_size must be positive")
        self._path = Path(path)
        self._chunk_size = int(chunk_size)
        names_kinds: list[tuple[str, AttributeKind]] = []
        arrays: list[np.ndarray] = []
        stat_keys: list[tuple[str, int, int]] = []
        pinned: list[tuple[Path, int, int, int]] = []
        if self._path.is_dir():
            manifest_path = self._path / COLUMNAR_MANIFEST
            if not manifest_path.exists():
                raise RelationError(
                    f"column directory {self._path} has no {COLUMNAR_MANIFEST} "
                    "manifest"
                )
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                entries = [
                    (str(name), AttributeKind(str(kind)))
                    for name, kind in manifest["columns"]
                ]
            except (KeyError, TypeError, ValueError) as exc:
                raise RelationError(
                    f"column directory {self._path} has a malformed "
                    f"{COLUMNAR_MANIFEST} manifest"
                ) from exc
            for name, kind in entries:
                column_path = self._path / f"{name}.npy"
                if not column_path.exists():
                    raise RelationError(
                        f"column directory {self._path} is missing "
                        f"{column_path.name}"
                    )
                stat = column_path.stat()
                stat_keys.append(
                    (str(column_path.resolve()), stat.st_size, stat.st_mtime_ns)
                )
                pinned.append(
                    (column_path, stat.st_ino, stat.st_size, stat.st_mtime_ns)
                )
                arrays.append(np.load(column_path, mmap_mode="r"))
                names_kinds.append((name, kind))
        elif self._path.suffix == ".npz" and self._path.exists():
            stat = self._path.stat()
            stat_keys.append(
                (str(self._path.resolve()), stat.st_size, stat.st_mtime_ns)
            )
            with np.load(self._path) as archive:
                for name in archive.files:
                    column = archive[name]
                    kind = (
                        AttributeKind.BOOLEAN
                        if column.dtype == np.dtype(bool)
                        else AttributeKind.NUMERIC
                    )
                    arrays.append(column)
                    names_kinds.append((name, kind))
        else:
            raise RelationError(
                f"columnar path {self._path} is neither a column directory "
                "nor a .npz archive"
            )
        if not arrays:
            raise RelationError(f"columnar source {self._path} has no columns")
        num_rows: int | None = None
        for (name, kind), column in zip(names_kinds, arrays):
            if column.ndim != 1:
                raise RelationError(
                    f"columnar source {self._path}: column {name!r} is "
                    f"{column.ndim}-dimensional, expected 1-D"
                )
            if num_rows is None:
                num_rows = int(column.shape[0])
            elif int(column.shape[0]) != num_rows:
                raise RelationError(
                    f"columnar source {self._path}: column {name!r} has "
                    f"{column.shape[0]} rows, expected {num_rows}"
                )
        self._num_rows = int(num_rows or 0)
        self._schema = Schema.of(
            *[
                Attribute.numeric(name)
                if kind is AttributeKind.NUMERIC
                else Attribute.boolean(name)
                for name, kind in names_kinds
            ]
        )
        self._arrays = dict(zip((name for name, _ in names_kinds), arrays))
        self._stat_key = tuple(stat_keys)
        self._pinned = tuple(pinned)
        # Columns whose stored dtype already is the canonical relation dtype
        # are served as raw slice views; anything else is cast per chunk.
        self._conforming = {
            name: self._arrays[name].dtype == _canonical_dtype(kind)
            for name, kind in names_kinds
        }

    @property
    def path(self) -> Path:
        """The column directory (or ``.npz`` archive) being scanned."""
        return self._path

    @property
    def chunk_size(self) -> int:
        """Maximum tuples per chunk."""
        return self._chunk_size

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        """Total rows pinned at open time."""
        return self._num_rows

    def _check_pinned(self) -> None:
        """Refuse to serve a mapping whose backing file changed in place.

        A column file *replaced* wholesale (``write_columnar`` append, or
        an unlink) leaves the pinned mapping reading the intact old inode —
        the documented grow-behind-a-reader workflow, still legal.  A file
        truncated or rewritten **in place** keeps its inode, so the mapped
        pages themselves changed (or vanished: touching truncated pages is
        a bus error): that is drift, surfaced as the same typed error the
        CSV scanner raises when its file shrinks mid-scan.
        """
        for path, inode, size, mtime_ns in self._pinned:
            try:
                stat = path.stat()
            except OSError:
                continue  # unlinked/replaced: the mapping holds the snapshot
            if stat.st_ino != inode:
                continue  # replaced wholesale: the mapping holds the snapshot
            if stat.st_size != size or stat.st_mtime_ns != mtime_ns:
                raise SourceChangedError(
                    f"column file {path} was modified in place since this "
                    f"source pinned it (size {size} -> {stat.st_size}); the "
                    "mapped snapshot no longer exists"
                )

    def _column(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """A canonical-dtype view (or cast) of one column's row span."""
        column = self._arrays[name][start : self._num_rows if stop is None else stop]
        if self._conforming[name]:
            return column
        kind = self._schema.attribute(name).kind
        return np.asarray(column, dtype=_canonical_dtype(kind))

    def _window(self, start: int, stop: int) -> Iterator[Relation]:
        names = self._schema.names()
        schema = self._schema
        for begin in range(start, stop, self._chunk_size):
            end = min(begin + self._chunk_size, stop)
            yield Relation(
                schema,
                tuple(self._column(name, begin, end) for name in names),
            )

    def _projected_window(
        self, start: int, stop: int, columns: Sequence[str] | None
    ) -> Iterator[Relation]:
        if columns is None:
            return self._window(start, stop)
        requested = set(columns)
        names = [name for name in self._schema.names() if name in requested]
        if len(names) == len(self._schema):
            return self._window(start, stop)
        schema = self._schema.project(names)

        def projected() -> Iterator[Relation]:
            for begin in range(start, stop, self._chunk_size):
                end = min(begin + self._chunk_size, stop)
                yield Relation(
                    schema,
                    tuple(self._column(name, begin, end) for name in names),
                )

        return projected()

    def chunks(self) -> Iterator[Relation]:
        self._check_pinned()
        return self._window(0, self._num_rows)

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        self._check_pinned()
        return self._projected_window(0, self._num_rows, columns)

    def scan_tail(
        self, start: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Slice the tail directly — head pages are never faulted in."""
        if start < 0:
            raise RelationError("scan_tail start must be non-negative")
        self._check_pinned()
        start = min(int(start), self._num_rows)
        return self._projected_window(start, self._num_rows, columns)

    def scan_span(
        self, start: int, stop: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Slice the span directly — rows outside it are never touched."""
        if start < 0:
            raise RelationError("scan_span start must be non-negative")
        if stop < start:
            raise RelationError("scan_span stop must be at least start")
        self._check_pinned()
        start = min(int(start), self._num_rows)
        stop = min(int(stop), self._num_rows)
        return self._projected_window(start, stop, columns)

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint:
        """Row-prefix digest of the delivered column values.

        Identical scheme (and therefore identical tokens) to
        :func:`fingerprint_relation`: schema entries, then each column's
        leading values as raw bytes.  Hashing values rather than file bytes
        is what makes the fingerprint append-stable — rewriting a longer
        ``.npy`` changes its header, but never the leading values.  Digests
        are memoized process-wide keyed by the pinned file identities.
        """
        self._check_pinned()
        span = (
            self._num_rows
            if prefix is None
            else min(int(prefix), self._num_rows)
        )
        key = (self._stat_key, span)

        def compute() -> str:
            digest = hashlib.sha256()
            for attribute in self._schema:
                digest.update(
                    repr((attribute.name, attribute.kind.value)).encode("utf-8")
                )
            for name in self._schema.names():
                for begin in range(0, span, _COLUMNAR_DIGEST_BLOCK_ROWS):
                    end = min(begin + _COLUMNAR_DIGEST_BLOCK_ROWS, span)
                    digest.update(
                        np.ascontiguousarray(self._column(name, begin, end)).tobytes()
                    )
            return digest.hexdigest()

        token = _COLUMNAR_DIGEST_CACHE.get_or_compute(key, compute)
        return SourceFingerprint(token=token, length=span)


class ParquetSource(DataSource):
    """Arrow/Parquet scanning through the optional ``pyarrow`` dependency.

    Parameters
    ----------
    path:
        A Parquet file.  Boolean Arrow columns become Boolean attributes,
        everything else is read as numeric float64.
    chunk_size:
        Maximum tuples per chunk (``batch_size`` of the underlying
        ``iter_batches`` reader).  Column projection is pushed into the
        Parquet reader, so deselected columns are never decoded.

    The fingerprint unit is **rows** with the same value-digest scheme as
    :class:`NpyDirectorySource` (and :func:`fingerprint_relation`).  Unlike
    the CSV byte digest this must decode the column data, so it is cached
    per ``(file identity, span)`` — the store fingerprints a warm source
    once, not once per lookup.  :meth:`scan_tail` uses the default
    drop-the-head implementation: Parquet's row groups make an exact
    row-offset seek reader-dependent, and the append workflow for columnar
    data is the ``.npy`` directory layout.

    Unlike the ``.npy`` directory source, a Parquet file is re-read from
    disk on every scan — there is no pinned memory mapping to keep serving
    the open-time snapshot.  The source therefore pins the file's identity
    (size and mtime) at construction and every scan or fingerprint
    re-checks it: *any* change to the file — growth included, since a
    Parquet rewrite re-encodes row groups wholesale — raises
    :class:`~repro.exceptions.SourceChangedError`.  Appending to Parquet
    data is legal, but requires opening a fresh instance over the rewritten
    file; the value-digest fingerprint scheme keeps prefix tokens stable
    across such rewrites, so store append detection still works.
    """

    def __init__(
        self, path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size <= 0:
            raise RelationError("chunk_size must be positive")
        if not HAVE_PYARROW:
            raise RelationError(
                "ParquetSource requires the optional pyarrow dependency, "
                "which is not installed; convert the data to a .npy column "
                "directory with write_columnar instead"
            )
        import pyarrow.parquet as parquet

        self._parquet = parquet
        self._path = Path(path)
        self._chunk_size = int(chunk_size)
        if not self._path.exists():
            raise RelationError(f"Parquet file {self._path} does not exist")
        stat = self._path.stat()
        self._stat_key = (str(self._path.resolve()), stat.st_size, stat.st_mtime_ns)
        handle = parquet.ParquetFile(self._path)
        try:
            arrow_schema = handle.schema_arrow
            self._num_rows = int(handle.metadata.num_rows)
        finally:
            handle.close()
        import pyarrow

        attributes = []
        self._kinds: dict[str, AttributeKind] = {}
        for field in arrow_schema:
            kind = (
                AttributeKind.BOOLEAN
                if field.type == pyarrow.bool_()
                else AttributeKind.NUMERIC
            )
            self._kinds[field.name] = kind
            attributes.append(
                Attribute.numeric(field.name)
                if kind is AttributeKind.NUMERIC
                else Attribute.boolean(field.name)
            )
        if not attributes:
            raise RelationError(f"Parquet file {self._path} has no columns")
        self._schema = Schema.of(*attributes)

    @property
    def path(self) -> Path:
        """The Parquet file being scanned."""
        return self._path

    @property
    def chunk_size(self) -> int:
        """Maximum tuples per chunk."""
        return self._chunk_size

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        """Total rows per the Parquet footer metadata."""
        return self._num_rows

    def _check_pinned(self) -> None:
        """Raise unless the file still matches its construction-time pin.

        Every scan re-reads the file from disk, so a changed file would
        silently serve different tuples than the pinned fingerprint
        promises.  Re-stat eagerly: a missing file or any size/mtime
        difference means the snapshot this instance was opened against is
        gone — the caller must open a fresh :class:`ParquetSource`.
        """
        try:
            stat = self._path.stat()
        except OSError as error:
            raise SourceChangedError(
                f"Parquet file {self._path} disappeared after this source "
                "was opened; open a fresh ParquetSource over the new data"
            ) from error
        key = (str(self._path.resolve()), stat.st_size, stat.st_mtime_ns)
        if key != self._stat_key:
            raise SourceChangedError(
                f"Parquet file {self._path} changed after this source was "
                "opened (size or mtime differs from the pinned snapshot); "
                "open a fresh ParquetSource over the rewritten file"
            )

    def chunks(self) -> Iterator[Relation]:
        return self.scan()

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        self._check_pinned()
        if columns is None:
            names = self._schema.names()
            schema = self._schema
        else:
            requested = set(columns)
            names = [name for name in self._schema.names() if name in requested]
            schema = (
                self._schema
                if len(names) == len(self._schema)
                else self._schema.project(names)
            )

        def batches() -> Iterator[Relation]:
            handle = self._parquet.ParquetFile(self._path)
            try:
                for batch in handle.iter_batches(
                    batch_size=self._chunk_size, columns=names
                ):
                    arrays = []
                    for name in names:
                        column = batch.column(name).to_numpy(zero_copy_only=False)
                        arrays.append(
                            np.ascontiguousarray(
                                column, dtype=_canonical_dtype(self._kinds[name])
                            )
                        )
                    yield Relation(schema, tuple(arrays))
            finally:
                handle.close()

        return batches()

    def fingerprint(self, prefix: int | None = None) -> SourceFingerprint:
        """Row-prefix digest of the delivered column values (cached)."""
        self._check_pinned()
        span = (
            self._num_rows
            if prefix is None
            else min(int(prefix), self._num_rows)
        )
        key = (self._stat_key, span)

        def compute() -> str:
            digest = hashlib.sha256()
            for attribute in self._schema:
                digest.update(
                    repr((attribute.name, attribute.kind.value)).encode("utf-8")
                )
            handle = self._parquet.ParquetFile(self._path)
            try:
                for name in self._schema.names():
                    remaining = span
                    dtype = _canonical_dtype(self._kinds[name])
                    for batch in handle.iter_batches(
                        batch_size=self._chunk_size, columns=[name]
                    ):
                        if remaining <= 0:
                            break
                        column = batch.column(name).to_numpy(zero_copy_only=False)
                        block = np.ascontiguousarray(
                            column[:remaining], dtype=dtype
                        )
                        digest.update(block.tobytes())
                        remaining -= block.shape[0]
            finally:
                handle.close()
            return digest.hexdigest()

        token = _COLUMNAR_DIGEST_CACHE.get_or_compute(key, compute)
        return SourceFingerprint(token=token, length=span)
