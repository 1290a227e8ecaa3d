"""CSV import / export for relations.

The paper's experiments read tuples from flat files on disk; this module
provides the equivalent plumbing so examples and the CLI can operate on real
CSV data (for instance UCI exports) as well as on the synthetic generators.

Three entry points:

* :func:`write_csv` — serialize a :class:`Relation` with a header row.
* :func:`read_csv` — parse a CSV file, either against an explicit
  :class:`Schema` or with lightweight schema inference (a column whose values
  are all in a small yes/no vocabulary or all 0/1 becomes Boolean, everything
  else that parses as a float becomes numeric).
* :func:`read_csv_chunks` — generator yielding the file as bounded-size
  :class:`Relation` chunks, so out-of-core pipelines
  (:class:`repro.pipeline.CSVSource`) scan the file without ever holding it
  whole.

Fast path
---------
Chunks are read as blocks of raw lines and handed to ``np.loadtxt``'s C
tokenizer: numeric columns parse straight to ``float64`` (no intermediate
Python strings), Boolean columns parse as fixed-width byte strings whose
exact ``yes``/``no`` words are decoded for every column at once, and a
per-block comma count validates the row widths.  Any block the fast
tokenizer cannot handle exactly — quoted fields, blank lines, stray
vocabulary (``TRUE``), numeric literals only Python's ``float`` accepts
(digit-group underscores), width errors — hands the *rest of the file* to
the legacy ``csv.reader`` + per-column parser, so values, schema inference,
and error messages are identical to the pre-fast-path reader on every input.
``fast=False`` forces the legacy reader throughout (the benchmarks use it to
time the old configuration verbatim).

Schema inference is guess-and-verify: the :func:`infer_schema` rules applied
to the *first data row* guess each column's kind, and the typed parse that
runs anyway is the check.  A Boolean guess that parses means every value is
in the yes/no vocabulary; a numeric guess starts from a value outside it, so
a clean parse means every value is numeric and the column is not Boolean.
Either way the guess equals what the rules give over the whole block.  When
row 1 cannot tell (an empty field, a value that is neither) or the typed
parse rejects the guess, the rules run over a byte-string matrix of the
block (or the whole file) instead — the exact, slower digest.

Both readers accept a ``columns=`` projection: only the named columns are
parsed and materialized, which is what lets the pipeline's boundary-sampling
scan skip every Boolean column of a wide catalog file.
"""

from __future__ import annotations

import csv
import io as io_module
from contextlib import ExitStack
from io import StringIO, TextIOWrapper
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RelationError
from repro.relation.relation import (
    BOOLEAN_FALSE_LITERALS,
    BOOLEAN_TRUE_LITERALS,
    Relation,
)
from repro.relation.schema import Attribute, Schema

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "read_csv",
    "read_csv_chunks",
    "read_csv_first_chunk",
    "write_csv",
    "infer_schema",
    "infer_csv_schema",
]

_BOOLEAN_VOCABULARY = BOOLEAN_TRUE_LITERALS | BOOLEAN_FALSE_LITERALS
_TRUE_BYTES = np.array(sorted(w.encode("utf-8") for w in BOOLEAN_TRUE_LITERALS))
_FALSE_BYTES = np.array(sorted(w.encode("utf-8") for w in BOOLEAN_FALSE_LITERALS))
_VOCABULARY = np.array(sorted(_BOOLEAN_VOCABULARY))
_VOCABULARY_BYTES = np.array(sorted(w.encode("utf-8") for w in _BOOLEAN_VOCABULARY))
# The fast tokenizer's Boolean field width, and the exact ``yes`` / ``no``
# fields (NUL-padded) read as one machine word each.
_BOOLEAN_FIELD_BYTES = 8
_YES_WORD, _NO_WORD = (
    np.frombuffer(word.ljust(_BOOLEAN_FIELD_BYTES, b"\0"), dtype=np.uint64)[0]
    for word in (b"yes", b"no")
)

#: Default tuples per chunk for :func:`read_csv_chunks` (bounds the resident
#: memory of an out-of-core scan at roughly ``chunk_size x num_columns``
#: parsed values).
DEFAULT_CHUNK_SIZE = 50_000

# Chunk size used by read_csv to treat the whole file as one block (keeps the
# whole-file schema-inference semantics of the row-based reader).
_WHOLE_FILE_ROWS = 2**62


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write ``relation`` to ``path`` as CSV with a header row.

    Boolean values are written as ``yes`` / ``no`` so the files read naturally
    and round-trip through :func:`read_csv`.
    """
    path = Path(path)
    names = relation.schema.names()
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in relation.iter_rows():
            formatted: list[str] = []
            for name in names:
                value = row[name]
                if isinstance(value, bool):
                    formatted.append("yes" if value else "no")
                else:
                    formatted.append(repr(float(value)))
            writer.writerow(formatted)


def _read_header(reader: Iterator[list[str]], path: Path) -> list[str]:
    """The stripped header row of a CSV reader."""
    try:
        header = next(reader)
    except StopIteration as exc:
        raise RelationError(f"CSV file {path} is empty") from exc
    return [name.strip() for name in header]


def _check_schema_header(schema: Schema, header: Sequence[str], path: Path) -> None:
    """Validate an explicit schema against the file header."""
    unknown = [name for name in header if name not in schema]
    if unknown or len(header) != len(schema):
        raise RelationError(
            f"CSV header {list(header)} does not match schema attributes "
            f"{schema.names()}"
        )


def _check_row_widths(
    rows: Sequence[Sequence[str]], width: int, path: Path, first_row_number: int
) -> None:
    """Reject ragged rows with their 1-based file line number."""
    for offset, row in enumerate(rows):
        if len(row) != width:
            raise RelationError(
                f"{path}:{first_row_number + offset}: expected {width} fields, "
                f"got {len(row)}"
            )


def _resolve_projection(
    schema: Schema, columns: Sequence[str] | None
) -> Schema:
    """The chunk schema of a scan: ``schema`` or its ordered projection."""
    if columns is None:
        return schema
    requested = set(columns)
    unknown = sorted(requested - set(schema.names()))
    if unknown:
        raise RelationError(f"cannot project unknown columns: {unknown}")
    return schema.project([name for name in schema.names() if name in requested])


def _parse_columns(
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    schema: Schema,
) -> dict[str, np.ndarray]:
    """Convert string rows to typed columns with vectorized numpy casts.

    ``schema`` may be a projection of the header: columns the schema does not
    name are skipped entirely.
    """
    if rows:
        transposed = list(zip(*rows))
    else:
        transposed = [() for _ in header]
    columns: dict[str, np.ndarray] = {}
    for name, raw in zip(header, transposed):
        if name not in schema:
            continue
        attribute = schema.attribute(name)
        stripped = np.char.strip(np.asarray(raw, dtype=str))
        if attribute.is_boolean:
            columns[name] = _boolean_column(name, stripped)
        else:
            columns[name] = _numeric_column(name, stripped)
    # Order columns to match the schema's attribute order.
    return {attr.name: columns[attr.name] for attr in schema}


def _numeric_column(name: str, stripped: np.ndarray) -> np.ndarray:
    """One vectorized string → float64 cast, with a per-value error message."""
    try:
        return stripped.astype(np.float64)
    except ValueError:
        # Slow path, only when the vectorized cast rejects something: either
        # locate the offending value, or fall back to Python parsing for the
        # few literals (e.g. digit-group underscores) float() accepts but the
        # numpy cast does not.
        parsed = np.empty(stripped.shape[0], dtype=np.float64)
        for position, text in enumerate(stripped):
            try:
                parsed[position] = float(text)
            except ValueError as exc:
                raise RelationError(
                    f"column {name!r}: cannot parse numeric value {str(text)!r}"
                ) from exc
        return parsed


def _boolean_column(name: str, stripped: np.ndarray) -> np.ndarray:
    """Vectorized yes/no-vocabulary lookup → bool."""
    lowered = np.char.lower(stripped)
    truthy = np.isin(lowered, sorted(BOOLEAN_TRUE_LITERALS))
    falsy = np.isin(lowered, sorted(BOOLEAN_FALSE_LITERALS))
    invalid = ~(truthy | falsy)
    if np.any(invalid):
        offender = stripped[invalid][0]
        raise RelationError(
            f"boolean column {name!r}: cannot interpret {str(offender)!r}"
        )
    return truthy


# -- fast block tokenizer -------------------------------------------------------


def _block_disqualified(text: str) -> bool:
    """Whether a ``\\n``-terminated line block needs ``csv.reader`` semantics.

    Quote characters can hide delimiters (and span lines), and blank lines
    are skipped by the row-based reader while they would silently vanish from
    the fast tokenizer's row accounting — both route to the legacy path.
    Line endings must already be normalized, or a CRLF blank line
    (``"\\r\\n\\r\\n"``) would slip through.
    """
    return '"' in text or "\n\n" in text or text.startswith("\n")


def _normalized_fast_block(text: str, width: int) -> str | None:
    """Block text ready for the fast tokenizer, or ``None`` for legacy.

    Normalizes line endings and the trailing newline, then validates the
    row widths up front: every comma is a delimiter in a quote-free block,
    so a block whose comma count does not match ``rows × (width - 1)``
    contains mis-sized rows (narrower *or* wider than the header) and is
    handed to the legacy reader for its exact error message.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if _block_disqualified(text):
        return None
    if not text.endswith("\n"):
        text += "\n"
    if text.count(",") != text.count("\n") * (width - 1):
        return None
    return text


def _boolean_from_bytes(raw: np.ndarray) -> np.ndarray | None:
    """Byte column → bool via the yes/no fast path, ``None`` to use legacy.

    The overwhelmingly common literals (exactly ``yes`` / ``no``, as written
    by :func:`write_csv`) are answered by two vectorized comparisons; any
    leftover values go through the stripped/lowered full vocabulary, and a
    value outside it returns ``None`` so the legacy parser can raise its
    exact per-value error.
    """
    truthy = raw == b"yes"
    falsy = raw == b"no"
    leftover = ~(truthy | falsy)
    if leftover.any():
        spilled = raw[leftover]
        # A value filling the entire fixed-width field may have been
        # truncated by the tokenizer (e.g. a vocabulary word, padding
        # spaces, then junk); only the legacy parser sees the original
        # text, so defer to it.
        if int(np.char.str_len(spilled).max()) >= raw.dtype.itemsize:
            return None
        values = np.char.lower(np.char.strip(spilled))
        extra_true = np.isin(values, _TRUE_BYTES)
        if not bool((extra_true | np.isin(values, _FALSE_BYTES)).all()):
            return None
        truthy[leftover] = extra_true
    return truthy


class _FastBlockParser:
    """Parse quote-free line blocks with ``np.loadtxt``'s C tokenizer.

    One instance per scan: it precomputes the ``usecols`` index sets of the
    projected numeric and Boolean columns (plus the last header column as a
    row-width sentinel, so a row with missing fields always errors even when
    the projection would not touch it).
    """

    def __init__(self, header: Sequence[str], chunk_schema: Schema) -> None:
        self.width = len(header)
        positions = {name: index for index, name in enumerate(header)}
        self.numeric_names = [
            name for name in chunk_schema.names()
            if chunk_schema.attribute(name).is_numeric
        ]
        self.boolean_names = [
            name for name in chunk_schema.names()
            if chunk_schema.attribute(name).is_boolean
        ]
        usecols = [positions[name] for name in self.numeric_names] + [
            positions[name] for name in self.boolean_names
        ]
        fields = [(f"n{index}", np.float64) for index in range(len(self.numeric_names))]
        # 8 bytes comfortably hold every Boolean vocabulary literal; longer
        # values truncate, can no longer match the (≤5-byte) vocabulary, and
        # fall through to the exact legacy parser.
        boolean_fields = [f"b{index}" for index in range(len(self.boolean_names))]
        fields += [(name, f"S{_BOOLEAN_FIELD_BYTES}") for name in boolean_fields]
        # Row-width sentinel: the tokenizer must reach the last field so a
        # row with missing fields errors even under a narrow projection.
        if self.width - 1 not in usecols:
            usecols.append(self.width - 1)
            fields.append(("sentinel", "S1"))
        self.usecols = usecols
        self.dtype = np.dtype(fields)
        # Where the Boolean fields sit in a record, read from the dtype: they
        # are packed back to back, so one strided view covers them all.
        offsets = [self.dtype.fields[name][1] for name in boolean_fields]
        assert all(
            following - offset == _BOOLEAN_FIELD_BYTES
            for offset, following in zip(offsets, offsets[1:])
        )
        self.boolean_start = offsets[0] if offsets else 0
        self.chunk_schema = chunk_schema

    def _boolean_columns(self, records: np.ndarray) -> dict[str, np.ndarray] | None:
        """Decode every Boolean field of a record block, ``None`` for legacy.

        One comparison of all fields against the ``yes`` and ``no`` words
        answers each column whose values are exactly those words; any other
        column goes through :func:`_boolean_from_bytes`, with its truncation
        guard and its legacy handoff.
        """
        if not self.boolean_names:
            return {}
        words = np.ndarray(
            (len(records), len(self.boolean_names)),
            dtype=np.uint64,
            buffer=records,
            offset=self.boolean_start,
            strides=(records.strides[0], _BOOLEAN_FIELD_BYTES),
        )
        truthy = words == _YES_WORD
        exact = (truthy | (words == _NO_WORD)).all(axis=0)
        truthy = np.ascontiguousarray(truthy.T)
        columns: dict[str, np.ndarray] = {}
        for index, name in enumerate(self.boolean_names):
            if exact[index]:
                columns[name] = truthy[index]
                continue
            converted = _boolean_from_bytes(
                np.ascontiguousarray(records[f"b{index}"])
            )
            if converted is None:
                return None
            columns[name] = converted
        return columns

    def parse(self, text: str) -> Relation | None:
        """One block → a typed relation chunk, or ``None`` for the legacy path."""
        columns = self.columns(text)
        if columns is None:
            return None
        return Relation.from_columns(self.chunk_schema, columns)

    def columns(self, text: str) -> dict[str, np.ndarray] | None:
        """One block → its typed columns, or ``None`` for the legacy path."""
        normalized = _normalized_fast_block(text, self.width)
        if normalized is None:
            return None
        try:
            # One tokenizer pass converts every requested column natively:
            # the structured dtype parses numeric fields straight to float64
            # in C and Boolean fields to fixed-width byte strings.
            records = np.atleast_1d(
                np.loadtxt(
                    StringIO(normalized),
                    delimiter=",",
                    usecols=self.usecols,
                    dtype=self.dtype,
                    comments=None,
                )
            )
        except ValueError:
            return None
        booleans = self._boolean_columns(records)
        if booleans is None:
            return None
        columns = {
            name: np.ascontiguousarray(records[f"n{index}"])
            for index, name in enumerate(self.numeric_names)
        }
        columns.update(booleans)
        return columns


def _first_row_guess(header: Sequence[str], text: str) -> Schema | None:
    """The schema the first row of a normalized block implies, if it tells.

    ``None`` when the row is not ``len(header)`` wide, has an empty field
    (no evidence for that column) or a value that is neither Boolean nor
    numeric: the exact digest decides those.
    """
    fields = text[: text.index("\n")].split(",")
    if len(fields) != len(header) or not all(field.strip() for field in fields):
        return None
    digest = _SchemaDigest(header)
    digest.update_rows([fields])
    try:
        return digest.schema()
    except RelationError:
        return None


def _bytes_matrix(text: str, width: int) -> np.ndarray | None:
    """A normalized block as the byte-string matrix of the exact digest.

    ``None`` when the tokenizer rejects the block or its rows are not
    ``width`` fields wide; the legacy reader then decides (and raises).
    """
    try:
        matrix = np.loadtxt(
            StringIO(text), delimiter=",", dtype=np.bytes_, comments=None, ndmin=2
        )
    except ValueError:
        return None
    return matrix if matrix.shape[1] == width else None


def _infer_first_block(
    header: Sequence[str], text: str
) -> tuple[Schema, dict[str, np.ndarray] | None] | None:
    """The schema of a normalized first block, verified by its typed parse.

    Returns ``(schema, parsed)``.  When the first-row guess survives the
    typed parse of the whole block, ``parsed`` holds every column of that
    parse; otherwise the schema comes from the byte-matrix digest and
    ``parsed`` is ``None`` (the caller parses).  Returns ``None`` when the
    block needs the legacy reader to infer; raises :class:`RelationError`
    when the digest finds a column that is neither Boolean nor numeric.
    """
    guess = _first_row_guess(header, text)
    if guess is not None:
        parsed = _FastBlockParser(header, guess).columns(text)
        if parsed is not None:
            return guess, parsed
    matrix = _bytes_matrix(text, len(header))
    if matrix is None:
        return None
    digest = _SchemaDigest(header)
    digest.update_matrix(matrix)
    return digest.schema(), None


def _iter_line_blocks(handle, chunk_size: int) -> Iterator[list[str]]:
    """Raw line blocks of at most ``chunk_size`` lines from an open file."""
    while True:
        block = list(islice(handle, chunk_size))
        if not block:
            return
        yield block


def read_csv(path: str | Path, schema: Schema | None = None) -> Relation:
    """Read a CSV file with a header row into a :class:`Relation`.

    Parameters
    ----------
    path:
        File to read.
    schema:
        Optional explicit schema.  When omitted the schema is inferred with
        :func:`infer_schema` over the whole file; columns that are neither
        Boolean-like nor numeric raise
        :class:`~repro.exceptions.RelationError`.
    """
    path = Path(path)
    chunks = list(read_csv_chunks(path, schema=schema, chunk_size=_WHOLE_FILE_ROWS))
    if chunks:
        result = chunks[0]
        for chunk in chunks[1:]:  # pragma: no cover - whole-file reads are one chunk
            result = result.concat(chunk)
        return result
    # A header-only file yields no chunks; build the empty relation the
    # row-based reader would have produced.
    with path.open("r", newline="", encoding="utf-8") as handle:
        header = _read_header(csv.reader(handle), path)
    if schema is None:
        schema = infer_schema(header, [])
    else:
        _check_schema_header(schema, header, path)
    return Relation.empty(schema)


def read_csv_first_chunk(
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[Relation, int] | None:
    """Fast-parse just the file's first chunk (with schema inference).

    Returns ``(chunk, data_lines)`` — the parsed first chunk plus the number
    of raw lines it covers, suitable as ``skip_lines`` for a continuation
    :func:`read_csv_chunks` scan — or ``None`` when the first block needs
    the legacy reader's semantics (quoting, blank lines, unusual literals).
    :class:`repro.pipeline.CSVSource` uses this to infer its schema and keep
    the parsed chunk, so the inference work is not repeated on the next
    scan.

    The schema is guessed from the first data row and verified by the typed
    parse of the block, so a well-formed file is tokenized once; when the
    guess fails, the block's byte-matrix digest decides, exactly as
    :func:`read_csv_chunks` would.

    Raises
    ------
    RelationError
        When the file is empty or contains a header but no data rows.
    """
    if chunk_size <= 0:
        raise RelationError("chunk_size must be positive")
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        header = _read_header(csv.reader(handle), path)
        block = list(islice(handle, chunk_size))
    if not block:
        raise RelationError(f"CSV file {path} contains no data rows")
    text = _normalized_fast_block("".join(block), len(header))
    inferred = None if text is None else _infer_first_block(header, text)
    if inferred is None:
        return None
    schema, parsed = inferred
    if parsed is not None:
        return Relation.from_columns(schema, parsed), len(block)
    chunk = _FastBlockParser(header, schema).parse(text)
    return None if chunk is None else (chunk, len(block))


class _BoundedRaw(io_module.RawIOBase):
    """A read-only raw stream serving at most ``limit`` bytes of ``handle``.

    Wrapping the seeked binary file in this (plus a ``TextIOWrapper``) is
    what turns a byte span ``[start, stop)`` of a CSV file into an ordinary
    line stream for the chunk parsers: reads simply hit EOF at ``stop``, so
    a span whose boundaries sit on line starts yields exactly its rows.
    """

    def __init__(self, handle, limit: int) -> None:
        super().__init__()
        self._handle = handle
        self._remaining = int(limit)

    def readable(self) -> bool:  # pragma: no cover - io protocol plumbing
        return True

    def readinto(self, buffer) -> int:
        if self._remaining <= 0:
            return 0
        view = memoryview(buffer)
        if len(view) > self._remaining:
            view = view[: self._remaining]
        block = self._handle.read(len(view))
        read = len(block)
        view[:read] = block
        self._remaining -= read
        return read


def read_csv_chunks(
    path: str | Path,
    schema: Schema | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    columns: Sequence[str] | None = None,
    fast: bool = True,
    skip_lines: int = 0,
    start_offset: int | None = None,
    stop_offset: int | None = None,
) -> Iterator[Relation]:
    """Yield a CSV file as :class:`Relation` chunks of at most ``chunk_size`` rows.

    Only one chunk of raw rows is resident at a time, so arbitrarily large
    files scan in bounded memory — this is the generator behind
    :class:`repro.pipeline.CSVSource`.

    When ``schema`` is omitted it is inferred from the *first chunk only*
    (the file is not pre-scanned) and then applied to every later chunk; pass
    an explicit schema when the leading rows are not representative — for
    example a column whose early values are all 0/1 but that is numeric
    further down would otherwise be inferred Boolean and fail mid-scan.

    ``columns`` projects the scan: only the named columns are parsed and the
    yielded chunks carry the projected schema (in schema order).  Schema
    inference still considers every column of the file's first chunk.

    ``fast=False`` disables the ``np.loadtxt`` block tokenizer and parses
    every row through the legacy ``csv.reader`` path (the fast path falls
    back to it automatically whenever a block needs its exact semantics —
    quoting, blank lines, unusual literals, width errors).

    ``skip_lines`` resumes a scan: that many raw data lines after the header
    are consumed unparsed (callers pair it with
    :func:`read_csv_first_chunk`, which reports how many lines its cached
    chunk covers).

    ``start_offset`` resumes a scan by *byte* position instead: the header
    is read (and validated) from the top of the file, then parsing restarts
    at the absolute byte offset — an O(1) seek, however much data precedes
    it.  The offset must sit on a line boundary and needs an explicit
    ``schema`` (a mid-file tail cannot re-infer one); it is the mechanism
    behind :meth:`repro.pipeline.CSVSource.scan_tail`, which parses only the
    rows appended after a stored snapshot.  Legacy-fallback error messages
    report line numbers relative to the resume offset.

    ``stop_offset`` additionally bounds a ``start_offset`` scan: parsing
    stops at that absolute byte position (exclusive), which must also sit on
    a line boundary.  Together they scan exactly the rows of a byte span —
    the shard-descriptor contract of :meth:`repro.pipeline.CSVSource.scan_span`.

    A file with a header but no data rows yields no chunks.
    """
    if chunk_size <= 0:
        raise RelationError("chunk_size must be positive")
    if start_offset is not None:
        if start_offset < 0:
            raise RelationError("start_offset must be non-negative")
        if skip_lines:
            raise RelationError("start_offset and skip_lines are mutually exclusive")
        if schema is None:
            raise RelationError(
                "start_offset scans need an explicit schema; a tail of the "
                "file cannot infer one"
            )
    if stop_offset is not None:
        if start_offset is None:
            raise RelationError("stop_offset requires start_offset")
        if stop_offset < start_offset:
            raise RelationError("stop_offset must be at least start_offset")
    path = Path(path)
    with ExitStack() as stack:
        if start_offset is None:
            handle = stack.enter_context(
                path.open("r", newline="", encoding="utf-8")
            )
            header = _read_header(csv.reader(handle), path)
        else:
            with path.open("r", newline="", encoding="utf-8") as head:
                header = _read_header(csv.reader(head), path)
            raw = stack.enter_context(path.open("rb"))
            raw.seek(start_offset)
            if stop_offset is not None:
                raw = stack.enter_context(
                    io_module.BufferedReader(
                        _BoundedRaw(raw, stop_offset - start_offset)
                    )
                )
            handle = stack.enter_context(
                TextIOWrapper(raw, encoding="utf-8", newline="")
            )
        if schema is not None:
            _check_schema_header(schema, header, path)
        chunk_schema = (
            _resolve_projection(schema, columns) if schema is not None else None
        )
        for _ in islice(handle, skip_lines):
            pass
        parser: _FastBlockParser | None = None
        # Header (and skipped) line(s); legacy error line numbers follow.
        consumed = 1 + skip_lines
        for block in _iter_line_blocks(handle, chunk_size) if fast else iter(()):
            text = "".join(block)
            chunk = None
            if schema is None:
                normalized = _normalized_fast_block(text, len(header))
                inferred = (
                    None if normalized is None
                    else _infer_first_block(header, normalized)
                )
                if inferred is None:
                    yield from _legacy_chunks(
                        chain(block, handle), header, schema, columns,
                        path, chunk_size, consumed,
                    )
                    return
                schema, parsed = inferred
                chunk_schema = _resolve_projection(schema, columns)
                if parsed is not None:
                    chunk = Relation.from_columns(
                        chunk_schema,
                        {name: parsed[name] for name in chunk_schema.names()},
                    )
            if parser is None:
                assert chunk_schema is not None
                parser = _FastBlockParser(header, chunk_schema)
            if chunk is None:
                chunk = parser.parse(text)
            if chunk is None:
                yield from _legacy_chunks(
                    chain(block, handle), header, schema, columns,
                    path, chunk_size, consumed,
                )
                return
            consumed += len(block)
            yield chunk
        if not fast:
            yield from _legacy_chunks(
                handle, header, schema, columns, path, chunk_size, consumed
            )


def _legacy_chunks(
    lines: Iterable[str],
    header: Sequence[str],
    schema: Schema | None,
    columns: Sequence[str] | None,
    path: Path,
    chunk_size: int,
    consumed: int,
) -> Iterator[Relation]:
    """The row-based ``csv.reader`` chunker (fallback and ``fast=False`` path)."""
    reader = csv.reader(iter(lines))
    chunk_schema = (
        _resolve_projection(schema, columns) if schema is not None else None
    )
    rows: list[list[str]] = []
    line = consumed
    first_row_number = consumed + 1
    for row in reader:
        line += 1
        if not row:
            continue
        if not rows:
            first_row_number = line
        rows.append(row)
        if len(rows) == chunk_size:
            _check_row_widths(rows, len(header), path, first_row_number)
            if schema is None:
                schema = infer_schema(header, rows)
                chunk_schema = _resolve_projection(schema, columns)
            yield Relation.from_columns(
                chunk_schema, _parse_columns(header, rows, chunk_schema)
            )
            rows = []
    if rows:
        _check_row_widths(rows, len(header), path, first_row_number)
        if schema is None:
            schema = infer_schema(header, rows)
            chunk_schema = _resolve_projection(schema, columns)
        yield Relation.from_columns(
            chunk_schema, _parse_columns(header, rows, chunk_schema)
        )


def infer_csv_schema(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Schema:
    """Infer a schema over the *whole* CSV file in one bounded-memory scan.

    Applies the same column rules as :func:`infer_schema` but to every row
    of the file while holding at most ``chunk_size`` raw rows, so the result
    matches what :func:`read_csv` would infer — unlike the first-chunk-only
    inference :class:`repro.pipeline.CSVSource` uses by default.  Use it to
    build the explicit schema for a source whose leading rows are not
    representative (e.g. a numeric column whose early values are all 0/1)::

        schema = infer_csv_schema("big.csv")
        source = CSVSource("big.csv", schema=schema)

    The scan guesses the schema from the first data row and typed-parses
    every block under that guess with the fast tokenizer of
    :func:`read_csv_chunks`; when every block parses, the guess is the
    answer.  At the first block that rejects it (or when row 1 cannot
    tell), inference restarts from the top with the exact per-value digest,
    so a file whose column changes kind after row 1 pays that digest's cost
    but never gets a different schema or error.
    """
    if chunk_size <= 0:
        raise RelationError("chunk_size must be positive")
    path = Path(path)
    if not path.exists():
        raise RelationError(f"CSV file {path} does not exist")
    with path.open("r", newline="", encoding="utf-8") as handle:
        header = _read_header(csv.reader(handle), path)
        guess = _verified_guess(handle, header, chunk_size)
    if guess is not None:
        return guess
    return _digest_csv_schema(path, chunk_size)


def _verified_guess(handle, header: Sequence[str], chunk_size: int) -> Schema | None:
    """The first-row schema guess, if the typed parse of every block holds it.

    ``None`` when the file has no data rows, row 1 cannot tell, or some
    block needs the legacy reader or contradicts the guess.
    """
    guess: Schema | None = None
    for block in _iter_line_blocks(handle, chunk_size):
        text = "".join(block)
        if guess is None:
            normalized = _normalized_fast_block(text, len(header))
            guess = None if normalized is None else _first_row_guess(header, normalized)
            if guess is None:
                return None
            parser = _FastBlockParser(header, guess)
        if parser.columns(text) is None:
            return None
    return guess


def _digest_csv_schema(path: Path, chunk_size: int) -> Schema:
    """Whole-file inference by the exact per-value digest of every block."""
    with path.open("r", newline="", encoding="utf-8") as handle:
        header = _read_header(csv.reader(handle), path)
        digest = _SchemaDigest(header)
        consumed = 1
        for block in _iter_line_blocks(handle, chunk_size):
            text = _normalized_fast_block("".join(block), len(header))
            matrix = None if text is None else _bytes_matrix(text, len(header))
            if matrix is None:
                _digest_legacy_rows(
                    chain(block, handle), digest, header, path, chunk_size, consumed
                )
                break
            digest.update_matrix(matrix)
            consumed += len(block)
    return digest.schema()


class _SchemaDigest:
    """Per-column boolean/numeric evidence accumulated across scan blocks.

    This is where the inference rules live: a column is Boolean when it has
    a non-empty value and every non-empty value is in the yes/no vocabulary,
    numeric when every non-empty value parses as a float (or it has none),
    and an error otherwise.
    """

    def __init__(self, header: Sequence[str]) -> None:
        self.header = list(header)
        self.has_values = [False] * len(self.header)
        self.all_boolean = [True] * len(self.header)
        self.all_numeric = [True] * len(self.header)

    def update_matrix(self, matrix: np.ndarray) -> None:
        """Digest one fast-path byte matrix."""
        for index in range(len(self.header)):
            self._update(index, matrix[:, index], b"", _VOCABULARY_BYTES)

    def update_rows(self, rows: Sequence[Sequence[str]]) -> None:
        """Digest one block of string rows (fields past the header are ignored)."""
        for index, raw in zip(range(len(self.header)), zip(*rows)):
            self._update(index, np.asarray(raw, dtype=str), "", _VOCABULARY)

    def _update(self, index: int, raw: np.ndarray, empty, vocabulary) -> None:
        """Digest one column's raw values (``str`` or ``bytes``)."""
        if not (self.all_boolean[index] or self.all_numeric[index]):
            return
        stripped = np.char.strip(raw)
        values = stripped[stripped != empty]
        if values.size == 0:
            return
        self.has_values[index] = True
        if self.all_boolean[index]:
            self.all_boolean[index] = bool(
                np.isin(np.char.lower(values), vocabulary).all()
            )
        if self.all_numeric[index]:
            try:
                values.astype(np.float64)
            except ValueError:
                try:
                    for value in values:
                        float(value)
                except ValueError:
                    self.all_numeric[index] = False

    def schema(self) -> Schema:
        """Resolve the accumulated evidence into a schema (or raise)."""
        attributes: list[Attribute] = []
        for index, name in enumerate(self.header):
            if self.has_values[index] and self.all_boolean[index]:
                attributes.append(Attribute.boolean(name))
            elif self.all_numeric[index] or not self.has_values[index]:
                attributes.append(Attribute.numeric(name))
            else:
                raise RelationError(
                    f"column {name!r} is neither boolean-like nor numeric"
                )
        return Schema(tuple(attributes))


def _digest_legacy_rows(
    lines: Iterable[str],
    digest: _SchemaDigest,
    header: Sequence[str],
    path: Path,
    chunk_size: int,
    consumed: int,
) -> None:
    """Digest the remainder of a file through the legacy ``csv.reader``."""
    reader = csv.reader(iter(lines))
    rows: list[list[str]] = []
    line = consumed
    first_row_number = consumed + 1
    for row in reader:
        line += 1
        if not row:
            continue
        if not rows:
            first_row_number = line
        rows.append(row)
        if len(rows) == chunk_size:
            _check_row_widths(rows, len(header), path, first_row_number)
            digest.update_rows(rows)
            rows = []
    if rows:
        _check_row_widths(rows, len(header), path, first_row_number)
        digest.update_rows(rows)


def infer_schema(header: Sequence[str], rows: Iterable[Sequence[str]]) -> Schema:
    """Infer a :class:`Schema` from CSV header and string rows.

    A column is Boolean when every non-empty value belongs to the yes/no
    vocabulary (``yes/no``, ``true/false``, ``0/1`` and single-letter forms);
    otherwise it must parse as a float and becomes numeric.  A column with
    no values at all is numeric; the first column (in header order) that is
    neither raises :class:`RelationError`.
    """
    digest = _SchemaDigest(header)
    digest.update_rows(list(rows))
    return digest.schema()
