"""Tests for CSV import / export."""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import RelationError
from repro.relation import Attribute, Relation, Schema, infer_schema, read_csv, write_csv


class TestRoundTrip:
    def test_write_then_read_preserves_relation(
        self, small_relation: Relation, tmp_path: Path
    ) -> None:
        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        loaded = read_csv(path)
        assert loaded.schema.names() == small_relation.schema.names()
        assert loaded == small_relation

    def test_read_with_explicit_schema(self, small_relation: Relation, tmp_path: Path) -> None:
        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        loaded = read_csv(path, schema=small_relation.schema)
        assert loaded == small_relation

    def test_explicit_schema_mismatch_rejected(
        self, small_relation: Relation, tmp_path: Path
    ) -> None:
        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        wrong = Schema.of(Attribute.numeric("something_else"))
        with pytest.raises(RelationError):
            read_csv(path, schema=wrong)


class TestParsing:
    def test_empty_file_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RelationError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(RelationError):
            read_csv(path)

    def test_non_numeric_non_boolean_column_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "text.csv"
        path.write_text("a\nhello\nworld\n")
        with pytest.raises(RelationError):
            read_csv(path)

    def test_bad_numeric_value_with_explicit_schema(self, tmp_path: Path) -> None:
        path = tmp_path / "bad.csv"
        path.write_text("a\n1.5\noops\n")
        with pytest.raises(RelationError):
            read_csv(path, schema=Schema.of(Attribute.numeric("a")))

    def test_header_only_file_gives_empty_relation(self, tmp_path: Path) -> None:
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        relation = read_csv(path)
        assert relation.num_tuples == 0


class TestInference:
    def test_boolean_column_detected(self) -> None:
        schema = infer_schema(["flag", "x"], [["yes", "1.5"], ["no", "2.5"]])
        assert schema.attribute("flag").is_boolean
        assert schema.attribute("x").is_numeric

    def test_zero_one_column_becomes_boolean(self) -> None:
        schema = infer_schema(["flag"], [["0"], ["1"]])
        assert schema.attribute("flag").is_boolean

    def test_general_numeric_column(self) -> None:
        schema = infer_schema(["x"], [["0"], ["1"], ["2.5"]])
        assert schema.attribute("x").is_numeric


class TestFastPathParity:
    """The np.loadtxt block tokenizer vs the legacy csv.reader, bit for bit."""

    @staticmethod
    def _chunks(path, **kwargs):
        from repro.relation.io import read_csv_chunks

        return list(read_csv_chunks(path, chunk_size=3, **kwargs))

    def _assert_both_paths_equal(self, path) -> None:
        fast = self._chunks(path)
        legacy = self._chunks(path, fast=False)
        assert len(fast) == len(legacy)
        for left, right in zip(fast, legacy):
            assert left.schema == right.schema
            assert left == right

    def test_round_trip_file(self, small_relation, tmp_path) -> None:
        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        self._assert_both_paths_equal(path)

    def test_quoted_fields_fall_back(self, tmp_path) -> None:
        path = tmp_path / "quoted.csv"
        path.write_text('x,flag\n"1.5",yes\n2.5,"no"\n3.5,yes\n4.5,no\n')
        self._assert_both_paths_equal(path)

    def test_blank_lines_fall_back(self, tmp_path) -> None:
        path = tmp_path / "blank.csv"
        path.write_text("x,flag\n1.0,yes\n\n2.0,no\n\n3.0,yes\n4.0,no\n")
        self._assert_both_paths_equal(path)
        total = sum(chunk.num_tuples for chunk in self._chunks(path))
        assert total == 4

    def test_crlf_line_endings(self, tmp_path) -> None:
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x,flag\r\n1.0,yes\r\n2.0,no\r\n3.0,yes\r\n4.0,no\r\n")
        self._assert_both_paths_equal(path)

    def test_whitespace_and_vocabulary_literals(self, tmp_path) -> None:
        path = tmp_path / "vocab.csv"
        path.write_text("x,flag\n 1.5 , TRUE\n2.5,0\n3.5 ,  yes\n4.5,N\n")
        self._assert_both_paths_equal(path)
        chunk = self._chunks(path)[0]
        assert list(chunk.boolean_column("flag")) == [True, False, True]

    def test_underscore_numeric_literals_fall_back(self, tmp_path) -> None:
        path = tmp_path / "underscore.csv"
        path.write_text("x\n1_000.5\n2.5\n3.5\n4.5\n")
        self._assert_both_paths_equal(path)
        assert self._chunks(path)[0].numeric_column("x")[0] == 1000.5

    def test_missing_trailing_newline(self, tmp_path) -> None:
        path = tmp_path / "notrail.csv"
        path.write_text("x,flag\n1.0,yes\n2.0,no")
        self._assert_both_paths_equal(path)

    def test_ragged_rows_rejected_on_both_paths(self, tmp_path) -> None:
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        for fast in (True, False):
            with pytest.raises(RelationError):
                self._chunks(path, fast=fast)

    def test_uniformly_wrong_width_rejected(self, tmp_path) -> None:
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,2,9\n3,4,9\n")
        for fast in (True, False):
            with pytest.raises(RelationError):
                self._chunks(path, fast=fast)

    def test_bad_boolean_value_rejected(self, tmp_path) -> None:
        from repro.relation import Attribute, Schema

        path = tmp_path / "badbool.csv"
        path.write_text("flag\nyes\nmaybe\n")
        schema = Schema.of(Attribute.boolean("flag"))
        for fast in (True, False):
            with pytest.raises(RelationError):
                self._chunks(path, schema=schema, fast=fast)


class TestProjection:
    def test_projected_columns_match_full_scan(self, small_relation, tmp_path) -> None:
        from repro.relation.io import read_csv_chunks

        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        names = small_relation.schema.numeric_names()[:1]
        for fast in (True, False):
            projected = list(
                read_csv_chunks(path, chunk_size=4, columns=names, fast=fast)
            )
            full = list(read_csv_chunks(path, chunk_size=4, fast=fast))
            for left, right in zip(projected, full):
                assert left.schema.names() == names
                assert np.array_equal(
                    left.numeric_column(names[0]), right.numeric_column(names[0])
                )

    def test_unknown_projection_column_rejected(self, small_relation, tmp_path) -> None:
        from repro.relation.io import read_csv_chunks

        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        with pytest.raises(RelationError):
            list(read_csv_chunks(path, columns=["nope"]))


class TestFirstChunkResume:
    def test_first_chunk_plus_skip_lines_equals_full_scan(
        self, small_relation, tmp_path
    ) -> None:
        from repro.relation.io import read_csv_chunks, read_csv_first_chunk

        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)
        probe = read_csv_first_chunk(path, chunk_size=4)
        assert probe is not None
        first, lines = probe
        rest = list(
            read_csv_chunks(
                path, schema=first.schema, chunk_size=4, skip_lines=lines
            )
        )
        resumed = [first, *rest]
        full = list(read_csv_chunks(path, chunk_size=4))
        assert len(resumed) == len(full)
        for left, right in zip(resumed, full):
            assert left == right

    def test_header_only_file_raises(self, tmp_path) -> None:
        from repro.relation.io import read_csv_first_chunk

        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(RelationError):
            read_csv_first_chunk(path)

    def test_quoted_first_block_returns_none(self, tmp_path) -> None:
        from repro.relation.io import read_csv_first_chunk

        path = tmp_path / "quoted.csv"
        path.write_text('x\n"1.5"\n')
        assert read_csv_first_chunk(path) is None


class TestFastPathWidthAndTruncationGuards:
    """Regressions for the review findings on the fast tokenizer."""

    def test_uniformly_narrow_rows_raise_relation_error(self, tmp_path) -> None:
        from repro.relation.io import (
            infer_csv_schema,
            read_csv,
            read_csv_chunks,
            read_csv_first_chunk,
        )

        path = tmp_path / "narrow.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(RelationError):
            read_csv(path)
        with pytest.raises(RelationError):
            list(read_csv_chunks(path))
        with pytest.raises(RelationError):
            infer_csv_schema(path)
        assert read_csv_first_chunk(path) is None

    def test_uniformly_wide_rows_raise_in_inference(self, tmp_path) -> None:
        from repro.relation.io import infer_csv_schema

        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,2,9\n3,4,9\n")
        with pytest.raises(RelationError):
            infer_csv_schema(path)

    def test_full_width_boolean_field_defers_to_legacy(self, tmp_path) -> None:
        """A vocabulary word padded to the field width then truncated junk
        must raise exactly as the legacy parser does, not silently parse."""
        from repro.relation import Attribute, Schema
        from repro.relation.io import read_csv_chunks

        schema = Schema.of(Attribute.boolean("flag"))
        bad = tmp_path / "truncated.csv"
        bad.write_text("flag\nyes\ntrue    junk\n")
        for fast in (True, False):
            with pytest.raises(RelationError):
                list(read_csv_chunks(bad, schema=schema, fast=fast))

        # A benign value that happens to fill the width still parses, via
        # the legacy fallback.
        ok = tmp_path / "padded.csv"
        ok.write_text("flag\nyes\n  true  \n")
        for fast in (True, False):
            chunks = list(read_csv_chunks(ok, schema=schema, fast=fast))
            assert list(chunks[0].boolean_column("flag")) == [True, True]


class TestCrlfBlankLines:
    """A blank line in a CRLF file routes to the legacy reader, silently."""

    CONTENT = b"x\r\n1.0\r\n\r\n2.0\r\n3.0\r\n"

    def test_fast_equals_legacy_without_warnings(self, tmp_path) -> None:
        from repro.pipeline import CSVSource
        from repro.relation.io import infer_csv_schema, read_csv_chunks

        path = tmp_path / "crlf_blank.csv"
        path.write_bytes(self.CONTENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schema = CSVSource(path).schema
            assert infer_csv_schema(path) == schema
            relation = read_csv(path)
            for chunk_size in (1, 2, 10):
                fast = list(read_csv_chunks(path, chunk_size=chunk_size))
                legacy = list(
                    read_csv_chunks(path, chunk_size=chunk_size, fast=False)
                )
                assert fast == legacy
        assert relation.schema == schema
        assert list(relation.numeric_column("x")) == [1.0, 2.0, 3.0]


class TestBooleanDecode:
    """The one-comparison Boolean decode against the per-column path."""

    @staticmethod
    def _both(path, **kwargs) -> list[Relation]:
        from repro.relation.io import read_csv_chunks

        fast = list(read_csv_chunks(path, chunk_size=3, **kwargs))
        legacy = list(read_csv_chunks(path, chunk_size=3, fast=False, **kwargs))
        assert fast == legacy
        return fast

    def test_full_width_fields(self, tmp_path) -> None:
        from repro.relation.io import read_csv_chunks

        schema = Schema.of(Attribute.boolean("flag"))
        padded = tmp_path / "padded.csv"
        padded.write_text("flag\nno\nyes     \nno\n")
        chunks = self._both(padded, schema=schema)
        assert list(chunks[0].boolean_column("flag")) == [False, True, False]
        junk = tmp_path / "junk.csv"
        junk.write_text("flag\nno\nyesXXXXX\nno\n")
        for fast in (True, False):
            with pytest.raises(RelationError, match="yesXXXXX"):
                list(read_csv_chunks(junk, schema=schema, fast=fast))

    def test_exact_column_next_to_vocabulary_column(self, tmp_path) -> None:
        path = tmp_path / "mixed.csv"
        path.write_text("a,b,x\nyes,TRUE,1.5\nno, 0,2.5\nyes,f,3.5\nno,1,4.5\n")
        chunks = self._both(path)
        assert chunks[0].schema.attribute("b").is_boolean
        assert list(chunks[0].boolean_column("a")) == [True, False, True]
        assert list(chunks[0].boolean_column("b")) == [True, False, False]
        assert list(chunks[1].boolean_column("b")) == [True]

    def test_no_boolean_columns(self, tmp_path) -> None:
        path = tmp_path / "numeric.csv"
        path.write_text("x,y\n1.5,2\n2.5,3\n3.5,4\n4.5,5\n")
        chunks = self._both(path)
        assert chunks[0].schema.boolean_names() == []

    def test_boolean_only_projection_with_sentinel(self, tmp_path) -> None:
        # Projecting away the last header column makes the parser append a
        # one-byte sentinel field after the Boolean fields.
        path = tmp_path / "flags.csv"
        path.write_text(
            "a,x,b,y\nyes,1,no,2\nno,2,T,3\nyes,3,no,4\nno,4,yes,5\n"
        )
        chunks = self._both(path, columns=["a", "b"])
        assert [chunk.schema.names() for chunk in chunks] == [["a", "b"]] * 2
        assert list(chunks[0].boolean_column("b")) == [False, True, False]
        schema = Schema.of(
            Attribute.boolean("a"),
            Attribute.numeric("x"),
            Attribute.boolean("b"),
            Attribute.numeric("y"),
        )
        explicit = self._both(path, schema=schema, columns=["a", "b"])
        assert explicit == chunks


class TestGuessAndVerify:
    """The first-row guess is verified by the typed parse, never trusted."""

    def test_clean_file_skips_the_byte_matrix_digest(
        self, small_relation, tmp_path, monkeypatch
    ) -> None:
        import repro.relation.io as io_module

        path = tmp_path / "bank.csv"
        write_csv(small_relation, path)

        def refuse(*args):
            raise AssertionError("the byte-matrix digest ran on a clean file")

        monkeypatch.setattr(io_module, "_bytes_matrix", refuse)
        assert io_module.infer_csv_schema(path, chunk_size=4) == small_relation.schema
        first, lines = io_module.read_csv_first_chunk(path, chunk_size=4)
        assert (first.schema, lines) == (small_relation.schema, 4)
        assert read_csv(path) == small_relation

    @pytest.mark.parametrize(
        "text, expected",
        [
            # Boolean in the first chunk, numeric over the whole file.
            ("flag,x\n0,1.5\n1,2.5\n2.5,3.5\n", "numeric"),
            # Boolean in the first chunk, neither over the whole file.
            ("flag,x\nyes,1.5\nno,2.5\nmaybe,3.5\n", "error"),
            # Row 1 numeric, a later value that is not.
            ("x,flag\n1.5,yes\n2.5,no\nmaybe,yes\n", "error"),
        ],
    )
    def test_late_contradiction_restarts_the_exact_digest(
        self, tmp_path, monkeypatch, text, expected
    ) -> None:
        import repro.relation.io as io_module

        path = tmp_path / "late.csv"
        path.write_text(text)
        restarts = []
        digest = io_module._digest_csv_schema
        monkeypatch.setattr(
            io_module,
            "_digest_csv_schema",
            lambda *args: restarts.append(args) or digest(*args),
        )
        if expected == "error":
            with pytest.raises(RelationError, match="neither boolean-like nor numeric"):
                io_module.infer_csv_schema(path, chunk_size=2)
        else:
            schema = io_module.infer_csv_schema(path, chunk_size=2)
            assert schema.attribute("flag").is_numeric
            assert schema == read_csv(path).schema
        assert len(restarts) == 1


# -- inference-parity oracle ----------------------------------------------------

_BOOLEAN_CELLS = ["yes", "no", "YES", "No", " yes ", "no  ", "True", "f", "T", " 0"]
_NUMERIC_CELLS = ["2.5", "-1", "0.1", "1e3", "nan", "-inf", "inf", "1_000", " 3.25 "]


@st.composite
def _csv_files(draw) -> tuple[bytes, int]:
    """A small random CSV file (as bytes) and a chunk size to read it with."""
    num_rows = draw(st.integers(1, 9))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["boolean", "zero_one", "numeric", "mixed"]))
        if kind == "boolean":
            cells = st.sampled_from(_BOOLEAN_CELLS)
        elif kind == "zero_one":
            cells = st.sampled_from(["0", "1"])
        elif kind == "numeric":
            cells = st.sampled_from(_NUMERIC_CELLS)
        else:
            cells = st.sampled_from(_BOOLEAN_CELLS + _NUMERIC_CELLS + ["maybe"])
        if draw(st.booleans()):
            cells = cells | st.just("")
        values = draw(st.lists(cells, min_size=num_rows, max_size=num_rows))
        if kind == "zero_one" and draw(st.booleans()):
            # 0/1 for a prefix, then a general number: Boolean early,
            # numeric over the whole file.
            values[draw(st.integers(0, num_rows - 1))] = "2.5"
        columns.append(values)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f"c{index}" for index in range(len(columns)))]
    lines += [",".join(row) for row in zip(*columns)]
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text.encode("utf-8"), draw(st.integers(1, num_rows + 2))


def _outcome(produce):
    """``("ok", value)`` or ``("error", message)`` of a RelationError."""
    try:
        return "ok", produce()
    except RelationError as exc:
        return "error", str(exc)


def _chunk_outcome(chunks) -> tuple[list, str | None]:
    """The chunks a scan yields before its RelationError (if any)."""
    seen = []
    try:
        for chunk in chunks:
            seen.append(chunk)
    except RelationError as exc:
        return seen, str(exc)
    return seen, None


def _assert_bit_identical(left: Relation, right: Relation) -> None:
    assert left.schema == right.schema
    for attribute in left.schema:
        a, b = left.column(attribute.name), right.column(attribute.name)
        assert a.dtype == b.dtype
        if attribute.is_numeric:
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        else:
            assert np.array_equal(a, b)


class TestInferenceParityOracle:
    """Guess-and-verify inference equals the exact digest and the legacy reader.

    The references are the per-value digest (of the first block, or of the
    whole file) and the ``fast=False`` row reader: schemas, float bits and
    ``RelationError`` messages must all agree.
    """

    @settings(max_examples=150, deadline=None)
    @given(_csv_files())
    def test_fast_inference_matches_references(self, case) -> None:
        from repro.relation.io import (
            _bytes_matrix,
            _digest_csv_schema,
            _normalized_fast_block,
            _SchemaDigest,
            infer_csv_schema,
            read_csv_chunks,
            read_csv_first_chunk,
        )

        content, chunk_size = case
        with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(directory) / "case.csv"
            path.write_bytes(content)

            fast, fast_error = _chunk_outcome(read_csv_chunks(path, chunk_size=chunk_size))
            legacy, legacy_error = _chunk_outcome(
                read_csv_chunks(path, chunk_size=chunk_size, fast=False)
            )
            assert fast_error == legacy_error
            assert len(fast) == len(legacy)
            for left, right in zip(fast, legacy):
                _assert_bit_identical(left, right)

            first = _outcome(lambda: read_csv_first_chunk(path, chunk_size=chunk_size))
            if first[0] == "error" and not legacy and legacy_error is None:
                assert first[1].endswith("contains no data rows")
            elif first[0] == "error":
                assert first[1] == legacy_error
            elif first[1] is not None:
                chunk, _ = first[1]
                _assert_bit_identical(chunk, legacy[0])
                header, *lines = content.decode("utf-8").splitlines(keepends=True)
                header = header.strip().split(",")
                block = _normalized_fast_block("".join(lines[:chunk_size]), len(header))
                digest = _SchemaDigest(header)
                digest.update_matrix(_bytes_matrix(block, len(header)))
                assert chunk.schema == digest.schema()

            whole = _outcome(lambda: infer_csv_schema(path, chunk_size=chunk_size))
            assert whole == _outcome(lambda: _digest_csv_schema(path, chunk_size))
            everything = _chunk_outcome(
                read_csv_chunks(path, chunk_size=2**62, fast=False)
            )
            if everything[1] is not None:
                assert _outcome(lambda: read_csv(path)) == ("error", everything[1])
            else:
                assert whole == ("ok", read_csv(path).schema)
                if everything[0]:
                    _assert_bit_identical(read_csv(path), everything[0][0])
