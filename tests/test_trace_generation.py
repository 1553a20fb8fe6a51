"""The executor's array-native scan/fetch generators against the per-cell
reference loops in ``tests/reference_trace.py``.

Tables are built from real chunk geometry (``slice_table`` over a tiny
"subarray" so they split into many chunks) and placed by hand at random
subarrays and origins, optionally rotated, so every case the bin packer
can produce — ROW and COLUMN layouts, rotated placements, partial last
rows and groups, multi-chunk tables — is reachable without loading data:
trace generation reads only geometry.  Every trace column (op, address,
size, gap, flags, orientation) must match the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_trace
from conftest import make_database
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import LayoutError
from repro.imdb.binpack import Placement
from repro.imdb.chunks import Chunk, IntraLayout, slice_table
from repro.imdb.schema import Schema
from repro.imdb.table import Table


def _place(chunk, subarray, x, y, rotated):
    width, height = (chunk.height, chunk.width) if rotated else (chunk.width, chunk.height)
    chunk.placement = Placement(bin_index=subarray, x=x, y=y, rotated=rotated,
                                width=width, height=height)


def _table(db, fields, layout, n_tuples, sub_rows, sub_cols, placements):
    """A Table whose chunks are sliced from ``n_tuples`` with the given
    chunk bounds and placed per ``placements`` (one draw per chunk)."""
    schema = Schema(fields)
    table = Table("t", schema, layout, db.physmem, db.allocator)
    geometry = db.physmem.geometry
    x = 0
    shapes = slice_table(n_tuples, schema.tuple_words, layout, sub_rows, sub_cols)
    for (first, count, width, height), draw in zip(shapes, placements):
        chunk = Chunk(first, count, schema.tuple_words, layout, width, height)
        subarray, rotated, packed, fx, fy = draw
        placed_w, placed_h = (height, width) if rotated else (width, height)
        if packed and x + placed_w <= geometry.cols:
            # Side by side on one device row: consecutive chunks then
            # share cache lines across their boundary.
            _place(chunk, 0, x, 0, rotated)
            x += placed_w
        else:
            _place(chunk, subarray,
                   int(fx * (geometry.cols - placed_w + 1)),
                   int(fy * (geometry.rows - placed_h + 1)), rotated)
        table.chunks.append(chunk)
    table.n_tuples = n_tuples
    return table


@st.composite
def tables(draw):
    db = make_database("RC-NVM", verify=False)
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    fields = [(f"f{i}", 8 * words) for i, words in enumerate(widths)]
    tuple_words = sum(widths)
    layout = draw(st.sampled_from(list(IntraLayout)))
    n_tuples = draw(st.integers(1, 240))
    sub_rows = draw(st.integers(1, 12))
    sub_cols = draw(st.integers(tuple_words, 4 * tuple_words + 20))
    shapes = slice_table(n_tuples, tuple_words, layout, sub_rows, sub_cols)
    subarrays = db.physmem.geometry.channels * db.physmem.geometry.ranks \
        * db.physmem.geometry.banks * db.physmem.geometry.subarrays
    placements = draw(st.lists(
        st.tuples(st.integers(0, subarrays - 1), st.booleans(), st.booleans(),
                  st.floats(0, 0.999), st.floats(0, 0.999)),
        min_size=len(shapes), max_size=len(shapes),
    ))
    table = _table(db, fields, layout, n_tuples, sub_rows, sub_cols, placements)
    return db, table


def _assert_same_trace(actual, expected):
    for got, want, name in zip(actual.columns(), expected.columns(),
                               ("op", "address", "size", "gap", "flags", "orient")):
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert actual.coords == expected.coords


def _field_words(table, picks):
    words = [(f.name, w) for f in table.schema.fields for w in range(f.words)]
    return [words[i % len(words)] for i in picks]


@settings(deadline=None, max_examples=60)
@given(tables(), st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True))
def test_rowwise_field_scan_matches_reference(case, picks):
    db, table = case
    field_words = sorted(set(_field_words(table, picks)))
    actual, expected = TraceBuffer(), TraceBuffer()
    db.executor.emit_rowwise_field_scan(actual, table, field_words)
    reference_trace.rowwise_field_scan(db.executor, expected, table, field_words)
    _assert_same_trace(actual, expected)


@settings(deadline=None, max_examples=60)
@given(tables(), st.data(), st.booleans(), st.booleans())
def test_selective_column_fetch_matches_reference(case, data, all_fields, write):
    db, table = case
    ids = data.draw(st.lists(st.integers(0, table.n_tuples - 1), unique=True))
    ids = sorted(ids)
    names = table.schema.field_names()
    fields = None if all_fields else data.draw(
        st.lists(st.sampled_from(names), min_size=1, unique=True)
    )
    actual, expected = TraceBuffer(), TraceBuffer()
    db.executor._emit_selective_column_fetch(actual, table, ids, fields, write=write)
    reference_trace.selective_column_fetch(db.executor, expected, table, ids,
                                           fields, write=write)
    _assert_same_trace(actual, expected)


def test_line_dedupe_carries_across_chunks():
    """Two one-row chunks side by side on one device row: the scan's
    second chunk starts on the line the first ended on, so the whole
    scan is a single READ — the dedupe is table-wide, not per chunk."""
    db = make_database("RC-NVM", verify=False)
    placements = [(0, False, True, 0.0, 0.0)] * 2
    table = _table(db, [("k", 8)], IntraLayout.ROW, 4, 1, 2, placements)
    assert len(table.chunks) == 2
    actual, expected = TraceBuffer(), TraceBuffer()
    db.executor.emit_rowwise_field_scan(actual, table, [("k", 0)])
    reference_trace.rowwise_field_scan(db.executor, expected, table, [("k", 0)])
    assert len(actual) == 1
    _assert_same_trace(actual, expected)


def test_unplaced_chunk_raises_layout_error():
    db = make_database("RC-NVM", verify=False)
    table = _table(db, [("k", 8)], IntraLayout.ROW, 4, 2, 2,
                   [(0, False, False, 0.0, 0.0)])
    table.chunks.append(Chunk(4, 2, 1, IntraLayout.ROW, 2, 1))
    table.n_tuples = 6
    with pytest.raises(LayoutError, match="not been placed"):
        db.executor.emit_rowwise_field_scan(TraceBuffer(), table, [("k", 0)])
