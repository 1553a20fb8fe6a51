"""Chunk layouts (Figure 13 semantics), runs, rotation, slicing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.imdb.binpack import Placement
from repro.imdb.chunks import Chunk, IntraLayout, slice_table


def make_chunk(layout, n=16, tw=2, width=8, height=8, rotated=False,
               origin=(0, 0), subarray=0):
    chunk = Chunk(
        first_tuple=0, n_tuples=n, tuple_words=tw, layout=layout,
        width=width, height=height,
    )
    placed_w, placed_h = (height, width) if rotated else (width, height)
    chunk.placement = Placement(
        bin_index=subarray, x=origin[1], y=origin[0], rotated=rotated,
        width=placed_w, height=placed_h,
    )
    return chunk


class TestRowLayout:
    """Figure 13(a): consecutive tuples advance along the row."""

    def test_first_tuples_share_row(self):
        chunk = make_chunk(IntraLayout.ROW)
        assert chunk.local_cell(0, 0) == (0, 0)
        assert chunk.local_cell(1, 0) == (0, 2)
        assert chunk.local_cell(3, 1) == (0, 7)

    def test_wraps_to_next_row(self):
        chunk = make_chunk(IntraLayout.ROW)
        assert chunk.local_cell(4, 0) == (1, 0)

    def test_used_rows(self):
        assert make_chunk(IntraLayout.ROW, n=9).used_rows() == 3
        assert make_chunk(IntraLayout.ROW, n=8).used_rows() == 2


class TestColumnLayout:
    """Figure 13(b): consecutive tuples stack vertically."""

    def test_tuples_stack_vertically(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        assert chunk.local_cell(0, 0) == (0, 0)
        assert chunk.local_cell(1, 0) == (1, 0)
        assert chunk.local_cell(7, 1) == (7, 1)

    def test_next_group_after_height(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        assert chunk.local_cell(8, 0) == (0, 2)

    def test_used_groups(self):
        assert make_chunk(IntraLayout.COLUMN, n=9).used_groups() == 2
        assert make_chunk(IntraLayout.COLUMN, n=16).used_groups() == 2


class TestValidation:
    def test_capacity_enforced(self):
        with pytest.raises(LayoutError):
            Chunk(0, 100, 2, IntraLayout.ROW, width=8, height=8)

    def test_width_multiple_of_tuple(self):
        with pytest.raises(LayoutError):
            Chunk(0, 4, 3, IntraLayout.ROW, width=8, height=8)

    def test_bad_tuple_index(self):
        chunk = make_chunk(IntraLayout.ROW)
        with pytest.raises(LayoutError):
            chunk.local_cell(16, 0)

    def test_bad_word(self):
        chunk = make_chunk(IntraLayout.ROW)
        with pytest.raises(LayoutError):
            chunk.local_cell(0, 2)

    def test_unplaced_device_cell(self):
        chunk = Chunk(0, 4, 2, IntraLayout.ROW, width=8, height=8)
        with pytest.raises(LayoutError):
            chunk.device_cell(0, 0)


class TestDeviceMapping:
    def test_origin_offset(self):
        chunk = make_chunk(IntraLayout.ROW, origin=(10, 20), subarray=3)
        sub, row, col = chunk.device_cell(2, 5)
        assert (sub, row, col) == (3, 12, 25)

    def test_rotation_swaps_axes(self):
        chunk = make_chunk(IntraLayout.ROW, rotated=True, origin=(10, 20))
        sub, row, col = chunk.device_cell(2, 5)
        assert (row, col) == (15, 22)


class TestFieldRuns:
    @pytest.mark.parametrize("layout", [IntraLayout.ROW, IntraLayout.COLUMN])
    def test_runs_cover_every_tuple_once(self, layout):
        chunk = make_chunk(layout, n=13)
        covered = []
        for run in chunk.field_runs(1):
            for j in range(run.count):
                covered.append(run.first_tuple + j * run.tuple_stride)
        assert sorted(covered) == list(range(13))

    @pytest.mark.parametrize("layout", [IntraLayout.ROW, IntraLayout.COLUMN])
    def test_runs_point_at_correct_cells(self, layout):
        chunk = make_chunk(layout, n=16)
        for run in chunk.field_runs(1):
            assert run.vertical  # unrotated: chunk-vertical = device-vertical
            for j in range(run.count):
                local = run.first_tuple + j * run.tuple_stride
                row, col = chunk.local_cell(local, 1)
                assert (row, col) == (run.start + j, run.fixed)

    def test_column_layout_runs_are_tuple_ordered(self):
        chunk = make_chunk(IntraLayout.COLUMN, n=16)
        runs = chunk.field_runs(0)
        assert [r.first_tuple for r in runs] == [0, 8]
        assert all(r.tuple_stride == 1 for r in runs)

    def test_row_layout_runs_stride_by_slots(self):
        chunk = make_chunk(IntraLayout.ROW, n=16)
        runs = chunk.field_runs(0)
        assert [r.first_tuple for r in runs] == [0, 1, 2, 3]
        assert all(r.tuple_stride == 4 for r in runs)

    def test_rotated_runs_become_horizontal(self):
        chunk = make_chunk(IntraLayout.COLUMN, rotated=True)
        for run in chunk.field_runs(0):
            assert not run.vertical


class TestTupleAndRowRuns:
    def test_tuple_cells_contiguous(self):
        chunk = make_chunk(IntraLayout.ROW)
        run = chunk.tuple_cells(5, 0, 2)
        assert not run.vertical and run.count == 2
        row, col = chunk.local_cell(5, 0)
        assert (run.fixed, run.start) == (row, col)

    def test_row_run_full_width(self):
        chunk = make_chunk(IntraLayout.ROW)
        run = chunk.row_run(3)
        assert (run.fixed, run.start, run.count) == (3, 0, 8)

    def test_col_run(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        run = chunk.col_run(2)
        assert run.vertical and run.fixed == 2
        assert run.count == chunk.used_rows()

    @staticmethod
    def _row_major_cells_of_row(chunk, chunk_row, offsets):
        _sub, rows, cols = chunk.row_major_cells(offsets)
        here = rows == chunk_row  # unplaced origin (0, 0), unrotated
        return list(zip(rows[here].tolist(), cols[here].tolist()))

    @staticmethod
    def _cells_of(chunk, tuples, word):
        return [chunk.device_cell(*chunk.local_cell(t, word))[1:] for t in tuples]

    def test_row_cells_row_layout(self):
        chunk = make_chunk(IntraLayout.ROW, n=10)
        # Row 2 holds tuples 8, 9 only (10 tuples, 4 per row).
        assert self._row_major_cells_of_row(chunk, 2, [0]) == self._cells_of(
            chunk, [8, 9], 0
        )

    def test_row_cells_column_layout(self):
        chunk = make_chunk(IntraLayout.COLUMN, n=16)
        assert self._row_major_cells_of_row(chunk, 3, [0]) == self._cells_of(
            chunk, [3, 11], 0
        )

    def test_row_major_cells_walk_order(self):
        """Chunk row, then offset, then slot (ROW) / group (COLUMN)."""
        chunk = make_chunk(IntraLayout.COLUMN, n=13)  # partial last group
        _sub, rows, cols = chunk.row_major_cells([1, 0])
        expected = []
        for chunk_row in range(chunk.used_rows()):
            tuples = [t for t in (chunk_row, chunk_row + 8) if t < 13]
            expected += self._cells_of(chunk, tuples, 1)
            expected += self._cells_of(chunk, tuples, 0)
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    def test_row_major_cells_rotated(self):
        chunk = make_chunk(IntraLayout.ROW, n=10, rotated=True, origin=(3, 5),
                           subarray=2)
        sub, rows, cols = chunk.row_major_cells([1])
        assert sub == 2
        assert list(zip(rows.tolist(), cols.tolist())) == self._cells_of(
            chunk, range(10), 1
        )

    def test_row_major_cells_unplaced_and_bad_word(self):
        chunk = Chunk(first_tuple=0, n_tuples=4, tuple_words=2,
                      layout=IntraLayout.ROW, width=8, height=1)
        with pytest.raises(LayoutError, match="not been placed"):
            chunk.row_major_cells([0])
        with pytest.raises(LayoutError, match="word 2 outside tuple"):
            make_chunk(IntraLayout.ROW).row_major_cells([0, 2])

    def test_local_cells_matches_local_cell(self):
        for layout in IntraLayout:
            chunk = make_chunk(layout, n=13)
            rows, cols = chunk.local_cells(range(13), 1)
            assert list(zip(rows.tolist(), cols.tolist())) == [
                chunk.local_cell(t, 1) for t in range(13)
            ]
            with pytest.raises(LayoutError, match="tuple 13 outside chunk"):
                chunk.local_cells([0, 13], 0)


class TestSliceTable:
    def test_single_small_chunk(self):
        shapes = slice_table(10, 2, IntraLayout.ROW, subarray_rows=64, subarray_cols=64)
        assert len(shapes) == 1
        first, count, width, height = shapes[0]
        assert (first, count) == (0, 10)

    def test_multiple_chunks(self):
        shapes = slice_table(5000, 2, IntraLayout.ROW, subarray_rows=32, subarray_cols=32)
        per_chunk = (32 // 2) * 32
        assert len(shapes) == -(-5000 // per_chunk)
        assert sum(s[1] for s in shapes) == 5000

    def test_column_layout_dimensions(self):
        shapes = slice_table(100, 4, IntraLayout.COLUMN, subarray_rows=64, subarray_cols=64)
        first, count, width, height = shapes[0]
        assert height == 64
        assert width == 2 * 4  # ceil(100/64)=2 groups

    def test_tuple_too_wide(self):
        with pytest.raises(LayoutError):
            slice_table(10, 100, IntraLayout.ROW, subarray_rows=64, subarray_cols=64)

    @given(
        n=st.integers(1, 3000),
        tw=st.integers(1, 8),
        layout=st.sampled_from([IntraLayout.ROW, IntraLayout.COLUMN]),
    )
    @settings(max_examples=80, deadline=None)
    def test_shapes_fit_and_cover(self, n, tw, layout):
        shapes = slice_table(n, tw, layout, subarray_rows=32, subarray_cols=32)
        assert sum(s[1] for s in shapes) == n
        cursor = 0
        for first, count, width, height in shapes:
            assert first == cursor
            cursor += count
            assert width <= 32 and height <= 32
            assert width % tw == 0
            chunk = Chunk(first, count, tw, layout, width, height)  # capacity check
            assert chunk.n_tuples == count
