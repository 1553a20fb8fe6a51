"""Chunk slicing and intra-chunk layouts (paper Section 4.5, Figure 13).

Large tables are sliced into rectangular *chunks* that each fit inside one
subarray.  Within a chunk, tuples are laid out in one of two orders —
both keep a tuple's fields contiguous along a physical row:

* **row-oriented layout** (Figure 13a): consecutive tuples advance along
  the row first, wrapping to the next row — the classical row-store
  placement, optimal for full-tuple row scans;
* **column-oriented layout** (Figure 13b): consecutive tuples stack
  vertically, then advance to the next column group — so an in-order
  field scan walks straight down one physical column, which is what makes
  RC-NVM's column accesses effective for OLAP even when access order
  matters.

A chunk may be *rotated* by the inter-chunk bin packer (Section 4.5.3);
rotation swaps the roles of device rows and columns, which is free on
RC-NVM because both access directions are first-class.
"""

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.imdb.binpack import Placement


class IntraLayout(enum.Enum):
    """Figure 13's two intra-chunk data layouts."""

    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class Run:
    """A straight sequence of cells within one subarray, plus the mapping
    back to the tuples whose field words those cells hold.

    ``vertical`` runs walk down a physical column (``fixed`` = the column,
    cells at rows ``start .. start+count-1``); horizontal runs walk along a
    physical row.  Cell ``j`` of the run belongs to tuple
    ``first_tuple + j * tuple_stride`` (global tuple index).
    """

    subarray: int
    vertical: bool
    fixed: int
    start: int
    count: int
    first_tuple: int
    tuple_stride: int


class Chunk:
    """One rectangle of tuples placed in a subarray."""

    def __init__(self, first_tuple, n_tuples, tuple_words, layout, width, height):
        if width % tuple_words:
            raise LayoutError("chunk width must be a multiple of the tuple width")
        slots = width // tuple_words
        if layout is IntraLayout.ROW:
            capacity = slots * height
        else:
            capacity = slots * height  # same capacity, different order
        if n_tuples > capacity:
            raise LayoutError(
                f"chunk of {width}x{height} cells holds {capacity} tuples, "
                f"asked to store {n_tuples}"
            )
        self.first_tuple = first_tuple
        self.n_tuples = n_tuples
        self.tuple_words = tuple_words
        self.layout = layout
        self.width = width
        self.height = height
        self.slots = slots
        self.placement: Placement = None

    # -- chunk-local geometry -------------------------------------------------
    def local_cell(self, index, word):
        """Chunk-relative (row, col) of word ``word`` of local tuple ``index``."""
        if not 0 <= index < self.n_tuples:
            raise LayoutError(f"tuple {index} outside chunk of {self.n_tuples}")
        self._check_word(word)
        if self.layout is IntraLayout.ROW:
            row = index // self.slots
            col = (index % self.slots) * self.tuple_words + word
        else:
            row = index % self.height
            col = (index // self.height) * self.tuple_words + word
        return row, col

    def used_rows(self):
        """Number of chunk rows that contain at least one tuple."""
        if self.layout is IntraLayout.ROW:
            return -(-self.n_tuples // self.slots)
        return min(self.n_tuples, self.height)

    def used_groups(self):
        """Number of column groups in use (COLUMN layout)."""
        if self.layout is IntraLayout.COLUMN:
            return -(-self.n_tuples // self.height)
        return self.slots

    # -- device geometry ---------------------------------------------------------
    def device_cell(self, row, col):
        """Map a chunk-relative cell to (subarray, device_row, device_col)."""
        p = self.placement
        if p is None:
            raise LayoutError("chunk has not been placed yet")
        if p.rotated:
            return p.bin_index, p.y + col, p.x + row
        return p.bin_index, p.y + row, p.x + col

    def tuple_cells(self, index, word_start=0, word_count=None):
        """Device run covering words ``[word_start, word_start+word_count)``
        of local tuple ``index`` (contiguous within the tuple's row)."""
        if word_count is None:
            word_count = self.tuple_words - word_start
        row, col = self.local_cell(index, word_start)
        sub, device_row, device_col = self.device_cell(row, col)
        vertical = bool(self.placement.rotated)
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=word_count,
            first_tuple=self.first_tuple + index,
            tuple_stride=0,
        )

    def field_runs(self, offset_word):
        """Device runs covering one field word of every tuple in the chunk.

        Runs are emitted in tuple-major order for the COLUMN layout (walk
        the groups left to right) and slot order for the ROW layout; in
        both cases each run's cells are consecutive along the chunk's
        vertical axis (a single column access per run on RC-NVM).
        """
        if not 0 <= offset_word < self.tuple_words:
            raise LayoutError(f"field word {offset_word} outside tuple")
        runs = []
        if self.layout is IntraLayout.COLUMN:
            for group in range(self.used_groups()):
                first_local = group * self.height
                count = min(self.height, self.n_tuples - first_local)
                row, col = self.local_cell(first_local, offset_word)
                sub, device_row, device_col = self.device_cell(row, col)
                runs.append(self._vertical_run(
                    sub, device_row, device_col, count,
                    self.first_tuple + first_local, 1,
                ))
        else:
            for slot in range(min(self.slots, self.n_tuples)):
                count = -(-(self.n_tuples - slot) // self.slots)
                row, col = self.local_cell(slot, offset_word)
                sub, device_row, device_col = self.device_cell(row, col)
                runs.append(self._vertical_run(
                    sub, device_row, device_col, count,
                    self.first_tuple + slot, self.slots,
                ))
        return runs

    def _vertical_run(self, sub, device_row, device_col, count, first, stride):
        """A run that is vertical in chunk space; rotation makes it
        horizontal in device space."""
        if self.placement.rotated:
            return Run(sub, False, device_row, device_col, count, first, stride)
        return Run(sub, True, device_col, device_row, count, first, stride)

    def row_run(self, chunk_row, col_start=0, count=None):
        """Device run covering cells ``[col_start, col_start+count)`` of one
        chunk row — the unit of sequential full-row scans."""
        if count is None:
            count = self.width - col_start
        if not 0 <= chunk_row < self.height:
            raise LayoutError(f"chunk row {chunk_row} outside height {self.height}")
        sub, device_row, device_col = self.device_cell(chunk_row, col_start)
        vertical = bool(self.placement.rotated)
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=count,
            first_tuple=0,
            tuple_stride=0,
        )

    def col_run(self, chunk_col, row_start=0, count=None):
        """Device run covering cells ``[row_start, row_start+count)`` of one
        chunk column — the unit of column-direction full scans."""
        if count is None:
            count = self.used_rows() - row_start
        if not 0 <= chunk_col < self.width:
            raise LayoutError(f"chunk col {chunk_col} outside width {self.width}")
        sub, device_row, device_col = self.device_cell(row_start, chunk_col)
        vertical = not self.placement.rotated
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=count,
            first_tuple=0,
            tuple_stride=0,
        )

    def local_cells(self, indices, word):
        """Vectorized :meth:`local_cell`: chunk-relative ``(rows, cols)``
        int64 arrays of word ``word`` of each local tuple in ``indices``."""
        self._check_word(word)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_tuples):
            bad = indices[(indices < 0) | (indices >= self.n_tuples)]
            raise LayoutError(f"tuple {int(bad[0])} outside chunk of {self.n_tuples}")
        if self.layout is IntraLayout.ROW:
            slot, row = indices % self.slots, indices // self.slots
        else:
            slot, row = indices // self.height, indices % self.height
        return row, slot * self.tuple_words + word

    def row_major_cells(self, offset_words):
        """Device cells holding the given field words of every tuple, in
        row-major (DRAM-friendly) scan order: chunk row by chunk row,
        within a row each offset in the given order, within an offset
        slot by slot (ROW layout) or group by group (COLUMN layout).

        The array counterpart of :meth:`device_cell` over the walk:
        returns ``(subarray, device_rows, device_cols)`` with int64
        row/col arrays (every cell lies in the chunk's one subarray)."""
        for word in offset_words:
            self._check_word(word)
        chunk_row = np.arange(self.used_rows(), dtype=np.int64)[:, None, None]
        offsets = np.asarray(offset_words, dtype=np.int64)[None, :, None]
        slot = np.arange(self.used_groups(), dtype=np.int64)[None, None, :]
        if self.layout is IntraLayout.ROW:
            present = chunk_row * self.slots + slot < self.n_tuples
        else:
            present = slot * self.height + chunk_row < self.n_tuples
        shape = (chunk_row.shape[0], offsets.shape[1], slot.shape[2])
        present = np.broadcast_to(present, shape)
        rows = np.broadcast_to(chunk_row, shape)[present]
        cols = np.broadcast_to(slot * self.tuple_words + offsets, shape)[present]
        return self.device_cell(rows, cols)

    def _check_word(self, word):
        if not 0 <= word < self.tuple_words:
            raise LayoutError(f"word {word} outside tuple of {self.tuple_words}")

    def __repr__(self):
        return (
            f"Chunk(tuples {self.first_tuple}..{self.first_tuple + self.n_tuples - 1}, "
            f"{self.width}x{self.height} cells, {self.layout.value})"
        )


def slice_table(n_tuples, tuple_words, layout, subarray_rows, subarray_cols):
    """Slice ``n_tuples`` into chunk shapes fitting one subarray each.

    Returns a list of (first_tuple, count, width, height) rectangles.  A
    tuple longer than a subarray row cannot be stored (the paper notes
    this case is "really rare"; we reject it).
    """
    if tuple_words > subarray_cols:
        raise LayoutError(
            f"tuple of {tuple_words} cells exceeds the {subarray_cols}-cell "
            "subarray row; the paper's layouts do not split tuples"
        )
    slots = subarray_cols // tuple_words
    per_chunk = slots * subarray_rows
    shapes = []
    first = 0
    while first < n_tuples:
        count = min(per_chunk, n_tuples - first)
        if layout is IntraLayout.ROW:
            # Full-width shelves, as many rows as needed.
            used_slots = min(slots, count)
            height = -(-count // slots) if count > slots else 1
            width = used_slots * tuple_words
        else:
            height = min(subarray_rows, count)
            groups = -(-count // height)
            width = groups * tuple_words
        shapes.append((first, count, width, height))
        first += count
    return shapes
