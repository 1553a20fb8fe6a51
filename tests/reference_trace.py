"""Per-cell reference trace generation: the oracle for the executor's
array-native scan and fetch generators.

These are the original cell-at-a-time loops of
:meth:`~repro.imdb.executor.Executor.emit_rowwise_field_scan` and
:meth:`~repro.imdb.executor.Executor._emit_selective_column_fetch`, kept
only to check the NumPy versions that ship in ``src/``.  They walk one
cell at a time through the scalar chunk geometry (``Chunk.local_cell`` /
``Chunk.device_cell``) and the scalar ``AddressMapper.encode``, so an
indexing, ordering or dedupe bug in the array code shows up as a trace
mismatch (``tests/test_trace_generation.py``).
"""

from repro.core.addressing import Coordinate
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES, WORDS_PER_LINE
from repro.imdb.chunks import IntraLayout, Run


def row_cells(chunk, chunk_row, offset_word):
    """Device cells holding ``offset_word`` of each tuple stored in chunk
    row ``chunk_row``.  Yields ``(subarray, device_row, device_col,
    global_tuple)`` in slot order (ROW layout) or group order (COLUMN)."""
    if chunk.layout is IntraLayout.ROW:
        base = chunk_row * chunk.slots
        slots_here = min(chunk.slots, chunk.n_tuples - base)
        for slot in range(slots_here):
            row, col = chunk.local_cell(base + slot, offset_word)
            sub, device_row, device_col = chunk.device_cell(row, col)
            yield sub, device_row, device_col, chunk.first_tuple + base + slot
    else:
        for group in range(chunk.used_groups()):
            local = group * chunk.height + chunk_row
            if local >= chunk.n_tuples or chunk_row >= chunk.height:
                continue
            row, col = chunk.local_cell(local, offset_word)
            sub, device_row, device_col = chunk.device_cell(row, col)
            yield sub, device_row, device_col, chunk.first_tuple + local


def _cell_row_address(executor, subarray, device_row, device_col):
    channel, rank, bank, sub = executor._sub_coord(subarray)
    coord = Coordinate(channel, rank, bank, sub, device_row, device_col)
    return executor.mapper.encode_row(coord)


def rowwise_field_scan(executor, trace, table, field_words):
    """Reference for ``Executor.emit_rowwise_field_scan``: one READ per
    run of consecutive cells sharing a line, the line carried across
    chunk boundaries."""
    offsets = sorted(table.field_offset(f, w) for f, w in field_words)
    last_line = None
    for chunk in table.chunks:
        for chunk_row in range(chunk.used_rows()):
            for offset in offsets:
                for sub, device_row, device_col, _tuple in row_cells(
                    chunk, chunk_row, offset
                ):
                    address = _cell_row_address(executor, sub, device_row, device_col)
                    line = address // CACHE_LINE_BYTES
                    if line != last_line:
                        trace.emit(0, address, WORD_BYTES, 1)  # Op.READ
                        last_line = line


def selective_column_fetch(executor, trace, table, ids, fields, write=False):
    """Reference for ``Executor._emit_selective_column_fetch``: the
    distinct column lines holding matches, per field word and chunk,
    sorted by (column, line row), one run access each."""
    if fields is None:
        fields = table.schema.field_names()
    offsets = []
    for name in fields:
        for word in range(table.schema.field(name).words):
            offsets.append(table.field_offset(name, word))
    for offset in offsets:
        for chunk in table.chunks:
            first = chunk.first_tuple
            lines = set()
            for tuple_id in ids:
                local = int(tuple_id) - first
                if 0 <= local < chunk.n_tuples:
                    row, col = chunk.local_cell(local, offset)
                    lines.add((col, row & ~(WORDS_PER_LINE - 1)))
            for col, line_row in sorted(lines):
                count = min(WORDS_PER_LINE, chunk.height - line_row)
                sub, device_row, device_col = chunk.device_cell(line_row, col)
                vertical = not chunk.placement.rotated
                run = Run(
                    subarray=sub,
                    vertical=vertical,
                    fixed=device_col if vertical else device_row,
                    start=device_row if vertical else device_col,
                    count=count,
                    first_tuple=0,
                    tuple_stride=0,
                )
                executor.emit_run(trace, run, write=write, gap=1)
