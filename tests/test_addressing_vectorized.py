"""Property tests for the vectorized address-space conversions.

The scalar ``row_to_col_address``/``col_to_row_address`` pair and the
array-valued ``row_to_col_addresses``/``col_to_row_addresses`` pair run
off the same precomputed permutation tables; these tests pin down the
contract over random geometries: the conversions are mutually inverse,
the vectorized forms agree element-wise with the scalar forms, the
batched ``decode_fields`` matches scalar ``decode``, and the batched
``encode_fields`` matches scalar ``encode`` — addresses and range-check
errors alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.errors import AddressError
from repro.geometry import Geometry


def _pow2(lo, hi):
    return st.integers(lo, hi).map(lambda exponent: 1 << exponent)


GEOMETRIES = st.builds(
    Geometry,
    channels=_pow2(0, 2),
    ranks=_pow2(0, 2),
    banks=_pow2(0, 3),
    subarrays=_pow2(0, 3),
    rows=_pow2(2, 10),
    cols=_pow2(2, 10),
)


@st.composite
def mapper_and_addresses(draw):
    geometry = draw(GEOMETRIES)
    mapper = AddressMapper(geometry)
    n = draw(st.integers(min_value=1, max_value=48))
    raw = draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper._address_mask),
            min_size=n,
            max_size=n,
        )
    )
    return mapper, np.asarray(raw, dtype=np.int64)


@settings(deadline=None)
@given(mapper_and_addresses())
def test_conversions_are_mutually_inverse(case):
    mapper, addresses = case
    there = mapper.row_to_col_addresses(addresses)
    back = mapper.col_to_row_addresses(there)
    np.testing.assert_array_equal(back, addresses)
    there = mapper.col_to_row_addresses(addresses)
    back = mapper.row_to_col_addresses(there)
    np.testing.assert_array_equal(back, addresses)


@settings(deadline=None)
@given(mapper_and_addresses())
def test_vectorized_matches_scalar(case):
    mapper, addresses = case
    expected = [mapper.row_to_col_address(int(a)) for a in addresses]
    np.testing.assert_array_equal(mapper.row_to_col_addresses(addresses), expected)
    expected = [mapper.col_to_row_address(int(a)) for a in addresses]
    np.testing.assert_array_equal(mapper.col_to_row_addresses(addresses), expected)


@settings(deadline=None)
@given(mapper_and_addresses(), st.data())
def test_decode_fields_matches_scalar_decode(case, data):
    mapper, addresses = case
    orientations = np.asarray(
        data.draw(
            st.lists(
                st.sampled_from((int(Orientation.ROW), int(Orientation.COLUMN))),
                min_size=len(addresses),
                max_size=len(addresses),
            )
        )
    )
    ch, rk, bk, sa, row, col = mapper.decode_fields(addresses, orientations)
    for i, (address, orientation) in enumerate(zip(addresses, orientations)):
        coord = mapper.decode(int(address), Orientation(int(orientation)))
        assert (ch[i], rk[i], bk[i], sa[i], row[i], col[i]) == (
            coord.channel,
            coord.rank,
            coord.bank,
            coord.subarray,
            coord.row,
            coord.col,
        )


FIELD_NAMES = ("channels", "ranks", "banks", "subarrays", "rows", "cols")


@st.composite
def mapper_and_fields(draw, slack=0):
    """A mapper plus six equal-length field arrays; with ``slack`` > 0
    some values may fall up to ``slack`` outside their valid range."""
    geometry = draw(GEOMETRIES)
    n = draw(st.integers(min_value=0, max_value=32))
    fields = []
    for name in FIELD_NAMES:
        limit = getattr(geometry, name)
        fields.append(np.asarray(
            draw(st.lists(st.integers(-slack, limit - 1 + slack),
                          min_size=n, max_size=n)),
            dtype=np.int64,
        ))
    return AddressMapper(geometry), fields


ORIENTATIONS = st.sampled_from((Orientation.ROW, Orientation.COLUMN))


@settings(deadline=None)
@given(mapper_and_fields(), ORIENTATIONS)
def test_encode_fields_matches_scalar_encode(case, orientation):
    mapper, fields = case
    addresses = mapper.encode_fields(*fields, orientation)
    expected = [
        mapper.encode(Coordinate(*(int(f[i]) for f in fields)), orientation)
        for i in range(len(fields[0]))
    ]
    np.testing.assert_array_equal(addresses, np.asarray(expected, dtype=np.int64))


@settings(deadline=None)
@given(mapper_and_fields(), ORIENTATIONS)
def test_encode_fields_broadcasts_scalar_fields(case, orientation):
    """The executor passes one subarray's (channel, rank, bank, subarray)
    as scalars beside row/col arrays."""
    mapper, fields = case
    if not len(fields[0]):
        return
    head = [int(f[0]) for f in fields[:4]]
    addresses = mapper.encode_fields(*head, fields[4], fields[5], orientation)
    expected = [
        mapper.encode(Coordinate(*head, int(r), int(c)), orientation)
        for r, c in zip(fields[4], fields[5])
    ]
    np.testing.assert_array_equal(addresses, np.asarray(expected, dtype=np.int64))


@settings(deadline=None)
@given(mapper_and_fields(slack=3), ORIENTATIONS)
def test_encode_fields_raises_like_the_scalar_walk(case, orientation):
    """The first element the scalar walk would reject raises the same
    AddressError (same field, value and limit in the message)."""
    mapper, fields = case
    expected = None
    for i in range(len(fields[0])):
        try:
            mapper.encode(Coordinate(*(int(f[i]) for f in fields)), orientation)
        except AddressError as exc:
            expected = str(exc)
            break
    if expected is None:
        mapper.encode_fields(*fields, orientation)
        return
    with pytest.raises(AddressError) as info:
        mapper.encode_fields(*fields, orientation)
    assert str(info.value) == expected


def test_encode_fields_rejects_gather_orientation():
    mapper = AddressMapper(Geometry())
    with pytest.raises(AddressError, match="GS-DRAM"):
        mapper.encode_fields(0, 0, 0, 0, [1], [2], Orientation.GATHER)
