"""Property tests of discrete families: whichever integer type a family
stores its multiplicities in, fineness is the exhaustive supremum, the
masses are the currents' own, and the currents round-trip.

Multiplicities are drawn around each boundary of the storage types,
+-127/128, +-32767/32768, +-(2^31 - 1)/2^31, and at +-(2^62 - 1), the
largest a family admits, so that families land on either side of each.
The float comparisons allow for the order of summation only: a family
sums a row's terms in its patch order, a current in its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpart.sweepout import DiscreteFamily, FormalCurrent, fineness, interpolate_patches

from oracles import fineness_exhaustive, interpolated_patches

PROPERTY = settings(derandomize=True, deadline=None, database=None)
BOUNDARIES = (127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**62 - 1)


def narrowest(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds -bound and bound."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


@st.composite
def currents(draw, count: int):
    """(currents, bound): ``count`` currents over up to four shared
    patches and one patch "B" of multiplicity +-bound in one of them, all
    other multiplicities within +-bound."""
    bound = draw(st.sampled_from(BOUNDARIES))
    npatch = draw(st.integers(1, 4))
    areas = draw(st.lists(st.floats(0.01, 10.0), min_size=npatch + 1, max_size=npatch + 1))
    mult = st.one_of(st.integers(-2, 2), st.integers(-bound, bound),
                     st.sampled_from((bound - 1, 1 - bound)))
    rows = [[(f"P{j}", draw(mult), areas[j])
             for j in range(npatch) if draw(st.booleans())] for _ in range(count)]
    at = draw(st.integers(0, count - 1))
    rows[at].insert(draw(st.integers(0, len(rows[at]))),
                    ("B", draw(st.sampled_from((bound, -bound))), areas[npatch]))
    return tuple(FormalCurrent(row) for row in rows), bound


@st.composite
def families(draw):
    level = draw(st.integers(0, 2))
    return (level, *draw(currents(3**level + 1)))


@PROPERTY
@given(families())
def test_a_family_in_any_storage_type(drawn):
    level, cur, bound = drawn
    fam = DiscreteFamily(level, cur)
    assert fam.multiplicities.dtype == narrowest(bound)
    assert fineness(fam) == pytest.approx(fineness_exhaustive(fam), rel=1e-12)
    assert fam.masses() == pytest.approx([c.mass for c in cur], rel=1e-12)
    # Each current comes back with its nonzero patches, in family order.
    order = {pid: j for j, pid in enumerate(fam.patch_ids)}
    assert tuple(fam.currents) == tuple(
        FormalCurrent(sorted((p for p in c.patches if p[1] != 0), key=lambda p: order[p[0]]))
        for c in cur)


@PROPERTY
@given(currents(2), st.integers(1, 9))
def test_an_interpolated_family_in_any_storage_type(drawn, k):
    (a, b), bound = drawn
    fam = interpolate_patches(a, b, k)
    assert fam.multiplicities.dtype == narrowest(bound)
    assert fineness(fam) == pytest.approx(fineness_exhaustive(fam), rel=1e-12)
    reference = interpolated_patches(a, b, k)
    assert fam.masses() == pytest.approx([FormalCurrent(p).mass for p in reference], rel=1e-12)
    assert tuple(c.patches for c in fam.currents) == tuple(reference)
