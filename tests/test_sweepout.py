import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thinpart import DomainError, sweepout
from thinpart.filler import build as build_filler
from thinpart.filler import slice_area as filler_slice_area
from thinpart.flat_torus import FlatTorusLattice
from thinpart.sweepout import (
    DiscreteFamily,
    FormalCurrent,
    GridVertex,
    fineness,
    grid_distance,
    interpolate_patches,
    max_mass,
    profile,
    project_vertex,
)
from thinpart.tube_geometry import CuspParams, TubeParams, meyerhoff_radius, slice_area

from oracles import fineness_exhaustive, interpolated_patches, profile_samples_loop

UNIT = FlatTorusLattice.unit_square()


# ------------------------------------------------------------- grid complex


def test_grid_distance_examples():
    x = GridVertex.from_indices(1, 0)
    assert grid_distance(x, x) == 0
    assert grid_distance(x, GridVertex.from_indices(1, 3)) == 3  # 0 to 1 at j=1
    a = GridVertex(2, (Fraction(1, 9),))
    b = GridVertex(2, (Fraction(1, 3),))
    assert grid_distance(a, b) == 2


def test_grid_distance_mixed_complexes_rejected():
    with pytest.raises(DomainError):
        grid_distance(GridVertex.from_indices(1, 0), GridVertex.from_indices(2, 0))
    with pytest.raises(DomainError):
        grid_distance(
            GridVertex.from_indices(1, 0), GridVertex.from_indices(1, 0, 0)
        )


def test_grid_distance_is_a_metric_exhaustively():
    for j in range(4):
        verts = [GridVertex.from_indices(j, i) for i in range(3**j + 1)]
        for x, y in itertools.product(verts, repeat=2):
            d = grid_distance(x, y)
            assert d == grid_distance(y, x)
            assert (d == 0) == (x == y)
        for x, y, z in itertools.product(verts, repeat=3):
            assert grid_distance(x, z) <= grid_distance(x, y) + grid_distance(y, z)


def test_grid_distance_square_complex():
    x = GridVertex.from_indices(1, 0, 0)
    y = GridVertex.from_indices(1, 2, 3)
    assert grid_distance(x, y) == 5


def test_project_vertex_examples():
    x = GridVertex(2, (Fraction(1, 3),))
    assert project_vertex(x, 1) == GridVertex(1, (Fraction(1, 3),))
    x = GridVertex(2, (Fraction(4, 9),))
    assert project_vertex(x, 1) == GridVertex(1, (Fraction(1, 3),))
    # Midpoint tie rounds toward 0.
    x = GridVertex(1, (Fraction(1, 3), Fraction(2, 3)))
    proj = project_vertex(x, 0)
    assert proj == GridVertex(0, (Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        project_vertex(GridVertex.from_indices(1, 1), 2)


def test_project_vertex_composition_exhaustive():
    for i_lvl in range(4):
        for jj in range(i_lvl + 1):
            for jjj in range(jj + 1):
                for idx in range(3**i_lvl + 1):
                    x = GridVertex.from_indices(i_lvl, idx)
                    two_step = project_vertex(project_vertex(x, jj), jjj)
                    one_step = project_vertex(x, jjj)
                    # Equal up to the documented tie-break: both are
                    # nearest level-jjj vertices.
                    d2 = grid_distance(two_step, one_step)
                    assert d2 <= 1
                    if d2 == 1:
                        # Only midpoint ties can differ.
                        scaled = x.coords[0] * 3**jjj
                        assert (scaled - Fraction(1, 2)).denominator in (1, 3)


# ---------------------------------------------------------- formal currents


def test_current_mass_and_difference():
    a = FormalCurrent((("T1", 1, 2.0), ("T2", -2, 0.5)))
    assert a.mass == pytest.approx(3.0)
    b = FormalCurrent((("T1", 1, 2.0),))
    assert a.mass_of_difference(b) == pytest.approx(1.0)
    assert a.mass_of_difference(a) == 0.0
    assert FormalCurrent.zero().mass == 0.0


def test_current_validation():
    with pytest.raises(DomainError):
        FormalCurrent((("T1", 1, 1.0), ("T1", 2, 1.0)))
    with pytest.raises(DomainError):
        FormalCurrent((("T1", 1.5, 1.0),))
    with pytest.raises(DomainError):
        FormalCurrent((("T1", 1, -1.0),))
    a = FormalCurrent((("T1", 1, 1.0),))
    b = FormalCurrent((("T1", 1, 2.0),))
    with pytest.raises(DomainError):
        a.mass_of_difference(b)


def test_fineness_constant_family_is_zero():
    c = FormalCurrent.single("T", 1.5)
    fam = DiscreteFamily(1, (c, c, c, c))
    assert fineness(fam) == 0.0


def test_fineness_two_disjoint_tori():
    A, B = 1.25, 0.75
    fam = DiscreteFamily(
        0,
        (FormalCurrent.single("TA", A), FormalCurrent.single("TB", B)),
    )
    assert fineness(fam) == pytest.approx(A + B)
    assert fineness_exhaustive(fam) == pytest.approx(A + B)


def test_fineness_adjacent_sup_equals_exhaustive():
    rng = np.random.RandomState(4)
    for level in (1, 2, 3):
        n = 3**level + 1
        currents = []
        for _ in range(n):
            patches = tuple(
                (f"P{k}", int(rng.randint(-2, 3)), float(rng.uniform(0.1, 2.0)))
                for k in range(3)
            )
            # normalize areas per id across the family
            currents.append(patches)
        areas = {f"P{k}": float(rng.uniform(0.5, 1.5)) for k in range(3)}
        fam = DiscreteFamily(
            level,
            tuple(
                FormalCurrent(
                    tuple((pid, m, areas[pid]) for pid, m, _ in cur)
                )
                for cur in currents
            ),
        )
        assert fineness(fam) == pytest.approx(fineness_exhaustive(fam), rel=1e-12)


def test_interpolate_patches_single_step():
    a = FormalCurrent.single("TA", 2.0)
    b = FormalCurrent.single("TB", 1.0)
    fam = interpolate_patches(a, b, 1)
    assert fam.level == 0
    assert fam.currents[0].mass == pytest.approx(a.mass)
    assert fam.currents[1].mass == pytest.approx(b.mass)
    assert fineness(fam) == pytest.approx(a.mass_of_difference(b))


def test_interpolate_step_masses_telescope():
    a = FormalCurrent((("TA", 2, 1.3), ("TC", 1, 0.4)))
    b = FormalCurrent((("TB", 1, 0.8), ("TC", -1, 0.4)))
    diff = a.mass_of_difference(b)
    for k in (2, 5, 16):
        fam = interpolate_patches(a, b, k)
        steps = [
            fam.currents[i].mass_of_difference(fam.currents[i + 1])
            for i in range(k)
        ]
        assert sum(steps) == pytest.approx(diff, rel=1e-12)
        max_patch = max(area for _, _, area in a.patches + b.patches)
        assert max(steps) <= diff / k + max_patch + 1e-12
        assert max(steps) <= diff / k * (1 + 1e-12)
        assert fineness(fam) == pytest.approx(diff / k, rel=1e-12)


def test_interpolate_fineness_decay_rate():
    a = FormalCurrent.single("TA", 1.7)
    b = FormalCurrent.single("TB", 0.9)
    ks = [4, 8, 16, 32, 64, 128, 256]
    fs = [fineness(interpolate_patches(a, b, k)) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(fs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_family_rejects_a_negative_level():
    # The level is checked before the count of currents it asks for.
    c = FormalCurrent.single("T", 1.0)
    with pytest.raises(DomainError, match="family level must be nonnegative, got -1"):
        DiscreteFamily(-1, [c, c])


def test_interpolate_rejects_zero_steps():
    a = FormalCurrent.single("TA", 1.0)
    with pytest.raises(DomainError):
        interpolate_patches(a, a, 0)


# ------------------------------------------------------------ area profiles


def test_cusp_profile_decreasing_from_one():
    prof = profile(cusps=[CuspParams(UNIT, 0.0, 4.0)], samples=100)
    rows = prof.samples()
    areas = [a for _, _, a in rows]
    assert areas[0] == pytest.approx(1.0)
    assert all(x > y for x, y in zip(areas, areas[1:]))
    assert prof.width_upper_bound == pytest.approx(1.0)
    ts = [t for t, _, _ in rows]
    assert all(x < y for x, y in zip(ts, ts[1:]))


def test_tube_profile_max_matches_slice_area():
    ell = 0.01
    R = meyerhoff_radius(ell)
    prof = profile(tubes=[TubeParams(ell, 0.0, R)], samples=150)
    assert prof.width_upper_bound == pytest.approx(slice_area(ell, R), rel=1e-12)
    assert prof.width_upper_bound == pytest.approx(0.8282015940681025, rel=1e-9)
    areas = prof.segments[0].areas
    assert np.all(np.diff(areas) > 0)


def test_filler_profile_bounded_by_boundary_area():
    fil = build_filler(12.0, UNIT)
    prof = profile(fillers=[fil], samples=300)
    areas = prof.segments[0].areas
    assert float(areas[0]) == pytest.approx(UNIT.area, rel=1e-12)
    assert prof.width_upper_bound <= UNIT.area + 1e-12
    assert np.all(np.diff(areas) < 0)
    # Pointwise agreement with the filler module's slice areas.
    for t, a in zip(prof.segments[0].params[::37], areas[::37]):
        assert a == pytest.approx(filler_slice_area(fil, float(t)), rel=1e-12)


def test_profile_areas_equal_per_sample_slice_areas():
    ell = 0.02
    cusp = CuspParams(UNIT, 0.2, 2.0)
    fil = build_filler(14.0, UNIT.scaled(math.exp(-2.0)))
    prof = profile(cusps=[cusp], tubes=[TubeParams(ell, 0.4, 0.95 * meyerhoff_radius(ell))],
                   fillers=[fil], attachments={0: 0}, samples=500)
    _, tube_seg, fil_seg = prof.segments
    assert np.array_equal(tube_seg.areas, [slice_area(ell, float(r)) for r in tube_seg.params])
    assert np.array_equal(fil_seg.areas,
                          [filler_slice_area(fil, float(t)) for t in fil_seg.params])


def test_profile_samples_equal_the_per_sample_rows():
    cusp = CuspParams(UNIT, 0.2, 2.0)
    fil = build_filler(14.0, UNIT.scaled(math.exp(-2.0)))
    prof = profile(cusps=[cusp, CuspParams(UNIT, 0.0, 1.0)],
                   tubes=[TubeParams(0.02, 0.4, 1.2)], fillers=[fil],
                   attachments={0: 0}, samples=700)
    rows = prof.samples()
    assert rows == profile_samples_loop(prof)
    assert all(type(t) is float and type(a) is float for t, _, a in rows)


def test_profile_gluing_check():
    cusp = CuspParams(UNIT, 0.0, 1.0)
    fil_good = build_filler(12.0, UNIT.scaled(math.exp(-1.0)))
    prof = profile(cusps=[cusp], fillers=[fil_good], attachments={0: 0})
    assert len(prof.segments) == 2
    fil_bad = build_filler(12.0, UNIT.scaled(0.5))
    with pytest.raises(DomainError):
        profile(cusps=[cusp], fillers=[fil_bad], attachments={0: 0})


def test_max_mass_concatenation():
    cusp_prof = profile(cusps=[CuspParams(UNIT, 0.0, 2.0)], samples=64)
    tube_prof = profile(tubes=[TubeParams(0.01, 0.3, 1.5)], samples=64)
    both = cusp_prof.concat(tube_prof)
    assert max_mass(both) == pytest.approx(
        max(max_mass(cusp_prof), max_mass(tube_prof)), rel=1e-15
    )
    fam = DiscreteFamily(
        0, (FormalCurrent.single("T", 2.0), FormalCurrent.single("T", 2.0))
    )
    assert max_mass(fam) == 2.0
    assert max_mass([cusp_prof, tube_prof]) == max_mass(both)


def test_zero_anchoring_flag():
    z = FormalCurrent.zero()
    t = FormalCurrent.single("T", 1.0)
    anchored = DiscreteFamily(1, (z, t, t, z))
    assert anchored.is_zero_anchored
    assert not DiscreteFamily(1, (t, t, t, t)).is_zero_anchored


def test_interpolate_patches_matches_per_patch_construction():
    a = FormalCurrent((("TA", 2, 1.3), ("TC", 1, 0.4), ("TD", 0, 0.7)))
    b = FormalCurrent((("TB", 1, 0.8), ("TC", -1, 0.4), ("TE", -3, 0.25)))
    for k in (1, 2, 5, 16):
        fam = interpolate_patches(a, b, k)
        reference = interpolated_patches(a, b, k)
        assert len(fam.currents) == len(reference)
        for i, patches in enumerate(reference):
            assert fam.currents[i].patches == patches
        assert [c.patches for c in fam.currents] == reference
        assert fam.currents[-1].patches == reference[-1]


@pytest.mark.parametrize("patches", [
    lambda: (entry for entry in [("A", 1, 1.0), ("B", -2, 0.5)]),
    lambda: [("A", 1, 1.0), ("B", -2, 0.5)],
    lambda: [["A", 1, 1.0], ["B", -2, 0.5]],
], ids=["generator", "list", "list_of_lists"])
def test_a_current_stores_the_triples_it_read(patches):
    # Built from any iterable of triples, a current is the one built from
    # a tuple of tuples: equal, equally hashable, with the same patches.
    reference = FormalCurrent((("A", 1, 1.0), ("B", -2, 0.5)))
    current = FormalCurrent(patches())
    assert current.patches == reference.patches
    assert current == reference and hash(current) == hash(reference)
    assert current.mass == 2.0


def test_family_rejects_inconsistent_areas_at_construction():
    a = FormalCurrent((("T1", 1, 1.0),))
    b = FormalCurrent((("T1", 1, 2.0),))
    with pytest.raises(DomainError, match="inconsistent areas"):
        DiscreteFamily(0, (a, b))
    # Agreement to 1e-12 relative is consistent.
    c = FormalCurrent((("T1", 2, 1.0 + 1e-13),))
    assert fineness(DiscreteFamily(0, (a, c))) == pytest.approx(1.0, rel=1e-12)


def test_every_patch_area_check_names_the_patch_and_both_areas():
    # mass_of_difference, DiscreteFamily and interpolate_patches share
    # one check, with one message.
    a = FormalCurrent((("T1", 1, 1.0), ("T2", 1, 0.5)))
    b = FormalCurrent((("T1", 1, 2.0),))
    message = "patch 'T1' carries inconsistent areas 1.0 != 2.0"
    for reject in (a.mass_of_difference, lambda b: DiscreteFamily(0, (a, b)),
                   lambda b: interpolate_patches(a, b, 3)):
        with pytest.raises(DomainError, match=message):
            reject(b)
    # Agreement to 1e-12 relative is consistent, and the first area is kept.
    c = FormalCurrent((("T1", 2, 1.0 + 1e-13),))
    fam = interpolate_patches(a, c, 2)
    assert fam.areas.tolist() == [0.5, 0.5, 0.25, 0.25]


def test_family_currents_round_trip():
    currents = (
        FormalCurrent((("A", 1, 2.0), ("B", -2, 0.5))),
        FormalCurrent.zero(),
        FormalCurrent((("B", 3, 0.5), ("C", 1, 1.5))),
        FormalCurrent((("A", 1, 2.0),)),
    )
    fam = DiscreteFamily(1, currents)
    assert fam.patch_ids == ("A", "B", "C")
    assert fam.multiplicities.tolist() == [[1, -2, 0], [0, 0, 0], [0, 3, 1], [1, 0, 0]]
    assert tuple(fam.currents) == currents
    assert fam.masses() == pytest.approx([c.mass for c in currents], rel=1e-15)
    assert fineness(fam) == pytest.approx(fineness_exhaustive(fam), rel=1e-15)
    with pytest.raises(ValueError):
        fam.multiplicities[0, 0] = 5
    with pytest.raises(DomainError):
        DiscreteFamily(1, currents[:3])


def test_family_rejects_multiplicities_beyond_int64_differences():
    big = FormalCurrent((("A", 2**62, 1.0),))
    small = FormalCurrent((("A", 2**62 - 1, 1.0),))
    neg = FormalCurrent((("A", 1 - 2**62, 1.0),))
    assert fineness(DiscreteFamily(0, (small, neg))) == float(2**63 - 2)
    for a, b in ((big, neg), (neg, FormalCurrent((("A", 2**70, 1.0),)))):
        with pytest.raises(DomainError, match="2\\^62"):
            DiscreteFamily(0, (a, b))
    with pytest.raises(DomainError, match="2\\^62"):
        interpolate_patches(big, neg, 3)


# ------------------------------------------------ storage type and memory


@pytest.mark.parametrize("multiplicity, dtype", [
    (0, np.int8), (127, np.int8), (-127, np.int8), (128, np.int16), (-128, np.int16),
    (32767, np.int16), (-32768, np.int32), (2**31 - 1, np.int32), (-2**31, np.int64),
    (2**62 - 1, np.int64),
])
def test_a_family_stores_the_narrowest_type_that_holds_plus_minus_its_largest_multiplicity(
        multiplicity, dtype):
    # -128 fits an int8, but +128 does not: the type holds +-max|m|, so
    # that |m| and the negation of any entry fit it as well.
    a = FormalCurrent((("A", 1, 1.0), ("B", multiplicity, 0.5)))
    b = FormalCurrent((("A", -1, 1.0),))
    fam = DiscreteFamily(0, (a, b))
    assert fam.multiplicities.dtype == dtype
    assert fam.multiplicities.tolist() == [[1, multiplicity], [-1, 0]]
    assert interpolate_patches(a, b, 4).multiplicities.dtype == dtype
    assert fineness(fam) == 2.0 + abs(multiplicity) * 0.5


@pytest.mark.parametrize("level, patches", [(3, 7), (2, 9000)])
def test_fineness_is_the_same_wherever_its_blocks_end(monkeypatch, level, patches):
    # Rows of 9000 entries are wider than numpy's 8192-element casting
    # buffer, so a row's terms are summed in more than one chunk.
    rng = np.random.default_rng(5)
    areas = rng.uniform(0.1, 2.0, patches)
    fam = DiscreteFamily(level, [
        FormalCurrent(tuple((f"P{j}", int(m), float(areas[j]))
                            for j, m in enumerate(rng.integers(-300, 301, patches))))
        for _ in range(3**level + 1)
    ])
    whole = fineness(fam)
    assert whole == pytest.approx(fineness_exhaustive(fam), rel=1e-12)
    for entries in (1, patches, 2 * patches, 5 * patches, 1 << 20):
        monkeypatch.setattr(sweepout, "_BLOCK_ENTRIES", entries)
        assert fineness(fam) == whole


def _traced(call):
    """``call()`` and the peak traced bytes above the start while it ran."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


def test_interpolation_and_fineness_make_no_int64_copy_of_the_family():
    # The benchmark's family: k = 200 steps over 30 patches, each end
    # holding half of them with multiplicity 1.  An int64 copy of its
    # 244 x 6000 matrix takes 11.7 MB; the int8 matrix takes 1.5 MB,
    # and fineness widens 2^16 entries at a time.
    rng = np.random.default_rng(6)
    areas = rng.uniform(0.1, 2.0, 30)
    half = np.arange(30) < 15
    ends = [rng.permutation(half).astype(int) for _ in range(2)]
    a, b = (FormalCurrent(tuple((f"S{i}", int(m), float(x)) for i, (m, x) in enumerate(zip(end, areas))))
            for end in ends)
    fam, built = _traced(lambda: interpolate_patches(a, b, 200))
    int64_copy = fam.multiplicities.size * 8
    assert fam.multiplicities.dtype == np.int8 and fam.multiplicities.shape == (244, 6000)
    assert built < int64_copy / 4, built
    fine, peak = _traced(lambda: fineness(fam))
    assert peak < int64_copy / 4, peak
    assert fine == pytest.approx(float(np.abs(ends[0] - ends[1]) @ areas) / 200, rel=1e-12)
