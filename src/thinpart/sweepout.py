"""Discrete sweep-out machinery over a formal-current model.

Vertices live on the 1/3^j grids of the unit interval (or square); a
discrete family maps those vertices to formal currents, each a finite
combination of labelled patches with integer multiplicities.  The mass of
a difference uses the patchwise formula (patches are either identical or
disjoint), which is exact for this model by definition.  On top of the
combinatorics, area profiles of cusp pieces, tube pieces and fillers give
explicit width upper bounds.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import filler as filler_mod
from . import tube_geometry
from .errors import DomainError, as_float, as_index, as_int
from .flat_torus import FlatTorusLattice, reduce_basis


# ----------------------------------------------------------- grid complex


@dataclass(frozen=True)
class GridVertex:
    """A 0-cell of the level-j complex on [0,1]^m, coordinates i/3^j."""

    level: int
    coords: tuple

    def __post_init__(self):
        if as_int("grid level", self.level) < 0:
            raise DomainError("grid level must be nonnegative")
        if not self.coords:
            raise DomainError("vertex needs at least one coordinate")
        den = 3**self.level
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise DomainError("vertex coordinates must be Fractions")
            if not 0 <= c <= 1:
                raise DomainError("vertex coordinates must lie in [0, 1]")
            if (c * den).denominator != 1:
                raise DomainError(
                    f"{c} is not a level-{self.level} grid coordinate"
                )

    @classmethod
    def from_indices(cls, level: int, *indices: int) -> "GridVertex":
        # A Fraction power: a negative level reaches the level check.
        den = Fraction(3) ** as_int("grid level", level)
        return cls(level, tuple(as_int("vertex index", i) / den for i in indices))

    @property
    def dim(self) -> int:
        return len(self.coords)


def grid_distance(x: GridVertex, y: GridVertex) -> int:
    """3^j * sum |x_i - y_i|, an exact integer."""
    if x.level != y.level or x.dim != y.dim:
        raise DomainError("vertices belong to different complexes")
    den = 3**x.level
    total = sum(abs(a - b) for a, b in zip(x.coords, y.coords)) * den
    return int(total)


def project_vertex(x: GridVertex, level: int) -> GridVertex:
    """Nearest level-``level`` vertex; midpoint ties round toward 0.

    (Uniqueness of the nearest vertex fails exactly at cell midpoints;
    the tie-break is part of the contract.)
    """
    level = as_int("level", level)
    if level < 0:
        raise DomainError("level must be nonnegative")
    if level > x.level:
        raise DomainError("can only project to a coarser or equal level")
    den = 3**level
    out = []
    for c in x.coords:
        scaled = c * den
        lo = scaled.numerator // scaled.denominator
        frac = scaled - lo
        if frac > Fraction(1, 2):
            lo += 1
        out.append(Fraction(lo, den))
    return GridVertex(level, tuple(out))


# --------------------------------------------------------- formal currents


@dataclass(frozen=True)
class FormalCurrent:
    """Integer combination of labelled patches: ((patch_id, mult, area), ...).

    ``patches`` may be any iterable of triples; the current stores the
    tuple of the triples it read, each as a tuple.
    """

    patches: tuple

    def __post_init__(self):
        try:
            entries = iter(self.patches)
        except TypeError:
            raise DomainError("patches must be an iterable of (patch, multiplicity, area) "
                              f"triples, got {self.patches!r}") from None
        seen, triples = {}, []
        for entry in entries:
            try:
                entry = tuple(entry)  # a tuple is itself, not a copy
                pid, mult, patch_area = entry
                hash(pid)
            except (TypeError, ValueError):
                raise DomainError("patches entry must be a (patch, multiplicity, area) "
                                  f"triple with a hashable patch, got {entry!r}") from None
            if pid in seen:
                raise DomainError(f"duplicate patch id {pid!r}")
            mult = as_int("multiplicity", mult)
            patch_area = as_float("patch area", patch_area)
            if patch_area < 0.0:
                raise DomainError(f"patch area must be nonnegative, got {patch_area!r}")
            seen[pid] = (mult, patch_area)
            triples.append(entry)
        object.__setattr__(self, "patches", tuple(triples))
        object.__setattr__(self, "_table", seen)

    @classmethod
    def zero(cls) -> "FormalCurrent":
        return cls(())

    @classmethod
    def single(cls, pid, area: float, mult: int = 1) -> "FormalCurrent":
        return cls(((pid, mult, area),))

    @property
    def mass(self) -> float:
        return sum(abs(m) * a for m, a in self._table.values())

    def mass_of_difference(self, other: "FormalCurrent") -> float:
        """M(self - other) patchwise: sum |n_i - m_i| * area_i."""
        total = 0.0
        ids = set(self._table) | set(other._table)
        for pid in ids:
            n, a1 = self._table.get(pid, (0, None))
            m, a2 = other._table.get(pid, (0, None))
            total += abs(n - m) * _shared_area(pid, a1, a2)
        return total


def _require_current(name: str, current) -> FormalCurrent:
    """``current``; a DomainError naming ``name`` when it is not a
    ``FormalCurrent``."""
    if not isinstance(current, FormalCurrent):
        raise DomainError(f"{name} must be a FormalCurrent, got {current!r}")
    return current


def _shared_area(pid, a1, a2):
    """The area of patch ``pid`` given as a1 and as a2, either of them
    None where the patch is absent; a DomainError naming the patch and
    both areas when they differ by more than 1e-12 relative."""
    if a1 is None:
        return a2
    if a2 is not None and abs(a1 - a2) > 1e-12 * max(a1, a2, 1e-300):
        raise DomainError(f"patch {pid!r} carries inconsistent areas {a1!r} != {a2!r}")
    return a1


# --------------------------------------------------------- discrete family

# Families hold multiplicities as int64; below 2^62 in magnitude, every
# difference of two of them fits as well.
_MULT_LIMIT = 2**62


def _require_storable(pid, mult: int) -> None:
    if abs(mult) >= _MULT_LIMIT:
        raise DomainError(f"patch {pid!r}: multiplicity {mult} exceeds 2^62 in magnitude")


class _Currents(Sequence):
    """Read-only view of a family's rows as formal currents, each built
    on access."""

    def __init__(self, family: "DiscreteFamily"):
        self._family = family

    def __len__(self) -> int:
        return self._family.multiplicities.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        fam = self._family
        row = fam.multiplicities[i]
        present = np.flatnonzero(row)
        ids = fam.patch_ids
        return FormalCurrent(tuple(zip(
            [ids[j] for j in present], row[present].tolist(),
            fam.areas[present].tolist(),
        )))


class DiscreteFamily:
    """Map from the level-j vertices of [0,1] to formal currents.

    Stored as the family's patch ids (in order of first appearance), their
    areas and an integer multiplicity matrix with one row per vertex and
    one column per patch.  ``currents`` is a read-only sequence that
    builds each vertex's FormalCurrent from its row on access: the patches
    with nonzero multiplicity, in the family's patch order.

    A patch id that carries two areas differing by more than 1e-12
    relative, or a multiplicity of magnitude 2^62 or more, raises a
    DomainError at construction.
    """

    def __init__(self, level: int, currents):
        try:
            currents = tuple(_require_current(f"currents[{i}]", cur) for i, cur in enumerate(currents))
        except TypeError:
            raise DomainError(f"currents must be an iterable of FormalCurrents, got {currents!r}") from None
        index, areas = {}, []
        for cur in currents:
            for pid, (_, area) in cur._table.items():
                j = index.setdefault(pid, len(areas))
                if j == len(areas):
                    areas.append(area)
                else:
                    _shared_area(pid, areas[j], area)
        mults = np.zeros((len(currents), len(areas)), dtype=np.int64)
        for row, cur in enumerate(currents):
            for pid, (mult, _) in cur._table.items():
                _require_storable(pid, mult)
                mults[row, index[pid]] = mult
        self._init(level, tuple(index), np.array(areas, dtype=float), mults)

    @classmethod
    def _from_arrays(cls, level: int, patch_ids: tuple, areas: np.ndarray,
                     multiplicities: np.ndarray) -> "DiscreteFamily":
        fam = cls.__new__(cls)
        fam._init(level, patch_ids, areas, multiplicities)
        return fam

    def _init(self, level, patch_ids, areas, multiplicities):
        level = as_int("family level", level)
        if level < 0:
            raise DomainError(f"family level must be nonnegative, got {level!r}")
        if multiplicities.shape[0] != 3**level + 1:
            raise DomainError(
                f"a level-{level} family needs {3**level + 1} currents"
            )
        areas.flags.writeable = False
        multiplicities.flags.writeable = False
        self.level = level
        self.patch_ids = patch_ids
        self.areas = areas
        self.multiplicities = multiplicities

    @property
    def currents(self) -> Sequence:
        return _Currents(self)

    @property
    def is_zero_anchored(self) -> bool:
        """Whether the endpoints carry the zero current (families
        representing maps into (currents, {0}))."""
        return not (self.multiplicities[0].any() or self.multiplicities[-1].any())

    def masses(self) -> np.ndarray:
        return np.einsum("ij,j->i", np.abs(self.multiplicities), self.areas)


def fineness(fam: DiscreteFamily) -> float:
    """sup over vertex pairs of M(phi(x) - phi(y)) / d(x, y).

    The mass of a difference is a metric and the grid distance is
    additive along the line, so the supremum is attained on adjacent
    pairs (triangle inequality); adjacent pairs have distance 1, and
    their masses are |diff(multiplicities)| @ areas.
    """
    steps = np.diff(fam.multiplicities, axis=0)
    np.abs(steps, out=steps)
    # einsum casts the integer steps in buffered chunks, not all at once.
    return float(np.max(np.einsum("ij,j->i", steps, fam.areas)))


def max_mass(obj) -> float:
    """Largest mass of a family, largest area of a profile, or max over a
    list of either."""
    if isinstance(obj, DiscreteFamily):
        return float(np.max(obj.masses()))
    if isinstance(obj, SweepoutProfile):
        return obj.width_upper_bound
    if isinstance(obj, FormalCurrent):
        return obj.mass
    try:
        return max(max_mass(x) for x in obj)
    except TypeError as exc:
        raise DomainError(f"cannot take max mass of {obj!r}") from exc


def interpolate_patches(a: FormalCurrent, b: FormalCurrent, k: int) -> DiscreteFamily:
    """A chain from a to b in k equal-mass steps, embedded at the
    smallest level j with 3^j >= k.

    Every patch is split into k equal-area sub-patches "<id>#<piece>/<k>";
    step m switches the m-th sub-patch of every patch from its
    multiplicity in a to its multiplicity in b, so at vertex i sub-patch
    ``piece`` carries b's multiplicity exactly when piece < min(i, k).
    Step masses telescope exactly to M(a - b).
    """
    k = as_int("k", k)
    if k < 1:
        raise DomainError("need at least one interpolation step")
    level = 0
    while 3**level < k:
        level += 1

    # The level-0 family a, b aligns the two currents' patches, their
    # areas and multiplicities; its columns are then sorted by patch id.
    ends = DiscreteFamily(0, (_require_current("a", a), _require_current("b", b)))
    order = sorted(range(len(ends.patch_ids)), key=lambda j: repr(ends.patch_ids[j]))
    mult_a, mult_b = ends.multiplicities[:, order]

    piece = np.tile(np.arange(k), len(order))
    steps = np.minimum(np.arange(3**level + 1), k)
    mults = np.where(piece < steps[:, None], np.repeat(mult_b, k), np.repeat(mult_a, k))
    patch_ids = tuple(f"{ends.patch_ids[j]}#{p}/{k}" for j in order for p in range(k))
    sub_areas = np.repeat(ends.areas[order] / k, k)
    return DiscreteFamily._from_arrays(level, patch_ids, sub_areas, mults)


# ------------------------------------------------------------ area profiles


@dataclass(frozen=True)
class ProfileSegment:
    kind: str
    label: str
    params: np.ndarray
    areas: np.ndarray

    @property
    def max_area(self) -> float:
        return float(self.areas.max())


@dataclass(frozen=True)
class SweepoutProfile:
    """Concatenated slice-area profile; the width upper bound is the
    largest sampled area."""

    segments: tuple

    @property
    def width_upper_bound(self) -> float:
        return max(seg.max_area for seg in self.segments)

    def samples(self):
        """(global_t, label, area) rows with a strictly increasing global
        parameter (each segment occupies a unit of parameter length)."""
        ts, labels = [], []
        for offset, seg in enumerate(self.segments):
            p = seg.params
            span = p[-1] - p[0] if p[-1] > p[0] else 1.0
            ts.append(offset + (p - p[0]) / span)
            labels += [seg.label] * len(p)
        areas = np.concatenate([seg.areas for seg in self.segments]).astype(float)
        return list(zip(np.concatenate(ts).tolist(), labels, areas.tolist()))

    def concat(self, other: "SweepoutProfile") -> "SweepoutProfile":
        return SweepoutProfile(self.segments + other.segments)


def _lattices_match(lat1: FlatTorusLattice, lat2: FlatTorusLattice) -> bool:
    """Whether the reduced bases agree to 1e-6 relative, the gluing
    tolerance."""
    r1 = reduce_basis(lat1)
    r2 = reduce_basis(lat2)
    tol = 1e-6 * max(r1.norm2, r2.norm2)
    return (
        abs(r1.a1 - r2.a1) <= tol
        and abs(abs(r1.a2) - abs(r2.a2)) <= tol
        and abs(r1.b2 - r2.b2) <= tol
    )


def _attachments(attachments, n_fillers: int, n_cusps: int) -> dict:
    """``attachments`` (None for none) as a dict from filler index to cusp
    index, both in range; a DomainError naming the argument otherwise."""
    if attachments is None:
        return {}
    if not isinstance(attachments, Mapping):
        raise DomainError(f"attachments must map filler indices to cusp indices, got {attachments!r}")
    return {as_index("attachments filler index", i, n_fillers):
            as_index("attachments cusp index", j, n_cusps) for i, j in attachments.items()}


def profile(cusps=(), tubes=(), fillers=(), attachments=None,
            samples: int = 200) -> SweepoutProfile:
    """Slice-area profile of a thin-part description.

    ``cusps``: CuspParams pieces, areas exp(-2t) * |T_0| decreasing over
    the depth range.  ``tubes``: TubeParams, areas pi ell sinh(2r)
    increasing up to the tube radius.  ``fillers``: FillerSpec, slice
    areas decreasing from the boundary torus area.  ``attachments`` maps
    filler index -> cusp index, each an integer in range; an attached
    filler must match the cusp's bottom torus lattice to 1e-6 relative.
    """
    samples = as_int("samples", samples)
    if samples < 2:
        raise DomainError("need at least two samples per segment")
    attachments = _attachments(attachments, len(fillers), len(cusps))
    segs = []
    for idx, cusp in enumerate(cusps):
        ts = np.linspace(cusp.t0, cusp.t1, samples)
        areas = np.exp(-2.0 * ts) * cusp.lattice.area
        segs.append(ProfileSegment("cusp", f"cusp[{idx}]", ts, areas))
    for idx, tube in enumerate(tubes):
        rs = np.linspace(tube.radius / samples, tube.radius, samples)
        areas = tube_geometry.slice_area(tube.length, rs)
        segs.append(ProfileSegment("tube", f"tube[{idx}]", rs, areas))
    for idx, fil in enumerate(fillers):
        if idx in attachments:
            if not _lattices_match(cusps[attachments[idx]].filler_lattice, fil.lattice):
                raise DomainError(
                    f"filler[{idx}] does not glue to cusp[{attachments[idx]}]: "
                    "boundary lattices differ beyond 1e-6 relative"
                )
        ts = np.linspace(0.0, fil.depth + 1.0, samples, endpoint=False)
        areas = filler_mod.slice_area(fil, ts)
        segs.append(ProfileSegment("filler", f"filler[{idx}]", ts, areas))
    if not segs:
        raise DomainError("empty thin-part description")
    return SweepoutProfile(tuple(segs))
