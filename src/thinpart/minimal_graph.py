"""Graphs x3 = u(x1, x2) in a diagonal warped metric: area, first
variation, the minimal-surface operator, a damped-Newton solver, and the
uniform-graph rescaling bounds.

The area element is W = sqrt(a1^2 a2^2 + a2^2 u_x1^2 + a1^2 u_x2^2) with
a_i evaluated at u.  Each grid cell is split into two linear triangles,
and the discrete area is the sum of W at the triangle centroids.  One
element kernel, ``_element``, gives W and its first and second
derivatives in the centroid fields (u, u_x1, u_x2) = (c, x, y); the area,
its gradient, the first variation and the Hessian are contractions of
that kernel with each triangle's nodal map B.  The Euler-Lagrange
residual is minus the exact gradient of the discrete area (per unit cell
weight), which keeps the divergence term in conservative form and makes
the discrete integration-by-parts identity
    first_variation(u, v) = -<el_residual(u), v>
hold to machine precision.

The kernel differentiates Q = W^2, which is polynomial in the fields:
with c_i = a_i^2, e_i = a_i a_i', f_i = a_i'^2 + a_i a_i'', and the
diagonal entries G11 = c1 + x^2, G22 = c2 + y^2 of the metric the graph
induces (``_induced_metric``), Q/2 has first derivatives
(e1 G22 + e2 G11, c2 x, c1 y) and second derivatives
f1 G22 + f2 G11 + 4 e1 e2, 2 e2 x, 2 e1 y, c2, 0 and c1 in (cc, cx, cy,
xx, xy, yy).  Since W_a = Q_a / 2W and W_ab = (Q_ab / 2 - W_a W_b) / W,
one reciprocal 1/W gives all of them:
    Wc = (e1 G22 + e2 G11) / W,   Wx = c2 x / W,   Wy = c1 y / W,
    Wcc = (f1 G22 + f2 G11 + 4 e1 e2 - Wc^2) / W,
    Wcx = (2 e2 x - Wc Wx) / W,   Wcy = (2 e1 y - Wc Wy) / W,
    Wxx = (c2 - Wx^2) / W,   Wxy = -Wx Wy / W,   Wyy = (c1 - Wy^2) / W.
The coefficients come from one jet of a1 and a2 (``Field1D.jet``), which
evaluates each distinct function of u once.  The rows of B are
(1/3, G_k), G_k the gradient of corner k's hat function (``_Triangle``);
the three sum to zero, and G_k is (0 or +-1/h1, 0 or +-1/h2).  So a
corner's gradient term is Wc/3 + G_k . (Wx, Wy), and a triangle's
Hessian entry (k, l) is Wcc/9 + (s_k + s_l)/3 + G_k^T Wgg G_l, with
s_k = G_k . (Wcx, Wcy) and Wgg the (x, y) block of d2W: a sum of the six
second derivatives, each scaled once per triangle type, with integer
coefficients (``_sum_plan``).

The kernel walks the grid one block of whole cell rows at a time, about
``_BLOCK_CELLS`` cells each (``_row_blocks``), so that a block's
temporaries stay in cache; no array of node indices is built.  A block
reads its corner values as shifted windows of the node array, with a
ghost layer past the last node of each periodic axis (``_ghosted``), and
adds its triangle terms by slice into shifted windows of an accumulator
of the same shape (``_add_windows``): one node array for the gradient,
one per mesh-edge kind for the Hessian.  The ghost layer is then folded
back onto the first nodes (``_folded``).  Every entry adds the terms of
the cell row above it before those of its own row, and the area and the
first variation are summed per cell row first, so no result depends on
where the blocks end.

The Newton solve numbers its unknowns, the free nodes, row-major on
every grid.  The sparsity pattern of its Hessian is built once per solve
(``_Pattern``), in closed form: every cell is split along the same
diagonal, so a node couples to the 7 nodes of a fixed stencil, and the
mesh edges at a node are of four kinds (the diagonal entry, the x-edge,
the y-edge and the anti-diagonal).  Each Newton step sums a triangle's
entries (k, l), k <= l, per mesh edge in the windowed sums above, and
reads both mirrored entries from that sum, which keeps the Hessian
exactly symmetric.

A solve lists its grids once, finest first (``_hierarchy``, whose
docstring states the one coarsening rule, each transfer stored once as P
and its transpose view); the V-cycle, the nested start and the direct
factor all read that list.  Every Newton step is solved by one rule
(``_linear_solve``), and what one step hands the next is one kind of
value: None or a ``_VCycle``, an immutable record of transfers, coarse
levels and a factored last level that holds no fine matrix.  A direct
factor is the cycle with no transfers.  A step first runs conjugate
gradients preconditioned by the cycle the solve kept from an earlier
step, or by the one the coarser grids of a nested start carried up
(below), at most ``_CG_MAX_ITER`` iterations: a lagged preconditioner,
since between Newton steps the Hessian changes little.  A kept band
factor is not lagged, since refactoring the band of a short side costs
less.  Where nothing is lagged, or that run fails, the step builds a
preconditioner of its own Hessian: where the grid has multigrid
transfers, a V-cycle of bilinear transfers, Galerkin coarse operators,
damped-Jacobi smoothing and a factored last level (``_galerkin``), at
most ``_MG_MAX_ITER`` iterations, and where that fails, or there are
none, a direct factor of the Hessian.  The new cycle is kept when its
run took at most ``_CG_MAX_ITER`` iterations, a factor always; none
outlives the solve.  Every V-cycle takes its finest level from the step
that applies it: the step's Hessian, with Jacobi weights from its
diagonal (``_smoother``), so a kept cycle lags its coarse levels and its
last factor only.  So one fine Hessian is alive at a time: nothing kept
holds one, and the Newton loop drops each before it assembles the next.
Every direct factor is made by one function, ``_factor``: a band by
LAPACK's banded LU where a short free side allows (``_Band``), by
SuperLU in one column ordering, ``_LU_ORDERING``, otherwise.  The
Hessian of a flat torus annihilates the constants; it is factored with
one unknown pinned (``_pinned``).

A grid with coarser levels whose Dirichlet free sides are odd is solved
by nested iteration, the full multigrid scheme of Briggs, Henson and
McCormick, *A Multigrid Tutorial*, ch. 6 (``_nested_start``): it first
takes one Newton step on coarser levels, and each grid starts from its
injected data plus the cubic interpolation of the coarser grid's
correction (``_refined``; the V-cycle's bilinear transfer would start it
an O(h^2) error away, an O(1) residual).  Each coarser grid also hands
the grid above it the cycle its step kept, extended by one level
(``_carried``): the transfer between the two grids, then the Hessian of
the step, smoothed, or, where the step kept a factor of it, factored.
So the coarse operators are the coarser grids' own Hessians, not
Galerkin products, and the first step of the grid above lags them.  From
a coarsest grid that is the last level, whose step factors its band
Hessian, up to the grid of the solve, no V-cycle is built afresh unless
a lagged run fails.

Every Newton step moves along its Newton direction delta alone, by
Armijo backtracking on the merit ||F||^2, F the area gradient on the free
nodes (``_newton``): the step length alpha halves from 1, a trial that
leaves the spec's range is skipped, the first trial with
||F(u + alpha delta)||^2 <= (1 - 1e-4 alpha) ||F||^2 is taken, and a
search that reaches alpha = 2^-30 stops the solve ("line search
stalled").  Every delta meets ``_solves``, ||H delta + F|| <= 1e-6 ||F||
(for a pinned step with F less its mean in place of F, the part of F a
step of zero sum can change), so the slope 2 F.H delta of the merit
along it is at most -2 (1 - 1e-6) ||F||^2 < 0: delta is a descent
direction (Nocedal and Wright, *Numerical Optimization*, ch. 3).  Where
backtracking still fails, ||F||^2 is at its roundoff floor or the
quadratic model is poor, and no other direction repairs either.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import (DomainError, SolveError, as_floats, as_int, as_real_array,
                     require_finite)
from .flat_torus import FlatTorusLattice, require_lattice
from .warped_metric import WarpedMetricSpec


@dataclass
class DiscreteGraph:
    """Grid sample of a graph function.

    ``periodic`` holds one flag per axis, and a single bool sets both: a
    periodic axis wraps around, a non-periodic axis carries a Dirichlet
    boundary ring (included in ``values``).  ``spacing`` and ``origin``
    are pairs of numbers; ``origin`` is the coordinate of node [0, 0].
    Any other argument raises a DomainError naming it.  The graph holds a
    copy of ``values``, made once here, so a later edit of the caller's
    array does not reach it.
    """

    values: np.ndarray
    spacing: tuple
    periodic: tuple = (False, False)
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        # The grid is checked before the values: values sampled on a
        # non-finite grid are not finite either.
        h1, h2 = self.spacing = as_floats("spacing", self.spacing, 2)
        self.origin = as_floats("origin", self.origin, 2)
        if h1 <= 0 or h2 <= 0:
            raise DomainError("grid spacing must be positive")
        # The element kernel divides by h1^2 and h2^2.
        if not all(sys.float_info.min <= h * h <= sys.float_info.max for h in (h1, h2)):
            raise DomainError(f"spacing must square to a normal float, got {self.spacing!r}")
        self.periodic = _periodic_flags(self.periodic)
        self.values = as_real_array("values", self.values).copy()
        if self.values.ndim != 2:
            raise DomainError("graph values must be a 2-d array")
        if min(self.values.shape) < 4:
            raise DomainError("need at least 4 grid points per axis")

    # -- constructors ------------------------------------------------------

    @classmethod
    def on_torus(cls, lattice: FlatTorusLattice, shape, fn_or_values) -> "DiscreteGraph":
        """Periodic grid over the fundamental domain of a rectangular
        lattice (a2 = 0); sheared lattices are not supported by the
        finite-difference stencils."""
        require_lattice("lattice", lattice)
        if abs(lattice.a2) > 1e-9 * max(lattice.norm1, lattice.norm2):
            raise DomainError(
                "periodic graphs require a rectangular lattice (a2 = 0)"
            )
        return cls.on_rectangle((lattice.a1, lattice.b2), shape, fn_or_values,
                                periodic=(True, True))

    @classmethod
    def on_rectangle(cls, extent, shape, fn_or_values, origin=(0.0, 0.0),
                     periodic=(False, False)) -> "DiscreteGraph":
        """Grid over origin + [0, X1] x [0, X2]; per-axis periodicity.

        A periodic axis has nodes at i*h with h = X/n (no duplicated
        seam); a Dirichlet axis has nodes at i*h with h = X/(n-1),
        boundary included.
        """
        try:
            n1, n2 = shape
        except (TypeError, ValueError):
            raise DomainError(f"shape must be a pair of grid sizes, got {shape!r}") from None
        n1, n2 = as_int("shape", n1), as_int("shape", n2)
        if min(n1, n2) < 4:
            raise DomainError(f"grid {n1}x{n2} needs at least 4 points per axis")
        X1, X2 = as_floats("extent", extent, 2)
        origin = as_floats("origin", origin, 2)
        periodic = _periodic_flags(periodic)
        h1 = X1 / n1 if periodic[0] else X1 / (n1 - 1)
        h2 = X2 / n2 if periodic[1] else X2 / (n2 - 1)
        return cls(
            _fill(fn_or_values, (n1, n2), (h1, h2), origin),
            (h1, h2),
            periodic=periodic,
            origin=origin,
        )

    # -- coordinates and views ----------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    def x1_coords(self) -> np.ndarray:
        return self.origin[0] + self.spacing[0] * np.arange(self.shape[0])

    def x2_coords(self) -> np.ndarray:
        return self.origin[1] + self.spacing[1] * np.arange(self.shape[1])

    def free_slices(self):
        s1 = slice(None) if self.periodic[0] else slice(1, -1)
        s2 = slice(None) if self.periodic[1] else slice(1, -1)
        return s1, s2

    def free_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.free_slices()] = True
        return mask

    def copy(self) -> "DiscreteGraph":
        return DiscreteGraph(self.values, self.spacing, self.periodic, self.origin)


def _periodic_flags(value):
    """``value``, a bool or a pair of bools, as one bool per axis; a
    DomainError otherwise."""
    flags = (value, value) if isinstance(value, (bool, np.bool_)) else value
    try:
        first, second = flags
    except (TypeError, ValueError):
        first = second = None
    if not all(isinstance(flag, (bool, np.bool_)) for flag in (first, second)):
        raise DomainError(f"periodic must be a bool or a pair of bools, got {value!r}")
    return bool(first), bool(second)


def _fill(fn_or_values, shape, spacing, origin):
    """The node values of a grid of ``shape``: ``fn_or_values`` called at
    the node coordinates when it is callable, else as given; a scalar
    fills the grid, and any shape other than ``shape`` raises a
    DomainError naming ``values``."""
    values = fn_or_values
    if callable(values):
        x1 = origin[0] + spacing[0] * np.arange(shape[0])
        x2 = origin[1] + spacing[1] * np.arange(shape[1])
        values = values(*np.meshgrid(x1, x2, indexing="ij"))
    values = as_real_array("values", values)
    if values.shape == ():
        return np.full(shape, float(values))
    if values.shape != tuple(shape):
        raise DomainError(f"values shape {values.shape} != grid shape {shape}")
    return values


def _require_diagonal(spec: WarpedMetricSpec):
    if not spec.diagonal_form:
        raise DomainError("graph operations support diagonal specs only")


def _in_range(spec: WarpedMetricSpec, values: np.ndarray) -> bool:
    """Whether graph values lie in the spec's x3 range, up to the slack of
    ``WarpedMetricSpec.contains``: the one range rule of every graph
    operation."""
    return spec.contains(values.min()) and spec.contains(values.max())


def _check_range(spec: WarpedMetricSpec, values: np.ndarray):
    if not _in_range(spec, values):
        lo, hi = float(values.min()), float(values.max())
        raise DomainError(
            f"graph values [{lo!r}, {hi!r}] leave the spec range "
            f"[{spec.x3_min!r}, {spec.x3_max!r}]"
        )


# The 7-point stencil of the split-cell mesh: the offsets (d1, d2) of the
# nodes that share a mesh edge with a node, the node itself included, in
# row-major order.
_STENCIL = ((-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0))


def _edge(p, q):
    """The edge between the nodes at offsets p and q (p = q for the
    diagonal), as (offset of its base node, kind): the base is the
    componentwise minimum, and the kind is 0 for the diagonal, 1 for an
    x-edge, 2 for a y-edge and 3 for an anti-diagonal."""
    (a, b), (c, d) = p, q
    return (min(a, c), min(b, d)), abs(a - c) + 2 * abs(b - d)


def _sum_plan(coefficients):
    """How ``_combine`` forms sum(c x) over the nonzero coefficients c:
    the arrays of one |c| are added or subtracted, a positive one first,
    and multiplied by |c| once, the groups in the order their first
    coefficient comes.  A tuple of (|c|, ((positive, index), ...))."""
    groups = {}
    for index, c in enumerate(coefficients):
        if c:
            groups.setdefault(abs(c), []).append((c > 0, index))
    return tuple((size, tuple(sorted(terms, key=lambda term: not term[0])))
                 for size, terms in groups.items())


def _combine(plan, arrays, scale=1.0):
    """scale * sum(c x) by a ``_sum_plan``: one product per group, none
    where |c| * scale is 1.  A single array x with c * scale = 1 is
    returned itself, not a copy."""
    total = None
    for size, ((positive, first), *rest) in plan:
        part = arrays[first] if positive else -arrays[first]
        for positive, index in rest:
            part = part + arrays[index] if positive else part - arrays[index]
        if size * scale != 1.0:
            part = (size * scale) * part
        total = part if total is None else total + part
    return total


class _Triangle(NamedTuple):
    """One of the two triangle types of a cell (i, j), made by
    ``_triangle`` from its corners and their corner gradients.

    ``corners`` are offsets (a, b) of node (i + a, j + b).  The corner
    gradient G_k is the gradient of corner k's hat function on the
    triangle; the three sum to zero.  The nodal map B of the triangle,
    row k = corner k, columns (c, x, y), maps the values at the corners
    to the triangle's centroid value and (constant) gradient:
    B[k] = (1/3, G_k).  ``centroid`` holds the ``_sum_plan`` of each
    column of B, over the corner values in units of (1/3, 1/h1, 1/h2);
    ``gradient`` that of each corner's dW . B[k] = Wc/3 + G_k . (Wx, Wy),
    over (Wc/3, Wx/h1, Wy/h2); and ``hessian`` the edge (``_edge``) and
    the plan of each (k, l) of ``_PAIRS``,
        (B d2W B^T)[k, l] = Wcc/9 + (s_k + s_l)/3 + G_k^T Wgg G_l,
    with s_k = G_k . (Wcx, Wcy) and Wgg the (x, y) block of d2W, over
    (Wcc/9, Wcx/(3 h1), Wcy/(3 h2), Wxx/h1^2, Wxy/(h1 h2), Wyy/h2^2).

    Splitting cells kills the odd-even decoupling a pure cell-centered
    stencil would have; on the flat metric the assembled operator is the
    classic 5-point scheme.
    """

    corners: tuple
    centroid: tuple
    gradient: tuple
    hessian: tuple


def _triangle(corners, slopes) -> _Triangle:
    """The triangle type with ``corners`` whose corner gradients are
    ``slopes`` in units of (1/h1, 1/h2), a sign per axis."""
    centroid = [(1, 1, 1), [p for p, _ in slopes], [q for _, q in slopes]]
    hessian = []
    for k, l in _PAIRS:
        (p, q), (r, s) = slopes[k], slopes[l]
        hessian.append(_edge(corners[k], corners[l]) + (
            _sum_plan((1, p + r, q + s, p * r, p * s + q * r, q * s)),))
    return _Triangle(corners, tuple(map(_sum_plan, centroid)),
                     tuple(_sum_plan((1,) + slope) for slope in slopes), tuple(hessian))


# The (k, l), k <= l, index pairs of a symmetric 3x3 matrix: the corner
# pairs of a triangle, one Hessian entry each.
_PAIRS = tuple((k, l) for k in range(3) for l in range(k, 3))

# The lower triangle of a cell, then the upper one, split along the
# diagonal from (i + 1, j) to (i, j + 1): corners, and corner gradients
# in units of (1/h1, 1/h2).
_TRIANGLES = (_triangle(((0, 0), (1, 0), (0, 1)), ((-1, -1), (1, 0), (0, 1))),
              _triangle(((1, 0), (0, 1), (1, 1)), ((0, -1), (-1, 0), (1, 1))))

# Cells per block of the element kernel, which walks the grid one block
# of whole cell rows at a time so that a block's temporaries (~30 arrays
# of 8 bytes per cell for a Hessian, 10 of them the reused buffer of
# ``_elements``) stay in L2 cache.  Criterion-4(c) tube, 2-core box with
# 2 MiB of L2 per core, one thread, best of three median times of one
# Hessian / one gradient: at 257^2, 4096 cells 13.6 / 5.6 ms, 8192 cells
# 10.7 / 5.2 ms, 16384 cells 11.3 / 5.6 ms and the whole grid as one
# block 23.0 / 10.3 ms; at 513^2, 49.7 / 22.5, 49.0 / 22.1, 46.7 / 21.9
# and 100.2 / 50.9 ms.  8192 and 16384 differ by less than the spread
# between repeated runs.
_BLOCK_CELLS = 8192


def _ghosted(a: np.ndarray, g: DiscreteGraph, before: int) -> np.ndarray:
    """A node array with a ghost layer wrapped around each periodic
    axis: ``before`` layers ahead of the first node, one past the last.
    On a grid with no periodic axis this is ``a`` itself."""
    if not any(g.periodic):
        return a
    return np.pad(a, [(before, 1) if wrap else (0, 0) for wrap in g.periodic],
                  mode="wrap")


def _sums(g: DiscreteGraph, *leading) -> np.ndarray:
    """Zeros shaped as a node array ghosted with ``before=0``, behind
    ``leading`` axes: the accumulator that ``_folded`` reads."""
    return np.zeros(leading + (g.shape[0] + g.periodic[0],
                               g.shape[1] + g.periodic[1]))


def _folded(a: np.ndarray, g: DiscreteGraph) -> np.ndarray:
    """The per-node sums of a ``_sums`` accumulator: each periodic axis
    adds its ghost layer back onto its first nodes."""
    if g.periodic[0]:
        a[..., 0, :] += a[..., -1, :]
        a = a[..., :-1, :]
    if g.periodic[1]:
        a[..., 0] += a[..., -1]
        a = a[..., :-1]
    return a


def _window(a: np.ndarray, offset, shape) -> np.ndarray:
    """a[i + offset] over the positions i of a ``shape`` window."""
    return a[offset[0]:offset[0] + shape[0], offset[1]:offset[1] + shape[1]]


def _blocks(rows: int, columns: int) -> list:
    """The rows of a ``rows`` x ``columns`` array as slices of whole rows,
    about ``_BLOCK_CELLS`` entries each."""
    step = max(1, _BLOCK_CELLS // columns)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _row_blocks(g: DiscreteGraph):
    """The grid cells, wrapping on periodic axes, as ``_blocks`` of cell
    rows.  Cell (i, j) has node (i, j) of the ``_ghosted(..., before=0)``
    grid as corner (0, 0)."""
    return _blocks(g.shape[0] - (not g.periodic[0]), g.shape[1] - (not g.periodic[1]))


def _centroid(a: np.ndarray, rows: slice, g: DiscreteGraph, triangle: _Triangle):
    """Centroid value and gradient (c, x, y) of a ghosted nodal array on
    one triangle type, in the cell rows ``rows``."""
    shape = (rows.stop - rows.start, a.shape[1] - 1)
    at = [_window(a, (rows.start + i, j), shape) for i, j in triangle.corners]
    return tuple(_combine(plan, at, scale) for plan, scale in
                 zip(triangle.centroid, (1.0 / 3.0, 1.0 / g.spacing[0], 1.0 / g.spacing[1])))


def _coefficients(spec: WarpedMetricSpec, t: np.ndarray, order: int):
    """The jets (``Field1D.jet``) of a1 and a2 at t up to ``order``,
    sharing one memo."""
    memo = {}
    return spec.a1.jet(t, order, memo), spec.a2.jet(t, order, memo)


def _induced_metric(a1, a2, ux, uy):
    """The metric the graph induces, from the coefficient values a_i and
    the graph's gradient (ux, uy): (c1, c2, G11, G22, Q) with c_i = a_i^2,
    the diagonal entries G11 = c1 + ux^2 and G22 = c2 + uy^2 (G12 is
    ux uy), and the determinant Q = W^2 = (a1 a2)^2 + c2 ux^2 + c1 uy^2."""
    c1, c2 = a1 * a1, a2 * a2
    G11, G22 = ux * ux, uy * uy
    Q = a1 * a2
    Q *= Q
    term = c2 * G11
    Q += term
    np.multiply(c1, G22, out=term)
    Q += term
    G11 += c1
    G22 += c2
    return c1, c2, G11, G22, Q


# The arrays ``_element`` gives at orders 0, 1 and 2: W, then dW, then
# the upper triangle of d2W.
_OUTPUTS = (1, 4, 10)


def _element(spec: WarpedMetricSpec, uc, ux, uy, order: int, out):
    """The area element W = sqrt(Q), Q = (a1 a2)^2 + a2^2 ux^2 + a1^2 uy^2
    with a_i at uc, and its derivatives in (uc, ux, uy) up to ``order``,
    from the derivatives of Q and one reciprocal 1/W (module docstring).

    Returns (W, dW, d2W): dW is a 3-tuple, d2W a symmetric 3x3 nested
    tuple whose mirrored entries are the same arrays; orders above
    ``order`` are None and their coefficient derivatives are not
    evaluated.  The arrays are views of ``out``, a float array of shape
    (_OUTPUTS[order],) + ux.shape.
    """
    (a1, *d1), (a2, *d2) = _coefficients(spec, uc, order)
    c1, c2, G11, G22, Q = _induced_metric(a1, a2, ux, uy)
    W = np.sqrt(Q, out=out[0])
    if order == 0:
        return W, None, None

    r = np.divide(1.0, W, out=Q)
    e1, e2 = a1 * d1[0], a2 * d2[0]
    Wc, Wx, Wy = out[1:4]
    # Wc = (e1 G22 + e2 G11) / W with e_i = a_i a_i', Wx = c2 ux / W and
    # Wy = c1 uy / W.
    np.multiply(e1, G22, out=Wc)
    term = e2 * G11
    Wc += term
    Wc *= r
    np.multiply(c2, ux, out=Wx)
    Wx *= r
    np.multiply(c1, uy, out=Wy)
    Wy *= r
    if order == 1:
        return W, (Wc, Wx, Wy), None

    Wcc, Wcx, Wcy, Wxx, Wxy, Wyy = out[4:]
    # Wcc = (f1 G22 + f2 G11 + 4 e1 e2 - Wc^2) / W with
    # f_i = a_i'^2 + a_i a_i''.
    f = d1[0] * d1[0]
    np.multiply(a1, d1[1], out=term)
    f += term
    np.multiply(f, G22, out=Wcc)
    np.multiply(d2[0], d2[0], out=f)
    np.multiply(a2, d2[1], out=term)
    f += term
    f *= G11
    Wcc += f
    np.multiply(e1, e2, out=term)
    term *= 4.0
    Wcc += term
    np.multiply(Wc, Wc, out=term)
    Wcc -= term
    Wcc *= r
    # Wcx = (2 e2 ux - Wc Wx) / W and Wcy = (2 e1 uy - Wc Wy) / W.
    for Wcg, e, ug, Wg in ((Wcx, e2, ux, Wx), (Wcy, e1, uy, Wy)):
        np.multiply(e, ug, out=Wcg)
        Wcg *= 2.0
        np.multiply(Wc, Wg, out=term)
        Wcg -= term
        Wcg *= r
    # Wxx = (c2 - Wx^2) / W, Wyy = (c1 - Wy^2) / W and Wxy = -Wx Wy / W.
    for Wgg, c, Wg in ((Wxx, c2, Wx), (Wyy, c1, Wy)):
        np.multiply(Wg, Wg, out=Wgg)
        np.subtract(c, Wgg, out=Wgg)
        Wgg *= r
    np.multiply(Wx, Wy, out=Wxy)
    Wxy *= r
    np.negative(Wxy, out=Wxy)
    return W, (Wc, Wx, Wy), ((Wcc, Wcx, Wcy), (Wcx, Wxx, Wxy), (Wcy, Wxy, Wyy))


def _elements(spec: WarpedMetricSpec, g: DiscreteGraph, order: int):
    """The element kernel, one block of cell rows at a time: yields
    (rows, types), where ``types`` evaluates (triangle, W, dW, d2W)
    (``_TRIANGLES``, ``_element``) for one triangle type after the other
    as the caller iterates it, before the next block.  The arrays of
    ``_element`` are views of one buffer, which the next type and the
    next block overwrite."""
    u = _ghosted(g.values, g, 0)
    blocks = _row_blocks(g)
    columns = u.shape[1] - 1
    work = np.empty((_OUTPUTS[order], (blocks[0].stop - blocks[0].start) * columns))
    for rows in blocks:
        n = rows.stop - rows.start
        out = work[:, :n * columns].reshape(-1, n, columns)
        yield rows, ((triangle,) + _element(spec, *_centroid(u, rows, g, triangle), order, out)
                     for triangle in _TRIANGLES)


def _add_windows(rows: slice, terms):
    """Add each (acc, (a, b), x) of ``terms`` into the window of acc at
    the cell rows ``rows`` shifted by (a, b).  Those one row down go
    first, so every entry of acc sums its terms in one order however the
    cell rows are blocked: those of the cell row above it, then those of
    its own, each in the order of ``terms``."""
    for acc, (a, b), x in sorted(terms, key=lambda term: -term[1][0]):
        window = _window(acc, (rows.start + a, b), x.shape)
        window += x


def area(spec: WarpedMetricSpec, g: DiscreteGraph) -> float:
    """Graph area: centroid quadrature of the area element W over the
    triangulated grid."""
    _require_diagonal(spec)
    _check_range(spec, g.values)
    # Summed per cell row first, so the row blocks do not move the total.
    sums = np.zeros(g.shape[0])
    for rows, types in _elements(spec, g, 0):
        for _, W, _, _ in types:
            sums[rows] += np.sum(W, axis=1)
    return float(np.sum(sums)) * 0.5 * g.spacing[0] * g.spacing[1]


def _gradient(spec: WarpedMetricSpec, g: DiscreteGraph) -> np.ndarray:
    """Exact gradient of the discrete area w.r.t. the nodal values
    (full-shape array; boundary entries are meaningful only as reactions):
    corner k of each triangle receives tri_w dW . B[k]."""
    h1, h2 = g.spacing
    tri_w = 0.5 * h1 * h2
    scales = (tri_w / 3.0, tri_w / h1, tri_w / h2)
    acc = _sums(g)
    for rows, types in _elements(spec, g, 1):
        terms = []
        for triangle, _, dW, _ in types:
            parts = [scale * x for scale, x in zip(scales, dW)]
            terms += [(acc, corner, _combine(plan, parts))
                      for corner, plan in zip(triangle.corners, triangle.gradient)]
        _add_windows(rows, terms)
    return _folded(acc, g)


def el_residual(spec: WarpedMetricSpec, g: DiscreteGraph) -> np.ndarray:
    """Euler-Lagrange residual Div((a2^2 u_x1, a1^2 u_x2)/W) - bulk term
    on the free nodes (second-order, conservative form)."""
    _require_diagonal(spec)
    _check_range(spec, g.values)
    acc = _gradient(spec, g)
    h1, h2 = g.spacing
    return -acc[g.free_slices()] / (h1 * h2)


def first_variation(spec: WarpedMetricSpec, g: DiscreteGraph, v) -> float:
    """Derivative of the graph area along the variation v.

    v must be finite and vanish on Dirichlet boundary rings (or be
    periodic).  Equals -sum(el_residual * v * cell_weight) to machine
    precision: the two sums round differently.
    """
    _require_diagonal(spec)
    _check_range(spec, g.values)
    v = as_real_array("variation values", v)
    if v.shape != g.shape:
        raise DomainError(f"variation shape {v.shape} != graph shape {g.shape}")
    scale = float(np.max(np.abs(v))) or 1.0
    ring = v[~g.free_mask()]
    if np.max(np.abs(ring), initial=0.0) > 1e-12 * scale:
        raise DomainError("variation must vanish on the Dirichlet boundary")

    v = _ghosted(v, g, 0)
    # dW contracted with v's centroid values, not the residual's nodal
    # scatter paired with v: at 257^2 on a noisy cusp graph this takes
    # 4.8-6.9 ms against 7.6-10.9 ms for el_residual and the dot product
    # (best of 25, two runs, shared 2-core Xeon, one thread).
    # Summed per cell row first, as in ``area``.
    sums = np.zeros(g.shape[0])
    for rows, types in _elements(spec, g, 1):
        for triangle, _, dW, _ in types:
            vc, vx, vy = _centroid(v, rows, g, triangle)
            sums[rows] += np.sum(dW[0] * vc + dW[1] * vx + dW[2] * vy, axis=1)
    return float(np.sum(sums)) * 0.5 * g.spacing[0] * g.spacing[1]


class _Pattern:
    """The sparsity of the Hessian of a solve: the unknowns are the free
    nodes, numbered row-major, and the Hessian is a CSC matrix with fixed,
    canonical ``indptr``/``indices``.

    Its entries are sums over mesh edges.  A cell's diagonal runs from
    (i + 1, j) to (i, j + 1), so the edges at node (i, j) are of four
    kinds: the diagonal entry, the x-edge to (i + 1, j), the y-edge to
    (i, j + 1) and the anti-diagonal from (i + 1, j) to (i, j + 1)
    (``_edge``).  Edge kind N + node, for a grid of N nodes, names each:
    its flat index in a (4, n1, n2) array of edge sums, one node array per
    kind.  ``data_source`` holds the edge of each stored entry, so both
    mirrored entries read the same sum.  Column c holds the free nodes of
    the 7-point stencil around unknown c, sorted by number: in stencil
    order, unless a periodic axis wraps.  Every index array is int32: the
    4 N edges fit it on every grid whose ~7 N stored entries fit
    ``indptr``, up to about 17000^2 nodes.
    """

    def __init__(self, g: DiscreteGraph):
        # Free node (i, j) is node (i + 1, j + 1) of the grids ghosted on
        # both sides; fixed nodes are numbered n, past every unknown.
        free = g.free_slices()
        shape = g.values[free].shape
        n = shape[0] * shape[1]
        unknown = np.full(g.shape, n, dtype=np.int32)
        unknown[free] = np.arange(n).reshape(shape)
        unknown = _ghosted(unknown, g, 1)
        edge = _ghosted(np.arange(g.values.size, dtype=np.int32).reshape(g.shape), g, 1)
        rows = np.empty(shape + (len(_STENCIL),), dtype=np.int32)
        source = np.empty(rows.shape, dtype=np.int32)
        stored_per_column = np.zeros(shape, dtype=np.int32)
        for s, (a, b) in enumerate(_STENCIL):
            neighbour = _window(unknown, (1 + a, 1 + b), shape)
            rows[..., s] = neighbour
            stored_per_column += neighbour < n
            offset, kind = _edge((1, 1), (1 + a, 1 + b))
            np.add(_window(edge, offset, shape), kind * g.values.size,
                   out=source[..., s])
        rows, source = rows.reshape(n, -1), source.reshape(n, -1)
        if any(g.periodic):
            by_row = np.argsort(rows, axis=1)
            rows = np.take_along_axis(rows, by_row, axis=1)
            source = np.take_along_axis(source, by_row, axis=1)
        stored = rows < n
        self.indices = rows[stored]
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(stored_per_column, out=self.indptr[1:])
        self.data_source = source[stored]
        self.shape = (n, n)


def _hessian(spec: WarpedMetricSpec, g: DiscreteGraph,
             pattern: _Pattern) -> sp.csc_matrix:
    """Hessian of the discrete area on the free nodes, numbered and
    stored as ``pattern`` says: B d2W B^T per triangle, through its corner
    gradients (``_Triangle``).  Each triangle's (k, l) entry with k <= l
    is computed once and added, block by block, into the array of its
    edge kind; both mirrored entries read the edge's sum, so the matrix
    is exactly symmetric."""
    h1, h2 = g.spacing
    tri_w = 0.5 * h1 * h2
    scales = (tri_w / 9.0, tri_w / (3.0 * h1), tri_w / (3.0 * h2),
              tri_w / (h1 * h1), tri_w / (h1 * h2), tri_w / (h2 * h2))
    edges = _sums(g, 4)
    for rows, types in _elements(spec, g, 2):
        terms = []
        for triangle, _, _, ((Wcc, Wcx, Wcy), (_, Wxx, Wxy), (_, _, Wyy)) in types:
            parts = [scale * x for scale, x in zip(scales, (Wcc, Wcx, Wcy, Wxx, Wxy, Wyy))]
            terms += [(edges[kind], offset, _combine(plan, parts))
                      for offset, kind, plan in triangle.hessian]
        _add_windows(rows, terms)
    edges = _folded(edges, g).reshape(-1)
    return sp.csc_matrix((edges[pattern.data_source], pattern.indices,
                          pattern.indptr), shape=pattern.shape)


@dataclass
class SolveReport:
    """Outcome of ``solve``.

    Per Newton step, ``linear_solvers`` names what solved it: "lagged"
    (CG preconditioned by the V-cycle an earlier step kept, its finest
    level the step's own Hessian: a factor of an earlier Hessian, the
    cycle with no transfers, or an earlier V-cycle's coarse levels and
    last factor; on the first step of a grid solved by nested iteration,
    the V-cycle its coarser grids carried up, whose coarse levels are
    their Hessians), "multigrid" (CG preconditioned by a fresh V-cycle
    of the step's Hessian), "lu" (a fresh factor of the Hessian, applied
    directly) or "pinned" (on a torus whose Hessian annihilates the
    constants, the update of zero sum of a factor of the Hessian with one
    unknown pinned), and ``linear_iterations`` the CG iterations it ran,
    discarded runs included.  ``iterations``, ``pinned_mean`` and
    ``factorizations`` are read off the former: a factor of the grid's
    Hessian, pinned or not, is made on each "lu" and "pinned" step, and on
    no other (a V-cycle factors its last level only).

    All of these describe the grid of the solve only.  A grid solved by
    nested iteration (``_nested_start``) first takes one Newton step on
    each of its coarser grids: a 65^2 grid on 17^2 and 33^2, a 4 x 2049
    stripe periodic along its first axis on 4 x 17, 4 x 33, ...,
    4 x 1025.  ``coarse_grids`` holds a ``CoarseSolve`` record for each,
    coarsest first, and is empty for every other grid."""

    converged: bool
    residual_history: list = field(default_factory=list)
    linear_iterations: list = field(default_factory=list)
    linear_solvers: list = field(default_factory=list)
    coarse_grids: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.linear_solvers)

    @property
    def pinned_mean(self) -> bool:
        return "pinned" in self.linear_solvers

    @property
    def factorizations(self) -> int:
        return sum(kind in ("lu", "pinned") for kind in self.linear_solvers)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else math.nan


@dataclass(frozen=True)
class CoarseSolve:
    """One coarser grid of a nested-iteration solve: its grid ``shape``,
    the Newton ``iterations`` it ran and the ``residual`` it stopped at.
    ``error`` is the message of the SolveError of a grid that contributed
    no correction, None otherwise."""

    shape: tuple
    iterations: int
    residual: float
    error: str | None = None


# Iteration cap of a lagged CG run, and the bound of the keep rule.  With
# a lagged SuperLU factor (a grid with a periodic axis, or a multigrid
# fallback) each iteration is one product with H and
# one pair of triangular solves; on the tube solves of criterion 4(c) by
# the factor, 2-core machine, one factorization costs more than 8 such
# iterations at every grid from 33^2 to 257^2, and the lagged factor
# reaches the tolerance in 5-7.  A fresh V-cycle is kept only if its run
# took at most this many: it is on that tube from 65^2 to 513^2, and on
# the cusp [0, 3] at 66^2 and 128^2 once the iterates settle (6-7
# iterations); it is not at a cell aspect ratio of 2 (11-14) or 4 (20).
_CG_MAX_ITER = 8
# CG stops at ||H delta - rhs|| <= _CG_RTOL ||rhs||, ten times inside the
# 1e-6 every accepted direction must meet, since the recurred residual
# drifts from the true one.
_CG_RTOL = 1e-7
# SuperLU's column ordering for every factor that is not a band, of a
# Hessian or a pinned Hessian: multiple minimum degree on the pattern of
# A^T + A.  Its fill is 0.60x COLAMD's on the 129^2 tube Hessian of
# criterion 4(c), and 0.75x on the pinned Hessian of a flat 32^2 torus.
_LU_ORDERING = "MMD_AT_PLUS_A"

# The free side at which ``_hierarchy`` stops coarsening, and the widest
# shorter free side that ``_factor`` factors as a band.
_COARSEST = 15
# Damped-Jacobi smoothing: _SWEEPS sweeps with weight _OMEGA before and
# after each coarse-grid correction.  On the tube at 65^2-257^2, 1-3
# sweeps, weights 0.7-0.9 and coarsest sides 7-31 all solve within 10%
# of each other's time; V(2, 2) with 0.8 takes the fewest iterations
# (6-7 per step) for its cost.
_SWEEPS = 2
_OMEGA = 0.8
# Iteration cap of the multigrid CG run.  The tube solves of criterion
# 4(c) take 6-8 iterations per step from 65^2 to 513^2, a 129^2 cusp
# 8-10.  Point Jacobi does not smooth across stretched cells: at a cell
# aspect ratio of 4 a step takes ~22 iterations, and the factor is
# faster.  A run cut at this cap costs less than the factorization that
# follows it (~5 against ~8 ms at 65^2, ~70 against ~260 ms at 257^2),
# which then serves the rest of the solve.
_MG_MAX_ITER = 20


def _solves(H, delta, rhs) -> bool:
    """Whether delta is finite and satisfies H delta = rhs to 1e-6
    relative."""
    if not np.all(np.isfinite(delta)):
        return False
    scale = float(np.linalg.norm(rhs)) or 1.0
    return float(np.linalg.norm(H @ delta - rhs)) <= 1e-6 * scale


def _pcg(H, rhs, cycle, max_iter):
    """Conjugate gradients on H x = rhs from x = 0, preconditioned by one
    V-cycle of ``cycle`` (``_VCycle``) whose finest level is H: (x,
    iterations), with x None when the run does not reach ``_CG_RTOL``
    within ``max_iter`` iterations, or stops at a nonpositive curvature
    p.Hp or product r.z (H or the preconditioner is then not positive
    definite)."""
    finest = _smoother(H)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    target = _CG_RTOL * float(np.linalg.norm(rhs))
    z = cycle.solve(r, finest)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        q = H @ p
        curvature = float(p @ q)
        if not (curvature > 0.0 and rz > 0.0):
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if float(np.linalg.norm(r)) <= target:
            return x, k
        z = cycle.solve(r, finest)
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
    return None, k


def _prolongation(n, m):
    """The V-cycle's transfer along one axis (nested iteration
    interpolates by ``_refined`` instead): vertex-centred linear
    interpolation onto a line of n free nodes from the m coarse nodes at
    fine nodes 1, 3, ..., 2m - 1 (``_hierarchy``): the fine nodes between
    carry the mean of their neighbours, taking the Dirichlet value beyond
    the ends as zero.  On an even line the last coarse node is the last
    fine node, so every fine node is reached."""
    j = np.arange(m)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    cols = np.concatenate([j, j, j])
    vals = np.repeat([1.0, 0.5, 0.5], m)
    keep = rows < n
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, m))


def _hierarchy(free_shape, periodic):
    """The levels of a solve on a grid of ``free_shape`` free nodes with
    per-axis ``periodic`` flags, finest first, as (free_shape, transfer)
    pairs: the only place the solver derives a coarser grid.

    Level k + 1 keeps every node of level k along a periodic axis and
    every second one along a Dirichlet axis, the free nodes 1, 3, 5, ...:
    a Dirichlet free side n becomes n // 2, and an odd one is then the
    injection of every second node, boundary ring included.  Levels are
    added while the shortest Dirichlet free side is longer than
    ``_COARSEST``, so a torus has one level.  On a grid with no periodic
    axis, every level but the last carries the V-cycle's transfer to the
    next, (P, P^T view): P = kron(P1, P2) of ``_prolongation`` per axis on
    the row-major numbering, a CSR matrix, and R = P.T, the CSC matrix
    that shares P's arrays, so each transfer is stored once; every other
    transfer is None.
    """
    shapes = [tuple(free_shape)]
    dirichlet = [axis for axis, wrap in enumerate(periodic) if not wrap]
    while dirichlet and min(shapes[-1][axis] for axis in dirichlet) > _COARSEST:
        shapes.append(tuple(n if wrap else n // 2 for n, wrap in zip(shapes[-1], periodic)))
    if any(periodic):
        return [(shape, None) for shape in shapes]
    levels = []
    for fine, coarse in zip(shapes, shapes[1:]):
        P = sp.kron(*map(_prolongation, fine, coarse), format="csr")
        levels.append((fine, (P, P.T)))
    return levels + [(shapes[-1], None)]


class _Band:
    """The LU factor of a matrix on the free nodes of a grid of
    ``free_shape``, numbered row-major, by LAPACK's banded LU with
    partial pivoting (``dgbtrf``, applied by ``dgbtrs``; Golub and Van
    Loan, *Matrix Computations*, §4.3).

    The factor numbers the shorter side, of m nodes, fastest, and takes
    the band's half-widths from the entries: a stencil that reaches the
    neighbouring lines of nodes spans at most m + 1 unknowns either way,
    or 2m - 1 where a periodic shorter side wraps.  Raises the
    RuntimeError of SuperLU when A is singular.
    """

    def __init__(self, A, free_shape):
        n1, n2 = free_shape
        # Node (i, j) is row-major unknown i n2 + j; numbered with the
        # first axis fastest it is j n1 + i.
        self.first_fastest = free_shape if n1 < n2 else None
        A = A.tocoo()
        rows, cols = A.row, A.col
        if self.first_fastest:
            rows, cols = (rows % n2) * n1 + rows // n2, (cols % n2) * n1 + cols // n2
        self.kl = int(np.max(rows - cols, initial=0))
        self.ku = int(np.max(cols - rows, initial=0))
        band = np.zeros((2 * self.kl + self.ku + 1, A.shape[0]), order="F")
        band[self.kl + self.ku + rows - cols, cols] = A.data
        self.lu, self.pivots, info = dgbtrf(band, self.kl, self.ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b):
        if self.first_fastest is None:
            return dgbtrs(self.lu, self.kl, self.ku, b, self.pivots)[0]
        n1, n2 = self.first_fastest
        x = dgbtrs(self.lu, self.kl, self.ku, b.reshape(n1, n2).T.ravel(), self.pivots)[0]
        return x.reshape(n2, n1).T.ravel()


def _factor(A, free_shape=None, periodic=None):
    """A direct factor of A, with a ``solve`` method: the one place the
    solver factors a matrix.

    A is a matrix on the free nodes of a grid of ``free_shape`` with
    per-axis ``periodic`` flags, numbered row-major, or, without a
    ``free_shape``, on no grid (a pinned Hessian).  Where the shorter
    free side has at most ``_COARSEST`` nodes and the longer axis is
    Dirichlet, A is a band (``_Band``); every other matrix is factored
    by SuperLU in ``_LU_ORDERING``.  Both raise RuntimeError when A is
    singular.
    """
    if free_shape is not None:
        slow = int(free_shape[0] < free_shape[1])
        if min(free_shape) <= _COARSEST and not periodic[slow]:
            return _Band(A, free_shape)
    return spla.splu(sp.csc_matrix(A), permc_spec=_LU_ORDERING)


def _smoother(H):
    """The finest level of a ``_VCycle`` on the symmetric CSC matrix H:
    H as CSR and its damped-Jacobi weights."""
    # H is symmetric: its transpose is H, and for a CSC matrix that
    # transpose is already CSR, without a copy.
    A = H.T.tocsr()
    return A, _OMEGA / A.diagonal()


class _VCycle(NamedTuple):
    """A geometric multigrid V-cycle for a symmetric matrix on the free
    nodes of a grid (Briggs, Henson and McCormick, *A Multigrid
    Tutorial*), without its finest level: the ``last`` level's factor
    (``_factor``), the ``transfers`` (P, R) from each level to the next
    (``_hierarchy``), and the ``coarse`` levels between the finest and
    the last as (CSR matrix, damped-Jacobi weights) pairs.  It holds no
    fine matrix: ``solve`` takes the finest level, a step's
    ``_smoother(H)``, so a later step lags the coarse levels and the last
    factor only, and smooths with its own Hessian.  A cycle with no
    transfers is a direct factor, applied as it was made.

    Damped Jacobi smooths the same number of sweeps before and after each
    coarse correction, so for positive definite levels the cycle is a
    symmetric positive definite preconditioner for CG.  The coarse levels
    are Galerkin products (``_galerkin``) or the Hessians of the coarser
    grids of a nested start (``_carried``).
    """

    last: object
    transfers: tuple = ()
    coarse: tuple = ()

    def solve(self, r, finest, level=0):
        """One V-cycle on A x = r from x = 0, ``finest`` the (A, weights)
        of its finest level."""
        if level == len(self.transfers):
            return self.last.solve(r)
        A, weight = self.coarse[level - 1] if level else finest
        P, R = self.transfers[level]
        x = weight * r
        for _ in range(_SWEEPS - 1):
            x += weight * (r - A @ x)
        x += P @ self.solve(R @ (r - A @ x), finest, level + 1)
        for _ in range(_SWEEPS):
            x += weight * (r - A @ x)
        return x


def _galerkin(H, levels, periodic):
    """The ``_VCycle`` of the symmetric CSC matrix H on the free nodes of
    the first of ``levels`` (``_hierarchy``), with per-axis ``periodic``
    flags: each coarse operator is the Galerkin product R A P with the
    transfer (P, R) of the level above, formed through a transient CSR
    copy of the view R, and the last level's is factored.  Raises
    RuntimeError when that operator is singular."""
    transfers = tuple(transfer for _, transfer in levels[:-1])
    operators = [_smoother(H)[0]]
    for P, R in transfers:
        operators.append(R.tocsr() @ operators[-1] @ P)
    last = _factor(operators.pop(), levels[-1][0], periodic)
    return _VCycle(last, transfers, tuple((A, _OMEGA / A.diagonal()) for A in operators[1:]))


def _carried(H, kept, transfer):
    """What a coarser grid of a nested start hands the grid above it
    (``_nested_start``), ``transfer`` the transfer between them: a
    ``_VCycle`` for the finer grid's steps to lag, whose coarse levels are
    the coarser grid's own.  H is the Hessian of the coarser grid's step,
    or None where it took none, and ``kept`` the cycle that step kept
    (``_linear_solve``), whose finest level was H.  The new cycle puts
    ``transfer`` before the kept cycle's transfers and, where it has
    some, H, smoothed, before its coarse levels; a kept factor of H, the
    cycle with no transfers, is the new cycle's last level.  So the finer
    grid forms no Galerkin product.  None where there was no step or it
    kept nothing, or the grids have no transfer."""
    if H is None or kept is None or transfer is None:
        return None
    coarse = ((_smoother(H),) if kept.transfers else ()) + kept.coarse
    return _VCycle(kept.last, (transfer,) + kept.transfers, coarse)


def _pinned(H, rhs):
    """The update of zero sum that solves H delta = rhs - mean(rhs), for
    an H that annihilates the constants: the factor of H with its first
    unknown pinned solves every other row, the rows of H sum to zero so
    the first row holds too, and the update's mean is then removed.  When
    H 1 = 0 this is the update of the pinned-mean KKT system
    [[H, e], [e^T, 0]] bordered by e = 1, at about half its fill.  None
    when the factor fails or the update does not meet ``_solves``."""
    b = rhs - np.mean(rhs)
    try:
        rest = _factor(H[1:, 1:]).solve(b[1:])
    except (RuntimeError, ValueError):
        return None
    delta = np.concatenate(([0.0], rest))
    delta -= np.mean(delta)
    return delta if _solves(H, delta, b) else None


def _linear_solve(H, rhs, levels, periodic, kept=None):
    """Solve H delta = rhs by the rule of the module docstring, on the
    grid of the first of ``levels`` (``_hierarchy``) with per-axis
    ``periodic`` flags: (delta, kept, kind, iterations), with kind as in
    ``SolveReport.linear_solvers``.

    ``kept`` is None or a ``_VCycle``, and so is the ``kept`` returned,
    which the next step lags: what an earlier step kept, or the cycle a
    nested start carried up from the coarser grids (``_carried``).  A
    step lags it unless it is a band factor (a cycle with no transfers
    whose last level is a ``_Band``): the step refactors, which costs less
    than a lagged run on a side of at most ``_COARSEST`` nodes, and keeps
    that cycle all the same, for a nested start to carry up.  A run must
    meet ``_solves``.  A fresh factor of H is the cycle with no transfers,
    applied directly, since CG stops on an indefinite H.  A fully
    periodic H that nearly annihilates the constants (a vertically flat
    stretch) pins the update's mean at once (``_pinned``).
    ``iterations`` counts every CG iteration run; delta is None when no
    path gives one.
    """
    if all(periodic):
        scale = float(np.max(np.abs(H.data))) if H.nnz else 1.0
        if float(np.max(np.abs(H @ np.ones(H.shape[0])))) < 1e-10 * scale:
            return _pinned(H, rhs), kept, "pinned", 0
    iterations = 0
    if kept is not None and (kept.transfers or not isinstance(kept.last, _Band)):
        delta, iterations = _pcg(H, rhs, kept, _CG_MAX_ITER)
        if delta is not None and _solves(H, delta, rhs):
            return delta, kept, "lagged", iterations
    if levels[0][1] is not None:
        try:
            cycle = _galerkin(H, levels, periodic)
            delta, run = _pcg(H, rhs, cycle, _MG_MAX_ITER)
        except (RuntimeError, ValueError):
            delta, run = None, 0
        iterations += run
        if delta is not None and _solves(H, delta, rhs):
            return delta, cycle if run <= _CG_MAX_ITER else None, "multigrid", iterations
    try:
        factor = _factor(H, levels[0][0], periodic)
        delta = factor.solve(rhs)
    except (RuntimeError, ValueError):
        delta = None
    if delta is not None and _solves(H, delta, rhs):
        return delta, _VCycle(factor), "lu", iterations
    return None, None, "lu", iterations


def solve(spec: WarpedMetricSpec, init: DiscreteGraph, tol: float = 1e-10,
          max_iter: int = 60):
    """Damped Newton iteration on the area gradient until
    max|el_residual| <= tol.

    The initial iterate supplies the Dirichlet data (its boundary ring is
    held fixed) or the periodic topology.  On a singular linearization
    (flat periodic problems have a constant near-kernel) the mean of the
    update is pinned.  The grids of the solve are the levels of
    ``_hierarchy``; where nested iteration applies, the grid starts from
    one Newton step on each coarser one, and lags the coarse levels they
    carry up (``_nested_start``).  Raises
    SolveError with the residual history on failure.
    """
    _require_diagonal(spec)
    require_finite(tolerance=tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    max_iter = as_int("max_iter", max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    g = init.copy()
    _check_range(spec, g.values)
    levels = _hierarchy(g.values[g.free_slices()].shape, g.periodic)
    g, coarse_grids, kept = _nested_start(spec, g, levels, tol)
    g, report, _ = _newton(spec, g, tol, max_iter, levels, kept)
    if not report.converged:
        raise SolveError(
            f"no convergence after {max_iter} iterations; last residual "
            f"{report.final_residual:.3e}", report.residual_history
        )
    report.coarse_grids = coarse_grids
    return g, report


def _nested_start(spec: WarpedMetricSpec, init: DiscreteGraph, levels,
                  tol: float):
    """The start of a solve by nested iteration, the full multigrid
    scheme of Briggs, Henson and McCormick, *A Multigrid Tutorial*, ch. 6:
    (start, records, kept), one ``CoarseSolve`` record per coarser grid,
    coarsest first, and the ``_VCycle`` grid 1 hands grid 0 (below), or
    None.

    Grid 0 is ``init``, on the first of its ``levels``.  The ladder walks
    down the levels while every Dirichlet free side is odd, and grid
    k + 1 injects the nodes of grid k that level k + 1 keeps.  Each
    coarser grid k takes one Newton step on ``levels[k:]``.  The coarsest
    grid starts from its injected values; grid k starts from its injected
    values plus the cubic interpolation (``_corrected``) of the
    correction grid k + 1 made to its own injected values.  A grid that
    raises SolveError contributes no correction, and a start that leaves
    the spec's range is not taken.  Each grid hands the one above it the
    cycle its step kept, extended by its step's Hessian (``_carried``),
    and that grid's first step lags it.  A grid that raises SolveError or
    whose step keeps nothing hands on nothing, nor does any grid with a
    periodic axis, which has no transfers; the grid above then builds a
    fresh V-cycle if it has transfers.  Without coarser grids the start
    is ``init``, there are no records, and nothing is carried.
    """
    steps = tuple(1 if wrap else 2 for wrap in init.periodic)
    grids = [init]
    for free_shape, _ in levels[:-1]:
        if any(n % 2 == 0 for n, wrap in zip(free_shape, init.periodic) if not wrap):
            break
        fine = grids[-1]
        grids.append(DiscreteGraph(fine.values[::steps[0], ::steps[1]],
                                   (steps[0] * fine.spacing[0], steps[1] * fine.spacing[1]),
                                   init.periodic, init.origin))
    records = []
    u, kept = grids[-1], None
    for k in range(len(grids) - 1, 0, -1):
        try:
            u_k, report, (H, kept) = _newton(spec, u, tol, 1, levels[k:], kept)
            records.append(CoarseSolve(grids[k].shape, report.iterations,
                                       report.final_residual))
            u, kept = u_k, _carried(H, kept, levels[k - 1][1])
        except SolveError as exc:
            history = exc.residual_history
            records.append(CoarseSolve(grids[k].shape, len(history) - 1,
                                       history[-1], str(exc)))
            kept = None
        start = _corrected(grids[k - 1], grids[k], u)
        u = start if _in_range(spec, start.values) else grids[k - 1]
    return u, records, kept


def _refined(c: np.ndarray) -> np.ndarray:
    """Cubic interpolation along axis 0 of node values c onto twice as
    many cells: the even nodes keep c, and an odd node between c_j and
    c_{j+1} takes (9 (c_j + c_{j+1}) - (c_{j-1} + c_{j+2})) / 16, or at
    an end of the axis the one-sided (5 c_0 + 15 c_1 - 5 c_2 + c_3) / 16.
    Exact for cubics in the axis coordinate."""
    fine = np.empty((2 * c.shape[0] - 1,) + c.shape[1:])
    fine[::2] = c
    odd = fine[1::2]
    odd[1:-1] = (9.0 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16.0
    odd[0] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    odd[-1] = (5.0 * c[-1] + 15.0 * c[-2] - 5.0 * c[-3] + c[-4]) / 16.0
    return fine


def _corrected(fine: DiscreteGraph, coarse: DiscreteGraph,
               u: DiscreteGraph) -> DiscreteGraph:
    """``fine`` plus the correction ``u`` makes to ``coarse``, a grid of
    every second node of ``fine`` along each Dirichlet axis, interpolated
    by ``_refined`` along those axes; the free nodes move and the boundary
    ring of ``fine`` is kept.  The correction vanishes on the ring, so the
    interpolation is exact for one that is cubic in each halved
    coordinate (full multigrid wants an interpolation of higher order than
    the discretization's: Trottenberg, Oosterlee and Schüller, *Multigrid*,
    §2.6)."""
    c = u.values - coarse.values
    for axis, wrap in enumerate(fine.periodic):
        if not wrap:
            c = np.moveaxis(_refined(np.moveaxis(c, axis, 0)), 0, axis)
    start = fine.copy()
    free = fine.free_slices()
    start.values[free] += c[free]
    return start


def _newton(spec: WarpedMetricSpec, g: DiscreteGraph, tol: float,
            max_iter: int, levels, kept=None):
    """At most ``max_iter`` Newton steps on g, the grid of the first of
    ``levels``, from its values, each solved by ``_linear_solve``, the
    first with ``kept``, None or the ``_VCycle`` an earlier step kept:
    (graph, report, (H, kept)), with H the Hessian of the last step, None
    if there was none, and kept the cycle that step kept, or None.  Each
    step is taken by Armijo backtracking on ||F||^2 along the Newton step,
    F the area gradient on the free nodes: the step length halves from 1,
    a trial that leaves the spec's range is skipped, and the first trial
    that lowers ||F||^2 by the factor 1 - 1e-4 alpha is taken.  The Newton
    step meets ``_solves``, which makes it a descent direction of ||F||^2
    (module docstring), so it is the only direction tried.  The report says whether max|el_residual|
    <= tol was reached; a line search that finds no such trial above
    alpha = 2^-30, or a singular Jacobian, raises SolveError."""
    free = g.free_slices()
    free_shape = levels[0][0]
    h1, h2 = g.spacing
    cell_w = h1 * h2
    history = []
    # Per Newton step: what solved it, and the CG iterations it ran.
    linear_solvers = []
    linear_iterations = []
    # The area gradient on the free nodes at the current iterate; each
    # accepted trial's gradient carries over to the next iteration.
    F = _gradient(spec, g)[free].ravel()
    pattern = _Pattern(g)
    H = None

    for _ in range(max_iter):
        rmax = float(np.max(np.abs(F))) / cell_w
        history.append(rmax)
        if rmax <= tol:
            return g, SolveReport(True, history, linear_iterations,
                                  linear_solvers), (H, kept)

        # One fine Hessian at a time: nothing kept holds one, and the last
        # step's goes before this step's is assembled.
        del H
        H = _hessian(spec, g, pattern)
        delta, kept, kind, iterations = _linear_solve(H, -F, levels, g.periodic, kept)
        if delta is None:
            raise SolveError("singular Jacobian", history)
        linear_solvers.append(kind)
        linear_iterations.append(iterations)

        # Armijo backtracking on ||F||^2 along the Newton step.
        phi0 = float(np.dot(F, F))
        alpha = 1.0
        while alpha > 2.0**-30:
            trial = g.copy()
            trial.values[free] = g.values[free] + alpha * delta.reshape(free_shape)
            if _in_range(spec, trial.values):
                F_trial = _gradient(spec, trial)[free].ravel()
                if float(np.dot(F_trial, F_trial)) <= (1.0 - 1e-4 * alpha) * phi0:
                    break
            alpha *= 0.5
        else:
            raise SolveError(f"line search stalled at residual {rmax:.3e}", history)
        g, F = trial, F_trial

    history.append(float(np.max(np.abs(F))) / cell_w)
    return g, SolveReport(False, history, linear_iterations, linear_solvers), (H, kept)


def _node_derivatives(g: DiscreteGraph, ghosted: np.ndarray, rows: slice):
    """Centered first and second derivatives at the free nodes of the
    free-node rows ``rows``.  ``ghosted`` is ``_ghosted(g.values, g, 1)``,
    on which free node (i, j) is node (i + 1, j + 1), as in _Pattern; its
    neighbours are free or boundary nodes."""
    h1, h2 = g.spacing
    shape = (rows.stop - rows.start, ghosted.shape[1] - 2)

    def at(d1, d2):
        """u[i + d1, j + d2] at every free node (i, j) of the rows."""
        return _window(ghosted, (1 + rows.start + d1, 1 + d2), shape)

    u = at(0, 0)
    ux = (at(1, 0) - at(-1, 0)) / (2 * h1)
    uy = (at(0, 1) - at(0, -1)) / (2 * h2)
    uxx = (at(1, 0) - 2 * u + at(-1, 0)) / h1**2
    uyy = (at(0, 1) - 2 * u + at(0, -1)) / h2**2
    uxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h1 * h2)
    return u, ux, uy, uxx, uyy, uxy


def graph_mean_curvature(spec: WarpedMetricSpec, g: DiscreteGraph) -> np.ndarray:
    """Mean curvature of the graph surface from induced metric and second
    fundamental form, at the free nodes.  The normal is the upward one
    (positive x3 component); for a level torus this gives
    -(a1'/a1 + a2'/a2)/2.  Evaluated one block of free-node rows at a
    time, about ``_BLOCK_CELLS`` nodes each, so that a block's
    temporaries stay in cache; every node's value is computed by the
    same operations wherever the blocks end."""
    _require_diagonal(spec)
    _check_range(spec, g.values)
    ghosted = _ghosted(g.values, g, 1)
    H = np.empty(g.values[g.free_slices()].shape)
    for rows in _blocks(*H.shape):
        u, ux, uy, uxx, uyy, uxy = _node_derivatives(g, ghosted, rows)
        (a1v, a1p), (a2v, a2p) = _coefficients(spec, u, 1)
        _, _, G11, G22, W2 = _induced_metric(a1v, a2v, ux, uy)
        W = np.sqrt(W2)
        ratio = a1v * a2v / W
        II11 = ratio * (uxx - a1v * a1p - 2.0 * (a1p / a1v) * ux**2)
        II12 = ratio * (uxy - (a1p / a1v + a2p / a2v) * ux * uy)
        II22 = ratio * (uyy - a2v * a2p - 2.0 * (a2p / a2v) * uy**2)
        G12 = ux * uy
        H[rows] = (G22 * II11 - 2.0 * G12 * II12 + G11 * II22) / (2.0 * W2)
    return H


@dataclass(frozen=True)
class GraphBoundsParams:
    """Constants of the uniform-graph neighborhood bounds."""

    comparison: float   # metric comparison constant, >= 1
    intrinsic_radius: float
    curvature_bound: float
    tangency_level: float
    graph_constant: float  # the constant C sizing the graph neighborhood

    def __post_init__(self):
        require_finite(**vars(self))
        if self.comparison < 1.0:
            raise DomainError("comparison constant must be >= 1")
        for name in ("intrinsic_radius", "curvature_bound", "graph_constant"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")


@dataclass(frozen=True)
class BoundCheck:
    name: str
    supremum: float
    limit: float

    @property
    def ratio(self) -> float:
        return self.supremum / self.limit

    @property
    def ok(self) -> bool:
        return self.supremum <= self.limit * (1.0 + 1e-9)


@dataclass(frozen=True)
class RescaleReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def rescale_graph(spec: WarpedMetricSpec, g: DiscreteGraph,
                  params: GraphBoundsParams):
    """Shrink the graph to unit scale, v(y) = u(y / h(t_bar)), and check
    the neighborhood bounds |u| <= A eps0, |grad u| <= h(t_bar),
    |Hess u| <= h(t_bar)^2 / C on the covering disk.

    The input must be a Dirichlet rectangle grid containing the disk of
    radius sqrt(2) C / h(t_bar) about the origin, and the tangency level
    t_bar must lie in the spec's x3 range (``require_inside``): h is not
    extrapolated.  Any other input raises a DomainError.  Returns the
    rescaled graph together with the bound report.
    """
    _require_diagonal(spec)
    if any(g.periodic):
        raise DomainError("rescale_graph expects a rectangle grid")
    spec.require_inside(params.tangency_level)
    h_t = float(spec.warping(params.tangency_level))
    if h_t <= 0:
        raise DomainError("warping must be positive at the tangency level")
    radius = math.sqrt(2.0) * params.graph_constant / h_t

    x1 = g.x1_coords()
    x2 = g.x2_coords()
    if (
        x1[0] > -radius or x1[-1] < radius or x2[0] > -radius or x2[-1] < radius
    ):
        raise DomainError(
            f"domain too small: need the disk of radius {radius!r} about 0"
        )

    u, ux, uy, uxx, uyy, uxy = _node_derivatives(g, _ghosted(g.values, g, 1),
                                                 slice(0, g.shape[0] - 2))
    X1, X2 = np.meshgrid(x1[1:-1], x2[1:-1], indexing="ij")
    mask = X1**2 + X2**2 <= radius**2
    grad = np.hypot(ux, uy)
    mean = 0.5 * (uxx + uyy)
    dev = np.sqrt(0.25 * (uxx - uyy) ** 2 + uxy**2)
    hess = np.abs(mean) + dev  # spectral norm of the symmetric Hessian

    checks = (
        BoundCheck("value", float(np.max(np.abs(u[mask]))),
                   params.comparison * params.intrinsic_radius),
        BoundCheck("gradient", float(np.max(grad[mask])), h_t),
        BoundCheck("hessian", float(np.max(hess[mask])),
                   h_t**2 / params.graph_constant),
    )
    rescaled = DiscreteGraph(
        g.values,
        (g.spacing[0] * h_t, g.spacing[1] * h_t),
        periodic=g.periodic,
        origin=(g.origin[0] * h_t, g.origin[1] * h_t),
    )
    return rescaled, RescaleReport(checks)
