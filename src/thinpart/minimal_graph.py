"""Graphs x3 = u(x1, x2) in a diagonal warped metric: area, first
variation, the minimal-surface operator, a damped-Newton solver, and the
uniform-graph rescaling bounds.

The area element is W = sqrt(a1^2 a2^2 + a2^2 u_x1^2 + a1^2 u_x2^2) with
a_i evaluated at u.  Each grid cell is split into two linear triangles,
and the discrete area is the sum of W at the triangle centroids.  One
element kernel, ``_element``, gives W and its first and second
derivatives in the centroid fields (u, u_x1, u_x2); the area, its
gradient, the first variation and the Hessian are contractions of that
kernel with each triangle's nodal map B.  The Euler-Lagrange residual is
minus the exact gradient of the discrete area (per unit cell weight),
which keeps the divergence term in conservative form and makes the
discrete integration-by-parts identity
    first_variation(u, v) = -<el_residual(u), v>
hold to machine precision.

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
the y-edge and the anti-diagonal).  Each Newton step reads a triangle's
entries (B d2W B^T)[k, l] off d2W through one fixed 6x6 table per
triangle type (``_pair_table``), sums them per mesh edge in the windowed
sums above, and reads both mirrored entries from that sum, which keeps
the Hessian exactly symmetric.  Every sparse LU factor of a fine-grid
system is made in one column ordering, ``_LU_ORDERING``.

On Dirichlet grids of at least ``_MULTIGRID_MIN`` free nodes per side,
every Newton step is solved by conjugate gradients preconditioned by a
geometric multigrid V-cycle of that step's Hessian (``_VCycle``:
bilinear transfer, Galerkin coarse operators, damped-Jacobi smoothing, a
factored coarsest grid).  No fine-grid factor is made, so memory stays
linear in the unknowns.  A V-cycle run that fails falls back to a sparse
LU factor of the Hessian, which then preconditions the later steps as
below.

Such a grid whose free sides are odd is solved by nested iteration, the
full multigrid scheme of Briggs, Henson and McCormick, *A Multigrid
Tutorial*, ch. 6 (``_nested_start``).  Its coarser grids inject every
second node, boundary ring included, down the multigrid hierarchy to its
last level, one Newton step per coarser grid; each grid starts from the
bilinear prolongation of the coarser grid's correction to its injected
data, and the grid of the solve starts from that prolongation too.

Smaller grids, and grids with a periodic axis, factor the Hessian once,
on the first Newton step.  Later steps keep that factor and solve with
conjugate gradients preconditioned by it (a lagged preconditioner:
between Newton steps the Hessian changes little); a step whose CG run
does not converge within ``_CG_MAX_ITER`` iterations factors its own
Hessian, which then preconditions the steps after it.  No factor
outlives the solve.  ``_linear_solve`` makes all of these choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, SolveError, require_finite
from .flat_torus import FlatTorusLattice
from .warped_metric import WarpedMetricSpec


@dataclass
class DiscreteGraph:
    """Grid sample of a graph function.

    ``periodic`` holds one flag per axis: a periodic axis wraps around,
    a non-periodic axis carries a Dirichlet boundary ring (included in
    ``values``).  ``origin`` is the coordinate of node [0, 0].
    """

    values: np.ndarray
    spacing: tuple
    periodic: tuple = (False, False)
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        # The grid is checked before the values: values sampled on a
        # non-finite grid are not finite either.
        h1, h2 = self.spacing
        o1, o2 = self.origin
        require_finite(spacing_h1=h1, spacing_h2=h2, origin_x1=o1, origin_x2=o2)
        if h1 <= 0 or h2 <= 0:
            raise DomainError("grid spacing must be positive")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("graph values must be a 2-d array")
        if min(self.values.shape) < 4:
            raise DomainError("need at least 4 grid points per axis")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("graph values must be finite")
        if isinstance(self.periodic, bool):
            self.periodic = (self.periodic, self.periodic)

    # -- constructors ------------------------------------------------------

    @classmethod
    def on_torus(cls, lattice: FlatTorusLattice, shape, fn_or_values) -> "DiscreteGraph":
        """Periodic grid over the fundamental domain of a rectangular
        lattice (a2 = 0); sheared lattices are not supported by the
        finite-difference stencils."""
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
        n1, n2 = shape
        if min(n1, n2) < 4:
            raise DomainError(f"grid {n1}x{n2} needs at least 4 points per axis")
        X1, X2 = extent
        require_finite(extent_x1=X1, extent_x2=X2)
        h1 = X1 / n1 if periodic[0] else X1 / (n1 - 1)
        h2 = X2 / n2 if periodic[1] else X2 / (n2 - 1)
        return cls(
            _fill(fn_or_values, (n1, n2), (h1, h2), origin),
            (h1, h2),
            periodic=periodic,
            origin=tuple(origin),
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
        return DiscreteGraph(
            self.values.copy(), self.spacing, self.periodic, self.origin
        )


def _fill(fn_or_values, shape, spacing, origin):
    if callable(fn_or_values):
        x1 = origin[0] + spacing[0] * np.arange(shape[0])
        x2 = origin[1] + spacing[1] * np.arange(shape[1])
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        return np.asarray(fn_or_values(X1, X2), dtype=float) * np.ones(shape)
    vals = np.asarray(fn_or_values, dtype=float)
    if vals.shape == ():
        return np.full(shape, float(vals))
    if vals.shape != tuple(shape):
        raise DomainError(f"values shape {vals.shape} != grid shape {shape}")
    return vals.copy()


def _require_diagonal(spec: WarpedMetricSpec):
    if not spec.diagonal_form:
        raise DomainError("graph operations support diagonal specs only")


def _in_range(spec: WarpedMetricSpec, values: np.ndarray) -> bool:
    """Whether graph values lie in the spec's x3 range, up to a slack of
    1e-9 of its width: the one range rule of every graph operation."""
    slack = 1e-9 * (spec.x3_max - spec.x3_min)
    return bool(spec.x3_min - slack <= values.min()
                and values.max() <= spec.x3_max + slack)


def _check_range(spec: WarpedMetricSpec, values: np.ndarray):
    if not _in_range(spec, values):
        lo, hi = float(values.min()), float(values.max())
        raise DomainError(
            f"graph values [{lo!r}, {hi!r}] leave the spec range "
            f"[{spec.x3_min!r}, {spec.x3_max!r}]"
        )


# The corners of the two triangle types of a cell (i, j), as offsets
# (a, b) of node (i + a, j + b): the lower triangle, then the upper one.
_CORNERS = (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)))

# The (k, l), k <= l, index pairs of a symmetric 3x3 matrix: the corner
# pairs of a triangle, one Hessian entry each, and the entries of d2W.
_PAIRS = tuple((k, l) for k in range(3) for l in range(k, 3))

# Cells per block of the element kernel, which walks the grid one block
# of whole cell rows at a time so that a block's temporaries (~30 arrays
# of 8 bytes per cell for a Hessian) stay in L2 cache.  Criterion-4(c)
# tube, 2-core box with 2 MiB of L2 per core, one thread, median time of
# one Hessian / one gradient: at 257^2, 4096 cells 27.0 / 11.1 ms, 8192
# cells 22.5 / 9.8 ms, 16384 cells 26.9 / 10.3 ms and the whole grid as
# one block 35.6 / 15.7 ms; at 513^2, 87.4 / 39.5, 79.0 / 32.4, 71.8 /
# 30.4 and 144.3 / 69.7 ms.
_BLOCK_CELLS = 8192


def _ghosted(a: np.ndarray, g: DiscreteGraph, before: int) -> np.ndarray:
    """A node array with a ghost layer wrapped around each periodic
    axis: ``before`` layers ahead of the first node, one past the last."""
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


def _combine(coefficients, arrays):
    """sum(c * x) over the nonzero coefficients c, in order."""
    total = None
    for c, x in zip(coefficients, arrays):
        if c:
            total = c * x if total is None else total + c * x
    return total


def _nodal_maps(g: DiscreteGraph):
    """The 3x3 matrix B of each triangle type: B maps the values at the
    corners (``_CORNERS``) to the triangle's centroid value and (constant)
    gradient, row k = corner k, columns (c, x, y).

    Splitting cells kills the odd-even decoupling a pure cell-centered
    stencil would have; on the flat metric the assembled operator is the
    classic 5-point scheme.
    """
    dx, dy = 1.0 / g.spacing[0], 1.0 / g.spacing[1]
    third = 1.0 / 3.0
    return (np.array([[third, -dx, -dy], [third, dx, 0.0], [third, 0.0, dy]]),
            np.array([[third, 0.0, -dy], [third, -dx, 0.0], [third, dx, dy]]))


def _row_blocks(g: DiscreteGraph):
    """The grid cells, wrapping on periodic axes, as slices of whole cell
    rows, about ``_BLOCK_CELLS`` cells each.  Cell (i, j) has node (i, j)
    of the ``_ghosted(..., before=0)`` grid as corner (0, 0)."""
    m1 = g.shape[0] - (not g.periodic[0])
    m2 = g.shape[1] - (not g.periodic[1])
    step = max(1, _BLOCK_CELLS // m2)
    return [slice(r, min(r + step, m1)) for r in range(0, m1, step)]


def _centroid(a: np.ndarray, rows: slice, corners, B):
    """Centroid value and gradient (c, x, y) of a ghosted nodal array on
    one triangle type, in the cell rows ``rows``."""
    shape = (rows.stop - rows.start, a.shape[1] - 1)
    at = [_window(a, (rows.start + i, j), shape) for i, j in corners]
    return tuple(_combine(B[:, col], at) for col in range(3))


def _element_squared(a1, a2, ux, uy):
    """The squared area element W^2 = a1^2 a2^2 + a2^2 ux^2 + a1^2 uy^2,
    from the coefficient values a_i and the graph's gradient (ux, uy)."""
    return (a1 * a2)**2 + a2**2 * ux**2 + a1**2 * uy**2


def _element(spec: WarpedMetricSpec, uc, ux, uy, order: int):
    """The area element W = sqrt(a1^2 a2^2 + a2^2 ux^2 + a1^2 uy^2), a_i
    at uc, and its derivatives in (uc, ux, uy) up to ``order``.

    Returns (W, dW, d2W): dW is a 3-tuple, d2W a symmetric 3x3 nested
    tuple whose mirrored entries are the same arrays; orders above
    ``order`` are None and their coefficient derivatives are not
    evaluated.
    """
    a1 = np.asarray(spec.a1(uc), dtype=float)
    a2 = np.asarray(spec.a2(uc), dtype=float)
    W = np.sqrt(_element_squared(a1, a2, ux, uy))
    if order == 0:
        return W, None, None

    prod = a1 * a2
    c1, c2 = a1**2, a2**2
    p2, q2 = ux**2, uy**2
    a1p = np.asarray(spec.a1.d1(uc), dtype=float)
    a2p = np.asarray(spec.a2.d1(uc), dtype=float)
    dprod = a1p * a2 + a1 * a2p
    c0p = 2.0 * prod * dprod
    c1p = 2.0 * a1 * a1p
    c2p = 2.0 * a2 * a2p
    Wc = (c0p + c2p * p2 + c1p * q2) / (2.0 * W)
    Wx = c2 * ux / W
    Wy = c1 * uy / W
    if order == 1:
        return W, (Wc, Wx, Wy), None

    a1s = np.asarray(spec.a1.d2(uc), dtype=float)
    a2s = np.asarray(spec.a2.d2(uc), dtype=float)
    c0pp = 2.0 * (dprod**2 + prod * (a1s * a2 + 2.0 * a1p * a2p + a1 * a2s))
    c1pp = 2.0 * (a1p**2 + a1 * a1s)
    c2pp = 2.0 * (a2p**2 + a2 * a2s)
    Wcc = (c0pp + c2pp * p2 + c1pp * q2) / (2.0 * W) - Wc**2 / W
    Wcx = c2p * ux / W - Wc * Wx / W
    Wcy = c1p * uy / W - Wc * Wy / W
    Wxx = c2 / W - Wx**2 / W
    Wxy = -Wx * Wy / W
    Wyy = c1 / W - Wy**2 / W
    return W, (Wc, Wx, Wy), ((Wcc, Wcx, Wcy), (Wcx, Wxx, Wxy), (Wcy, Wxy, Wyy))


def _elements(spec: WarpedMetricSpec, g: DiscreteGraph, order: int):
    """The element kernel, one block of cell rows at a time: yields
    (rows, types), where ``types`` evaluates (corners, B, W, dW, d2W) for
    one triangle type after the other as the caller iterates it, before
    the next block."""
    u = _ghosted(g.values, g, 0)
    Bs = _nodal_maps(g)
    for rows in _row_blocks(g):
        yield rows, ((corners, B) + _element(spec, *_centroid(u, rows, corners, B), order)
                     for corners, B in zip(_CORNERS, Bs))


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
        for _, _, W, _, _ in types:
            sums[rows] += np.sum(W, axis=1)
    return float(np.sum(sums)) * 0.5 * g.spacing[0] * g.spacing[1]


def _gradient(spec: WarpedMetricSpec, g: DiscreteGraph) -> np.ndarray:
    """Exact gradient of the discrete area w.r.t. the nodal values
    (full-shape array; boundary entries are meaningful only as reactions)."""
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]
    acc = _sums(g)
    for rows, types in _elements(spec, g, 1):
        # Corner k of each triangle receives (dW . B[k]) * tri_w.
        _add_windows(rows, [(acc, corner, _combine(B[k] * tri_w, dW))
                            for corners, B, _, dW, _ in types
                            for k, corner in enumerate(corners)])
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
    periodic).  Equals -sum(el_residual * v * cell_weight) by
    construction.
    """
    _require_diagonal(spec)
    _check_range(spec, g.values)
    v = np.asarray(v, dtype=float)
    if v.shape != g.shape:
        raise DomainError(f"variation shape {v.shape} != graph shape {g.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("variation values must be finite")
    scale = float(np.max(np.abs(v))) or 1.0
    ring = v[~g.free_mask()]
    if np.max(np.abs(ring), initial=0.0) > 1e-12 * scale:
        raise DomainError("variation must vanish on the Dirichlet boundary")

    v = _ghosted(v, g, 0)
    # Summed per cell row first, as in ``area``.
    sums = np.zeros(g.shape[0])
    for rows, types in _elements(spec, g, 1):
        for corners, B, _, dW, _ in types:
            vc, vx, vy = _centroid(v, rows, corners, B)
            sums[rows] += np.sum(dW[0] * vc + dW[1] * vx + dW[2] * vy, axis=1)
    return float(np.sum(sums)) * 0.5 * g.spacing[0] * g.spacing[1]


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


def _pair_table(B: np.ndarray) -> np.ndarray:
    """The 6x6 table T of a triangle type with nodal map B:
    (B d2W B^T)[k, l] = sum over q of T[p, q] d2W[a][b], where p = (k, l)
    and q = (a, b) run over ``_PAIRS`` (d2W is symmetric)."""
    return np.array([[B[k, a] * B[l, b] + (B[k, b] * B[l, a] if a != b else 0.0)
                      for a, b in _PAIRS] for k, l in _PAIRS])


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
    order, unless a periodic axis wraps.
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
        edge = _ghosted(np.arange(g.values.size).reshape(g.shape), g, 1)
        rows = np.empty(shape + (len(_STENCIL),), dtype=np.int32)
        source = np.empty(rows.shape, dtype=np.intp)
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
    stored as ``pattern`` says: B d2W B^T per triangle, read off d2W by
    ``_pair_table``.  Each triangle's (k, l) entry with k <= l is computed
    once and added, block by block, into the array of its edge kind; both
    mirrored entries read the edge's sum, so the matrix is exactly
    symmetric."""
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]
    tables = [tri_w * _pair_table(B) for B in _nodal_maps(g)]
    edges = _sums(g, 4)
    for rows, types in _elements(spec, g, 2):
        terms = []
        for (corners, _, _, _, d2W), table in zip(types, tables):
            second = [d2W[a][b] for a, b in _PAIRS]
            for (k, l), coefficients in zip(_PAIRS, table):
                offset, kind = _edge(corners[k], corners[l])
                terms.append((edges[kind], offset, _combine(coefficients, second)))
        _add_windows(rows, terms)
    edges = _folded(edges, g).reshape(-1)
    return sp.csc_matrix((edges[pattern.data_source], pattern.indices,
                          pattern.indptr), shape=pattern.shape)


@dataclass
class SolveReport:
    """Outcome of ``solve``.

    Per Newton step, ``linear_solvers`` names what solved it: "multigrid"
    (CG preconditioned by a V-cycle of the step's Hessian), "lagged-lu"
    (CG preconditioned by an earlier step's factor), "lu" (a fresh factor
    of the Hessian) or "kkt" (a factor of the pinned-mean system), and
    ``linear_iterations`` the CG iterations it ran, discarded runs
    included; ``iterations`` and ``pinned_mean`` are read off the former.
    ``factorizations`` counts the sparse LU factors of fine-grid systems
    (Hessian or KKT, in ``_LU_ORDERING``), not those of the multigrid's
    last level: one per "lu" and "kkt" step, two where a fresh factor
    fails and the KKT system takes over.

    All of these describe the grid of the solve only.  A Dirichlet grid
    solved by nested iteration (the full multigrid start of Briggs, Henson
    and McCormick, *A Multigrid Tutorial*, ch. 6) first visits its coarser
    grids, down the multigrid hierarchy to its last level, one Newton step
    per coarser grid.  ``coarse_grids`` holds a ``CoarseSolve`` record for
    each, coarsest first, and is empty for every other grid: periodic
    axes, an even free side, or fewer than ``_MULTIGRID_MIN`` free nodes
    along a side."""

    converged: bool
    residual_history: list = field(default_factory=list)
    factorizations: int = 0
    linear_iterations: list = field(default_factory=list)
    linear_solvers: list = field(default_factory=list)
    coarse_grids: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.linear_solvers)

    @property
    def pinned_mean(self) -> bool:
        return "kkt" in self.linear_solvers

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


# Iteration cap of the CG run preconditioned by a lagged factor.  Each
# iteration is one product with H and one pair of triangular solves with
# the factor; on the tube solves of criterion 4(c), 2-core machine, one
# factorization costs more than 8 such iterations at every grid from
# 33^2 to 257^2, so a run that has not converged by then is cut short and
# the Hessian is factored instead.  The lagged factor of those solves
# reaches the tolerance in 5-7 iterations.
_CG_MAX_ITER = 8
# CG stops at ||H delta - rhs|| <= _CG_RTOL ||rhs||, ten times inside the
# 1e-6 every accepted direction must meet, since the recurred residual
# drifts from the true one.
_CG_RTOL = 1e-7
# SuperLU's column ordering for every fine-grid factor, Hessian or KKT:
# multiple minimum degree on the pattern of A^T + A.  Its fill is 0.60x
# COLAMD's on the 129^2 tube Hessian of criterion 4(c), and 0.84x on the
# KKT system of a pinned-mean 32^2 torus.
_LU_ORDERING = "MMD_AT_PLUS_A"

# Dirichlet grids whose free nodes number at least this many along both
# axes solve their Newton steps by multigrid-preconditioned CG.  On the
# criterion-4(c) tube, 2-core machine, one thread, a solve by multigrid
# and one by the lagged factor take the same time at 65^2 (~27 ms); the
# factor is 9-15% faster at 49^2-57^2, multigrid 7% faster at 73^2 and
# 15% at 97^2.
_MULTIGRID_MIN = 63
# Levels are coarsened until the shorter side has at most this many
# nodes; that grid is factored.
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


def _pcg(H, rhs, precondition, max_iter):
    """Conjugate gradients on H x = rhs from x = 0, preconditioned by
    ``precondition``: (x, iterations), with x None when the run does not
    reach ``_CG_RTOL`` within ``max_iter`` iterations, or stops at a
    nonpositive curvature p.Hp or product r.z (H or the preconditioner is
    then not positive definite)."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    target = _CG_RTOL * float(np.linalg.norm(rhs))
    z = precondition(r)
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
        z = precondition(r)
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
    return None, k


def _prolongation(n):
    """Vertex-centred linear interpolation onto a line of n free nodes
    from the n // 2 coarse nodes at fine nodes 1, 3, 5, ...: the fine
    nodes between carry the mean of their neighbours, taking the
    Dirichlet value beyond the ends as zero.  On an even line the last
    coarse node is the last fine node, so every fine node is reached."""
    m = n // 2
    j = np.arange(m)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    cols = np.concatenate([j, j, j])
    vals = np.repeat([1.0, 0.5, 0.5], m)
    keep = rows < n
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, m))


def _transfers(shape):
    """The (P, R) pair of every multigrid level of a Dirichlet grid of
    free nodes, numbered row-major, finest first: P = kron(P1, P2) with
    ``_prolongation`` per axis, and R = P^T.  Levels are added until the
    shorter side has at most ``_COARSEST`` nodes."""
    transfers = []
    while min(shape) > _COARSEST:
        P1, P2 = _prolongation(shape[0]), _prolongation(shape[1])
        P = sp.kron(P1, P2, format="csr")
        transfers.append((P, P.T.tocsr()))
        shape = (P1.shape[1], P2.shape[1])
    return transfers


class _VCycle:
    """A geometric multigrid V-cycle for a symmetric matrix A, with the
    transfer operators of ``_transfers`` (Briggs, Henson and McCormick,
    *A Multigrid Tutorial*).

    Each coarse operator is the Galerkin product R A P, and the coarsest
    one is factored.  Damped Jacobi smooths the same number of sweeps
    before and after each coarse correction, so for a positive definite
    A the cycle is a symmetric positive definite preconditioner for CG.
    Raises RuntimeError when the coarsest operator is singular.
    """

    def __init__(self, A, transfers):
        # A is symmetric: its transpose is A, and for the CSC Hessian
        # that transpose is already CSR, without a copy.
        A = A.T.tocsr()
        self.levels = []
        for P, R in transfers:
            self.levels.append((A, _OMEGA / A.diagonal(), P, R))
            A = R @ A @ P
        self.coarsest = spla.splu(sp.csc_matrix(A))

    def solve(self, r, level=0):
        """One V-cycle on A x = r from x = 0."""
        if level == len(self.levels):
            return self.coarsest.solve(r)
        A, weight, P, R = self.levels[level]
        x = weight * r
        for _ in range(_SWEEPS - 1):
            x += weight * (r - A @ x)
        x += P @ self.solve(R @ (r - A @ x), level + 1)
        for _ in range(_SWEEPS):
            x += weight * (r - A @ x)
        return x


def _kkt(H, rhs):
    """The update of zero sum that solves H delta = rhs up to a constant:
    the delta of the pinned-mean KKT system [[H, e], [e^T, 0]], factored
    in ``_LU_ORDERING``.  None when the factor fails or is not finite."""
    n = H.shape[0]
    e = np.ones((n, 1))
    K = sp.bmat([[H, e], [e.T, None]], format="csc")
    try:
        sol = spla.splu(K, permc_spec=_LU_ORDERING).solve(np.append(rhs, 0.0))
    except (RuntimeError, ValueError):
        return None
    return sol[:n] if np.all(np.isfinite(sol)) else None


def _linear_solve(H, rhs, periodic, lu=None, transfers=None):
    """Solve H delta = rhs on a grid with per-axis ``periodic`` flags:
    (delta, lu, kind, iterations, factorizations), with kind as in
    ``SolveReport.linear_solvers``.

    A fully periodic H that nearly annihilates the constants (a vertically
    flat stretch) pins the update's mean at once (``_kkt``).  Otherwise CG
    runs preconditioned by ``lu``, an earlier step's factor, then by a
    V-cycle of H over ``transfers`` (an empty list is the hierarchy's last
    level, whose V-cycle is an exact factor); the first run that solves
    the system to 1e-6 relative is kept.  Failing both, H is factored in
    ``_LU_ORDERING``, and where that fails a grid with a periodic axis
    pins the mean.  The factor the next step lags is returned as ``lu``.
    ``iterations`` counts every CG iteration run, and ``factorizations``
    the fine-grid factors made.  delta is None when no path gives one.
    """
    if all(periodic):
        scale = float(np.max(np.abs(H.data))) if H.nnz else 1.0
        if float(np.max(np.abs(H @ np.ones(H.shape[0])))) < 1e-10 * scale:
            return _kkt(H, rhs), lu, "kkt", 0, 1
    iterations = 0
    if lu is not None:
        delta, iterations = _pcg(H, rhs, lu.solve, _CG_MAX_ITER)
        if delta is not None and _solves(H, delta, rhs):
            return delta, lu, "lagged-lu", iterations, 0
    if transfers is not None:
        try:
            delta, run = _pcg(H, rhs, _VCycle(H, transfers).solve, _MG_MAX_ITER)
        except (RuntimeError, ValueError):
            delta, run = None, 0
        iterations += run
        if delta is not None and _solves(H, delta, rhs):
            return delta, lu, "multigrid", iterations, 0
    try:
        lu = spla.splu(H, permc_spec=_LU_ORDERING)
        delta = lu.solve(rhs)
    except (RuntimeError, ValueError):
        delta = None
    if delta is not None and _solves(H, delta, rhs):
        return delta, lu, "lu", iterations, 1
    if any(periodic):
        return _kkt(H, rhs), None, "kkt", iterations, 2
    return None, None, "lu", iterations, 1


def solve(spec: WarpedMetricSpec, init: DiscreteGraph, tol: float = 1e-10,
          max_iter: int = 60):
    """Damped Newton iteration on the area gradient until
    max|el_residual| <= tol.

    The initial iterate supplies the Dirichlet data (its boundary ring is
    held fixed) or the periodic topology.  On a singular linearization
    (flat periodic problems have a constant near-kernel) the mean of the
    update is pinned.  A Dirichlet grid on the multigrid path whose free
    sides are odd starts from one Newton step on each of its coarser grids
    (``_nested_start``).  Raises SolveError with the residual history on
    failure.
    """
    _require_diagonal(spec)
    require_finite(tolerance=tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    g = init.copy()
    _check_range(spec, g.values)
    # Dirichlet grids with at least _MULTIGRID_MIN free nodes per side
    # solve their steps by multigrid.
    free_shape = g.values[g.free_slices()].shape
    transfers = (_transfers(free_shape) if not any(g.periodic)
                 and min(free_shape) >= _MULTIGRID_MIN else None)
    coarse_grids = []
    if transfers is not None:
        g, coarse_grids = _nested_start(spec, g, transfers, tol)
    g, report = _newton(spec, g, tol, max_iter, transfers)
    if not report.converged:
        raise SolveError(
            f"no convergence after {max_iter} iterations; last residual "
            f"{report.final_residual:.3e}", report.residual_history
        )
    report.coarse_grids = coarse_grids
    return g, report


def _nested_start(spec: WarpedMetricSpec, init: DiscreteGraph, transfers,
                  tol: float):
    """The start of a Dirichlet solve by nested iteration, the full
    multigrid scheme of Briggs, Henson and McCormick, *A Multigrid
    Tutorial*, ch. 6: (start, records), one ``CoarseSolve`` record per
    coarser grid, coarsest first.

    The ladder runs down the multigrid hierarchy to its last level, one
    Newton step per coarser grid.  Grid k + 1 injects every second node
    of grid k (grid 0 is ``init``), which is the coarse grid of
    ``transfers[k]`` when both free sides of grid k are odd; the ladder
    goes down while they are, one grid per level of ``transfers``.  Grid
    k takes its one step on the levels ``transfers[k:]``, so the last
    level's step is solved by an exact factor of its Hessian.  The
    coarsest grid starts from its injected values; grid k starts from its
    injected values plus the prolongation ``transfers[k][0]`` of the
    correction grid k + 1 made to its own injected values.  The correction
    vanishes on the boundary ring, where the prolongation takes the
    Dirichlet value as zero, so grid k keeps its ring.  A grid that raises
    SolveError contributes no correction, and a start that leaves the
    spec's range is not taken.
    """
    grids = [init]
    for _ in transfers:
        fine = grids[-1]
        free = fine.values[1:-1, 1:-1].shape
        if free[0] % 2 == 0 or free[1] % 2 == 0:
            break
        grids.append(DiscreteGraph(fine.values[::2, ::2],
                                   (2.0 * fine.spacing[0], 2.0 * fine.spacing[1]),
                                   origin=fine.origin))
    records = []
    u = grids[-1]
    for k in range(len(grids) - 1, 0, -1):
        try:
            u_k, report = _newton(spec, u, tol, 1, transfers[k:])
            records.append(CoarseSolve(grids[k].shape, report.iterations,
                                       report.final_residual))
            u = u_k
        except SolveError as exc:
            history = exc.residual_history
            records.append(CoarseSolve(grids[k].shape, len(history) - 1,
                                       history[-1], str(exc)))
        start = _corrected(grids[k - 1], grids[k], u, transfers[k - 1][0])
        u = start if _in_range(spec, start.values) else grids[k - 1]
    return u, records


def _corrected(fine: DiscreteGraph, coarse: DiscreteGraph, u: DiscreteGraph,
               P) -> DiscreteGraph:
    """``fine`` plus the prolongation P of the correction ``u`` makes to
    ``coarse``, on the free nodes of Dirichlet grids; the boundary ring
    of ``fine`` is kept."""
    start = fine.copy()
    free = start.values[1:-1, 1:-1]
    free += (P @ (u.values - coarse.values)[1:-1, 1:-1].ravel()).reshape(free.shape)
    return start


def _newton(spec: WarpedMetricSpec, g: DiscreteGraph, tol: float,
            max_iter: int, transfers):
    """At most ``max_iter`` Newton steps on g from its values, each solved
    by ``_linear_solve`` with multigrid ``transfers`` (None for the LU
    path): (graph, report).  The report says whether max|el_residual| <=
    tol was reached; a line search that stalls or a singular Jacobian
    raises SolveError."""
    free = g.free_slices()
    h1, h2 = g.spacing
    cell_w = h1 * h2
    history = []
    # Per Newton step: what solved it, and the CG iterations it ran.
    linear_solvers = []
    linear_iterations = []
    factorizations = 0
    lu = None
    # The area gradient on the free nodes at the current iterate; each
    # accepted trial's gradient carries over to the next iteration.
    F = _gradient(spec, g)[free].ravel()
    pattern = _Pattern(g)

    for _ in range(max_iter):
        rmax = float(np.max(np.abs(F))) / cell_w
        history.append(rmax)
        if rmax <= tol:
            return g, SolveReport(True, history, factorizations,
                                  linear_iterations, linear_solvers)

        H = _hessian(spec, g, pattern)
        delta, lu, kind, iterations, made = _linear_solve(H, -F, g.periodic,
                                                          lu, transfers)
        if delta is None:
            raise SolveError("singular Jacobian", history)
        factorizations += made
        linear_solvers.append(kind)
        linear_iterations.append(iterations)

        # Armijo backtracking on ||gradient||^2, with a steepest-descent
        # fallback when the Newton direction fails.
        phi0 = float(np.dot(F, F))
        accepted = False
        for direction in (delta, -F):
            alpha = 1.0
            if direction is not delta:
                nrm = float(np.linalg.norm(direction))
                if nrm > 0:
                    alpha = min(1.0, float(np.linalg.norm(delta)) / nrm + 1e-30)
            while alpha > 2.0**-30:
                trial = g.copy()
                trial.values[free] = g.values[free] + alpha * direction.reshape(
                    g.values[free].shape
                )
                if not _in_range(spec, trial.values):
                    alpha *= 0.5
                    continue
                F_trial = _gradient(spec, trial)[free].ravel()
                if float(np.dot(F_trial, F_trial)) <= (1.0 - 1e-4 * alpha) * phi0:
                    g, F = trial, F_trial
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                break
        if not accepted:
            raise SolveError(f"line search stalled at residual {rmax:.3e}", history)

    history.append(float(np.max(np.abs(F))) / cell_w)
    return g, SolveReport(False, history, factorizations, linear_iterations,
                          linear_solvers)


def _node_derivatives(g: DiscreteGraph):
    """Centered first and second derivatives on the free nodes."""
    h1, h2 = g.spacing
    # Free node (i, j) is node (i + 1, j + 1) of the grid ghosted on both
    # sides, as in _Pattern; its neighbours are free or boundary nodes.
    ghosted = _ghosted(g.values, g, 1)
    shape = g.values[g.free_slices()].shape

    def at(d1, d2):
        """u[i + d1, j + d2] at every free node (i, j)."""
        return _window(ghosted, (1 + d1, 1 + d2), shape)

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
    -(a1'/a1 + a2'/a2)/2."""
    _require_diagonal(spec)
    _check_range(spec, g.values)
    u, ux, uy, uxx, uyy, uxy = _node_derivatives(g)
    a1v = np.asarray(spec.a1(u), dtype=float)
    a2v = np.asarray(spec.a2(u), dtype=float)
    a1p = np.asarray(spec.a1.d1(u), dtype=float)
    a2p = np.asarray(spec.a2.d1(u), dtype=float)

    W2 = _element_squared(a1v, a2v, ux, uy)
    W = np.sqrt(W2)
    ratio = a1v * a2v / W
    II11 = ratio * (uxx - a1v * a1p - 2.0 * (a1p / a1v) * ux**2)
    II12 = ratio * (uxy - (a1p / a1v + a2p / a2v) * ux * uy)
    II22 = ratio * (uyy - a2v * a2p - 2.0 * (a2p / a2v) * uy**2)
    G11 = a1v**2 + ux**2
    G12 = ux * uy
    G22 = a2v**2 + uy**2
    return (G22 * II11 - 2.0 * G12 * II12 + G11 * II22) / (2.0 * W2)


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
    radius sqrt(2) C / h(t_bar) about the origin.  Returns the rescaled
    graph together with the bound report.
    """
    _require_diagonal(spec)
    if any(g.periodic):
        raise DomainError("rescale_graph expects a rectangle grid")
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

    u, ux, uy, uxx, uyy, uxy = _node_derivatives(g)
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
        g.values.copy(),
        (g.spacing[0] * h_t, g.spacing[1] * h_t),
        periodic=g.periodic,
        origin=(g.origin[0] * h_t, g.origin[1] * h_t),
    )
    return rescaled, RescaleReport(checks)
