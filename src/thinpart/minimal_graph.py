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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, SolveError
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
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("graph values must be a 2-d array")
        if min(self.values.shape) < 4:
            raise DomainError("need at least 4 grid points per axis")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("graph values must be finite")
        if isinstance(self.periodic, bool):
            self.periodic = (self.periodic, self.periodic)
        h1, h2 = self.spacing
        if h1 <= 0 or h2 <= 0:
            raise DomainError("grid spacing must be positive")

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
        X1, X2 = extent
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


def _check_range(spec: WarpedMetricSpec, values: np.ndarray):
    width = spec.x3_max - spec.x3_min
    slack = 1e-9 * width
    lo, hi = float(values.min()), float(values.max())
    if lo < spec.x3_min - slack or hi > spec.x3_max + slack:
        raise DomainError(
            f"graph values [{lo!r}, {hi!r}] leave the spec range "
            f"[{spec.x3_min!r}, {spec.x3_max!r}]"
        )


def _mesh(g: DiscreteGraph):
    """The two linear triangles of every grid cell, one triangle type at
    a time, as pairs (nodes, B): ``nodes`` holds the flat indices of each
    triangle's three corners, shape (3, m1, m2), and the 3x3 matrix B maps
    those nodal values to the triangle's centroid value and (constant)
    gradient, row k = corner k, columns (c, x, y).

    Cells wrap on periodic axes.  Splitting cells kills the odd-even
    decoupling a pure cell-centered stencil would have; on the flat
    metric the assembled operator is the classic 5-point scheme.
    """
    n1, n2 = g.shape
    i0 = np.arange(n1 if g.periodic[0] else n1 - 1)[:, None]
    j0 = np.arange(n2 if g.periodic[1] else n2 - 1)[None, :]
    i1 = (i0 + 1) % n1
    j1 = (j0 + 1) % n2
    dx, dy = 1.0 / g.spacing[0], 1.0 / g.spacing[1]
    third = 1.0 / 3.0
    return [
        # Lower triangle: corners (i, j), (i + 1, j), (i, j + 1).
        (np.stack([i0 * n2 + j0, i1 * n2 + j0, i0 * n2 + j1]),
         np.array([[third, -dx, -dy], [third, dx, 0.0], [third, 0.0, dy]])),
        # Upper triangle: corners (i + 1, j), (i, j + 1), (i + 1, j + 1).
        (np.stack([i1 * n2 + j0, i0 * n2 + j1, i1 * n2 + j1]),
         np.array([[third, 0.0, -dy], [third, -dx, 0.0], [third, dx, dy]])),
    ]


def _fields(values, nodes, B):
    """Centroid value and gradient (c, x, y) of a nodal field on one
    triangle type."""
    u0, u1, u2 = values.ravel()[nodes]
    return tuple(B[0, a] * u0 + B[1, a] * u1 + B[2, a] * u2 for a in range(3))


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
    prod = a1 * a2
    c0, c1, c2 = prod**2, a1**2, a2**2
    p2, q2 = ux**2, uy**2
    W = np.sqrt(c0 + c2 * p2 + c1 * q2)
    if order == 0:
        return W, None, None

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
    """(nodes, B, W, dW, d2W) for each triangle type of the graph."""
    for nodes, B in _mesh(g):
        yield (nodes, B) + _element(spec, *_fields(g.values, nodes, B), order)


def area(spec: WarpedMetricSpec, g: DiscreteGraph) -> float:
    """Graph area: centroid quadrature of the area element W over the
    triangulated grid."""
    _require_diagonal(spec)
    _check_range(spec, g.values)
    total = sum(float(np.sum(W)) for _, _, W, _, _ in _elements(spec, g, 0))
    return total * 0.5 * g.spacing[0] * g.spacing[1]


def _gradient(spec: WarpedMetricSpec, g: DiscreteGraph) -> np.ndarray:
    """Exact gradient of the discrete area w.r.t. the nodal values
    (full-shape array; boundary entries are meaningful only as reactions)."""
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]
    acc = np.zeros(g.values.size)
    for nodes, B, _, dW, _ in _elements(spec, g, 1):
        # Corner k of each triangle receives (dW . B[k]) * tri_w.
        weights = np.stack([(B[k, 0] * dW[0] + B[k, 1] * dW[1] + B[k, 2] * dW[2]) * tri_w
                            for k in range(3)])
        acc += np.bincount(nodes.ravel(), weights.ravel(), minlength=acc.size)
    return acc.reshape(g.shape)


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

    v must vanish on Dirichlet boundary rings (or be periodic).  Equals
    -sum(el_residual * v * cell_weight) by construction.
    """
    _require_diagonal(spec)
    _check_range(spec, g.values)
    v = np.asarray(v, dtype=float)
    if v.shape != g.shape:
        raise DomainError(f"variation shape {v.shape} != graph shape {g.shape}")
    scale = float(np.max(np.abs(v))) or 1.0
    ring = v[~g.free_mask()]
    if np.max(np.abs(ring), initial=0.0) > 1e-12 * scale:
        raise DomainError("variation must vanish on the Dirichlet boundary")

    total = 0.0
    for nodes, B, _, dW, _ in _elements(spec, g, 1):
        vc, vx, vy = _fields(v, nodes, B)
        total += float(np.sum(dW[0] * vc + dW[1] * vx + dW[2] * vy))
    return total * 0.5 * g.spacing[0] * g.spacing[1]


def _hessian(spec: WarpedMetricSpec, g: DiscreteGraph) -> sp.csr_matrix:
    """Hessian of the discrete area restricted to the free nodes:
    B d2W B^T per triangle, scattered onto the free nodes.  Each
    triangle's (k, l) entry with k <= l is computed once and mirrored, so
    the assembled matrix is exactly symmetric."""
    free = g.free_mask().ravel()
    nfree = int(free.sum())
    free_index = np.full(free.size, -1, dtype=np.int32)
    free_index[free] = np.arange(nfree, dtype=np.int32)
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]

    rows, cols, data = [], [], []
    for nodes, B, _, _, d2W in _elements(spec, g, 2):
        idx = free_index[nodes]
        for k in range(3):
            for l in range(k, 3):
                keep = (idx[k] >= 0) & (idx[l] >= 0)
                # (B d2W B^T)[k, l], skipping the zero entries of B.
                val = sum(B[k, a] * B[l, b] * d2W[a][b]
                          for a in range(3) for b in range(3) if B[k, a] and B[l, b])
                val = (tri_w * val)[keep]
                rk, rl = idx[k][keep], idx[l][keep]
                rows += [rk] if k == l else [rk, rl]
                cols += [rl] if k == l else [rl, rk]
                data += [val] if k == l else [val, val]
    H = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nfree, nfree),
    )
    return H.tocsr()


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residual_history: list = field(default_factory=list)
    pinned_mean: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else math.nan


def _linear_solve(H, rhs):
    try:
        lu = spla.splu(H.tocsc())
        delta = lu.solve(rhs)
    except (RuntimeError, ValueError):
        return None
    if not np.all(np.isfinite(delta)):
        return None
    check = H @ delta - rhs
    scale = float(np.linalg.norm(rhs)) or 1.0
    if np.linalg.norm(check) > 1e-6 * scale:
        return None
    return delta


def solve(spec: WarpedMetricSpec, init: DiscreteGraph, tol: float = 1e-10,
          max_iter: int = 60):
    """Damped Newton iteration on the area gradient until
    max|el_residual| <= tol.

    The initial iterate supplies the Dirichlet data (its boundary ring is
    held fixed) or the periodic topology.  On a singular linearization
    (flat periodic problems have a constant near-kernel) the mean of the
    update is pinned.  Raises SolveError with the residual history on
    failure.
    """
    _require_diagonal(spec)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    g = init.copy()
    _check_range(spec, g.values)
    free = g.free_slices()
    h1, h2 = g.spacing
    cell_w = h1 * h2
    pinned = False
    history = []
    # The area gradient on the free nodes at the current iterate; each
    # accepted trial's gradient carries over to the next iteration.
    F = _gradient(spec, g)[free].ravel()

    for it in range(max_iter):
        rmax = float(np.max(np.abs(F))) / cell_w
        history.append(rmax)
        if rmax <= tol:
            return g, SolveReport(it, True, history, pinned)

        H = _hessian(spec, g)
        # All-periodic problems on a vertically flat stretch have the
        # constants in the kernel; detect the near-kernel cheaply along
        # that direction and pin the mean of the update.
        near_kernel = False
        if all(g.periodic):
            n = H.shape[0]
            scale = float(np.max(np.abs(H.data))) if H.nnz else 1.0
            near_kernel = float(np.max(np.abs(H @ np.ones(n)))) < 1e-10 * scale
        delta = None if near_kernel else _linear_solve(H, -F)
        if delta is None:
            if any(g.periodic):
                # KKT system constraining the update to zero mean.
                n = H.shape[0]
                e = np.ones((n, 1))
                K = sp.bmat([[H, e], [e.T, None]], format="csc")
                try:
                    sol = spla.splu(K).solve(np.concatenate([-F, [0.0]]))
                except (RuntimeError, ValueError) as exc:
                    raise SolveError("singular Jacobian", history) from exc
                if not np.all(np.isfinite(sol)):
                    raise SolveError("singular Jacobian", history)
                delta = sol[:n]
                pinned = True
            else:
                raise SolveError("singular Jacobian", history)

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
                lo = float(trial.values.min())
                hi = float(trial.values.max())
                if lo < spec.x3_min or hi > spec.x3_max:
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
    raise SolveError(
        f"no convergence after {max_iter} iterations; last residual "
        f"{history[-1]:.3e}", history
    )


def _node_derivatives(g: DiscreteGraph):
    """Centered first and second derivatives on the free nodes."""
    u = g.values
    h1, h2 = g.spacing
    # One ghost layer per axis: wrapped on periodic axes, NaN beyond a
    # Dirichlet ring (only ever read at boundary nodes, which are dropped).
    padded = u
    for axis, wrap in enumerate(g.periodic):
        width = [(1, 1) if a == axis else (0, 0) for a in (0, 1)]
        padded = (np.pad(padded, width, mode="wrap") if wrap
                  else np.pad(padded, width, constant_values=np.nan))
    n1, n2 = u.shape

    def shift(d1, d2):
        """u[i + d1, j + d2] at every node."""
        return padded[1 + d1:1 + d1 + n1, 1 + d2:1 + d2 + n2]

    ux = (shift(1, 0) - shift(-1, 0)) / (2 * h1)
    uy = (shift(0, 1) - shift(0, -1)) / (2 * h2)
    uxx = (shift(1, 0) - 2 * u + shift(-1, 0)) / h1**2
    uyy = (shift(0, 1) - 2 * u + shift(0, -1)) / h2**2
    uxy = (shift(1, 1) - shift(1, -1) - shift(-1, 1) + shift(-1, -1)) / (4 * h1 * h2)
    s = g.free_slices()
    return u[s], ux[s], uy[s], uxx[s], uyy[s], uxy[s]


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

    W2 = (a1v * a2v) ** 2 + a2v**2 * ux**2 + a1v**2 * uy**2
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
