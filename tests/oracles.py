"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the library's own computational paths:
lattice quantities come from coefficient enumeration, grid search and exact
rational arithmetic, areas from quadrature, derivatives from finite
differences, and the filler's core chart from its formulas at 80 digits.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thinpart.errors import DomainError
from thinpart.flat_torus import FlatTorusLattice


def shortest_vector_brute(lat: FlatTorusLattice, bound: int = 50) -> float:
    """Shortest nonzero vector by scanning |m|, |n| <= bound."""
    best = math.inf
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n == 0:
                continue
            x = m * lat.a1 + n * lat.a2
            y = n * lat.b2
            best = min(best, math.hypot(x, y))
    return best


def gauss_reduce_exact(lat: FlatTorusLattice):
    """Lagrange-Gauss reduction in exact rational arithmetic over the exact
    float values of the basis (a1, 0), (a2, b2).

    Returns the Fractions (|v1|^2, |v2|^2, |<v1, v2>|, area) of the reduced
    basis.  These are invariants of the reduced lattice: they do not depend
    on which of the equivalent reduced bases a reduction ends with.
    """
    u = (Fraction(lat.a1), Fraction(0))
    w = (Fraction(lat.a2), Fraction(lat.b2))

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1]

    if dot(u, u) > dot(w, w):
        u, w = w, u
    while True:
        m = round(dot(u, w) / dot(u, u))
        w = (w[0] - m * u[0], w[1] - m * u[1])
        if dot(w, w) >= dot(u, u):
            break
        u, w = w, u
    return dot(u, u), dot(w, w), abs(dot(u, w)), abs(u[0] * w[1] - u[1] * w[0])


def covering_radius_grid(lat: FlatTorusLattice, n: int = 400):
    """Deep-hole search on an n x n grid of the fundamental parallelogram.

    Returns (max_found, slack): the distance-to-lattice function is
    1-Lipschitz, so the true covering radius lies in
    [max_found, max_found + slack] with slack = half the grid cell diagonal.
    """
    v1 = lat.v1
    v2 = lat.v2
    s = np.linspace(0.0, 1.0, n, endpoint=False)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    S, T = np.meshgrid(s, t, indexing="ij")
    px = S * v1[0] + T * v2[0]
    py = S * v1[1] + T * v2[1]
    dmin = np.full(px.shape, np.inf)
    for m in (-2, -1, 0, 1, 2):
        for k in (-2, -1, 0, 1, 2):
            lx = m * v1[0] + k * v2[0]
            ly = m * v1[1] + k * v2[1]
            d = np.hypot(px - lx, py - ly)
            np.minimum(dmin, d, out=dmin)
    cell = np.hypot(
        (v1[0] + abs(v2[0])) / n,
        (v1[1] + v2[1]) / n,
    )
    return float(dmin.max()), float(cell)


def mse_ode_rhs(spec, u, p):
    """Independent 1-d reduction of the minimal-graph equation: for
    u = u(x2), u'' = (c0' c0 / 2 + (c0' c1 - c1' c0 / 2) p^2) / (c1 c0)
    with c0 = (a1 a2)^2, c1 = a1^2 evaluated at u."""
    a1v = np.asarray(spec.a1(u), dtype=float)
    a2v = np.asarray(spec.a2(u), dtype=float)
    a1p = np.asarray(spec.a1.derivative(u, 1), dtype=float)
    a2p = np.asarray(spec.a2.derivative(u, 1), dtype=float)
    c0 = (a1v * a2v) ** 2
    c0p = 2.0 * (a1v * a2v) * (a1p * a2v + a1v * a2p)
    c1 = a1v**2
    c1p = 2.0 * a1v * a1p
    return (0.5 * c0p * c0 + (c0p * c1 - 0.5 * c1p * c0) * p**2) / (c1 * c0)


def solve_stripe_ode(spec, va, vb, x_grid):
    """High-accuracy BVP oracle for x1-independent boundary data."""
    from scipy.integrate import solve_bvp

    def fun(x, Y):
        return np.vstack([Y[1], mse_ode_rhs(spec, Y[0], Y[1])])

    def bc(Ya, Yb):
        return np.array([Ya[0] - va, Yb[0] - vb])

    x0 = np.linspace(x_grid[0], x_grid[-1], 801)
    Y0 = np.vstack([np.linspace(va, vb, x0.size), np.full(x0.size, vb - va)])
    sol = solve_bvp(fun, bc, x0, Y0, tol=1e-11, max_nodes=200000)
    assert sol.success
    return sol.sol(x_grid)[0]


def random_lattice(rng: np.random.RandomState, min_quality: float = 0.0) -> FlatTorusLattice:
    """A random nondegenerate lattice; optionally keep systole/diameter large."""
    from thinpart.flat_torus import diameter, systole

    while True:
        scale = 10.0 ** rng.uniform(-1.5, 1.5)
        a1 = scale * rng.uniform(0.2, 3.0)
        a2 = scale * rng.uniform(-3.0, 3.0)
        b2 = scale * rng.uniform(0.2, 3.0)
        lat = FlatTorusLattice(a1, a2, b2)
        if min_quality <= 0.0:
            return lat
        if systole(lat) / diameter(lat) >= min_quality:
            return lat


# ------------------------------------------------- comparison constants


def _reference_points(spec, n1, n2, n3):
    x3s = np.linspace(spec.x3_min, spec.x3_max, n3)
    if spec.diagonal_form:
        return [(0.0, 0.0, float(t)) for t in x3s]
    pts = []
    v1, v2 = spec.lattice.v1, spec.lattice.v2
    for s in np.linspace(0.0, 1.0, n1, endpoint=False):
        for t in np.linspace(0.0, 1.0, n2, endpoint=False):
            x1 = s * v1[0] + t * v2[0]
            x2 = s * v1[1] + t * v2[1]
            for x3 in x3s:
                pts.append((float(x1), float(x2), float(x3)))
    return pts


def _reference_mean_convexity(spec, x1, x2, x3) -> float:
    G = spec.coefficient_matrix(x1, x2, x3)
    dG = [spec.coefficient_deriv((i,), x1, x2, x3) for i in (1, 2, 3)]
    Ginv = np.linalg.inv(G)
    gT_inv = np.linalg.inv(G[:2, :2])
    total = 0.0
    for a in range(2):
        for b in range(2):
            gamma3 = 0.0
            for m in range(3):
                gamma3 += 0.5 * Ginv[2, m] * (dG[a][b, m] + dG[b][a, m] - dG[m][a, b])
            total += gT_inv[a, b] * gamma3
    return float(total)


def check_hypotheses_loop(spec, grid):
    """Per-point reference for ``check_hypotheses``: one sample at a time,
    raising at the first failing point with the library's messages."""
    from thinpart.warped_metric import HypothesisReport

    n1 = n2 = n3 = int(grid)
    points = _reference_points(spec, n1, n2, n3)
    sup_h1 = 0.0
    sup_h2 = [0.0, 0.0, 0.0]
    sup_h3 = [0.0, 0.0, 0.0, 0.0]
    h_monotone = True
    mean_convex = True
    for (x1, x2, x3) in points:
        G = spec.coefficient_matrix(x1, x2, x3)
        if not np.allclose(G, G.T, rtol=1e-10, atol=1e-14):
            raise DomainError(f"coefficient matrix not symmetric at {(x1, x2, x3)}")
        if np.linalg.eigvalsh(G)[0] <= 0.0:
            raise DomainError(
                f"coefficient matrix not positive definite at {(x1, x2, x3)}"
            )
        h = float(spec.warping(x3))
        if h <= 0.0:
            raise DomainError(f"warping not positive at x3 = {x3!r}")
        D = np.diag([1.0 / h, 1.0 / h, 1.0])
        ratios = np.linalg.eigvalsh(D @ G @ D)
        sup_h1 = max(sup_h1, math.sqrt(ratios[-1]), 1.0 / math.sqrt(ratios[0]))
        derivs = tuple(spec.warping.derivative(x3, k) for k in (1, 2, 3))
        for i, d in enumerate(derivs):
            sup_h2[i] = max(sup_h2[i], abs(float(d)) / h)
        if float(derivs[0]) > 0.0:
            h_monotone = False
        for order in range(4):
            for axes in itertools.combinations_with_replacement((1, 2, 3), order):
                M = spec.coefficient_deriv(axes, x1, x2, x3)
                for k in range(3):
                    for l in range(k, 3):
                        n = sum(1 for i in (k + 1, l + 1, *axes) if i != 3)
                        sup_h3[order] = max(sup_h3[order], abs(float(M[k, l])) / h**n)
        if _reference_mean_convexity(spec, x1, x2, x3) < -1e-12:
            mean_convex = False
    if spec.diagonal_form:
        desc = f"x3: {n3} points (coefficients x1,x2-independent)"
    else:
        desc = f"{n1}x{n2}x{n3} points over fundamental domain x [a,b]"
    return HypothesisReport(
        a_h1=sup_h1,
        a_h2=max(sup_h2),
        a_h3=max(sup_h3),
        h2_ratios=tuple(sup_h2),
        h3_ratios=tuple(sup_h3),
        h_monotone=h_monotone,
        mean_convex=mean_convex,
        grid=desc,
        npoints=len(points),
    )


# ------------------------------------------------------------ sweep-outs


def fineness_exhaustive(fam) -> float:
    """O(n^2) sup over vertex pairs of M(phi(x) - phi(y)) / d(x, y), from
    the currents' own patchwise mass of a difference."""
    currents = list(fam.currents)
    best = 0.0
    n = len(currents)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, currents[i].mass_of_difference(currents[j]) / (j - i))
    return best


def interpolated_patches(a, b, k):
    """Per-vertex patch tuples of the k-step chain from a to b, built one
    labelled sub-patch at a time: sub-patch ``piece`` of every patch
    carries its multiplicity in b once ``piece < min(i, k)``, else its
    multiplicity in a; zero multiplicities are left out."""
    ids = sorted(set(a._table) | set(b._table), key=repr)
    level = 0
    while 3**level < k:
        level += 1
    out = []
    for i in range(3**level + 1):
        t = min(i, k)
        patches = []
        for pid in ids:
            n, area_a = a._table.get(pid, (0, None))
            m, area_b = b._table.get(pid, (0, None))
            area = area_a if area_a is not None else area_b
            for piece in range(k):
                mult = m if piece < t else n
                if mult != 0:
                    patches.append((f"{pid}#{piece}/{k}", mult, area / k))
        out.append(tuple(patches))
    return out


# ------------------------------------------------------- minimal graphs
#
# The per-triangle gradient and Hessian of the discrete graph area, each
# with its own hand-expanded derivatives of the area element W: the
# reference for the library's single element kernel.


def _cell_corners(g):
    """Index arrays of the four corners of each cell (wrapping on
    periodic axes)."""
    n1, n2 = g.shape
    m1 = n1 if g.periodic[0] else n1 - 1
    m2 = n2 if g.periodic[1] else n2 - 1
    i0 = np.arange(m1)
    j0 = np.arange(m2)
    i1 = (i0 + 1) % n1
    j1 = (j0 + 1) % n2
    return i0, i1, j0, j1


def _triangles(g):
    """Node stencils of the two linear triangles per grid cell.

    Each triangle is a list of (i_idx, j_idx, c_coef, x_coef, y_coef):
    the nodal coefficients producing the triangle's centroid value and
    its (constant) gradient.  Splitting cells kills the odd-even
    decoupling a pure cell-centered stencil would have; on the flat
    metric the assembled operator is the classic 5-point scheme.
    """
    i0, i1, j0, j1 = _cell_corners(g)
    h1, h2 = g.spacing
    third = 1.0 / 3.0
    lower = [
        (i0, j0, third, -1.0 / h1, -1.0 / h2),
        (i1, j0, third, +1.0 / h1, 0.0),
        (i0, j1, third, 0.0, +1.0 / h2),
    ]
    upper = [
        (i1, j0, third, 0.0, -1.0 / h2),
        (i0, j1, third, -1.0 / h1, 0.0),
        (i1, j1, third, +1.0 / h1, +1.0 / h2),
    ]
    return (lower, upper)


def _tri_fields(g, tri, values=None):
    """Centroid value and gradient of a nodal field on one triangle set."""
    u = g.values if values is None else values
    uc = 0.0
    ux = 0.0
    uy = 0.0
    for (ii, jj, c, bx, by) in tri:
        uv = u[np.ix_(ii, jj)]
        uc = uc + c * uv
        if bx:
            ux = ux + bx * uv
        if by:
            uy = uy + by * uv
    return uc, ux, uy


def _coefficients(spec, uc):
    a1v = np.asarray(spec.a1(uc), dtype=float)
    a2v = np.asarray(spec.a2(uc), dtype=float)
    a1p = np.asarray(spec.a1.derivative(uc, 1), dtype=float)
    a2p = np.asarray(spec.a2.derivative(uc, 1), dtype=float)
    return a1v, a2v, a1p, a2p


def gradient_per_triangle(spec, g) -> np.ndarray:
    """Exact gradient of the discrete area w.r.t. the nodal values
    (full-shape array; boundary entries are meaningful only as reactions)."""
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]
    acc = np.zeros(g.shape)
    for tri in _triangles(g):
        uc, ux, uy = _tri_fields(g, tri)
        a1v, a2v, a1p, a2p = _coefficients(spec, uc)
        W = np.sqrt((a1v * a2v) ** 2 + a2v**2 * ux**2 + a1v**2 * uy**2)
        # dW/d(uc, ux, uy) at the centroids.
        wc = (
            a1v * a1p * a2v**2
            + a1v**2 * a2v * a2p
            + a2v * a2p * ux**2
            + a1v * a1p * uy**2
        ) / W
        wp = a2v**2 * ux / W
        wq = a1v**2 * uy / W
        for (ii, jj, c, bx, by) in tri:
            np.add.at(acc, np.ix_(ii, jj), (c * wc + bx * wp + by * wq) * tri_w)
    return acc


def element_expanded(spec, uc, ux, uy):
    """The area element W at centroid values uc and gradients (ux, uy),
    and its first and second derivatives in (c, x, y), from the expanded
    coefficients c0 = (a1 a2)^2, c1 = a1^2, c2 = a2^2 of
    W^2 = c0 + c2 ux^2 + c1 uy^2: (W, {"c", "x", "y"} -> dW, {pair} ->
    d2W) with the pairs ("c", "c"), ("c", "x"), ("c", "y"), ("x", "x"),
    ("x", "y"), ("y", "y")."""
    a1v = np.asarray(spec.a1(uc), dtype=float)
    a2v = np.asarray(spec.a2(uc), dtype=float)
    a1p = np.asarray(spec.a1.derivative(uc, 1), dtype=float)
    a2p = np.asarray(spec.a2.derivative(uc, 1), dtype=float)
    a1s = np.asarray(spec.a1.derivative(uc, 2), dtype=float)
    a2s = np.asarray(spec.a2.derivative(uc, 2), dtype=float)

    prod = a1v * a2v
    dprod = a1p * a2v + a1v * a2p
    c0 = prod**2
    c0p = 2.0 * prod * dprod
    c0pp = 2.0 * (dprod**2 + prod * (a1s * a2v + 2.0 * a1p * a2p + a1v * a2s))
    c1 = a1v**2
    c1p = 2.0 * a1v * a1p
    c1pp = 2.0 * (a1p**2 + a1v * a1s)
    c2 = a2v**2
    c2p = 2.0 * a2v * a2p
    c2pp = 2.0 * (a2p**2 + a2v * a2s)

    p, q = ux, uy
    W = np.sqrt(c0 + c2 * p**2 + c1 * q**2)
    Wc = (c0p + c2p * p**2 + c1p * q**2) / (2.0 * W)
    Wp = c2 * p / W
    Wq = c1 * q / W
    second = {
        ("c", "c"): (c0pp + c2pp * p**2 + c1pp * q**2) / (2.0 * W) - Wc**2 / W,
        ("c", "x"): c2p * p / W - Wc * Wp / W,
        ("c", "y"): c1p * q / W - Wc * Wq / W,
        ("x", "x"): c2 / W - Wp**2 / W,
        ("x", "y"): -Wp * Wq / W,
        ("y", "y"): c1 / W - Wq**2 / W,
    }
    return W, {"c": Wc, "x": Wp, "y": Wq}, second


def hessian_per_triangle(spec, g):
    """Hessian of the discrete area restricted to the free nodes."""
    free = g.free_mask()
    free_index = -np.ones(g.shape, dtype=np.int64)
    free_index[free] = np.arange(int(free.sum()))
    nfree = int(free.sum())
    tri_w = 0.5 * g.spacing[0] * g.spacing[1]

    rows, cols, data = [], [], []
    for tri in _triangles(g):
        _, _, second = element_expanded(spec, *_tri_fields(g, tri))

        def entry(ka, kb):
            key = (ka, kb) if (ka, kb) in second else (kb, ka)
            return second[key]

        for (ia, ja, ca, bxa, bya) in tri:
            ra = free_index[np.ix_(ia, ja)]
            for (ib, jb, cb, bxb, byb) in tri:
                rb = free_index[np.ix_(ib, jb)]
                val = tri_w * (
                    ca * cb * entry("c", "c")
                    + (ca * bxb + bxa * cb) * entry("c", "x")
                    + (ca * byb + bya * cb) * entry("c", "y")
                    + bxa * bxb * entry("x", "x")
                    + (bxa * byb + bya * bxb) * entry("x", "y")
                    + bya * byb * entry("y", "y")
                )
                keep = (ra >= 0) & (rb >= 0)
                rows.append(ra[keep])
                cols.append(rb[keep])
                data.append(np.broadcast_to(val, ra.shape)[keep])
    H = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nfree, nfree),
    )
    return H.tocsr()


def mean_curvature_whole_grid(spec, g) -> np.ndarray:
    """Mean curvature of the graph at the free nodes, the whole grid at
    once: centered differences from index arrays (wrapping on periodic
    axes), then the induced metric and second fundamental form, in the
    arithmetic of ``graph_mean_curvature``.  The reference for its
    evaluation in blocks of rows."""
    h1, h2 = g.spacing
    n1, n2 = g.shape
    i = np.arange(n1) if g.periodic[0] else np.arange(1, n1 - 1)
    j = np.arange(n2) if g.periodic[1] else np.arange(1, n2 - 1)

    def at(d1, d2):
        return g.values[np.ix_((i + d1) % n1, (j + d2) % n2)]

    u = at(0, 0)
    ux = (at(1, 0) - at(-1, 0)) / (2 * h1)
    uy = (at(0, 1) - at(0, -1)) / (2 * h2)
    uxx = (at(1, 0) - 2 * u + at(-1, 0)) / h1**2
    uyy = (at(0, 1) - 2 * u + at(0, -1)) / h2**2
    uxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h1 * h2)
    a1v, a2v, a1p, a2p = _coefficients(spec, u)
    W2 = (a1v * a2v)**2 + a2v**2 * ux**2 + a1v**2 * uy**2
    W = np.sqrt(W2)
    ratio = a1v * a2v / W
    II11 = ratio * (uxx - a1v * a1p - 2.0 * (a1p / a1v) * ux**2)
    II12 = ratio * (uxy - (a1p / a1v + a2p / a2v) * ux * uy)
    II22 = ratio * (uyy - a2v * a2p - 2.0 * (a2p / a2v) * uy**2)
    G11 = a1v**2 + ux**2
    G12 = ux * uy
    G22 = a2v**2 + uy**2
    return (G22 * II11 - 2.0 * G12 * II12 + G11 * II22) / (2.0 * W2)


def bordered_kkt(H, rhs, permc_spec):
    """The update of zero sum that solves H delta = rhs up to a constant,
    for an H that annihilates the constants: the delta of the pinned-mean
    KKT system [[H, e], [e^T, 0]] bordered by e = 1, factored whole by
    SuperLU in the column ordering ``permc_spec``.  Returns (delta,
    factor).  The reference for the solver's pinned factor."""
    n = H.shape[0]
    e = np.ones((n, 1))
    factor = spla.splu(sp.bmat([[H, e], [e.T, None]], format="csc"), permc_spec=permc_spec)
    return factor.solve(np.append(rhs, 0.0))[:n], factor


def profile_samples_loop(prof):
    """Per-sample reference for ``SweepoutProfile.samples``: one
    (global_t, label, area) row at a time, each segment on a unit of the
    global parameter."""
    rows = []
    for offset, seg in enumerate(prof.segments):
        p = seg.params
        span = p[-1] - p[0] if p[-1] > p[0] else 1.0
        for t, a in zip(p, seg.areas):
            rows.append((offset + (t - p[0]) / span, seg.label, float(a)))
    return rows


class CountingNumpy:
    """numpy, with the functions named in ``counts`` (a Counter) counted
    per call; like numpy's, each is one object however often it is looked
    up.  Set as a module's ``np``, it counts that module's calls."""

    def __init__(self, counts):
        self.counts = counts
        self.counted = {}

    def __getattr__(self, name):
        value = getattr(np, name)
        if name not in self.counts:
            return value
        if name not in self.counted:
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return value(*args, **kwargs)
            self.counted[name] = counted
        return self.counted[name]


def _decimal_pi() -> Decimal:
    """pi to the context's precision, by the series of the ``decimal``
    documentation's recipe."""
    with decimal.localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        last, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _decimal_sinh(x: Decimal) -> Decimal:
    """sinh x by its Taylor series, for |x| <= 1, at the context's
    precision: no cancellation at small x."""
    with decimal.localcontext() as ctx:
        ctx.prec += 2
        term, total, n = x, x, 1
        while True:
            term = term * x * x / ((n + 1) * (n + 2))
            n += 2
            if total + term == total:
                break
            total += term
    return +total


def meyerhoff_radius_decimal(length: float, digits: int = 50) -> Decimal:
    """The Meyerhoff radius R of the float ``length`` as a Decimal at
    ``digits`` digits, from the closed form as stated: sinh^2 R =
    ((1 - 2k)^(1/2) / k - 1) / 2 with k = cosh y - 1 = 2 sinh^2(y/2) and
    y = sqrt(4 pi ell / sqrt 3), then R = ln(s + sqrt(s^2 + 1)), s = sinh R.

    Independent of the library: it reads neither its float constants
    (ELL_MAX, 4 pi / sqrt 3) nor its product form of 1 - sinh y.  At 50
    digits the cancellation in (1 - 2k)^(1/2) - k costs 7 of them
    1e-6 below the threshold.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        y = (4 * _decimal_pi() * Decimal(length) / Decimal(3).sqrt()).sqrt()
        k = 2 * _decimal_sinh(y / 2) ** 2
        s = (((1 - 2 * k).sqrt() / k - 1) / 2).sqrt()
        return (s + (s * s + 1).sqrt()).ln()


def filler_core_chart(depth: float, alpha: float, rho, digits: int = 80) -> tuple:
    """(g_theta, g_zz, g_theta / rho^2 - 1, g_zz exp(2 f(L+1)) - 1) of the
    core chart of the filler of depth L whose boundary lattice has first
    generator (alpha, 0), at radius rho on eta's linear tail, as Decimals
    at ``digits`` digits.

    Evaluated from the recipe's formulas, not from the library: the
    ramp f(t) = 1 + 2s - (t - 1 + 2s) exp(-(t - 1)/s) (s = 3/4),
    g_zz = exp(-2 f(L+1-rho)), the tail eta(1 - rho) = K rho with
    K = 2 pi exp(f(L+1)) / alpha, and
    g_theta = g_zz eta(1 - rho)^2 alpha^2 / (4 pi^2).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        s = Decimal(3) / 4
        L, rho, alpha = Decimal(depth), Decimal(rho), Decimal(alpha)

        def f(t):
            x = t - 1
            return 1 + 2 * s - (x + 2 * s) * (-x / s).exp()

        pi = _decimal_pi()
        f_core = f(L + 1)
        K = 2 * pi * f_core.exp() / alpha
        g_zz = (-2 * f(L + 1 - rho)).exp()
        g_theta = g_zz * (K * rho) ** 2 * alpha**2 / (4 * pi**2)
        return g_theta, g_zz, g_theta / rho**2 - 1, g_zz * (2 * f_core).exp() - 1
