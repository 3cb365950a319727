"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the library's own computational paths:
lattice quantities come from coefficient enumeration and grid search, areas
from quadrature, derivatives from finite differences.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
    a1p = np.asarray(spec.a1.d1(u), dtype=float)
    a2p = np.asarray(spec.a2.d1(u), dtype=float)
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
        derivs = (spec.warping.d1(x3), spec.warping.d2(x3), spec.warping.d3(x3))
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
