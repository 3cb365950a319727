"""Property tests of the discrete area: the cusp's isometry and the first
variation's pairing with the Euler-Lagrange residual.

The cusp metric exp(-2t) dsigma^2 + dt^2 is invariant under
(x1, x2, t) -> (2 x1, 2 x2, t + ln 2).  On a grid this maps a graph u on
an extent to u + ln 2 on the doubled extent, with the same node count:
the spacings double exactly, and so the slopes halve exactly when the
shifted differences are the old ones.  They are when every u lies on the
2^-40 lattice and every u + ln 2 in [1, 2): then each sum rounds by the
same amount, and u + ln 2 - u is one float for every node.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpart.flat_torus import FlatTorusLattice
from thinpart.minimal_graph import DiscreteGraph, area, el_residual, first_variation, solve
from thinpart.tube_geometry import CuspParams, TubeParams, cusp_as_warped, tube_as_warped
from thinpart.warped_metric import WarpedMetricSpec

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)
UNIT = FlatTorusLattice.unit_square()
CUSP = cusp_as_warped(CuspParams(UNIT, 0.0, 3.0))
LN2 = math.log(2.0)


@st.composite
def cusp_graphs(draw):
    """A smooth graph with values in [1 - ln 2, 2 - ln 2), on the 2^-40
    lattice: a mean plus an affine part and two modes, at most 0.45."""
    shape = (draw(st.integers(4, 33)), draw(st.integers(4, 33)))
    e1, e2 = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    c *= 0.45 / max(1.0, float(np.sum(np.abs(c))))

    def u(x, y):
        x, y = x / e1, y / e2
        return (1.5 - LN2 + c[0] * x + c[1] * y + c[2] * np.cos(np.pi * x)
                + c[3] * np.sin(np.pi * k1 * x) * np.sin(np.pi * k2 * y))

    g = DiscreteGraph.on_rectangle((e1, e2), shape, u)
    g.values = np.ldexp(np.round(np.ldexp(g.values, 40)), -40)
    return g


def _shifted(g):
    """u + ln 2 on the doubled extent, with the same nodes."""
    return DiscreteGraph(g.values + LN2, (2.0 * g.spacing[0], 2.0 * g.spacing[1]))


@PROPERTY
@given(cusp_graphs())
def test_the_cusp_isometry_keeps_the_discrete_area(g):
    big = _shifted(g)
    shift = big.values - g.values
    assert np.all(shift == shift.flat[0])
    assert abs(area(CUSP, big) / area(CUSP, g) - 1.0) <= 1e-15


def test_the_cusp_isometry_keeps_the_solved_graph():
    # The ladder data on the unit square at 33^2, and the same data plus
    # ln 2 on the doubled square: the same steps, and the same graph
    # after subtracting ln 2.
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (33, 33), lambda x, y: (
        1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x))
    out, report = solve(CUSP, g, tol=1e-10)
    big, big_report = solve(CUSP, _shifted(g), tol=1e-10)
    assert report.converged and big_report.converged
    assert big_report.linear_solvers == report.linear_solvers
    assert np.max(np.abs(big.values - LN2 - out.values)) <= 1e-14
    assert abs(area(CUSP, big) / area(CUSP, out) - 1.0) <= 1e-15


@st.composite
def variations(draw):
    """(spec, graph, v): a flat, cusp or tube spec, a smooth graph in its
    range on a Dirichlet square or a periodic torus (not for the tube), and
    a random variation vanishing on the Dirichlet ring."""
    kind = draw(st.sampled_from(("flat", "cusp", "tube")))
    spec = {"flat": lambda: WarpedMetricSpec.flat(UNIT, -5.0, 5.0),
            "cusp": lambda: CUSP,
            "tube": lambda: tube_as_warped(TubeParams(1e-5, 0.3, 5.0))}[kind]()
    mid, amp = 0.5 * (spec.x3_min + spec.x3_max), 0.1 * (spec.x3_max - spec.x3_min)
    n = draw(st.integers(5, 24))
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind != "tube" and draw(st.booleans()):
        lattice = FlatTorusLattice(1.0, 0.0, 1.2)
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        g = DiscreteGraph.on_torus(lattice, (n, n), lambda x, y: mid + amp * np.sin(
            2 * np.pi * k1 * x / lattice.a1 + phase) * np.cos(2 * np.pi * k2 * y / lattice.b2))
        v = rng.standard_normal((n, n))
    else:
        g = DiscreteGraph.on_rectangle((1.0, 1.0), (n, n), lambda x, y: mid + amp * np.sin(
            np.pi * k1 * x) * np.sin(np.pi * k2 * y))
        v = np.zeros((n, n))
        v[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
    return spec, g, v / np.max(np.abs(v))


@PROPERTY
@given(variations())
def test_the_first_variation_is_the_residual_pairing(drawn):
    # Criterion 3's identity and tolerance: the first variation contracts
    # dW with v's centroid values, the residual scatters dW to the nodes.
    spec, g, v = drawn
    fv = first_variation(spec, g, v)
    residual = el_residual(spec, g)
    pairing = -float(np.sum(residual * v[g.free_slices()])) * g.spacing[0] * g.spacing[1]
    assert abs(fv - pairing) <= 1e-11 * (1.0 + abs(fv))
