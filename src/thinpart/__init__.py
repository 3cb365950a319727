"""Numerical geometry of hyperbolic thin parts.

Modules cover flat-torus lattices (`flat_torus`), Margulis-tube and cusp
geometry (`tube_geometry`), warped product metrics with their comparison
constants (`warped_metric`), the minimal-graph variational problem
(`minimal_graph`), solid-torus fillers (`filler`), explicit area bounds
(`area_bounds`), discrete sweep-out machinery (`sweepout`), and a CLI
(`cli`).
"""

from .errors import DomainError, SolveError
from .fields import Field1D
from .flat_torus import (FlatTorusLattice, diameter, reduce_basis, reduced_invariants,
                         systole)
from .tube_geometry import (
    ELL_MAX,
    CuspParams,
    TubeParams,
    boundary_lattice,
    cusp_as_warped,
    meyerhoff_radius,
    slice_area,
    slice_mean_curvature,
    tube_as_warped,
)
from .warped_metric import (
    HypothesisReport,
    WarpedMetricSpec,
    blowup_rescale,
    check_hypotheses,
    level_torus_mean_curvature,
    n_p,
)
from .filler import FillerSpec, area_lower_bound
from .filler import build as build_filler
from .filler import verify as verify_filler
from .area_bounds import (
    MARGULIS_EPSILON_LOWER,
    BandEstimate,
    annulus_band_bound,
    crossing_lower_bound,
    margulis_area_bound,
    parallel_disk_area,
    projection_contraction_check,
)
from .sweepout import (
    DiscreteFamily,
    FormalCurrent,
    GridVertex,
    SweepoutProfile,
    fineness,
    grid_distance,
    interpolate_patches,
    max_mass,
    profile,
    project_vertex,
)

__version__ = "0.1.0"

# The minimal-graph solver loads scipy.sparse, which most commands never
# use; its public names are looked up on first use (PEP 562).
_MINIMAL_GRAPH_NAMES = frozenset({
    "DiscreteGraph",
    "GraphBoundsParams",
    "area",
    "el_residual",
    "first_variation",
    "graph_mean_curvature",
    "rescale_graph",
    "solve",
})


def __getattr__(name):
    if name in _MINIMAL_GRAPH_NAMES:
        from . import minimal_graph

        return getattr(minimal_graph, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DomainError",
    "SolveError",
    "Field1D",
    "FlatTorusLattice",
    "reduce_basis",
    "reduced_invariants",
    "systole",
    "diameter",
    "ELL_MAX",
    "TubeParams",
    "CuspParams",
    "meyerhoff_radius",
    "slice_area",
    "slice_mean_curvature",
    "boundary_lattice",
    "tube_as_warped",
    "cusp_as_warped",
    "WarpedMetricSpec",
    "HypothesisReport",
    "check_hypotheses",
    "blowup_rescale",
    "level_torus_mean_curvature",
    "n_p",
    "DiscreteGraph",
    "GraphBoundsParams",
    "area",
    "el_residual",
    "first_variation",
    "graph_mean_curvature",
    "rescale_graph",
    "solve",
    "FillerSpec",
    "build_filler",
    "verify_filler",
    "area_lower_bound",
    "MARGULIS_EPSILON_LOWER",
    "BandEstimate",
    "parallel_disk_area",
    "projection_contraction_check",
    "annulus_band_bound",
    "crossing_lower_bound",
    "margulis_area_bound",
    "FormalCurrent",
    "DiscreteFamily",
    "GridVertex",
    "SweepoutProfile",
    "grid_distance",
    "project_vertex",
    "fineness",
    "interpolate_patches",
    "profile",
    "max_mass",
]
