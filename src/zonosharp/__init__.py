"""Exact set computation with hybrid zonotopes.

A hybrid zonotope is an affine image of the product of a continuous factor
box and a binary factor cube, subject to linear equality constraints on the
factors.  This package provides:

- the core representation with two interchangeable factor forms,
- sharpness-preserving set operations (Minkowski sum, affine map, Cartesian
  product, generalized/halfspace intersection, unions),
- the reformulation-linearization lift that re-represents a set so its
  convex relaxation tightens level by level down to the exact convex hull,
- LP-backed oracles (support, membership, emptiness, empirical sharpness,
  2D boundary/area) on a self-contained bounded-variable simplex, and
- an exact hybrid-zonotope encoding of ReLU network graphs and level sets.
"""

from .core import (
    AnySet,
    ComplexityTuple,
    ConstrainedZonotope,
    DEFAULT_LEAF_CAP,
    FactorForm,
    HybridZonotope,
    binary_assignments,
    box,
    complexity,
    convert_form,
    interval,
    leaf_of,
    leaves,
    point,
    read_set,
    set_from_obj,
    set_to_obj,
    write_set,
)
from .errors import (
    DimensionMismatch,
    EmptyInterval,
    EmptyList,
    EmptySet,
    EnumerationCapExceeded,
    FormMismatch,
    LevelOutOfRange,
    NumericalFailure,
    OverlappingIndexSets,
    ZonoSharpError,
)
from .algebra import (
    affine_map,
    cartesian_product,
    convex_relaxation,
    generalized_intersection,
    halfspace_intersection,
    minkowski_sum,
    union,
    union_with_point,
)
from .oracle import (
    LinearProgram,
    LpResult,
    LpStatus,
    SharpnessReport,
    SharpnessVerdict,
    area_2d,
    boundary_2d,
    check_sharpness,
    contains,
    direction_set,
    is_empty,
    polygon_area,
    solve_lp,
    support,
    support_point,
)
from .rlt import (
    IndexSet,
    build_xd,
    f_coefficients,
    rlt_complexity,
    rlt_convex_hull,
    rlt_report,
    rlt_sharpen,
)
from .sparse import SparseMatrix
from .relugraph import (
    ReluNetwork,
    demo_network,
    level_set_above,
    network_from_obj,
    network_graph,
    preactivation_bounds,
    read_network,
    relu_graph_1d,
    write_network,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
