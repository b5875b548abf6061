"""regpos: regular positions of convex bodies and Monte Carlo experiments
on random sections.

Convex bodies are norm oracles (gauge, support, subgradient) over exact
closed-form families; positions are determinant-one linear images.  The
package computes the ell-position by sample-average approximation, the
alpha-regular typical position as the closed-form fixed point of the
ell-position map of interpolated bodies, and drives desk-scale Monte Carlo
checks of random section regularity and the random quotient-of-subspace
phenomenon.
"""

from .bodies import (
    ConvexBody,
    WeightedLp,
    Ellipsoid,
    PolytopeH,
    PolytopeV,
    LinearImage,
    DegenerateBodyError,
    ball,
    cube,
    cross_polytope,
    from_spec,
    linear_image,
)
from .gaussian import EllEstimate, FixedSample, GaussianSample, ell, ell_star, mstar
from .interpolation import interpolate, phi, property_suite, theta_of_alpha
from .positions import EllPositionResult, PositionMap, balance_scale, ell_product, solve_ell_position
from .regular import (
    FixedPointResult,
    GelfandEstimate,
    RegularityReport,
    find_regular_position,
    fixed_point_map,
    random_gelfand,
    regularity_report,
)
from .subspaces import (
    SectionBody,
    Subspace,
    geometric_distance_to_ball,
    haar_grassmannian,
    in_radius,
    out_radius,
    perp_identity_check,
    project,
    section,
)

__version__ = "0.1.0"
