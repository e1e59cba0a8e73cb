"""stratacert: exact positivity certificates for the boundary coefficients
of the perturbed canonical class on minimal even-spin strata.

The package enumerates two-level enhanced boundary graphs, computes the
divisor-class coefficients appearing in the convex combination of the
scaled canonical class with the extra-vanishing Weierstrass and
Brill--Noether / Hurwitz classes, and certifies strict positivity of the
boundary coefficients in exact rational arithmetic.
"""

from .certify import (
    BOUNDS_CONFLICT,
    BRILL_NOETHER,
    CERTIFIED,
    HURWITZ,
    INFEASIBLE,
    CertRequest,
    Certificate,
    SixCoefficients,
    certify_coarse,
    certify_exact,
    certify_exact_streaming,
    coarse_bounds,
    recipe_y,
    resolve_effdiv,
    s_gamma_affine,
    s_hor_affine,
    scan,
    six_coefficients,
    y_hor,
)
from .classes import (
    ClassContext,
    DivisorClass,
    bn_class,
    d_nc_class,
    gen_weierstrass_class,
    hur_class,
    kappa_mu,
    reduce_class,
    scaled_canonical_class,
    theta,
    twist_improvement_bound,
    wplus_class,
    wplus_w_hor,
    wplus_w_lambda,
)
from .exactq import (
    AffineInY,
    RationalInterval,
    affine_positivity_interval,
    lcm_list,
    rational_str,
)
from .graphs import (
    EDB,
    NCT,
    OCT,
    RBT,
    GraphInvariants,
    LevelGraph,
    TopVertex,
    atlas_count,
    atlas_unrank,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    parse_canonical_encoding,
    sample_atlas,
    validate,
    write_atlas,
)
from .linseries import (
    COMPATIBLE,
    INCOMPATIBLE,
    REFINED,
    VanishingSequence,
    canonical_vanishing_orders,
    complementary_sequence,
    is_compatible,
    k_saturated_check,
)
from .pullback import (
    GAMMA1,
    PullbackReport,
    gamma1_graph,
    image_correspondence,
    saturated_alpha,
    surgery_up,
    wplus_derivation_check,
    zeta_pull_class,
    zeta_pull_graph,
)

__version__ = "1.0.0"
