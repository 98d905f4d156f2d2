"""Characteristic classes of singular hypersurfaces in projective space.

From a defining homogeneous polynomial this package computes, in exact
arithmetic: the Segre class of the singular scheme, the
Chern-Schwartz-MacPherson class, the Fulton class, the mu-class, the
total Milnor number and the Euler characteristic.  The paper's other
formulations of the CSM class are exported for comparison, and an
affine Milnor oracle can cross-check a report.
"""

from .charclasses import (
    ClassReport,
    HypersurfaceInput,
    build_report,
    classes_from_segre,
    csm,
    csm_normal_crossings,
    csm_smooth_singularity,
    csm_via_mu,
    csm_via_thickening,
    euler_characteristic,
    fulton,
    milnor_total,
    mu_class,
    segre_singular_nc,
    segre_thickened,
    segre_x,
)
from .chow import ChowClass, chern_tangent_pn
from .errors import CsmhypError, PolynomialParseError, RandomnessError
from .groebner import IdealBasis, buchberger, dim_degree, normal_form, saturate
from .oracles import (
    FixtureCase,
    affine_milnor_total,
    default_fixtures,
    load_fixtures,
    segre_linear_subspace,
    smooth_chern_class,
)
from .poly import (
    Polynomial,
    PrimeField,
    QQ,
    parse_poly,
    random_linear_combination,
    reduce_mod_p,
)
from .segre import (
    ProjectiveDegrees,
    SingularSchemeData,
    TrialPolicy,
    jacobian_scheme,
    projective_degrees,
    segre_from_degrees,
    segre_singular_scheme,
)

__version__ = "0.1.0"
