"""Exact-arithmetic feasibility checker for finite homogeneous geometry parameters."""

__version__ = "0.1.0"

from .exact_arith import (  # noqa: E402,F401
    UniPoly,
    Positivity,
    PositivityCertificate,
    eventually_positive,
    is_perfect_square,
    isqrt_floor,
)
from .parameters import (  # noqa: F401
    Condition,
    FlatProfile,
    ModelScopeError,
    ParamSystem,
    classify_condition,
    condition_alpha,
    s2_from,
)
from .bounds import (  # noqa: F401
    ThresholdReport,
    alpha_route_cap,
    alpha_route_sweep,
    beta_route_cap,
    beta_route_sweep,
    first_r_exceeding,
    phi_of,
    psi_of,
    spectral_identities,
    theta_of,
)
from .localization import (  # noqa: F401
    CaseInstanceVerdict,
    CaseLabel,
    CaseRangeError,
    ExternalCaseError,
    eliminate_case_instance,
    known_square_args,
    obstruction_value,
    point_localize,
)
from .obstructions import (  # noqa: F401
    Impossibility,
    NoSquareCertificate,
    SquareObstruction,
    catalog,
    certify_no_square,
    factor_equation,
    sieve,
    sieve_naive,
    verify_identity,
)
from .geometries import (  # noqa: F401
    Geometry,
    GeometryKind,
    HomogeneityError,
    ModelMismatchError,
    PrimeField,
    UnsupportedFieldError,
    alpha_from_profile,
    build_affine,
    build_projective,
    check_closure_axioms,
    flat_profile,
    localize_at_point,
)
from .pipeline import (  # noqa: F401
    EliminationVerdict,
    Report,
    TransitionGraph,
    Verdict,
    eliminate,
    exceptional_min_dim,
    longest_condition_chain,
    normalize_disabled,
    required_dimension,
    search,
    standard_graph,
)
from .verify import verify_all  # noqa: F401
