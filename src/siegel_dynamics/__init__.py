"""Iteration of holomorphic self-maps of the unit ball and Siegel domain.

Submodules: geometry (metrics, Cayley transform, automorphisms), maps
(evaluable self-map families), dynamics (orbits, multipliers, quantitative
checks), conjugation (linear models at repelling boundary points),
serialize (JSON/CSV), cli (command-line front end).
"""

from .policy import DEFAULT_POLICY, NumericPolicy
from .errors import (
    ConstructionFailed,
    DimensionMismatch,
    InvalidDescriptor,
    InvalidPoint,
    ModelMismatch,
    NoBackwardStep,
    OrbitTooShort,
    SiegelDynamicsError,
)
from .geometry import (
    BallPoint,
    BoundaryPoint,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
    cayley_to_siegel,
    defect,
    dist_ball,
    dist_siegel,
    invert_automorphism,
    boundary_projection,
    siegel_to_ball,
)
from .maps import (
    BallProduct,
    BlaschkeDeg2,
    ClassificationReport,
    Conjugated,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneAffine,
    HalfPlaneLinear,
    Lifted,
    QuadraticSiegel,
    classify_quadratic,
    evaluate,
    expandable_decompose,
    quadratic_iterate_closed,
)
from .dynamics import (
    BackwardOrbit,
    ForwardOrbit,
    backward_orbit,
    backward_step,
    elliptic_growth_constant,
    forward_orbit,
    julia_inclusion_check,
    multiplier_at_boundary,
    orbit_asymptotics,
    verify_defect_decay,
)
from .conjugation import (
    ConjugationRun,
    build_tau,
    conjugation_residual,
    psi_approx,
    psi_interpolation_check,
    run_conjugation,
    special_backward_construct,
)

__version__ = "0.1.0"
