"""Projective iterated function systems on RP^1."""

from .attractor import (
    DimensionEstimate,
    PointCloud,
    SeparationReport,
    attractor_points_fixedpoint,
    attractor_points_orbit,
    box_dimension,
    hausdorff_circle,
    invariance_residual,
    repeller_points_fixedpoint,
    repeller_points_orbit,
    separation_report,
)
from .cones import (
    AlmostMultConstant,
    ConeSearchResult,
    GrowthEstimate,
    Multicone,
    SDCertificate,
    SDStatus,
    UHCertificate,
    UHStatus,
    almost_mult_constant,
    certify_semidiscrete,
    certify_uniform_hyperbolicity,
    containment_margin,
    empirical_almost_mult,
    find_invariant_multicone,
    multicone_gap,
    verify_almost_mult,
)
from .config import (
    AffineEntry,
    FamilyConfig,
    emit_config,
    parse_config,
    parse_config_text,
    parse_family,
    parse_family_text,
    write_config,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    ConfigError,
    DegenerateDirectionsError,
    DegenerateMatrixError,
    InfiniteOrderEllipticError,
    NonConvergenceError,
    NotReducibleError,
    PivotNotFoundError,
    ProjIFSError,
)
from .furstenberg import (
    SupportReport,
    sample_stationary,
    stationarity_residual,
    support_dimension_report,
)
from .geometry import (
    NORM_KINDS,
    FixedPointData,
    Matrix2,
    MatrixClass,
    ccw_span,
    circ_dist,
    classify,
    fixed_points,
    op_norm,
    proj_act,
    proj_deriv,
    singular_directions,
)
from .semigroup import (
    DiophantineProfile,
    DiscretenessProfile,
    ProductTable,
    SystemConfig,
    common_fixed_points,
    diophantine_profile,
    discreteness_profile,
    left_invariant_dist,
    word_product,
)
from .spectral import (
    Bracket,
    PressureEval,
    QuickBound,
    ZetaValues,
    critical_exponent_bracket,
    partial_zeta,
    pressure_bracket,
    quick_lower_bounds,
)
from .subsystems import (
    GammaLowerBound,
    Pivot,
    ReducibleVerdict,
    elliptic_reduction,
    find_pivot,
    gamma_lower_bound,
    pivot_margins,
    projective_order,
    reducible_dimension,
)
from .svgplot import attractor_svg, line_plot_svg

__version__ = "0.1.0"
