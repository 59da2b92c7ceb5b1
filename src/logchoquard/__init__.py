"""Variational solver for the planar logarithmic Choquard equation.

Finds critical points of Phi(u) = q_a(u)/2 + V0(u)/4 on a truncated grid,
where q_a is the Dirichlet-plus-potential quadratic form and V0 the
log-kernel convolution quartic, by constrained descent on the Nehari set
{q_a + V0 = 0, V0 < 0} in a barycenter-recentered metric.
"""

from .barycenter import barycenter_work, beta
from .errors import (
    DESCENT_ERRORS,
    AdmissibilityError,
    BarycenterUndefinedError,
    ChoquardError,
    ConfigError,
    DegenerateNehariError,
    FieldDataError,
    GridMismatchError,
    GridResolutionError,
    GroundStateError,
    LineSearchError,
    OutsideScalingRegionError,
    RieszSolveError,
    StartFamilyError,
)
from .field import (
    Field,
    Grid,
    NormReport,
    bump_field,
    gaussian_field,
    grad_norm_sq,
    load_field,
    lp_norm,
    norms,
    save_field,
    shift_cells,
    star_norm_sq,
)
from .functionals import (
    EnergyBreakdown,
    NehariClass,
    Potential,
    cerami_weight,
    classify,
    const_potential,
    cos2d_potential,
    energy,
    fiber,
    hessian_product,
    in_nzero,
    make_potential,
    nehari_project,
    nehari_scale,
    phi_prime,
    q_a_bilinear,
    radial_well_potential,
    residual_field,
)
from .logkernel import (
    KernelTable,
    b_form,
    direct_oracle,
    log_potential,
    make_kernel_table,
    origin_cell_log_mean,
    padded_convolve,
)
from .metric import (
    MetricContext,
    inner_u,
    metric_context,
    metric_context_at,
    norm_u,
    riesz_gradient,
    solve_metric_system,
)
from .solver import (
    SolveConfig,
    SolveResult,
    StartFamily,
    descend,
    ground_state,
    make_bump_family,
    multistart_search,
)
from .symmetry import (
    GroupAction,
    InvarianceCertificate,
    check_admissible,
    glide_reflection,
    is_invariant,
    lattice_translation,
    orbit_distance,
    point_images,
    project_invariant,
    radial_average,
    rotation_zeta,
    trivial_action,
)

__version__ = "0.1.0"
