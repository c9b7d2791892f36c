"""Bilevel sweeping-process control for disk-confined crowd groups."""

from .geometry import (
    Disk,
    contact_jacobian,
    project_to_disk,
    sigma_support,
)
from .dynamics import (
    AffineDrift,
    BallSet,
    ControlProfile,
    FeasibilityReport,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    check_feasibility,
    cost_lower,
    cost_upper,
    h5_bounds,
    integrate_lower_catchup,
    integrate_lower_penalty,
    integrate_upper,
    uniform_grid,
)
from .bilevel import (
    BilevelSolution,
    CaseStudyParams,
    InnerOptions,
    closed_form_controls,
    solve_bilevel_direct,
    solve_twodisk_parametric,
    value_function,
)
from .nco import (
    LowerMultipliers,
    NCOReport,
    UpperMultipliers,
    adjoint_residual,
    boundary_residual,
    fit_multipliers,
    max_condition_lower,
    max_condition_upper,
    verify,
)

__version__ = "0.1.0"
