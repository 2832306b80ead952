"""Numerical invariance checking for Ito diffusions on smooth domains.

The package decides, numerically, whether an SDE leaves a compact smooth
domain invariant: boundary sufficient conditions over an eps sweep, a direct
sign probe of the generator applied to a smoothed indicator on the boundary
shell, and Euler-Maruyama exit-probability estimation as a cross-check.
"""

from .errors import (
    ConfigError,
    DegenerateGradient,
    ImmediateExit,
    NoConvergence,
    NonFinite,
    NumericalError,
    ToleranceNotMet,
    ViabilityError,
)
from .geometry import (
    ImplicitDomain,
    ball,
    ellipsoid,
    even_p_norm_ball,
    offset_membership,
    outward_normal,
    project_to_boundary,
    project_to_boundary_batch,
    sample_offset_boundary,
    signed_level,
)
from .mollifier import (
    MollifierSpec,
    SmoothedIndicator,
    eta,
    eta_gradient,
    eta_with_derivatives,
    expected_eta,
    make_spec,
    normalization_constant,
    omega,
    omega_gradient,
    omega_hessian,
)
from .sde_model import (
    RegularityReport,
    SdeModel,
    brownian,
    check_regularity,
    diffusion_jacobian,
    linear,
    ou_inward,
    outward,
    rotational,
    sigma,
)
from .theorem_checker import (
    CheckerConfig,
    ConditionReport,
    condition2_profile,
    condition2_verdict,
    condition3_profile,
    condition3_value,
    condition3_verdict,
    theorem1_report,
)
from .generator_probe import (
    ShellProbeResult,
    apply_generator,
    lemma1_gap,
    shell_sign_check,
    statement5_gap,
)
from .mc_simulator import (
    ExitEstimate,
    dt_convergence_study,
    exit_probability,
    wilson_interval,
)

__version__ = "0.1.0"
