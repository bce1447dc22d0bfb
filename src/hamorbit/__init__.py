"""Variational solver for fixed-energy periodic orbits of q'' + grad V(q) = 0.

Workflow: describe the problem (potential, dimension, energy level, symmetry
class) as a :class:`ProblemSpec`, find a positive critical point of the loop
functional either by constrained minimization or by the mountain-pass path
deformation, then :func:`synthesize` the physical orbit and check its
residuals.
"""

import types as _types

from .errors import (
    BadIndexError,
    BaseThroughOriginError,
    BlowupError,
    DomainError,
    EndpointGrowthError,
    ExpressionParseError,
    HamorbitError,
    NoBracketError,
    NonpositiveActionError,
    OddNodeCountError,
    OrbitFileError,
    PathCollapseError,
    ZeroLoopError,
)
from .functional import (
    CpsRecord,
    ProblemSpec,
    action,
    action_gradient,
    constraint_distance,
    constraint_gradient,
    constraint_value,
    cps_append,
    scaling_root,
)
from .loopspace import (
    LoopPath,
    circle_loop,
    dirichlet_energy,
    h1_norm,
    integrate,
    project_symmetric,
    random_loop,
    resample,
    sobolev_precondition,
    speed,
    zero_loop,
)
from .orbit import (OrbitResult, closure_gap, orbit_period, orbit_residuals, synthesize,
                    verify_orbit)
from .potentials import (
    ExpressionPotential,
    HypothesisReport,
    PotentialModel,
    PowerLawPotential,
    SamplerConfig,
    check_hypotheses,
    hessian_ray,
    parse_potential,
)
from .solvers import (
    SolveOptions,
    SolveReport,
    build_endpoint,
    make_initial_loop,
    minimize_on_nehari,
    mountain_pass,
    separation_check,
)

__version__ = "0.1.0"

# Everything imported above, but not the submodules themselves.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _types.ModuleType))
