"""Floating-point laboratory for moment maps and gradient flows.

Everything in this subpackage works in ordinary double precision, in
contrast to the exact rational machinery of the surrounding package.  It
provides unitary Lie algebra representations, the three moment maps on
the cotangent phase space, negative-gradient-flow integration with
monotone-decrease step control, decay-rate estimation for the gradient
norm, limit classification against the exact critical data, and the
cross-term experiment for nonabelian groups.
"""

from .reps import (
    GroupRep,
    TorusRep,
    diagonal_sum,
    from_matrices,
    random_state,
    su2_irrep,
    torus_rep,
)
from .moments import (
    abelian_gradient_norm2,
    energy,
    grad,
    grad_component,
    moment_hk,
    pack_state,
    unpack_state,
)
from .flow import (
    STATUS_CONVERGED,
    STATUS_MAX_TIME,
    STATUS_UNDERFLOW,
    Trajectory,
    descend,
    integrate_flow,
)
from .analysis import (
    LojReport,
    classify_limit,
    cross_term_stats,
    lojasiewicz_report,
    run_ensemble,
    torus_reduction_check,
)

__all__ = [
    "GroupRep",
    "TorusRep",
    "diagonal_sum",
    "from_matrices",
    "random_state",
    "su2_irrep",
    "torus_rep",
    "abelian_gradient_norm2",
    "energy",
    "grad",
    "grad_component",
    "moment_hk",
    "pack_state",
    "unpack_state",
    "STATUS_CONVERGED",
    "STATUS_MAX_TIME",
    "STATUS_UNDERFLOW",
    "Trajectory",
    "descend",
    "integrate_flow",
    "LojReport",
    "classify_limit",
    "cross_term_stats",
    "lojasiewicz_report",
    "run_ensemble",
    "torus_reduction_check",
]
