"""Floating-point laboratory for moment maps and gradient flows.

Everything in this subpackage works in ordinary double precision, in
contrast to the exact rational machinery of the surrounding package.  It
provides unitary Lie algebra representations, the three moment maps on
the cotangent phase space, negative-gradient-flow integration with
monotone-decrease step control, decay-rate estimation for the gradient
norm, limit classification against the exact critical data, and the
cross-term experiment for nonabelian groups.
"""

from .reps import GroupRep, TorusRep, from_matrices, torus_rep
from .moments import pack_state, unpack_state
from .flow import (STATUS_CONVERGED, STATUS_MAX_TIME, STATUS_UNDERFLOW, Trajectory,
                   descend)
from .analysis import LojReport, cross_term_stats, run_ensemble, tail_reports

__all__ = [
    "GroupRep", "TorusRep", "from_matrices", "torus_rep",
    "pack_state", "unpack_state",
    "STATUS_CONVERGED", "STATUS_MAX_TIME", "STATUS_UNDERFLOW", "Trajectory", "descend",
    "LojReport", "cross_term_stats", "run_ensemble", "tail_reports",
]
