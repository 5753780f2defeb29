"""Floating-point laboratory for moment maps and gradient flows.

Everything in this subpackage works in ordinary double precision, in
contrast to the exact rational machinery of the surrounding package.  It
provides unitary Lie algebra representations, the three moment maps on
the cotangent phase space, negative-gradient-flow integration with
monotone-decrease step control, decay-rate estimation for the gradient
norm, limit classification against the exact critical data, and the
cross-term experiment for nonabelian groups.  The package exports what
the commands run; the rest is read from its modules.
"""

from .reps import from_matrices
from .analysis import cross_term_stats, run_ensemble

__all__ = ["cross_term_stats", "from_matrices", "run_ensemble"]
