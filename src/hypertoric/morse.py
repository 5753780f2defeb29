"""Critical structure of the moment-map energy and the induced recursion.

Each flat J of the weight configuration carries one critical manifold of the
energy |mu_C - beta|^2: its Morse index is twice the number of rows outside
J, its value is the squared length of the beta-residual, and its local data
is the sub-configuration on J.  Summing the downward contributions over all
flats telescopes to the constant 1, which pins down the Poincare polynomial
by exact division -- no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonGenericAlpha, PartitionViolation, RankDeficient
from .exact import ONE_MINUS_Q, PoincarePoly, RatMatrix, poly_divide_exact, rank
from .flats import enumerate_flats, flat_rank, proper_flats
from .torus import (
    TorusSetup,
    enlarged_weights,
    extended_weights,
    metric_of,
    norm2_dual,
    pairing,
    require_generic_beta,
    require_new_circle,
    residual_alpha,
    residual_beta,
    restrict_weights,
)


@dataclass(frozen=True)
class CriticalComponent:
    flat: tuple
    rank: int
    index: int        # Morse index: 2 * (rows outside the flat)
    level: Fraction   # exact energy value |beta_residual|^2
    residual: tuple   # beta minus its projection onto the flat span


def critical_components(setup: TorusSetup) -> tuple:
    """All critical manifolds, one per flat, in (size, lex) flat order."""
    require_generic_beta(setup)
    metric = metric_of(setup.weights)
    out = []
    for f in enumerate_flats(setup.weights):
        res = residual_beta(setup, f)
        out.append(CriticalComponent(
            flat=f,
            rank=flat_rank(setup.weights, f),
            index=2 * (setup.n - len(f)),
            level=norm2_dual(metric, res),
            residual=res,
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# Poincare polynomial by downward induction over flats
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def poincare_morse(weights) -> PoincarePoly:
    """Poincare polynomial in q = t^2 of the quotient for these weights.

    The contributions of all critical manifolds sum to 1; isolating the top
    flat leaves (1-q)^d * P equal to 1 minus the proper-flat terms, and the
    division is exact whenever the weights have full column rank.
    """
    n = len(weights)
    d = len(weights[0]) if weights else 0
    if n and d and rank(RatMatrix(weights)) != d:
        raise RankDeficient("weights must have full column rank")
    acc = PoincarePoly.one()
    for f in proper_flats(weights):
        sub = restrict_weights(weights, f)
        term = (PoincarePoly.monomial(n - len(f))
                * ONE_MINUS_Q ** flat_rank(weights, f)
                * poincare_morse(sub))
        acc = acc - term
    return poly_divide_exact(acc, ONE_MINUS_Q ** d)


def perfection_sum(weights) -> PoincarePoly:
    """Sum of q^{n-|J|} (1-q)^{rank J} P(sub_J) over all flats.

    Equals the constant polynomial 1; exposed so tests can assert it.
    """
    n = len(weights)
    total = PoincarePoly.zero()
    for f in enumerate_flats(weights):
        sub = restrict_weights(weights, f)
        total = total + (PoincarePoly.monomial(n - len(f))
                         * ONE_MINUS_Q ** flat_rank(weights, f)
                         * poincare_morse(sub))
    return total


# ---------------------------------------------------------------------------
# Flow directions off a critical manifold
# ---------------------------------------------------------------------------


def sign_split(setup: TorusSetup, flat) -> tuple:
    """Partition rows outside the flat by the sign of their alpha pairing.

    The sign decides whether the circle-equivariant Euler factor for that
    row is the bare weight or its reflection through the equivariant class.
    """
    metric = metric_of(setup.weights)
    res = residual_alpha(setup, flat)
    plus, minus = [], []
    for i in range(setup.n):
        if i in flat:
            continue
        p = pairing(metric, res, setup.weights[i])
        if p > 0:
            plus.append(i)
        elif p < 0:
            minus.append(i)
        else:
            raise NonGenericAlpha(("pairing", tuple(flat), i))
    return tuple(plus), tuple(minus)


# ---------------------------------------------------------------------------
# Modification along a circle: recursion and case analysis
# ---------------------------------------------------------------------------


def modification_recurrence(weights, circle):
    """Poincare polynomials (base, enlarged, extended) plus the identity check.

    Extending by a circle adds one coordinate whose flat structure interleaves
    the base and enlarged ones, giving P_ext = P_base + q * P_enl.
    """
    weights = tuple(tuple(r) for r in weights)
    circle = require_new_circle(weights, circle)
    p_base = poincare_morse(weights)
    p_enl = poincare_morse(enlarged_weights(weights, circle))
    p_ext = poincare_morse(extended_weights(weights, circle))
    ok = p_ext == p_base + PoincarePoly.monomial(1) * p_enl
    return p_base, p_enl, p_ext, ok


@dataclass(frozen=True)
class ModificationCases:
    new_only: tuple        # enlarged flats that are extended flats but not base flats
    shared_both: tuple     # base flats staying flats with and without the new row
    shared_extended: tuple # base flats that stay flats only with the new row added


def modification_cases(weights, circle) -> ModificationCases:
    """Classify enlarged-configuration flats into the three recursion cases.

    Every enlarged flat must land in exactly one case, and together the cases
    must cover each extended flat and each base flat exactly once; any
    violation is raised rather than papered over.
    """
    weights = tuple(tuple(r) for r in weights)
    circle = require_new_circle(weights, circle)
    n = len(weights)
    enl = enlarged_weights(weights, circle)
    ext = extended_weights(weights, circle)
    base_flats = set(enumerate_flats(weights))
    ext_flats = set(enumerate_flats(ext))
    cases = {1: [], 2: [], 3: []}
    ext_cover = {f: 0 for f in ext_flats}
    base_cover = {f: 0 for f in base_flats}
    for f in enumerate_flats(enl):
        with_new = tuple(sorted(f + (n,)))
        in_base = f in base_flats
        in_ext = f in ext_flats
        ext_in_ext = with_new in ext_flats
        if not in_base and in_ext and not ext_in_ext:
            cases[1].append(f)
            ext_cover[f] += 1
        elif in_base and in_ext and ext_in_ext:
            cases[2].append(f)
            ext_cover[f] += 1
            ext_cover[with_new] += 1
            base_cover[f] += 1
        elif in_base and not in_ext and ext_in_ext:
            cases[3].append(f)
            ext_cover[with_new] += 1
            base_cover[f] += 1
        else:
            raise PartitionViolation(
                f"flat {f} fits no modification case "
                f"(base={in_base}, ext={in_ext}, ext+new={ext_in_ext})")
    bad_ext = {f: c for f, c in ext_cover.items() if c != 1}
    bad_base = {f: c for f, c in base_cover.items() if c != 1}
    if bad_ext or bad_base:
        raise PartitionViolation(
            f"coverage counts off: extended {bad_ext}, base {bad_base}")
    return ModificationCases(tuple(cases[1]), tuple(cases[2]), tuple(cases[3]))
