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

from .errors import NonGenericBeta, PartitionViolation, RankDeficient
from .exact import ONE_MINUS_Q, PoincarePoly, divide_by_one_minus_q, int_rank
from .flats import enumerate_flats, lattice
from .torus import ModificationPair, TorusSetup, beta_witness, critical_level


@dataclass(frozen=True)
class CriticalComponent:
    flat: tuple
    rank: int
    index: int        # Morse index: 2 * (rows outside the flat)
    level: Fraction   # exact energy value |beta_residual|^2


def critical_components(setup: TorusSetup) -> tuple:
    """All critical manifolds, one per flat, in (size, lex) flat order."""
    if (witness := beta_witness(setup)) is not None:
        raise NonGenericBeta(witness)
    return tuple(
        CriticalComponent(flat=f, rank=rank_f, index=2 * (setup.n - len(f)),
                          level=critical_level(setup, f))
        for f, (_, rank_f) in zip(enumerate_flats(setup.weights),
                                  lattice(setup.weights)))


# ---------------------------------------------------------------------------
# Poincare polynomial by induction over the flat lattice
# ---------------------------------------------------------------------------


def _flat_polys(weights) -> tuple:
    """P(F) for every flat F, in flat order.

    P(F) is the Poincare polynomial of the sub-configuration on F.  Its flats
    are the flats inside F, with the same ranks, so the contributions of its
    critical manifolds give, bottom-up over the lattice,
    (1-q)^{rk F} P(F) = 1 - sum over G < F of q^{|F|-|G|} (1-q)^{rk G} P(G).
    """
    flats = lattice(weights)
    polys = []
    lifted = []  # (1-q)^{rk G} P(G), coefficients
    for mask, rank_f in flats:
        size = mask.bit_count()
        acc = [1] + [0] * size
        for (sub, _), coeffs in zip(flats, lifted):
            if sub & mask == sub:
                shift = size - sub.bit_count()
                for k, c in enumerate(coeffs):
                    acc[shift + k] -= c
        lifted.append(acc)
        polys.append(divide_by_one_minus_q(acc, rank_f))
    return tuple(polys)


def poincare_morse(weights) -> PoincarePoly:
    """Poincare polynomial in q = t^2 of the quotient for these weights.

    The contributions of all critical manifolds sum to 1; isolating the top
    flat leaves (1-q)^d * P equal to 1 minus the proper-flat terms, and the
    division is exact whenever the weights have full column rank.
    """
    n = len(weights)
    d = len(weights[0]) if weights else 0
    if n and d and int_rank(weights, d) != d:
        raise RankDeficient("weights must have full column rank")
    return _flat_polys(weights)[-1]


def perfection_sum(weights) -> PoincarePoly:
    """Sum of q^{n-|J|} (1-q)^{rank J} P(sub_J) over all flats.

    Equals the constant polynomial 1; exposed so tests can assert it.
    """
    n = len(weights)
    total = PoincarePoly.zero()
    for (mask, rank_f), p in zip(lattice(weights), _flat_polys(weights)):
        total = total + (PoincarePoly.monomial(n - mask.bit_count())
                         * ONE_MINUS_Q ** rank_f * p)
    return total


# ---------------------------------------------------------------------------
# Modification along a circle: recursion and case analysis
# ---------------------------------------------------------------------------


def modification_recurrence(pair: ModificationPair):
    """Poincare polynomials (base, enlarged, extended) plus the identity check.

    Extending by a circle adds one coordinate whose flat structure interleaves
    the base and enlarged ones, giving P_ext = P_base + q * P_enl.  The pair
    comes from ``torus.modify``, which has checked the circle.
    """
    p_base = poincare_morse(pair.base.weights)
    p_enl = poincare_morse(pair.enlarged.weights)
    p_ext = poincare_morse(pair.extended.weights)
    ok = p_ext == p_base + PoincarePoly.monomial(1) * p_enl
    return p_base, p_enl, p_ext, ok


@dataclass(frozen=True)
class ModificationCases:
    new_only: tuple        # enlarged flats that are extended flats but not base flats
    shared_both: tuple     # base flats staying flats with and without the new row
    shared_extended: tuple # base flats that stay flats only with the new row added


def modification_cases(pair: ModificationPair) -> ModificationCases:
    """Classify enlarged-configuration flats into the three recursion cases.

    Every enlarged flat must land in exactly one case, and together the cases
    must cover each extended flat and each base flat exactly once; any
    violation is raised rather than papered over.
    """
    n = pair.base.n
    base_flats = set(enumerate_flats(pair.base.weights))
    ext_flats = set(enumerate_flats(pair.extended.weights))
    cases = {1: [], 2: [], 3: []}
    ext_cover = {f: 0 for f in ext_flats}
    base_cover = {f: 0 for f in base_flats}
    for f in enumerate_flats(pair.enlarged.weights):
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
