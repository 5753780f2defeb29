"""The cross-checks of the exact routes: each route answers, this module compares.

Three routes find the Poincare polynomial P and share only their inputs:
the Morse recursion (``morse``), the face census (``arrangement``) and the
ring presentations (``ringcalc``).  No route imports another, so none can
read another's answer; this module alone imports more than one of them and
decides whether their answers agree.
"""

from dataclasses import dataclass
from itertools import accumulate

from . import arrangement, morse, ringcalc
from .torus import TorusSetup


@dataclass(frozen=True)
class Analysis:
    """Every route's answer for one setup, and the agreement flags
    morse_census, morse_ring, circle_series and all, in that order."""

    components: tuple               # (flat, rank, index, level) per flat, in order
    poincare: tuple                 # the Morse recursion's P
    counts: tuple                   # bounded face counts d_0, ..., d_m
    census_poincare: tuple
    ordinary: tuple                 # ordinary ring dims, degrees 0..n - d + 2
    circle: tuple                   # circle-equivariant dims, 0..n - d + 3
    agreement: dict


def analyze(setup: TorusSetup) -> Analysis:
    """Run every route on a setup with generic levels and compare them.

    morse_census: the census polynomial is P.  morse_ring: the ordinary
    dims are P's coefficients through degree n - d and vanish above it, so
    a P of higher degree never agrees.  circle_series: the
    circle-equivariant dims are the running sums of the ordinary dims,
    padded with zeros.
    """
    components = morse.critical_components(setup)
    p = morse.poincare_morse(setup.weights)
    counts = arrangement.face_census(setup)
    p_census = arrangement.census_poincare(counts)
    ordinary = ringcalc.ring_dims(setup.weights)
    circle = ringcalc.circle_dims(setup)

    top = setup.ambient_dim
    betti = list(p) + [0] * (top + 1 - len(p))
    padded = (list(ordinary) + [0] * len(circle))[:len(circle)]
    agreement = {
        "morse_census": p == p_census,
        "morse_ring": (list(ordinary[:top + 1]) == betti
                       and not any(ordinary[top + 1:])),
        "circle_series": list(circle) == list(accumulate(padded)),
    }
    agreement["all"] = all(agreement.values())
    return Analysis(components, p, counts, p_census, ordinary, circle, agreement)


def _coefficient(coeffs, k) -> int:
    """coeffs[k], or 0 for a k outside the range."""
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def polynomial_recurrence(pair: tuple):
    """The Morse recursion's P of the base, enlarged and extended setups of
    a modification, and whether P_ext = P_base + q P_enl.

    Extending by a circle adds one row whose flat structure interleaves the
    base and enlarged ones, which gives the identity.  The pair is
    ``torus.modify``'s (base, enlarged, extended), and modify has checked
    the circle.
    """
    base, enlarged, extended = (morse.poincare_morse(s.weights) for s in pair)
    holds = all(_coefficient(extended, k) == _coefficient(base, k)
                + _coefficient(enlarged, k - 1)
                for k in range(max(map(len, (base, enlarged, extended))) + 1))
    return base, enlarged, extended, holds


def census_recurrence(pair: tuple):
    """The modification cases of the enlarged flats, the face counts of the
    base, enlarged and extended setups at the levels the pair carries (see
    ``torus.modify``), and whether every extended count is the base count
    plus the enlarged counts at the same and the previous dimension.

    The cases come first: ``morse.modification_cases`` raises if they do
    not partition the flats.
    """
    cases = morse.modification_cases(pair)
    counts = [arrangement.face_census(s) for s in pair]
    base, enlarged, extended = counts
    holds = all(_coefficient(extended, k) == _coefficient(base, k)
                + _coefficient(enlarged, k) + _coefficient(enlarged, k - 1)
                for k in range(max(map(len, counts)) + 1))
    return (cases, *counts, holds)
