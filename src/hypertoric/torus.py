"""Subtorus data: weights, induced metric, genericity, modification.

A setup is an integer N x d weight matrix B of full column rank together with
a real level alpha (d rationals) and a complex level beta (d exact complex
numbers, each the (re, im) pair of its rational parts).  Row j of B is the
weight of the j-th coordinate of C^N under the d-torus.  The dual pairing
used throughout is <a, b> = a^T (B^T B)^{-1} b.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from . import flats
from .errors import (
    CircleInsideTorus,
    DimensionMismatch,
    InputError,
    NonGenericAlpha,
    NonGenericBeta,
    RankDeficient,
    SamplingExhausted,
)
from .exact import as_rat, int_rank, int_solve


@dataclass(frozen=True)
class TorusSetup:
    weights: tuple  # N rows, each a tuple of d ints
    alpha: tuple    # d Fractions
    beta: tuple     # d (re, im) pairs of Fractions

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def ambient_dim(self) -> int:
        """Dimension n - d of the level set {z : B^T z = alpha} in R^n."""
        return self.n - self.dim


def _as_complex(value) -> tuple:
    """Read a complex level entry, an [re, im] pair or a real, as the
    (re, im) pair of its rational parts."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise InputError(
                "a complex level entry must be a value or a [re, im] pair")
        return as_rat(value[0]), as_rat(value[1])
    return as_rat(value), Fraction(0)


def new_setup(weights, alpha=None, beta=None) -> TorusSetup:
    rows = []
    width = None
    for row in weights:
        r = tuple(row)
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"weight entries must be integers, got {x!r}")
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise DimensionMismatch("weight rows have inconsistent lengths")
        rows.append(r)
    rows = tuple(rows)
    d = width if width is not None else (len(alpha) if alpha is not None else 0)

    if alpha is None:
        alpha_t = tuple(Fraction(0) for _ in range(d))
    else:
        alpha_t = tuple(as_rat(a) for a in alpha)
        if len(alpha_t) != d:
            raise DimensionMismatch(
                f"alpha has {len(alpha_t)} entries, weights have {d} columns")

    if beta is None:
        beta_t = ((Fraction(0), Fraction(0)),) * d
    else:
        beta_t = tuple(_as_complex(b) for b in beta)
        if len(beta_t) != d:
            raise DimensionMismatch(
                f"beta has {len(beta_t)} entries, weights have {d} columns")

    if d > 0 and int_rank(rows, d) != d:
        raise RankDeficient(f"weight matrix does not have full column rank {d}")
    return TorusSetup(rows, alpha_t, beta_t)


# ---------------------------------------------------------------------------
# Walls
# ---------------------------------------------------------------------------


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def integral(level) -> tuple:
    """(s, s * level) for the least s > 0 making every entry an integer."""
    scale = lcm(*(x.denominator for x in level))
    return scale, [x.numerator * (scale // x.denominator) for x in level]


@lru_cache(maxsize=None)
def walls_of(weights) -> MappingProxyType:
    """(walls, form, denom) of every flat J, keyed by the flat, in flat order
    (read-only), all integer: walls holds (i, h_i) for every row i outside
    J, in row order, form is d symmetric rows, and denom is positive.  With
    R_J the residual map (a covector minus its dual-metric projection onto
    the span of J) and u_i row i, every level question on J reads

        <R_J a, u_i> = (h_i . a) / denom   and   |R_J b|^2 = b^T form b / denom.

    G = B^T B is positive definite, so one fraction-free solve gives its
    adjugate adj and det = det G > 0, with G^-1 = adj / det.  The bottom
    flat has nothing to project out: its entry is the metric itself, form =
    adj and denom = det, kept unreduced.  Every other flat's entry is a
    rank-one downdate of the entry (F', e') of its basis less the last row
    u.  That prefix is the basis of its own closure, a flat below J, and
    the lattice builds J from that flat, its parent (see ``flats.lattice``),
    so the prefix's entry is J's parent's; an entry missing from the
    lattice is built the same way, in a table local to the call.  With
    F'/e' = G^-1 R' for the prefix's residual R', projecting out the one
    more direction R'u gives

        G^-1 R_J = F'/e' - (F'u)(F'u)^T / (e' u^T F'u),

    so with v = F'u and c = u . v, form = c F' - v v^T and denom = e' c,
    both divided by their gcd.  c / e' = u^T G^-1 R' u is the squared dual
    length of R'u, positive because u lies outside the prefix's span: so
    c > 0 and denom stays positive.  The top flat's residual is zero, and
    so is its form.  The projection is self-adjoint, so the pairing
    <R_J a, u_i> = a^T G^-1 R_J u_i has h_i = form u_i, and |R_J b|^2 =
    b^T R_J^T G^-1 R_J b = b^T G^-1 R_J b because R_J^2 = R_J.  These are
    the walls of Hausel and Sturmfels (Toric hyperKahler varieties, Doc.
    Math. 7, 2002): a level is generic exactly when it lies on none of
    them.
    """
    d = len(weights[0]) if weights else 0
    gram = [[sum(row[i] * row[j] for row in weights) for j in range(d)]
            for i in range(d)]
    det, adj = int_solve(gram, [[int(i == j) for j in range(d)] for i in range(d)])
    entries = {(): (tuple(map(tuple, adj)), det)}  # basis -> (form, denom)

    def entry(basis):
        if basis not in entries:
            form, denom = entry(basis[:-1])
            u = weights[basis[-1]]
            v = [_dot(row, u) for row in form]
            c = _dot(u, v)
            form = [[c * x - a * b for x, b in zip(row, v)]
                    for row, a in zip(form, v)]
            g = gcd(denom * c, *(x for row in form for x in row))
            entries[basis] = (tuple(tuple(x // g for x in row) for row in form),
                              denom * c // g)
        return entries[basis]

    table = {}
    for f, basis in flats.lattice(weights):
        form, denom = entry(basis)
        walls = tuple((i, tuple(_dot(row, weights[i]) for row in form))
                      for i in range(len(weights)) if i not in f)
        table[f] = walls, form, denom
    return MappingProxyType(table)


# ---------------------------------------------------------------------------
# Genericity
# ---------------------------------------------------------------------------
#
# A decision depends on the weights and one level only, so each (weights,
# alpha) and (weights, beta) pair is decided once per process, on the walls
# of ``walls_of`` and the level scaled to integers.  A decision gives its
# first failing condition, the witness, or None and what a generic level's
# reader needs: every flat's critical level for ``critical_levels``, and the
# rows pairing negatively with alpha for ``negative_rows``.  Only these two
# readers refuse a level; ``sample_generic`` redraws on the witnesses.


def critical_levels(setup: TorusSetup) -> MappingProxyType:
    """Exact value |beta_J|^2 of every flat J, keyed by the flat, in flat
    order (read-only): the squared dual length of beta's residual against
    the span of J.  Raises NonGenericBeta for a non-generic beta."""
    witness, levels = _beta_levels(setup.weights, setup.beta)
    if witness is not None:
        raise NonGenericBeta(witness)
    return levels


@lru_cache(maxsize=None)
def _beta_levels(weights, beta):
    """(witness, levels) for one beta: the first zero pairing in flat order,
    walls in row order, else the first level collision, and no mapping;
    else None and every flat's level, read off its level form with
    beta = (re + i im) / s integral.  Flats are grouped by level as the
    reduced pair of its integer numerator and positive denominator, and a
    level becomes a Fraction only once beta is found generic.

    Beta is generic when, over flats J, (i) <beta_J, u_i> != 0 for every
    row i outside J and (ii) the levels |beta_J|^2 are pairwise distinct.
    (i) also makes the residuals beta_J pairwise distinct: two flats differ
    in some row i, and beta_J pairs to zero with every row of J, so the
    residual of the flat without i, were it equal to the other's, would
    pair to zero with u_i.
    """
    scale, parts = integral([x for z in beta for x in z])
    re, im = parts[0::2], parts[1::2]
    by_level = {}  # level, as a reduced (numerator, denominator) -> its flats
    for f, (walls, form, denom) in walls_of(weights).items():
        for i, h in walls:
            if not _dot(h, re) and not _dot(h, im):
                return ("pairing", f, i), None
        quad = sum(x * _dot(row, re) + y * _dot(row, im)
                   for x, y, row in zip(re, im, form))
        den = denom * scale * scale
        g = gcd(quad, den)
        by_level.setdefault((quad // g, den // g), []).append(f)
    # The first colliding pair (a, b) in flat order: a is the first flat of
    # the first level shared by two flats (dicts keep insertion order), and
    # b the next flat at that level.
    for group in by_level.values():
        if len(group) > 1:
            return ("level_collision", *group[:2]), None
    # No level is shared, so the levels come in flat order.
    return None, MappingProxyType(
        {f: Fraction(*level) for level, (f,) in by_level.items()})


def negative_rows(setup: TorusSetup) -> MappingProxyType:
    """Rows i outside each flat J with <alpha_J, u_i> < 0, keyed by the flat,
    in flat order (read-only); every other row outside J pairs positively.
    Raises NonGenericAlpha for a non-generic alpha."""
    witness, negative = _alpha_signs(setup.weights, setup.alpha)
    if witness is not None:
        raise NonGenericAlpha(witness)
    return negative


@lru_cache(maxsize=None)
def _alpha_signs(weights, alpha):
    """(witness, negative) for one alpha: the first zero pairing in flat
    order, walls in row order, and no mapping; else None and the negative
    rows of every flat, signed on alpha scaled to integers.

    Alpha is generic when <alpha_J, u_i> != 0 for every proper flat J and
    row i outside it.  This implies that the census's arrangement, the
    level set A = {z : B^T z = alpha} cut by the hyperplanes z_j = 0, is
    simple, which is all the face census needs.  Hyperplanes S share a
    point of A exactly when alpha = B^T z for some z vanishing on S, that
    is when alpha lies in the span of the rows outside S.  They are
    dependent on A exactly when some nonzero c supported on S is orthogonal
    to ker B^T, that is c = B w for a w != 0 orthogonal to every row
    outside S, so when those rows span a proper subspace.  The closure J of
    those rows is then a proper flat with alpha in span(J), so alpha_J = 0
    pairs to zero with every row outside J, and the loop below has already
    returned a pairing witness.  A coordinate z_j constant on A is the case
    S = {j}: row j is then outside the span of the others, and a hyperplane
    z_j = 0 filling A puts alpha in that span.
    """
    _, a = integral(alpha)
    negative = {}
    for f, (walls, _, _) in walls_of(weights).items():
        minus = []
        for i, h in walls:
            p = _dot(h, a)
            if not p:
                return ("pairing", f, i), None
            if p < 0:
                minus.append(i)
        negative[f] = tuple(minus)
    return None, MappingProxyType(negative)


# ---------------------------------------------------------------------------
# Parameter sampling
# ---------------------------------------------------------------------------

_SAMPLE_ROUNDS = 8
_TRIES_PER_ROUND = 64


def sample_generic(setup: TorusSetup, seed: int) -> TorusSetup:
    """Deterministically give a checked setup generic levels.

    Each level is kept when generic and redrawn while not, alpha first,
    then beta, each from integer boxes [-s, s] with s doubling from 3 every
    64 draws.  A zero level, ``new_setup``'s default, is never generic for
    d >= 1: it pairs to 0 with the bottom flat's wall of a nonzero row.
    """
    d = setup.dim
    rng = random.Random(seed)

    def draw_alpha(size):
        return tuple(Fraction(rng.randint(-size, size)) for _ in range(d))

    def draw_beta(size):
        return tuple((Fraction(rng.randint(-size, size)),
                      Fraction(rng.randint(-size, size))) for _ in range(d))

    for name, draw, decision in (("alpha", draw_alpha, _alpha_signs),
                                 ("beta", draw_beta, _beta_levels)):
        tries = 0
        while decision(setup.weights, getattr(setup, name))[0] is not None:
            if tries == _SAMPLE_ROUNDS * _TRIES_PER_ROUND:
                raise SamplingExhausted(f"no generic {name} found")
            setup = replace(setup, **{name: draw(3 << tries // _TRIES_PER_ROUND)})
            tries += 1
    return setup


def derived_seed(tag: str, *parts) -> int:
    """Stable small seed derived from a tag and hashable arguments."""
    text = tag + "|" + "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Modification along a new circle
# ---------------------------------------------------------------------------


def modify(setup: TorusSetup, circle, seed: int = 0) -> tuple:
    """Grow the torus by an integer circle weight column: (base, enlarged,
    extended), the setup itself, the setup on the same coordinates with the
    torus grown by the circle, and the setup with one extra coordinate
    carrying the inverse circle.

    The circle must act non-trivially on the quotient: if it already lies in
    the rational column span of the weights the construction degenerates.
    The enlarged weights append the column to each row, and the extended
    ones add the row (0, ..., 0, -1).  Fresh generic levels for the two
    derived setups are sampled from seeds derived deterministically from
    (weights, circle, seed).
    """
    weights, circle, d = setup.weights, tuple(circle), setup.dim
    for x in circle:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError("circle weights must be integers")
    if len(circle) != len(weights):
        raise DimensionMismatch(
            f"circle has {len(circle)} entries, weights have {len(weights)} rows")
    wide = tuple(row + (c,) for row, c in zip(weights, circle))
    if int_rank(wide, d + 1) != d + 1:
        raise CircleInsideTorus(
            "circle weight column lies in the span of the existing weights")
    hat = sample_generic(new_setup(wide),
                         derived_seed("enlarged", weights, circle, seed))
    tilde = sample_generic(new_setup(wide + ((0,) * d + (-1,),)),
                           derived_seed("extended", weights, circle, seed))
    return setup, hat, tilde
