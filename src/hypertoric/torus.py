"""Subtorus data: weights, induced metric, Gale duals, genericity, modification.

A setup is an integer N x d weight matrix B of full column rank together with
a real level alpha (d rationals) and a complex level beta (d exact complex
numbers).  Row j of B is the weight of the j-th coordinate of C^N under the
d-torus.  The dual pairing used throughout is <a, b> = a^T (B^T B)^{-1} b.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm
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
from .exact import CRat, as_rat, int_rank, int_solve


@dataclass(frozen=True)
class TorusSetup:
    weights: tuple  # N rows, each a tuple of d ints
    alpha: tuple    # d Fractions
    beta: tuple     # d CRats

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the Gale-dual affine arrangement."""
        return self.n - self.dim


def _as_crat(value) -> CRat:
    """Coerce a complex level entry: CRat, (re, im) pair, or a real."""
    if isinstance(value, CRat):
        return value
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise DimensionMismatch(
                "a complex level entry given as a pair needs exactly two parts")
        return CRat(as_rat(value[0]), as_rat(value[1]))
    return CRat(as_rat(value))


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
        beta_t = tuple(CRat() for _ in range(d))
    else:
        beta_t = tuple(_as_crat(b) for b in beta)
        if len(beta_t) != d:
            raise DimensionMismatch(
                f"beta has {len(beta_t)} entries, weights have {d} columns")

    if d > 0 and int_rank(rows, d) != d:
        raise RankDeficient(f"weight matrix does not have full column rank {d}")
    return TorusSetup(rows, alpha_t, beta_t)


# ---------------------------------------------------------------------------
# Metric and Gale duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """G^{-1} = adj / det for the Gram matrix G = B^T B of the weights.

    G is positive definite, so det = det G > 0 and adj is its adjugate.
    """

    adj: tuple  # d integer rows
    det: int


@lru_cache(maxsize=None)
def metric_of(weights) -> Metric:
    d = len(weights[0]) if weights else 0
    gram = [[sum(row[i] * row[j] for row in weights) for j in range(d)]
            for i in range(d)]
    det, adj = int_solve(gram, [[int(i == j) for j in range(d)] for i in range(d)])
    return Metric(tuple(map(tuple, adj)), det)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _integral(level) -> tuple:
    """(s, s * level) for the least s > 0 making every entry an integer."""
    scale = lcm(*(x.denominator for x in level))
    return scale, [x.numerator * (scale // x.denominator) for x in level]


def _independent(rows) -> list:
    """Indices of the rows, in order, that raise the rank of those before."""
    picked = []
    for i, row in enumerate(rows):
        if len(picked) == len(row):
            break
        if int_rank([rows[j] for j in picked] + [row], len(row)) > len(picked):
            picked.append(i)
    return picked


@dataclass(frozen=True)
class GaleData:
    """Kernel matrix C (rows) with C B = 0, plus arrangement offsets.

    Hyperplane j of the dual arrangement is {y : <normal_j, y> = offset_j},
    where normal_j is column j of C.  Offsets solve B^T offsets = alpha; the
    choice of solution only translates the arrangement.  The rows of C are
    a basis of ker B^T over Q, not of its integer lattice: another basis TC,
    T invertible, changes the coordinates y by T^T and no face count.
    """

    cmatrix: tuple  # (N - d) integer rows of length N
    normals: tuple  # N columns, each a tuple of (N - d) ints
    offsets: tuple  # N rationals


@lru_cache(maxsize=None)
def _gale(weights, alpha) -> GaleData:
    """One fraction-free solve gives C and the offsets.  With I the first d
    independent rows of B and F the others, int_solve returns det and
    X = det (B_I^T)^-1 [B_F^T | alpha].  Kernel row f of C is det at f and
    -X[:, f] on I, since B_F^T det e_f = B_I^T X[:, f].  The offsets are
    X[:, alpha] / det on I and zero off it."""
    n = len(weights)
    pivots = _independent(weights)
    free = [j for j in range(n) if j not in pivots]
    scale, level = _integral(alpha)
    det, x = int_solve([[weights[i][k] for i in pivots] for k in range(len(alpha))],
                       [[weights[f][k] for f in free] + [a]
                        for k, a in enumerate(level)])
    cmatrix = []
    for col, f in enumerate(free):
        row = [0] * n
        row[f] = det
        for i, xr in zip(pivots, x):
            row[i] = -xr[col]
        cmatrix.append(tuple(row))
    normals = tuple(tuple(row[j] for row in cmatrix) for j in range(n))
    offsets = [Fraction(0)] * n
    for i, row in zip(pivots, x):
        offsets[i] = Fraction(row[-1], det * scale)
    return GaleData(tuple(cmatrix), normals, tuple(offsets))


def gale_of(setup: TorusSetup) -> GaleData:
    return _gale(setup.weights, setup.alpha)


@dataclass(frozen=True)
class FlatWalls:
    """The walls and the level form of one flat J, all integer.

    With R_J the residual map (a covector minus its dual-metric projection
    onto the span of J) and u_i row i, every level question on J reads

        <R_J a, u_i> = (h_i . a) / denom   and   |R_J b|^2 = b^T form b / denom.
    """

    walls: tuple  # (i, h_i) for every row i outside J, in row order
    form: tuple   # d integer rows, symmetric
    denom: int    # positive


@lru_cache(maxsize=None)
def walls_of(weights) -> MappingProxyType:
    """FlatWalls of every flat, keyed by the flat, in flat order (read-only).

    With U the first independent rows of J and G^-1 = adj / det, the
    projection onto span(J) is U^T M^-1 U adj for the integer matrix
    M = U adj U^T.  One fraction-free solve gives X = det_M M^-1 U adj, so
    K = det_M R_J = det_M I - U^T X is integral, and so is
    form = adj K = det_M adj - (U adj)^T X.  M is positive definite, so
    ``int_solve`` pivots on its leading principal minors without a swap and
    det_M = det M > 0: denom = det det_M is positive, and the sign of
    h_i . a is the sign of the pairing.  The projection is self-adjoint,
    K^T adj = adj K, so the pairing <R_J a, u_i> = a^T K^T adj u_i / denom
    has h_i = form u_i, and |R_J b|^2 = b^T R_J^T G^-1 R_J b = b^T G^-1 R_J b
    because R_J^2 = R_J.  These are the walls of Hausel and Sturmfels
    (Toric hyperKahler varieties, Doc. Math. 7, 2002): a level is generic
    exactly when it lies on none of them.
    """
    metric = metric_of(weights)
    adj = metric.adj
    d = len(adj)
    table = {}
    for f in flats.enumerate_flats(weights):
        rows = [weights[j] for j in f]
        u = [rows[k] for k in _independent(rows)]
        ua = [[_dot(r, row) for row in adj] for r in u]
        det_m, x = int_solve([[_dot(row, r) for r in u] for row in ua], ua)
        form = tuple(tuple(det_m * adj[i][j] - sum(a[i] * xr[j] for a, xr in zip(ua, x))
                           for j in range(d)) for i in range(d))
        walls = tuple((i, tuple(_dot(row, weights[i]) for row in form))
                      for i in range(len(weights)) if i not in f)
        table[f] = FlatWalls(walls, form, metric.det * det_m)
    return MappingProxyType(table)


def _scaled_beta(beta) -> tuple:
    """(s, s Re beta, s Im beta), integral with one scale s > 0."""
    scale, parts = _integral([x for z in beta for x in (z.re, z.im)])
    return scale, parts[0::2], parts[1::2]


def _level(entry: FlatWalls, scale, re, im) -> Fraction:
    quad = sum(x * _dot(row, part) for part in (re, im)
               for x, row in zip(part, entry.form))
    return Fraction(quad, entry.denom * scale * scale)


def critical_level(setup: TorusSetup, flat) -> Fraction:
    """Exact value |beta_J|^2 of a flat J: the squared dual length of beta's
    residual against the span of J."""
    return _level(walls_of(setup.weights)[flat], *_scaled_beta(setup.beta))


# ---------------------------------------------------------------------------
# Genericity
# ---------------------------------------------------------------------------
#
# A witness depends on the weights and one level only, so each (weights,
# alpha) and (weights, beta) pair is decided once per process and every
# later check, sampling included, reads the cached decision.  Every check
# reads the walls of ``walls_of``, on a level scaled to integers.


def beta_witness(setup: TorusSetup):
    """First failing condition for beta-genericity, or None.

    Conditions over flats J: (i) <beta_J, u_i> != 0 for every row i outside
    J, (ii) the levels |beta_J|^2 are pairwise distinct.  (i) also makes the
    residuals beta_J pairwise distinct: two flats differ in some row i, and
    beta_J pairs to zero with every row of J, so the residual of the flat
    without i, were it equal to the other's, would pair to zero with u_i.
    """
    return _beta_witness(setup.weights, setup.beta)


@lru_cache(maxsize=None)
def _beta_witness(weights, beta):
    scale, re, im = _scaled_beta(beta)
    by_level = {}  # level -> flats at that level, in flat order
    for f, entry in walls_of(weights).items():
        by_level.setdefault(_level(entry, scale, re, im), []).append(f)
        for i, h in entry.walls:
            if not _dot(h, re) and not _dot(h, im):
                return ("pairing", f, i)
    # The first colliding pair (a, b) in flat order: a is the first flat of
    # the first level shared by two flats (dicts keep insertion order), and
    # b the next flat at that level.
    for group in by_level.values():
        if len(group) > 1:
            return ("level_collision", group[0], group[1])
    return None


def alpha_witness(setup: TorusSetup):
    """First failing condition for alpha-genericity, or None.

    The condition is <alpha_J, u_i> != 0 for every proper flat J and row i
    outside it.  It implies that the Gale-dual arrangement is simple, so no
    separate simplicity search is needed.  Hyperplanes S of the arrangement
    are dependent and share a point exactly when the rows outside S span a
    proper subspace containing alpha (see ``simplicity_witness``).  The
    closure J of those rows is then a proper flat with alpha in span(J), so
    alpha_J = 0 pairs to zero with every row outside J, and the loop below
    has already returned a pairing witness.
    """
    return _alpha_witness(setup.weights, setup.alpha)


@lru_cache(maxsize=None)
def _alpha_witness(weights, alpha):
    _, a = _integral(alpha)
    for f, entry in walls_of(weights).items():
        for i, h in entry.walls:
            if not _dot(h, a):
                return ("pairing", f, i)
    return None


def sign_split(setup: TorusSetup, flat) -> tuple:
    """Partition rows outside the flat by the sign of their alpha pairing.

    The sign decides whether the circle-equivariant Euler factor for that
    row is the bare weight or its reflection through the equivariant class.
    """
    _, a = _integral(setup.alpha)
    plus, minus = [], []
    for i, h in walls_of(setup.weights)[flat].walls:
        p = _dot(h, a)
        if p > 0:
            plus.append(i)
        elif p < 0:
            minus.append(i)
        else:
            raise NonGenericAlpha(("pairing", flat, i))
    return tuple(plus), tuple(minus)


def require_generic(setup: TorusSetup) -> None:
    """Raise NonGenericAlpha, else NonGenericBeta, for a non-generic level."""
    witness = alpha_witness(setup)
    if witness is not None:
        raise NonGenericAlpha(witness)
    witness = beta_witness(setup)
    if witness is not None:
        raise NonGenericBeta(witness)


def simplicity_witness(setup: TorusSetup):
    """Smallest dependent set of dual hyperplanes with a common point, or None.

    Indices are 0-based and sorted; among the smallest sets the
    lexicographically first is returned.  By Gale duality, with y the point
    and z = offsets - C^T y, the hyperplanes S meet exactly when alpha =
    B^T z for some z vanishing on S, that is when alpha lies in the span of
    the rows outside S.  Their normals (columns of C) are dependent exactly
    when some nonzero B v vanishes off S, that is when the rows outside S
    span a proper subspace.  Any such span lies in the span of a coatom (a
    flat of rank d - 1), whose complement is then a witness no larger than
    S.  So the smallest witnesses are the complements of the largest coatoms
    F with alpha in span(F): one test per coatom.

    That test reads one wall.  alpha is in span(F) exactly when its residual
    R_F alpha is zero.  The residual lies on the line of covectors pairing
    to zero with every row of F, and a row i outside F pairs nonzero with
    every nonzero point of that line: F and i span the whole space, and only
    zero pairs to zero with all of it.  So R_F alpha = 0 exactly when alpha
    lies on the wall of the first row outside F.
    """
    table = walls_of(setup.weights)
    _, a = _integral(setup.alpha)
    best = None
    for f in flats.coatoms(setup.weights):
        if _dot(table[f].walls[0][1], a):
            continue
        rest = tuple(j for j in range(setup.n) if j not in f)
        if best is None or (len(rest), rest) < (len(best), best):
            best = rest
    return best


# ---------------------------------------------------------------------------
# Parameter sampling
# ---------------------------------------------------------------------------

_SAMPLE_ROUNDS = 8
_TRIES_PER_ROUND = 64


def sample_generic(weights, seed: int, alpha=None, beta=None) -> TorusSetup:
    """Deterministically give the weights generic levels.

    A level passed explicitly is kept when it is generic.  A level not
    given, or not generic, is redrawn: alpha first, then beta, each from
    integer boxes [-s, s] with s doubling from 3 every 64 draws.
    """
    given = new_setup(weights, alpha, beta)
    d = given.dim
    rng = random.Random(seed)

    def draw_alpha(size):
        return tuple(Fraction(rng.randint(-size, size)) for _ in range(d))

    def draw_beta(size):
        return tuple(CRat(Fraction(rng.randint(-size, size)),
                          Fraction(rng.randint(-size, size))) for _ in range(d))

    setup = replace(given, alpha=None if alpha is None else given.alpha,
                    beta=None if beta is None else given.beta)
    for name, draw, witness in (("alpha", draw_alpha, alpha_witness),
                                ("beta", draw_beta, beta_witness)):
        tries = 0
        while getattr(setup, name) is None or witness(setup) is not None:
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


@dataclass(frozen=True)
class ModificationPair:
    base: TorusSetup
    enlarged: TorusSetup   # same coordinates, torus grown by the circle
    extended: TorusSetup   # one extra coordinate carrying the inverse circle


def enlarged_weights(weights, circle) -> tuple:
    return tuple(row + (c,) for row, c in zip(weights, circle))


def extended_weights(weights, circle) -> tuple:
    d = len(weights[0]) if weights else 0
    new_rows = enlarged_weights(weights, circle)
    return new_rows + ((0,) * d + (-1,),)


def require_new_circle(weights, circle) -> tuple:
    """Validate a circle column against the weights; return it as a tuple.

    The circle must act non-trivially on the quotient: if it already lies in
    the rational column span of the weights the construction degenerates.
    """
    weights = tuple(tuple(r) for r in weights)
    circle = tuple(circle)
    for x in circle:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError("circle weights must be integers")
    if len(circle) != len(weights):
        raise DimensionMismatch(
            f"circle has {len(circle)} entries, weights have {len(weights)} rows")
    d = len(weights[0]) if weights else 0
    wide = enlarged_weights(weights, circle)
    if weights and int_rank(wide, d + 1) != d + 1:
        raise CircleInsideTorus(
            "circle weight column lies in the span of the existing weights")
    return circle


def modify(setup: TorusSetup, circle, seed: int = 0) -> ModificationPair:
    """Grow the torus by an integer circle weight column.

    Fresh generic levels for the two derived setups are sampled from seeds
    derived deterministically from (weights, circle, seed).
    """
    circle = require_new_circle(setup.weights, circle)
    wide = enlarged_weights(setup.weights, circle)
    hat = sample_generic(wide, derived_seed("enlarged", setup.weights, circle, seed))
    tilde = sample_generic(extended_weights(setup.weights, circle),
                           derived_seed("extended", setup.weights, circle, seed))
    return ModificationPair(setup, hat, tilde)
