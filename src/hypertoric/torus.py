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
from .exact import (
    CRat,
    RatMatrix,
    as_rat,
    inverse,
    nullspace,
    rank,
    solve_exact,
)


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

    if d > 0 and rank(RatMatrix(rows)) != d:
        raise RankDeficient(f"weight matrix does not have full column rank {d}")
    return TorusSetup(rows, alpha_t, beta_t)


# ---------------------------------------------------------------------------
# Metric and Gale duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    gram: RatMatrix      # B^T B
    gram_inv: RatMatrix


@lru_cache(maxsize=None)
def metric_of(weights) -> Metric:
    if not weights or not weights[0]:
        empty = RatMatrix([])
        return Metric(empty, empty)
    b = RatMatrix(weights)
    g = b.transpose() @ b
    return Metric(g, inverse(g))


@dataclass(frozen=True)
class GaleData:
    """Kernel matrix C (rows) with C B = 0, plus arrangement offsets.

    Hyperplane j of the dual arrangement is {y : <normal_j, y> = offset_j},
    where normal_j is column j of C.  Offsets solve B^T offsets = alpha; the
    choice of solution only translates the arrangement.
    """

    cmatrix: tuple  # (N - d) integer rows of length N
    normals: tuple  # N columns, each a tuple of (N - d) ints
    offsets: tuple  # N rationals


@lru_cache(maxsize=None)
def _gale(weights, alpha) -> GaleData:
    n = len(weights)
    d = len(alpha)
    if d == 0:
        cmatrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        normals = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        return GaleData(cmatrix, normals, tuple(Fraction(0) for _ in range(n)))
    bt = RatMatrix(list(zip(*weights)))  # d x N
    if n == d:
        cmatrix = ()
        normals = tuple(() for _ in range(n))
    else:
        ker_cols = nullspace(bt)  # N x (N - d)
        cmatrix = tuple(
            tuple(int(ker_cols.rows[i][k]) for i in range(n))
            for k in range(ker_cols.ncols)
        )
        normals = tuple(
            tuple(row[j] for row in cmatrix) for j in range(n)
        )
    offsets = solve_exact(bt, alpha)
    if offsets is None:  # full column rank makes this impossible
        raise RankDeficient("offset system unexpectedly inconsistent")
    return GaleData(cmatrix, normals, offsets)


def gale_of(setup: TorusSetup) -> GaleData:
    return _gale(setup.weights, setup.alpha)


def pairing(metric: Metric, a, b) -> Fraction:
    """Dual-space inner product a^T G^{-1} b of two real covectors."""
    gi = metric.gram_inv.rows
    total = Fraction(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        total += ai * sum(gi[i][j] * b[j] for j in range(len(b)) if b[j] != 0)
    return total


@lru_cache(maxsize=None)
def _residual_map(weights, subset) -> tuple:
    """Rows of the d x d matrix sending a covector to its residual.

    The residual of v is v minus its dual-metric projection onto the span of
    the rows in subset.  That projection is unique even when the rows are
    dependent, so the matrix is built once per (weights, subset) from the
    projections of the unit covectors and reused for every level.
    """
    metric = metric_of(weights)
    u = RatMatrix([weights[j] for j in subset])
    ug = u @ metric.gram_inv
    gram_sub = ug @ u.transpose()
    d = len(weights[0])
    cols = []
    for i in range(d):
        coeffs = solve_exact(gram_sub, [row[i] for row in ug.rows])
        col = [Fraction(int(j == i)) for j in range(d)]
        for c, row in zip(coeffs, u.rows):
            if c != 0:
                for j, x in enumerate(row):
                    col[j] -= c * x
        cols.append(col)
    return tuple(zip(*cols))


def perp_part(weights, subset, vec):
    """Component of a real covector orthogonal to span{rows in subset}."""
    vec = tuple(as_rat(v) for v in vec)
    if not subset or not vec:
        return vec
    return tuple(sum((r * v for r, v in zip(row, vec) if r and v), Fraction(0))
                 for row in _residual_map(weights, tuple(subset)))


def perp_part_complex(weights, subset, cvec):
    re = perp_part(weights, subset, tuple(z.re for z in cvec))
    im = perp_part(weights, subset, tuple(z.im for z in cvec))
    return tuple(CRat(r, i) for r, i in zip(re, im))


def norm2_dual(metric: Metric, cvec) -> Fraction:
    """Squared length of a complex covector in the dual metric."""
    re = tuple(z.re for z in cvec)
    im = tuple(z.im for z in cvec)
    return pairing(metric, re, re) + pairing(metric, im, im)


def residual_beta(setup: TorusSetup, subset):
    """beta minus its projection onto the span of the subset rows."""
    return perp_part_complex(setup.weights, subset, setup.beta)


def residual_alpha(setup: TorusSetup, subset):
    return perp_part(setup.weights, subset, setup.alpha)


def critical_level(setup: TorusSetup, subset) -> Fraction:
    """Exact value |beta_perp|^2 attached to a flat."""
    return norm2_dual(metric_of(setup.weights), residual_beta(setup, subset))


# ---------------------------------------------------------------------------
# Genericity
# ---------------------------------------------------------------------------
#
# A witness depends on the weights and one level only, so each (weights,
# alpha) and (weights, beta) pair is decided once per process and every
# later check, sampling included, reads the cached decision.


def beta_witness(setup: TorusSetup):
    """First failing condition for beta-genericity, or None.

    Conditions over flats J: (i) the residuals beta_J are pairwise distinct,
    (ii) <beta_J, u_i> != 0 for every row i outside J, (iii) the levels
    |beta_J|^2 are pairwise distinct.
    """
    return _beta_witness(setup.weights, setup.beta)


@lru_cache(maxsize=None)
def _beta_witness(weights, beta):
    metric = metric_of(weights)
    all_flats = flats.enumerate_flats(weights)
    residuals = {}
    levels = {}
    for f in all_flats:
        res = perp_part_complex(weights, f, beta)
        residuals[f] = res
        levels[f] = norm2_dual(metric, res)
        for i in range(len(weights)):
            if i in f:
                continue
            re_pair = pairing(metric, tuple(z.re for z in res), weights[i])
            im_pair = pairing(metric, tuple(z.im for z in res), weights[i])
            if re_pair == 0 and im_pair == 0:
                return ("pairing", f, i)
    flat_list = list(all_flats)
    for a in range(len(flat_list)):
        for b in range(a + 1, len(flat_list)):
            fa, fb = flat_list[a], flat_list[b]
            if residuals[fa] == residuals[fb]:
                return ("residual_collision", fa, fb)
            if levels[fa] == levels[fb]:
                return ("level_collision", fa, fb)
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
    metric = metric_of(weights)
    for f in flats.proper_flats(weights):
        res = perp_part(weights, f, alpha)
        for i in range(len(weights)):
            if i in f:
                continue
            if pairing(metric, res, weights[i]) == 0:
                return ("pairing", f, i)
    return None


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
    """
    best = None
    for f in flats.coatoms(setup.weights):
        if any(residual_alpha(setup, f)):
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
    circle: tuple
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
    if weights and rank(RatMatrix(wide)) != d + 1:
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
    return ModificationPair(setup, circle, hat, tilde)
