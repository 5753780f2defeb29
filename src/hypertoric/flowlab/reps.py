"""Unitary Lie algebra representations in floating point.

A representation is stored as a tuple of skew-Hermitian matrices that
form an orthonormal basis of the represented Lie algebra with respect to
the real trace form ``<A, B> = Re tr(A^H B)``.  Structure constants are
precomputed so that brackets of moment-map components can be evaluated
without touching the matrices again.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..errors import InputError, RankDeficient

_SKEW_TOL = 1e-12
_GRAM_TOL = 1e-12
_CLOSURE_TOL = 1e-10


def _trace_form(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace form Re tr(A^H B) on n-by-n complex matrices."""
    return float(np.real(np.sum(np.conj(a) * b)))


@dataclass(frozen=True, eq=False)
class GroupRep:
    """Orthonormal skew-Hermitian basis of a matrix Lie algebra.

    ``basis`` has shape (k, n, n); ``structure[a, b, c]`` is the trace-form
    coefficient of basis element c in the bracket ``[e_a, e_b]``;
    ``abelian`` records whether all brackets vanish; ``cartan`` lists the
    indices of basis elements spanning a distinguished abelian subalgebra
    (all indices for abelian representations).
    """

    basis: np.ndarray
    structure: np.ndarray
    abelian: bool
    cartan: tuple = field(default=())

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def bracket_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coordinates of [U, V] for U, V given in basis coordinates; stacks
        of coordinate rows give a stack of brackets."""
        return np.einsum("abc,...a,...b->...c", self.structure, u, v)


def from_matrices(mats: Sequence, cartan: Optional[Sequence[int]] = None) -> GroupRep:
    """Build a GroupRep from a spanning family of skew-Hermitian matrices.

    The matrices are orthonormalized by Gram-Schmidt under the real trace
    form; they must be linearly independent, their real span must be
    closed under commutators, and the trace form of each with itself must
    be a finite float.
    """
    arrays = [np.ascontiguousarray(np.asarray(m, dtype=np.complex128)) for m in mats]
    if not arrays:
        raise InputError("at least one generator is required")
    n = arrays[0].shape[0] if arrays[0].ndim == 2 else -1
    for idx, a in enumerate(arrays):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"generator {idx} is not a square matrix")
        if a.shape[0] != n:
            raise InputError("generators act on spaces of different dimensions")
        if not np.all(np.isfinite(a)):
            raise InputError(f"generator {idx} has non-finite entries")
        with np.errstate(all="ignore"):
            square = _trace_form(a, a)
        if not np.isfinite(square):
            raise InputError(f"generator {idx} has an entry too large for "
                             "floating point")
        scale = 1.0 + float(np.linalg.norm(a))
        if np.linalg.norm(a + np.conj(a.T)) > _SKEW_TOL * scale:
            raise InputError(f"generator {idx} is not skew-Hermitian")

    basis = []
    for idx, a in enumerate(arrays):
        v = a.copy()
        for b in basis:
            v -= _trace_form(b, v) * b
        norm = np.sqrt(_trace_form(v, v))
        if norm <= 1e-10 * (1.0 + np.linalg.norm(a)):
            raise RankDeficient(f"generator {idx} is dependent on the earlier ones")
        basis.append(v / norm)
    stack = np.ascontiguousarray(np.array(basis))

    k = len(basis)
    gram = np.array([[_trace_form(stack[a], stack[b]) for b in range(k)]
                     for a in range(k)])
    if np.max(np.abs(gram - np.eye(k))) >= _GRAM_TOL:
        raise RankDeficient("generators are too close to dependent to orthonormalize")

    structure = np.zeros((k, k, k))
    abelian = True
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            comm = stack[a] @ stack[b] - stack[b] @ stack[a]
            size = np.linalg.norm(comm)
            if size > _CLOSURE_TOL:
                abelian = False
            coords = np.array([_trace_form(stack[c], comm) for c in range(k)])
            residual = comm - np.tensordot(coords, stack, axes=1)
            if np.linalg.norm(residual) > _CLOSURE_TOL * (1.0 + size):
                raise InputError(
                    f"bracket of generators {a} and {b} leaves the span: "
                    "the family is not a Lie algebra basis")
            structure[a, b] = coords

    if cartan is None:
        cartan_idx = tuple(range(k)) if abelian else ()
    else:
        cartan_idx = tuple(int(i) for i in cartan)
        if any(i < 0 or i >= k for i in cartan_idx):
            raise InputError("cartan indices out of range")
    stack.flags.writeable = False
    structure.flags.writeable = False
    return GroupRep(basis=stack, structure=structure, abelian=abelian,
                    cartan=cartan_idx)


class TorusRep(NamedTuple):
    """A torus representation together with its transported level data."""

    rep: GroupRep
    alpha: np.ndarray
    beta: np.ndarray


def _to_float(value, what: str) -> float:
    """An exact number as a float; InputError when it is too large for one."""
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(
            f"an entry of {what} is too large for floating point") from exc


def weights_matrix(setup) -> np.ndarray:
    """Weight matrix of a setup as a float array of shape (n, dim)."""
    return np.array([[_to_float(w, "the weights") for w in row]
                     for row in setup.weights],
                    dtype=np.float64).reshape(setup.n, setup.dim)


def alpha_vector(setup) -> np.ndarray:
    return np.array([_to_float(a, "alpha") for a in setup.alpha], dtype=np.float64)


def beta_vector(setup) -> np.ndarray:
    return np.array([complex(_to_float(b.re, "beta"), _to_float(b.im, "beta"))
                     for b in setup.beta], dtype=np.complex128)


def torus_rep(setup) -> TorusRep:
    """Diagonal torus representation attached to a setup.

    The basis element for direction a is ``i diag(B v_a)`` where the
    columns v_a orthonormalize the weight Gram matrix, so the basis is
    orthonormal for the trace form.  The real level is transported with
    an extra factor 1/2: the real moment map used here carries the
    one-half normalization, while the exact modules use the coordinate
    formula without it.  Critical sets are unaffected by that rescaling,
    and the complex level is transported as is.  Input whose B^T B,
    |alpha|^2 or |beta|^2 overflows a float, or whose B^T B is singular in
    floats, raises InputError.
    """
    bmat = weights_matrix(setup)
    d = setup.dim
    n = setup.n
    if d == 0:
        rep = GroupRep(basis=np.zeros((0, n, n), dtype=np.complex128),
                       structure=np.zeros((0, 0, 0)), abelian=True, cartan=())
        return TorusRep(rep, np.zeros(0), np.zeros(0, dtype=np.complex128))
    alpha_in, beta_in = alpha_vector(setup), beta_vector(setup)
    with np.errstate(all="ignore"):
        gram = bmat.T @ bmat
        squares = {"B^T B": gram, "|alpha|^2": alpha_in @ alpha_in,
                   "|beta|^2": np.vdot(beta_in, beta_in).real}
    for what, square in squares.items():
        if not np.all(np.isfinite(square)):
            raise InputError(f"{what} is too large for floating point")
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:  # full rank, but not in floats
        raise InputError("B^T B is singular in floating point: the weights "
                         "are too ill-conditioned for a flow") from exc
    vmat = np.linalg.inv(lower).T        # columns orthonormalize the Gram matrix
    diag_weights = bmat @ vmat           # column a holds the diagonal of e_a / i
    basis = np.zeros((d, n, n), dtype=np.complex128)
    for a in range(d):
        np.fill_diagonal(basis[a], 1j * diag_weights[:, a])
    rep = GroupRep(basis=basis, structure=np.zeros((d, d, d)), abelian=True,
                   cartan=tuple(range(d)))
    alpha = 0.5 * (vmat.T @ alpha_in)
    beta = vmat.T.astype(np.complex128) @ beta_in
    return TorusRep(rep, alpha, beta)


def su2_irrep(dim: int) -> GroupRep:
    """Irreducible su(2) representation on C^dim, orthonormalized.

    The third basis element is diagonal and spans the Cartan subalgebra.
    """
    if dim < 2:
        raise InputError("an irreducible su(2) representation needs dim >= 2")
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    s3 = np.diag(m).astype(np.complex128)
    raise_offdiag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    splus = np.zeros((dim, dim), dtype=np.complex128)
    for i, val in enumerate(raise_offdiag):
        splus[i, i + 1] = val
    sminus = splus.conj().T
    s1 = (splus + sminus) / 2
    s2 = (splus - sminus) / (2j)
    return from_matrices([1j * s1, 1j * s2, 1j * s3], cartan=(2,))


def diagonal_sum(rep: GroupRep, copies: int = 2) -> GroupRep:
    """Same algebra acting diagonally on several copies of its space."""
    if copies < 1:
        raise InputError("need at least one copy")
    n = rep.dim
    mats = []
    for a in range(rep.k):
        big = np.zeros((n * copies, n * copies), dtype=np.complex128)
        for c in range(copies):
            big[c * n:(c + 1) * n, c * n:(c + 1) * n] = rep.basis[a]
        mats.append(big)
    return from_matrices(mats, cartan=rep.cartan)


def random_state(rng: np.random.Generator, n: int, radius: float = 1.0,
                 count: Optional[int] = None):
    """Independent complex Gaussian coordinates with scale ``radius``; with
    ``count``, a stack of that many states, drawn as that many calls would."""
    return gaussian_state(
        rng.standard_normal((4, n) if count is None else (count, 4, n)), radius)


def gaussian_state(draws: np.ndarray, radius: float):
    """Complex coordinates (x, y) of scale ``radius`` from standard normal
    draws of shape (..., 4, n): the real and imaginary parts of x, then of y.
    The arithmetic is elementwise, so a stack of draws gives the states its
    draws give one by one, bit for bit."""
    x = radius * (draws[..., 0, :] + 1j * draws[..., 1, :]) / np.sqrt(2)
    y = radius * (draws[..., 2, :] + 1j * draws[..., 3, :]) / np.sqrt(2)
    return x, y
