"""Unitary Lie algebra representations in floating point.

A representation is stored as a tuple of skew-Hermitian matrices that
form an orthonormal basis of the represented Lie algebra with respect to
the real trace form ``<A, B> = Re tr(A^H B)``.  Structure constants are
precomputed so that brackets of moment-map components can be evaluated
without touching the matrices again.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

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
    coefficient of basis element c in the bracket ``[e_a, e_b]``; and
    ``abelian`` records whether all brackets vanish.
    """

    basis: np.ndarray
    structure: np.ndarray
    abelian: bool

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


def from_matrices(mats: Sequence) -> GroupRep:
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

    stack.flags.writeable = False
    structure.flags.writeable = False
    return GroupRep(basis=stack, structure=structure, abelian=abelian)


def _to_float(value, what: str) -> float:
    """An exact number as a float; InputError when it is too large for one."""
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(
            f"an entry of {what} is too large for floating point") from exc


def torus_rep(setup) -> Tuple[GroupRep, np.ndarray, np.ndarray]:
    """Diagonal torus representation attached to a setup, with its
    transported real and complex levels: the tuple (rep, alpha, beta).

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
    d, n = setup.dim, setup.n
    bmat = np.array([[_to_float(w, "the weights") for w in row]
                     for row in setup.weights], dtype=np.float64).reshape(n, d)
    alpha_in = np.array([_to_float(a, "alpha") for a in setup.alpha], dtype=np.float64)
    beta_in = np.array([complex(_to_float(re, "beta"), _to_float(im, "beta"))
                        for re, im in setup.beta], dtype=np.complex128)
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
    rep = GroupRep(basis=basis, structure=np.zeros((d, d, d)), abelian=True)
    alpha = 0.5 * (vmat.T @ alpha_in)
    beta = vmat.T.astype(np.complex128) @ beta_in
    return rep, alpha, beta


def gaussian_state(draws: np.ndarray, radius: float):
    """Complex coordinates (x, y) of scale ``radius`` from standard normal
    draws of shape (..., 4, n): the real and imaginary parts of x, then of y.
    The arithmetic is elementwise, so a stack of draws gives the states its
    draws give one by one, bit for bit."""
    x = radius * (draws[..., 0, :] + 1j * draws[..., 1, :]) / np.sqrt(2)
    y = radius * (draws[..., 2, :] + 1j * draws[..., 3, :]) / np.sqrt(2)
    return x, y
