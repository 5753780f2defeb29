"""Moment maps and energy gradients on the cotangent phase space.

States are pairs (x, y) of complex vectors: base and fiber coordinates
on the cotangent space of C^n.  The fiber transforms by the negative
transpose of the base action, which for a skew-Hermitian generator e is
its entrywise conjugate.  Real moment-map components carry the one-half
normalization; the holomorphic component does not, so that for a circle
acting with weight one on C the maps reduce to (|x|^2 - |y|^2)/2 and xy.

A basis element e_a acts on a state as the generator diag(e_a, conj(e_a))
of the phase space C^2n, on the point z = (x, y).  Everything is read off
those generators applied once to the state, the rows e_a z = (e_a x,
conj(e_a) y); since e_a^T = -conj(e_a), no other product is needed.  With
<u, v> = u^H v,

    mu1_a = -Im<e_a z, z>/2 - alpha_a,
    muC_a = mu2_a + i mu3_a = -i y^T e_a x - beta_a.

Gradients are returned in complex form: the complex vector whose real
and imaginary parts are the partial derivatives with respect to the real
and imaginary parts of the coordinate.  Flowing along the negative of
that vector is plain gradient descent in real coordinates.

States come in stacks: x and y of shape (T, n) hold T states (a single
state has shape (n,)), and every value is returned per state.  The basis
is applied to a whole stack by matrix products, which may sum in an order
that depends on the stack's size, so a state's values equal those it has
in a stack of one to rounding, not always bit for bit.  Where every row of
every basis matrix has one nonzero entry, as for a torus, each sum of
those products has one nonzero term, and the values are the same in any
stack.

Every gradient is one weighted form.  For a real weight w and a complex
weight c, the gradient of 2 sum_a (w_a mu1_a + Re(conj(c_a) muC_a)) at
fixed weights is, with J(u, v) = (v, -u),

    g_z = (g_x, g_y) = -2i sum_a (w_a e_a z + c_a conj(J e_a z)).

The weights (mu1, muC) give the gradient of |mu1|^2 + |muC|^2, and
(mu1, 0), (0, mu2) and (0, i mu3) those of |mu1|^2, |mu2|^2 and |mu3|^2.
"""

from typing import Tuple

import numpy as np

from ..errors import InputError
from .reps import GroupRep

ENERGY_KINDS = ("muR2", "muC2", "muHK2")


def _kind(which: str) -> Tuple[bool, bool]:
    """Whether the energy ``which`` reads mu1 and whether it reads muC."""
    if which not in ENERGY_KINDS:
        raise InputError(f"unknown energy kind {which!r}")
    return which != "muC2", which != "muR2"


def _point(x, y) -> np.ndarray:
    """States (x, y) as points z of the phase space, shape (..., 2n)."""
    return np.concatenate([x, y], axis=-1, dtype=np.complex128)


# OpenBLAS runs a matrix product of more than 2^16 multiply-adds on several
# threads, and waking them can stall for milliseconds on a loaded host.
_ONE_THREAD_MADDS = 1 << 16


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of a stack of rows a, in chunks of rows small
    enough for one thread each."""
    step = max(1, _ONE_THREAD_MADDS // max(b.size, 1))
    if len(a) <= step:
        return a @ b
    return np.concatenate([a[i:i + step] @ b for i in range(0, len(a), step)])


def _apply(basis: np.ndarray, z) -> np.ndarray:
    """The rows e_a z of every element of ``basis``, of shape (..., k, 2n).

    Each half of the rows is a product of the stack with the basis read as
    a (kn) x n matrix, taken by ``_rowwise``.  One product with the
    block-diagonal generators would do twice the work.
    """
    k, n = basis.shape[:2]
    rows = basis.reshape(k * n, n)
    flat = z.reshape(-1, 2 * n)
    shape = z.shape[:-1] + (k, n)
    return np.concatenate([_rowwise(flat[:, :n], rows.T).reshape(shape),
                           _rowwise(flat[:, n:], np.conj(rows).T).reshape(shape)],
                          axis=-1)


def _mu_real(alpha, z, ez) -> np.ndarray:
    return (-0.5 * np.imag((np.conj(ez) * z[..., None, :]).sum(axis=-1))
            - np.asarray(alpha, dtype=np.float64))


def _mu_holo(beta, z, ez) -> np.ndarray:
    n = z.shape[-1] // 2
    return (-1j * (ez[..., :n] * z[..., None, n:]).sum(axis=-1)
            - np.asarray(beta, dtype=np.complex128))


def _weighted_grad(ez, w_real, w_holo) -> np.ndarray:
    """The weighted gradient g_z of the module docstring; a zero weight is
    None."""
    n = ez.shape[-1] // 2
    terms = 0.0 if w_real is None else w_real[..., None] * ez
    if w_holo is not None:
        conj_jez = np.concatenate([np.conj(ez[..., n:]), -np.conj(ez[..., :n])],
                                  axis=-1)
        terms = terms + w_holo[..., None] * conj_jez
    return -2j * np.sum(terms, axis=-2)


def _halves(gz):
    n = gz.shape[-1] // 2
    return gz[..., :n], gz[..., n:]


def _energy_grad(basis: np.ndarray, which: str, alpha, beta, z):
    """The selected energy of the family ``basis`` and its gradient g_z, per
    state, from one application of the basis."""
    real, holo = _kind(which)
    ez = _apply(basis, z)
    mu1 = _mu_real(alpha, z, ez) if real else None
    mu_c = _mu_holo(beta, z, ez) if holo else None
    total = 0.0
    if real:
        total = total + (mu1 * mu1).sum(axis=-1)
    if holo:
        total = total + (np.real(mu_c) ** 2 + np.imag(mu_c) ** 2).sum(axis=-1)
    return total, _weighted_grad(ez, mu1, mu_c)


def moment_hk(rep: GroupRep, alpha, beta, x, y) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hyperkahler triple (mu1, mu2, mu3), levels subtracted."""
    z = _point(x, y)
    ez = _apply(rep.basis, z)
    mu_c = _mu_holo(beta, z, ez)
    return _mu_real(alpha, z, ez), np.real(mu_c), np.imag(mu_c)


def grad_component(rep: GroupRep, index: int, alpha, beta, x, y):
    """Gradient of |mu_index|^2 for index in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise InputError("component index must be 1, 2 or 3")
    z = _point(x, y)
    ez = _apply(rep.basis, z)
    if index == 1:
        return _halves(_weighted_grad(ez, _mu_real(alpha, z, ez), None))
    mu_c = _mu_holo(beta, z, ez)
    weight = np.real(mu_c) if index == 2 else 1j * np.imag(mu_c)
    return _halves(_weighted_grad(ez, None, weight))


def energy(rep: GroupRep, which: str, alpha, beta, x, y) -> np.ndarray:
    """Squared distance of the selected moment map from its level, per state."""
    return _energy_grad(rep.basis, which, alpha, beta, _point(x, y))[0]


def grad(rep: GroupRep, which: str, alpha, beta, x, y):
    """Gradient (complex form) of the selected energy."""
    return _halves(_energy_grad(rep.basis, which, alpha, beta, _point(x, y))[1])


def flow_objective(basis: np.ndarray, which: str, alpha, beta):
    """The selected energy with its gradient, as ``descend`` reads them: on a
    stack of states packed by pack_state, the gradients packed alike.

    The energy is that of the moment map of the skew-Hermitian family
    ``basis``, of shape (k, n, n), such as the basis of a GroupRep; its
    brackets are not read, so the family need not span a subalgebra.
    """

    def fun(states):
        f, gz = _energy_grad(basis, which, alpha, beta,
                             np.ascontiguousarray(states, dtype=np.float64)
                             .view(np.complex128))
        return f, gz.view(np.float64)

    return fun


def abelian_gradient_norm2(bmat: np.ndarray, beta: np.ndarray, x, y) -> float:
    """Closed form for |grad of the holomorphic energy|^2 on a torus.

    For the diagonal torus with integer weight rows b_j the squared
    gradient norm of (B^T z - beta)^H G^{-1} (B^T z - beta), z_j = x_j y_j,
    equals 4 sum_j (|x_j|^2 + |y_j|^2) |(B w)_j|^2 with w = G^{-1}(B^T z - beta).
    Here beta is the level in the original weight coordinates.
    """
    bmat = np.asarray(bmat, dtype=np.float64)
    if bmat.ndim != 2:
        raise InputError("weight matrix must be two-dimensional")
    if bmat.shape[1] == 0:
        return 0.0
    z = np.asarray(x) * np.asarray(y)
    gram = bmat.T @ bmat
    w = np.linalg.solve(gram, bmat.T @ z - np.asarray(beta, dtype=np.complex128))
    rates = bmat @ w
    sizes = np.abs(np.asarray(x)) ** 2 + np.abs(np.asarray(y)) ** 2
    return float(4.0 * np.sum(sizes * np.abs(rates) ** 2))


def pack_state(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Join complex (x, y) of shape (..., n) into real (..., 4n), re and im
    interleaved."""
    return np.concatenate([np.asarray(x, dtype=np.complex128),
                           np.asarray(y, dtype=np.complex128)], axis=-1).view(np.float64)


def unpack_state(state: np.ndarray, n: int):
    """Inverse of pack_state for base dimension n, as views of ``state``."""
    z = np.ascontiguousarray(state, dtype=np.float64).view(np.complex128)
    return z[..., :n], z[..., n:]
