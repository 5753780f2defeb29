"""Moment maps and energy gradients on the cotangent phase space.

States are pairs (x, y) of complex vectors: base and fiber coordinates
on the cotangent space of C^n.  The fiber transforms by the negative
transpose of the base action, which for a skew-Hermitian generator e is
its entrywise conjugate.  Real moment-map components carry the one-half
normalization; the holomorphic component does not, so that for a circle
acting with weight one on C the maps reduce to (|x|^2 - |y|^2)/2 and xy.

Everything is read off the basis applied once to the state, the rows
e_a x and conj(e_a) y; since e_a^T = -conj(e_a), no third product is
needed.  With <u, v> = u^H v,

    mu1_a = -Im<e_a x, x>/2 - Im<conj(e_a) y, y>/2 - alpha_a,
    muC_a = mu2_a + i mu3_a = -i y^T e_a x - beta_a.

Gradients are returned in complex form: the complex vector whose real
and imaginary parts are the partial derivatives with respect to the real
and imaginary parts of the coordinate.  Flowing along the negative of
that vector is plain gradient descent in real coordinates.

Every gradient is one weighted form.  For a real weight w and a complex
weight c, the gradient of 2 sum_a (w_a mu1_a + Re(conj(c_a) muC_a)) at
fixed weights is

    g_x = -2i sum_a (w_a e_a x + c_a conj(conj(e_a) y)),
    g_y = -2i sum_a (w_a conj(e_a) y - c_a conj(e_a x)).

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


def _apply(rep: GroupRep, x, y, fiber: bool = True):
    """The basis applied once to the state: rows e_a x and conj(e_a) y.

    The fiber rows are left out (None) when ``fiber`` is false; muC alone
    reads only e_a x.
    """
    return rep.basis @ x, (np.conj(rep.basis) @ y if fiber else None)


def _mu_real(alpha, x, y, ex, eyc) -> np.ndarray:
    return (-0.5 * np.imag(np.conj(ex) @ x + np.conj(eyc) @ y)
            - np.asarray(alpha, dtype=np.float64))


def _mu_holo(beta, y, ex) -> np.ndarray:
    return -1j * (ex @ y) - np.asarray(beta, dtype=np.complex128)


def _weighted_grad(ex, eyc, w_real, w_holo):
    """The weighted gradient of the module docstring; a zero weight is None."""
    gx = gy = 0.0
    if w_real is not None:
        gx, gy = w_real @ ex, w_real @ eyc
    if w_holo is not None:
        gx, gy = gx + w_holo @ np.conj(eyc), gy - w_holo @ np.conj(ex)
    return -2j * gx, -2j * gy


def moment_hk(rep: GroupRep, alpha, beta, x, y) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hyperkahler triple (mu1, mu2, mu3), levels subtracted."""
    ex, eyc = _apply(rep, x, y)
    mu_c = _mu_holo(beta, y, ex)
    return _mu_real(alpha, x, y, ex, eyc), np.real(mu_c), np.imag(mu_c)


def grad_component(rep: GroupRep, index: int, alpha, beta, x, y):
    """Gradient of |mu_index|^2 for index in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise InputError("component index must be 1, 2 or 3")
    ex, eyc = _apply(rep, x, y)
    if index == 1:
        return _weighted_grad(ex, eyc, _mu_real(alpha, x, y, ex, eyc), None)
    mu_c = _mu_holo(beta, y, ex)
    weight = np.real(mu_c) if index == 2 else 1j * np.imag(mu_c)
    return _weighted_grad(ex, eyc, None, weight)


def energy(rep: GroupRep, which: str, alpha, beta, x, y) -> float:
    """Squared distance of the selected moment map from its level."""
    real, holo = _kind(which)
    ex, eyc = _apply(rep, x, y, fiber=real)
    total = 0.0
    if real:
        mu1 = _mu_real(alpha, x, y, ex, eyc)
        total += float(mu1 @ mu1)
    if holo:
        mu_c = _mu_holo(beta, y, ex)
        total += float(np.real(np.vdot(mu_c, mu_c)))
    return total


def grad(rep: GroupRep, which: str, alpha, beta, x, y):
    """Gradient (complex form) of the selected energy."""
    real, holo = _kind(which)
    ex, eyc = _apply(rep, x, y)
    return _weighted_grad(ex, eyc,
                          _mu_real(alpha, x, y, ex, eyc) if real else None,
                          _mu_holo(beta, y, ex) if holo else None)


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
    """Interleave (x, y) into one flat real vector."""
    xs = np.ascontiguousarray(x, dtype=np.complex128)
    ys = np.ascontiguousarray(y, dtype=np.complex128)
    return np.concatenate([xs.view(np.float64), ys.view(np.float64)])


def unpack_state(state: np.ndarray, n: int):
    """Inverse of pack_state for base dimension n."""
    flat = np.ascontiguousarray(state, dtype=np.float64)
    x = flat[:2 * n].copy().view(np.complex128)
    y = flat[2 * n:].copy().view(np.complex128)
    return x, y
