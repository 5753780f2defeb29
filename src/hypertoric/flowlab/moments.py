"""Moment maps and energy gradients on the cotangent phase space.

States are pairs (x, y) of complex vectors: base and fiber coordinates
on the cotangent space of C^n.  The fiber transforms by the negative
transpose of the base action, which for a skew-Hermitian generator e is
its entrywise conjugate.  Real moment-map components carry the one-half
normalization; the holomorphic component does not, so that for a circle
acting with weight one on C the maps reduce to (|x|^2 - |y|^2)/2 and xy.

A state is packed as s in R^4n, the real and imaginary parts of the point
z = (x, y) interleaved, so that s.s' = Re<z, z'> with <u, v> = u^H v.  Each
component of the moment map of a unitary action is a quadratic form in s,

    mu_c = s.(Q_c s) - l_c,    Q_c symmetric,

and no Q_c need be formed, since every vector Q_c s comes from one product.
A basis element e_a acts on z as E_a = diag(e_a, conj(e_a)).  With

    w_a = -(i/2) E_a z    and    v_a = (-conj(w_a,y), conj(w_a,x)),

    mu1_a = Re<w_a, z> - alpha_a,
    muC_a = mu2_a + i mu3_a = <v_a, z> - beta_a = -i y^T e_a x - beta_a,

and Im<v_a, z> = Re<i v_a, z>.  So w_a, v_a and i v_a, packed, are Q_c s
for mu1_a, mu2_a and mu3_a.  Each map is symmetric for s.s': -(i/2) E_a is
Hermitian, and x^T conj(e_a) y' = -y'^T e_a x since e_a^T = -conj(e_a).
Since v_a and i v_a are real-linear in s, like w_a, each of the three
is a real matrix: s G_w = (w_1, ..., w_k) packed, and G_v and G_iv alike.
The blocks the energy reads, built once per family and energy, give every
Q_c s in one batched product, s G = (p_1, ..., p_C).  The columns of G_v
and G_iv are those of G_w with halves swapped, signs flipped and real and
imaginary parts exchanged, which the product commutes with exactly.  With
p_c = Q_c s and the residuals r_c = p_c.s - l_c,

    f = sum_c r_c^2,    grad f = sum_c 2 r_c grad(s.Q_c s) = 4 sum_c r_c p_c,

so an energy and its gradient are three contractions of p.  The energies
read mu1 (muR2), muC (muC2) or both (muHK2).  The gradient is returned in
complex form: the complex vector whose real and imaginary parts are the
partial derivatives with respect to the real and imaginary parts of the
coordinate.  Flowing along its negative is plain gradient descent in real
coordinates.

States come in stacks: x and y of shape (T, n) hold T states (a single
state has shape (n,)), and every value is returned per state.  The
product with G is taken a chunk of rows at a time and may sum in an order
that depends on the chunk, so a state's values equal those it has in a
stack of one to rounding, not always bit for bit.  On a torus every
column of G holds one nonzero entry, so p is exact, and since every
contraction is taken state by state the values are the same in any stack.
"""

from typing import Tuple

import numpy as np

from ..errors import InputError

# The components each energy reads: 0 for mu1, 1 and 2 for mu2 and mu3.
_PARTS = {"muR2": (0,), "muC2": (1, 2), "muHK2": (0, 1, 2)}
ENERGY_KINDS = tuple(_PARTS)

# A stack meets G in chunks of 2^19 // (16 n^2 k) rows (33 at n = 14,
# k = 5), so that the product of a chunk with each 4n x 4nk block stays
# below 2^19 multiply-adds: OpenBLAS gives such a product one thread, and
# waking a second one can stall for milliseconds on a loaded host.  A chunk
# meets the blocks in one batched product, so its length does not depend on
# how many blocks the energy reads; one matrix of all three blocks would
# allow 11 rows at n = 14, k = 5, which ran slower per row.
_ONE_THREAD_MADDS = 1 << 19


def _parts(which: str) -> Tuple[int, ...]:
    if which not in _PARTS:
        raise InputError(f"unknown energy kind {which!r}")
    return _PARTS[which]


def _generators(basis: np.ndarray, parts) -> np.ndarray:
    """The real blocks G_b, of shape (len(parts), 4n, 4nk), with s G_b the
    packed (Q_c s for c = (parts[b], a), a = 1..k): w, v or i v.  Row i of a
    block is its image of the state packed as the i-th unit vector."""
    k, n = basis.shape[:2]
    unit = np.eye(4 * n).view(np.complex128)
    w = -0.5j * np.concatenate([np.einsum("aml,il->iam", basis, unit[:, :n]),
                                np.einsum("aml,il->iam", np.conj(basis), unit[:, n:])],
                               axis=-1)
    v = np.concatenate([-np.conj(w[..., n:]), np.conj(w[..., :n])], axis=-1)
    blocks = np.stack([w, v, 1j * v])[list(parts)]
    return np.ascontiguousarray(blocks).view(np.float64).reshape(len(parts), 4 * n, -1)


def moment_terms(basis: np.ndarray, parts, alpha, beta):
    """The map from a stack s of packed states, of shape (T, 4n), to the
    residuals r, of shape (T, C), and the vectors p = Q_c s, of shape
    (T, C, 4n), of the components c = (part, a) of ``parts``, part-major.

    Raises InputError unless alpha and beta have one entry per element of
    ``basis``, of shape (k, n, n).
    """
    k, n = basis.shape[:2]
    alpha, beta = np.asarray(alpha, dtype=np.float64), np.asarray(beta, dtype=np.complex128)
    for name, level in (("alpha", alpha), ("beta", beta)):
        if level.shape != (k,):
            raise InputError(f"{name} must have k = {k} entries, one per basis "
                             f"element; got shape {level.shape}")
    levels = np.stack([alpha, beta.real, beta.imag])[list(parts)].ravel()
    gen = _generators(basis, parts)
    rows = max(1, _ONE_THREAD_MADDS // max(gen[0].size, 1))

    def evaluate(s):
        count = len(s)
        p = np.empty((count, len(parts), 4 * n * k))
        for i in range(0, count, rows):
            np.matmul(s[i:i + rows], gen, out=p[i:i + rows].transpose(1, 0, 2))
        p = p.reshape(count, levels.size, 4 * n)
        r = (p @ s[:, :, None]).reshape(count, levels.size) - levels
        return r, p

    return evaluate


def flow_objective(basis: np.ndarray, which: str, alpha, beta):
    """The selected energy with its gradient, as ``descend`` reads them: on a
    stack of states packed by pack_state, the gradients packed alike.

    The energy is that of the moment map of the skew-Hermitian family
    ``basis``, of shape (k, n, n), such as the basis of a GroupRep; its
    brackets are not read, so the family need not span a subalgebra.
    Raises InputError unless alpha and beta have k entries each.
    """
    evaluate = moment_terms(basis, _parts(which), alpha, beta)

    def fun(states):
        states = np.ascontiguousarray(states, dtype=np.float64)
        s = states.reshape(-1, states.shape[-1])
        r, p = evaluate(s)
        f = r[:, None, :] @ r[:, :, None]
        return (f.reshape(states.shape[:-1]),
                ((4.0 * r)[:, None, :] @ p).reshape(states.shape))

    return fun


def pack_state(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Join complex (x, y) of shape (..., n) into real (..., 4n), re and im
    interleaved."""
    return np.concatenate([np.asarray(x, dtype=np.complex128),
                           np.asarray(y, dtype=np.complex128)], axis=-1).view(np.float64)


def unpack_state(state: np.ndarray, n: int):
    """Inverse of pack_state for base dimension n, as views of ``state``."""
    z = np.ascontiguousarray(state, dtype=np.float64).view(np.complex128)
    return z[..., :n], z[..., n:]
