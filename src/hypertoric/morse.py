"""Critical structure of the moment-map energy and the induced recursion.

Each flat J of the weight configuration carries one critical manifold of the
energy |mu_C - beta|^2: its Morse index is twice the number of rows outside
J, its value is the squared length of the beta-residual, and its local data
is the sub-configuration on J.  Summing the downward contributions over all
flats telescopes to the constant 1, which pins down the Poincare polynomial
by exact division -- no floating point anywhere.
"""

from __future__ import annotations

from .errors import InvariantViolation, PartitionViolation, RankDeficient
from .exact import divide_by_one_minus_q, int_rank
from .flats import lattice
from .torus import TorusSetup, critical_levels


def _below(table):
    """The table indices of the flats strictly inside each flat, in table
    order.  A flat's parent, the flat of its basis less the last row, comes
    before it.  G lies in F exactly when G's basis does, as F is closed, and
    then so do the bases of G's ancestors, its prefixes; so the walk from the
    bottom flat through children whose last basis row lies in F reaches
    them.  A basis prefix with no flat raises InvariantViolation."""
    index = {basis: i for i, (_, basis) in enumerate(table)}
    children = [[] for _ in table]  # (last basis row, index) of each child
    for i, (f, basis) in enumerate(table):
        if basis and basis[:-1] not in index:
            raise InvariantViolation(f"flat {f}'s basis prefix {basis[:-1]} has no flat")
        rows = set(f)
        inside = [index[()]] if basis else []
        for g in inside:  # the loop reads what it appends
            for j, c in children[g]:
                if j in rows:
                    inside.append(c)
        if basis:
            children[index[basis[:-1]]].append((basis[-1], i))
        yield inside


def critical_components(setup: TorusSetup) -> tuple:
    """All critical manifolds, one (flat, rank, index, level) per flat, in
    (size, lex) flat order: the flat's rank, the Morse index 2 * (rows
    outside the flat), and the exact energy value |beta_residual|^2.  A flat
    J's level is above that of each flat K containing it (J from ``_below``):
    equality would make beta_J pair to zero with every row of K - J, which
    the beta decision refuses.  A level not above raises InvariantViolation."""
    levels = critical_levels(setup)
    table = lattice(setup.weights)
    for (f, _), inside in zip(table, _below(table)):
        for g in inside:
            g = table[g][0]
            if not levels[g] > levels[f]:
                raise InvariantViolation(f"flat {g} lies in flat {f}, but its level "
                                         f"{levels[g]} is not above {levels[f]}")
    return tuple((f, len(basis), 2 * (setup.n - len(f)), levels[f])
                 for f, basis in table)


# ---------------------------------------------------------------------------
# Poincare polynomial by induction over the flat lattice
# ---------------------------------------------------------------------------


def poincare_morse(weights) -> tuple:
    """Poincare polynomial in q = t^2 of the quotient for these weights.

    The contributions of all critical manifolds sum to 1.  The flats of the
    sub-configuration on a flat F are the flats inside F, with the same
    ranks, so its Poincare polynomial P(F) is, bottom-up over the lattice,
    (1-q)^{rk F} P(F) = 1 - sum over G < F of q^{|F|-|G|} (1-q)^{rk G} P(G);
    the top flat's is P, each G < F from ``_below``.  Every division is exact,
    so each is made: a missing flat leaves a remainder or orphans its children.
    A top flat whose basis is shorter than d blames the weights only when their
    own rank is below d; otherwise the lattice is at fault.
    """
    d = len(weights[0]) if weights else 0
    table = lattice(weights)
    top = len(table[-1][1])
    if top != d:
        if int_rank(weights, d) < d:
            raise RankDeficient("weights must have full column rank")
        raise InvariantViolation(f"the flat lattice has rank {top}, the weights {d}")
    lifted = []  # (1-q)^{rk G} P(G) coefficients of each flat G, in table order
    for (f, basis), inside in zip(table, _below(table)):
        acc = [1] + [0] * len(f)
        for g in inside:  # G's term has |G| + 1 coefficients
            for k, c in enumerate(lifted[g], len(f) + 1 - len(lifted[g])):
                acc[k] -= c
        lifted.append(acc)
        poly = divide_by_one_minus_q(acc, len(basis))
    return poly


# ---------------------------------------------------------------------------
# Modification along a circle: case analysis
# ---------------------------------------------------------------------------


def modification_cases(pair: tuple) -> tuple:
    """Classify enlarged-configuration flats into the three recursion cases,
    (new_only, shared_both, shared_extended): the enlarged flats that are
    extended flats but not base flats, the base flats staying flats with
    and without the new row, and the base flats that stay flats only with
    the new row added.  The pair is ``torus.modify``'s (base, enlarged,
    extended).

    Every enlarged flat must land in exactly one case, and together the cases
    must cover each extended flat and each base flat exactly once; any
    violation is raised rather than papered over.
    """
    base, enlarged, extended = pair
    n = base.n
    base_flats = {f for f, _ in lattice(base.weights)}
    ext_flats = {f for f, _ in lattice(extended.weights)}
    # (in base, in extended, with row n in extended) -> the enlarged flats
    cases = {(False, True, False): [], (True, True, True): [],
             (True, False, True): []}
    for f, _ in lattice(enlarged.weights):
        key = (f in base_flats, f in ext_flats, f + (n,) in ext_flats)
        if key not in cases:
            raise PartitionViolation(
                f"flat {f} fits no modification case "
                f"(base={key[0]}, ext={key[1]}, ext+new={key[2]})")
        cases[key].append(f)
    new_only, shared_both, shared_extended = map(tuple, cases.values())
    # Each enlarged flat f is visited once, f never holds row n and f + (n,)
    # always does, so no flat is covered twice, and each cover lies inside
    # its flats: the equalities fail only on a flat no case covers.
    ext_cover = set(new_only + shared_both) | {
        f + (n,) for f in shared_both + shared_extended}
    base_cover = set(shared_both + shared_extended)
    if ext_cover != ext_flats or base_cover != base_flats:
        raise PartitionViolation(
            f"the cases miss flats: extended {sorted(ext_flats - ext_cover)}, "
            f"base {sorted(base_flats - base_cover)}")
    return new_only, shared_both, shared_extended
