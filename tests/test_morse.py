from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flat_reference import reference_flats, weight_configurations
from hypertoric import morse
from hypertoric.errors import (InvariantViolation, NonGenericAlpha, NonGenericBeta,
                               NonZeroRemainder, PartitionViolation, RankDeficient)
from hypertoric.exact import int_rank, trim
from hypertoric.crosscheck import polynomial_recurrence
from hypertoric.flats import lattice
from hypertoric.morse import (_below, critical_components, modification_cases,
                              poincare_morse)
from hypertoric.torus import modify, negative_rows, new_setup, sample_generic

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


class TestPoincare:
    def test_projective_cotangent_series(self):
        # cotangent bundles of projective spaces: all coefficients 1
        for n in range(1, 5):
            weights = tuple((1,) for _ in range(n + 1))
            assert poincare_morse(weights) == (1,) * (n + 1)

    def test_triple(self):
        assert poincare_morse(TRIPLE) == (1, 2)

    def test_points(self):
        assert poincare_morse(((1, 0), (0, 1))) == (1,)
        assert poincare_morse(((1,),)) == (1,)

    def test_trivial_torus_is_contractible(self):
        assert poincare_morse(((), ())) == (1,)

    def test_scaled_weights_share_matroid(self):
        assert poincare_morse(((1,), (2,))) == (1, 1)

    def test_rank_deficient_weights_rejected(self):
        with pytest.raises(RankDeficient):
            poincare_morse(((1, 1), (2, 2)))

    def test_zero_row_is_inert(self):
        assert poincare_morse(((0,), (1,))) == (1,)
        assert poincare_morse(((0, 0), (1, 0), (0, 1), (1, 1))) == \
            poincare_morse(TRIPLE)

    def test_constant_term_and_degree_bound(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (2,), (3,))]:
            p = poincare_morse(weights)
            assert p[0] == 1
            n, d = len(weights), len(weights[0])
            assert len(p) - 1 <= n - d


def one_minus_q(power) -> tuple:
    """(1 - q)^power by the binomial theorem."""
    return tuple((-1) ** j * comb(power, j) for j in range(power + 1))


def times(p, r) -> list:
    """The product of two coefficient sequences."""
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def shifted_sum(terms) -> tuple:
    """The sum of q^shift p over (shift, p) pairs, trimmed."""
    total = []
    for shift, p in terms:
        total += [0] * (shift + len(p) - len(total))
        for k, c in enumerate(p):
            total[shift + k] += c
    return trim(total)


def spanning_set_sum(weights):
    """Sum over the subsets A of the rows with their full rank r of
    q^(n-|A|) (1-q)^(|A|-r).

    For weights of rank d this is q^(n-d) T_M(1, 1/q) for the Tutte
    polynomial T_M of the rows (Hausel-Sturmfels, Toric hyperKahler
    varieties, 2002), computed with no flats and no recursion; on the rows
    of a flat J it is P(J), the Poincare polynomial of the sub-configuration
    on J, whose rank is rk J.
    """
    n = len(weights)
    d = len(weights[0]) if weights else 0
    r = int_rank(weights, d)
    return shifted_sum(
        (n - size, one_minus_q(size - r))
        for size in range(r, n + 1)
        for subset in combinations(range(n), size)
        if int_rank([weights[j] for j in subset], d) == r)


class TestPoincareAgainstTutte:
    @given(weight_configurations())
    @settings(max_examples=100, deadline=None)
    def test_morse_equals_spanning_set_sum(self, weights):
        d = len(weights[0]) if weights else 0
        assume(not weights or not d or int_rank(weights, d) == d)
        assert poincare_morse(weights) == spanning_set_sum(weights)


def perfection_sum(weights) -> tuple:
    """Sum of q^{n-|J|} (1-q)^{rank J} P(J) over all flats, with rank J the
    length of the lattice's basis and P(J) the spanning-set sum on J's rows.

    Equals the constant polynomial 1.
    """
    n = len(weights)
    return shifted_sum(
        (n - len(f), times(one_minus_q(len(basis)),
                           spanning_set_sum([weights[j] for j in f])))
        for f, basis in lattice(weights))


class TestPerfection:
    def test_known_configurations(self):
        for weights in [DIAG2, TRIPLE, ((1, 0), (0, 1)),
                        ((1,), (1,), (1,), (1,)), ((0,), (1,), (2,))]:
            assert perfection_sum(weights) == (1,)

    @given(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                             min_size=2, max_size=2),
                    min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_full_rank(self, rows):
        weights = tuple(tuple(r) for r in rows)
        if int_rank(weights, 2) != 2:
            return
        assert perfection_sum(weights) == (1,)


class TestCriticalSets:
    def test_diagonal_circle(self):
        s = new_setup(DIAG2, [1], [(3, 0)])
        flats, ranks, indices, levels = zip(*critical_components(s))
        assert list(flats) == [(), (0, 1)]
        assert list(levels) == [Fraction(9, 2), Fraction(0)]
        assert list(indices) == [4, 0]
        assert list(ranks) == [0, 1]

    def test_requires_generic_beta(self):
        s = new_setup(DIAG2, [1], [(0, 0)])
        with pytest.raises(NonGenericBeta):
            critical_components(s)

    def test_levels_strictly_separated(self):
        s = sample_generic(new_setup(TRIPLE), seed=3)
        levels = [level for *_, level in critical_components(s)]
        assert len(set(levels)) == len(levels)


GENERAL3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def edit_flats(monkeypatch, weights, edit):
    """Let morse read edit(table) as the lattice of weights, a table of
    (flat, basis) pairs."""
    real = morse.lattice
    monkeypatch.setattr(morse, "lattice", lambda w: (
        edit(real(w)) if w == weights else real(w)))


def without(gone):
    """The edit that drops the flat gone from a lattice table."""
    return lambda table: tuple(entry for entry in table if entry[0] != gone)


class TestWalk:
    """``_below`` walks the lattice's prefix tree for the flats inside each
    flat, and both the recursion and the level check read it."""

    @given(weight_configurations())
    @settings(max_examples=100, deadline=None)
    def test_the_walk_finds_exactly_the_flats_inside(self, weights):
        table = lattice(weights)
        reference = [f for f, _ in reference_flats(weights)]
        assert [f for f, _ in table] == reference
        for f, inside in zip(reference, _below(table)):
            found = [reference[k] for k in inside]
            assert len(found) == len(set(found))
            assert set(found) == {g for g in reference if set(g) < set(f)}

    def test_an_orphan_raises_and_names_the_missing_prefix(self, monkeypatch):
        # The atom (0,) is the parent of the flats (0, 1), (0, 2) and (0, 3).
        setup = sample_generic(new_setup(GENERAL3), seed=1)
        edit_flats(monkeypatch, GENERAL3, without((0,)))
        message = r"flat \(0, 1\)'s basis prefix \(0,\) has no flat"
        with pytest.raises(InvariantViolation, match=message):
            poincare_morse(GENERAL3)
        with pytest.raises(InvariantViolation, match=message):
            critical_components(setup)

    def test_a_childless_missing_flat_leaves_a_remainder(self, monkeypatch):
        # The coatom (2, 3) is no flat's parent: the top flat's basis is
        # (0, 1, 2).
        assert lattice(GENERAL3)[-1][1] == (0, 1, 2)
        edit_flats(monkeypatch, GENERAL3, without((2, 3)))
        with pytest.raises(NonZeroRemainder):
            poincare_morse(GENERAL3)


class TestSignSplit:
    """Rows outside a flat split by the sign of their pairing with alpha,
    read from ``negative_rows``."""

    def test_diagonal_circle_signs(self):
        assert negative_rows(new_setup(DIAG2, [1]))[()] == ()
        assert negative_rows(new_setup(DIAG2, [-1]))[()] == (0, 1)

    def test_rows_in_flat_excluded(self):
        # Of the rows 0 and 1 outside the flat (2,), alpha = (1, 3) pairs
        # negatively with row 0 only.
        negative = negative_rows(new_setup(TRIPLE, [1, 3]))
        assert negative[(2,)] == (0,)
        assert all(not set(f) & set(rows) for f, rows in negative.items())

    def test_zero_pairing_raises(self):
        s = new_setup(TRIPLE, [1, 2])  # pairs to zero against row 0
        with pytest.raises(NonGenericAlpha) as raised:
            negative_rows(s)
        assert raised.value.witness == ("pairing", (), 0)


def pair_of(weights, circle):
    return modify(new_setup(weights), circle)


class TestModification:
    def test_recurrence_diagonal_circle(self):
        p_base, p_enl, p_ext, ok = polynomial_recurrence(pair_of(DIAG2, (1, 0)))
        assert p_base == (1, 1)
        assert p_enl == (1,)
        assert p_ext == (1, 2)
        assert ok

    def test_recurrence_batch(self):
        pairs = [
            (DIAG2, (1, 0)),
            (DIAG2, (0, 1)),
            (TRIPLE, (1, 0, 0)),
            (TRIPLE, (0, 0, 1)),
            (((1,), (1,), (1,)), (1, 0, 0)),
            (((1,), (2,), (3,)), (0, 1, 1)),
        ]
        for weights, circle in pairs:
            *_, ok = polynomial_recurrence(pair_of(weights, circle))
            assert ok, (weights, circle)

    def test_recurrence_rejects_spanned_circle(self):
        from hypertoric.errors import CircleInsideTorus
        with pytest.raises(CircleInsideTorus):
            pair_of(TRIPLE, (0, 1, 1))

    def test_cases_diagonal_circle(self):
        new_only, shared_both, shared_extended = modification_cases(
            pair_of(DIAG2, (1, 0)))
        assert new_only == ((0,), (1,))
        assert shared_both == ((),)
        assert shared_extended == ((0, 1),)

    def test_case_sizes_sum_to_enlarged_flat_count(self):
        for weights, circle in [(TRIPLE, (1, 0, 0)), (DIAG2, (0, 1)),
                                (((1,), (1,), (1,)), (1, -1, 0))]:
            new_only, shared_both, shared_extended = modification_cases(
                pair_of(weights, circle))
            total = len(new_only) + len(shared_both) + len(shared_extended)
            wide = tuple(row + (c,) for row, c in zip(weights, circle))
            assert total == len(reference_flats(wide))

    def test_a_flat_in_no_case_raises(self, monkeypatch):
        # Without the base flat (), the enlarged flat () is an extended flat
        # both with and without the new row, but not a base flat.
        pair = pair_of(DIAG2, (1, 0))
        base, _, _ = pair
        edit_flats(monkeypatch, base.weights, lambda table: table[1:])
        with pytest.raises(PartitionViolation, match=r"flat \(\) fits no modification "
                           r"case \(base=False, ext=True, ext\+new=True\)"):
            modification_cases(pair)

    def test_a_flat_no_case_covers_raises(self, monkeypatch):
        # Without the enlarged flat (0,), every other enlarged flat still
        # fits its case, and only the extended flat (0,) is left uncovered.
        pair = pair_of(DIAG2, (1, 0))
        _, enlarged, _ = pair
        edit_flats(monkeypatch, enlarged.weights, without((0,)))
        with pytest.raises(PartitionViolation, match=r"the cases miss flats: "
                           r"extended \[\(0,\)\], base \[\]$"):
            modification_cases(pair)
