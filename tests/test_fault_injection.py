"""Planted faults: the exact side refuses, flags, or is not moved.

Three faults are monkeypatches of the flat lattice, the table that Morse,
both rings and the genericity decisions read: drop its last coatom, drop
its first atom, or let its row echelon reduce row 2 as row 1, so that
rows 1 and 2 read as parallel (a zero row lies in every flat and is never
reduced, so a zero row 2 is not moved).  On every setup ``analyze`` must
raise with exit code 3 or 4, set an agreement flag false, or return the
unfaulted report; a changed report with every flag true would be a wrong
answer the cross-checks let through.  Every fault must also be caught on
some setup, so that a fault which changes nothing cannot pass.  The four
caches are cleared around every faulted run, so no table built from a
faulted lattice outlives it.

Three more are planted in the ring's ranks, at ``ringcalc.certified_rank``:
one coefficient of a left-null relation flipped, which must end in exit 4
whenever the relation is read; no relations at all, which must give the
true report through p-adic lifting; and a rank one short in one degree,
which must be refused or flagged.

Seven more are planted one in each of seven layers, under the lattice
faults' contract: 1 added to the census's d_0 (``face_census``), Horner's
rule run on the counts without the last one (``census_poincare``), 1
added to the constant term of every Morse quotient
(``divide_by_one_minus_q``), the sign of one row flipped in the first
coatom that the circle ring reads (its ``negative_rows``), the first two
critical levels swapped (``morse.critical_levels``), 1 added to the first
coordinate of the first wall (``torus.walls_of``), and the determinant of
the census's first solvable vertex basis negated (``arrangement.int_solve``).
Every row negative, or every row positive, at the circle ring's
``negative_rows`` left every report unchanged: the ring's presentation
does not see alpha's signs, so those two faults cannot be caught and are
not planted.

The lattice faults run on the catalog's setups with d >= 2 and 30 random
generic ones (n 3-6, d 2-3, entries in [-2, 2]) from a fixed seed; at
d = 1 the lattice has two flats and they cannot show.  The ring and
layer faults run on the whole catalog and the same 30.  Each setup's
unfaulted report is computed once for the module, except where a test
counts what the unfaulted run does.
"""

import random
import sys

import pytest

from hypertoric import arrangement, exact, flats, morse, ringcalc, torus
from hypertoric.crosscheck import analyze
from hypertoric.errors import HypertoricError
from hypertoric.exact import certified_rank, int_rank
from hypertoric.torus import derived_seed, new_setup, sample_generic
from test_acceptance import CATALOG

CACHES = (flats.lattice, torus.walls_of, torus._alpha_signs, torus._beta_levels)
TRUE_LATTICE = flats.lattice
TRUE_REDUCED = flats._reduced
TRUE_LIFTING = exact._kernel_certified


def random_weights(rng):
    while True:
        d = rng.randint(2, 3)
        n = rng.randint(3, 6)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n))
        if int_rank(rows, d) == d:
            return rows


def setups():
    rng = random.Random(22)
    weights = list(CATALOG) + [random_weights(rng) for _ in range(30)]
    return [sample_generic(new_setup(w), derived_seed("faults", w)) for w in weights]


@pytest.fixture(scope="module")
def cases():
    """(setup, its unfaulted report) for every setup, analyzed once for all
    the faults."""
    return [(setup, unfaulted(setup)) for setup in setups()]


def drop(pick):
    """A lattice without the flat ``pick`` chooses from its table."""
    def faulty(weights):
        table = TRUE_LATTICE(weights)
        gone = pick(table)
        return tuple(entry for entry in table if entry[0] != gone)
    return faulty


def last_coatom(table):
    rank = len(table[-1][1])
    return [f for f, basis in table if len(basis) == rank - 1][-1]


def first_atom(table):
    return [f for f, basis in table if len(basis) == 1][0]


def plant(monkeypatch, fault, setup):
    """Patch every module that binds the faulted function."""
    if fault == "parallel-rows":
        first, second = setup.weights[:2]
        monkeypatch.setattr(flats, "_reduced", lambda echelon, row: TRUE_REDUCED(
            echelon, first if row == second else row))
        return
    faulty = drop(last_coatom if fault == "last-coatom" else first_atom)
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "hypertoric"
                and getattr(module, "lattice", None) is TRUE_LATTICE):
            monkeypatch.setattr(module, "lattice", faulty)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def unfaulted(setup):
    clear_caches()
    truth = analyze(setup)
    assert truth.agreement["all"], setup
    return truth


def outcome(setup, truth):
    """The error's name, "flagged" or "unchanged" for one faulted run."""
    clear_caches()
    try:
        result = analyze(setup)
    except HypertoricError as exc:
        assert exc.exit_code in (3, 4), (setup, exc)
        return type(exc).__name__
    finally:
        clear_caches()
    if not result.agreement["all"]:
        return "flagged"
    assert result == truth, setup
    return "unchanged"


@pytest.mark.parametrize("fault", ["last-coatom", "first-atom", "parallel-rows"])
def test_a_fault_is_refused_flagged_or_harmless(fault, cases):
    outcomes = []
    for setup, truth in cases:
        if setup.dim < 2:
            continue
        with pytest.MonkeyPatch.context() as monkeypatch:
            plant(monkeypatch, fault, setup)
            outcomes.append(outcome(setup, truth))
    assert len(outcomes) == 37
    assert set(outcomes) - {"unchanged"}


def flip_first(relations, read):
    """The relations, the first with its first coefficient negated; read
    records that it was handed over."""
    for t, y in enumerate(relations):
        if t == 0:
            (row, c), *rest = y
            y = [(row, -c), *rest]
            read.append(row)
        yield y


def test_a_flipped_relation_ends_in_exit_4(cases):
    outcomes = []
    for setup, truth in cases:
        read = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(ringcalc, "certified_rank", lambda rows, ncols, relations=():
                                certified_rank(rows, ncols, flip_first(relations, read)))
            outcomes.append(outcome(setup, truth))
        assert outcomes[-1] == ("InvariantViolation" if read else "unchanged"), setup
    assert len(outcomes) == 50
    assert "InvariantViolation" in outcomes


def test_no_relations_give_the_true_report_through_lifting(monkeypatch):
    liftings = []

    def lifting(*args):
        liftings.append(args)
        return TRUE_LIFTING(*args)

    monkeypatch.setattr(exact, "_kernel_certified", lifting)
    lifted_more = 0
    for setup in setups():
        liftings.clear()
        truth = unfaulted(setup)
        before = len(liftings)
        liftings.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ringcalc, "certified_rank",
                          lambda rows, ncols, relations=(): certified_rank(rows, ncols))
            assert outcome(setup, truth) == "unchanged", setup
        lifted_more += len(liftings) > before
    assert lifted_more


def test_a_rank_one_short_is_refused_or_flagged(cases):
    outcomes = []
    for setup, truth in cases:
        short = []

        def one_short(rows, ncols, relations=()):
            rank = certified_rank(rows, ncols, relations)
            if rank and not short:
                short.append(rank)
                return rank - 1
            return rank

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(ringcalc, "certified_rank", one_short)
            outcomes.append(outcome(setup, truth))
        assert short and outcomes[-1] != "unchanged", setup
    assert len(outcomes) == 50



def bump_first(coeffs):
    """The coefficients with 1 added to the first."""
    return (coeffs[0] + 1, *coeffs[1:])


def flip_first_coatom(setup, negative):
    """The negative rows with the sign of the first coatom's first outside
    row flipped."""
    d = setup.dim
    coatom = next(f for f, basis in TRUE_LATTICE(setup.weights)
                  if len(basis) == d - 1)
    row = next(i for i in range(setup.n) if i not in coatom)
    return {**negative, coatom: tuple(sorted(set(negative[coatom]) ^ {row}))}


def swap_first_two(levels):
    """The levels with the values of the first two flats exchanged."""
    (f, a), (g, b), *rest = levels.items()
    return {f: b, g: a, **dict(rest)}


def shift_first_wall(table):
    """The wall table with 1 added to the first coordinate of the first
    wall of the first flat that has one."""
    f = next(f for f, (walls, _, _) in table.items() if walls)
    ((i, h), *walls), form, denom = table[f]
    return {**table, f: (((i, (h[0] + 1, *h[1:])), *walls), form, denom)}


def negate_first_solution(true):
    """int_solve with the determinant of its first solvable system negated."""
    done = []

    def faulty(rows, rhs_rows):
        solved = true(rows, rhs_rows)
        if solved is None or done:
            return solved
        done.append(solved)
        return -solved[0], solved[1]
    return faulty


# fault -> (module, name, the faulty function made from the true one)
LAYER_FAULTS = {
    "census-count": (arrangement, "face_census",
                     lambda true: lambda setup: bump_first(true(setup))),
    "horner-short": (arrangement, "census_poincare",
                     lambda true: lambda counts: true(counts[:-1])),
    "morse-division": (morse, "divide_by_one_minus_q",
                       lambda true: lambda coeffs, power: bump_first(
                           true(coeffs, power))),
    "coatom-sign": (ringcalc, "negative_rows",
                    lambda true: lambda setup: flip_first_coatom(
                        setup, true(setup))),
    "level-swap": (morse, "critical_levels",
                   lambda true: lambda setup: swap_first_two(true(setup))),
    "wall-shift": (torus, "walls_of",
                   lambda true: lambda weights: shift_first_wall(true(weights))),
    "vertex-sign": (arrangement, "int_solve", negate_first_solution),
}


@pytest.mark.parametrize("fault", LAYER_FAULTS)
def test_a_layer_fault_is_refused_flagged_or_harmless(fault, cases):
    module, name, make = LAYER_FAULTS[fault]
    outcomes = []
    for setup, truth in cases:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(module, name, make(getattr(module, name)))
            outcomes.append(outcome(setup, truth))
    assert len(outcomes) == 50
    assert set(outcomes) - {"unchanged"}
