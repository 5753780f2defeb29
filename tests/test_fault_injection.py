"""Planted faults: the exact side refuses, flags, or is not moved.

Three faults are monkeypatches of the flat lattice, the table that Morse,
both rings and the genericity decisions read: drop its last coatom, drop
its first atom, or let its rank see rows 1 and 2 as parallel.  On every
setup ``analyze`` must raise with exit code 3 or 4, set an agreement flag
false, or return the unfaulted report; a changed report with every flag
true would be a wrong answer the cross-checks let through.  Every fault
must also be caught on some setup, so that a fault which changes nothing
cannot pass.  The four caches are cleared around every faulted run, so no
table built from a faulted lattice outlives it.

Three more are planted in the ring's ranks, at ``ringcalc.certified_rank``:
one coefficient of a left-null relation flipped, which must end in exit 4
whenever the relation is read; no relations at all, which must give the
true report through p-adic lifting; and a rank one short in one degree,
which must be refused or flagged.

Four more are planted one in each of four layers, under the lattice
faults' contract: 1 added to the census's d_0 (``face_census``), Horner's
rule run on the counts without the last one (``census_poincare``), 1
added to the constant term of every Morse quotient
(``divide_by_one_minus_q``), and the sign of one row flipped in the first
coatom that the circle ring reads (its ``negative_rows``).

The lattice faults run on the catalog's setups with d >= 2 and 30 random
generic ones (n 3-6, d 2-3, entries in [-2, 2]) from a fixed seed; at
d = 1 the lattice has two flats and they cannot show.  The ring and
layer faults run on the whole catalog and the same 30.
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
TRUE_LIFTING = exact._kernel_certified


def random_weights(rng):
    while True:
        d = rng.randint(2, 3)
        n = rng.randint(3, 6)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n))
        if int_rank(rows, d) == d:
            return rows


def setups(min_dim=2):
    rng = random.Random(22)
    weights = [w for w in CATALOG if len(w[0]) >= min_dim]
    weights += [random_weights(rng) for _ in range(30)]
    return [sample_generic(new_setup(w), derived_seed("faults", w)) for w in weights]


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
        monkeypatch.setattr(flats, "int_rank", lambda rows, ncols: int_rank(
            [first if row == second else row for row in rows], ncols))
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
def test_a_fault_is_refused_flagged_or_harmless(fault):
    outcomes = []
    for setup in setups():
        truth = unfaulted(setup)
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


def test_a_flipped_relation_ends_in_exit_4():
    outcomes = []
    for setup in setups(min_dim=1):
        truth = unfaulted(setup)
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
    for setup in setups(min_dim=1):
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


def test_a_rank_one_short_is_refused_or_flagged():
    outcomes = []
    for setup in setups(min_dim=1):
        truth = unfaulted(setup)
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
}


@pytest.mark.parametrize("fault", LAYER_FAULTS)
def test_a_layer_fault_is_refused_flagged_or_harmless(fault):
    module, name, make = LAYER_FAULTS[fault]
    outcomes = []
    for setup in setups(min_dim=1):
        truth = unfaulted(setup)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(module, name, make(getattr(module, name)))
            outcomes.append(outcome(setup, truth))
    assert len(outcomes) == 50
    assert set(outcomes) - {"unchanged"}
