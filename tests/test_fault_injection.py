"""Planted faults: the exact side refuses, flags, or is not moved.

Each fault is one monkeypatch of the flat lattice, the table that Morse,
both rings and the genericity decisions read: drop its last coatom, drop
its first atom, or let its rank see rows 1 and 2 as parallel.  On every
setup ``analyze`` must raise with exit code 3 or 4 (or refuse the weights
as rank deficient), set an agreement flag false, or return the unfaulted
report; a changed report with every flag true would be a wrong answer the
cross-checks let through.  Every fault must also be caught on some setup,
so that a fault which changes nothing cannot pass.  The four caches are
cleared around every faulted run, so no table built from a faulted
lattice outlives it.

The setups are the catalog's with d >= 2 and 30 random generic ones
(n 3-6, d 2-3, entries in [-2, 2]) from a fixed seed; at d = 1 the lattice
has two flats and these faults cannot show.
"""

import random
import sys

import pytest

from hypertoric import flats, torus
from hypertoric.crosscheck import analyze
from hypertoric.errors import HypertoricError, RankDeficient
from hypertoric.exact import int_rank
from hypertoric.torus import derived_seed, new_setup, sample_generic
from test_acceptance import CATALOG

CACHES = (flats.lattice, torus.walls_of, torus._alpha_signs, torus._beta_levels)
TRUE_LATTICE = flats.lattice


def random_weights(rng):
    while True:
        d = rng.randint(2, 3)
        n = rng.randint(3, 6)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n))
        if int_rank(rows, d) == d:
            return rows


def setups():
    rng = random.Random(22)
    weights = [w for w in CATALOG if len(w[0]) >= 2]
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


@pytest.mark.parametrize("fault", ["last-coatom", "first-atom", "parallel-rows"])
def test_a_fault_is_refused_flagged_or_harmless(fault):
    outcomes = []
    for setup in setups():
        clear_caches()
        truth = analyze(setup)
        assert truth.agreement["all"], setup
        with pytest.MonkeyPatch.context() as monkeypatch:
            plant(monkeypatch, fault, setup)
            clear_caches()
            try:
                result = analyze(setup)
            except HypertoricError as exc:
                # A lattice whose whole rank falls below d makes the Morse
                # route refuse the weights as rank deficient, with exit 2:
                # a refusal, though it blames the input for the lattice.
                assert (exc.exit_code in (3, 4)
                        or isinstance(exc, RankDeficient)), (setup, exc)
                outcomes.append(type(exc).__name__)
                continue
            finally:
                clear_caches()
        if not result.agreement["all"]:
            outcomes.append("flagged")
        else:
            assert result == truth, setup
            outcomes.append("unchanged")
    assert len(outcomes) == 37
    assert set(outcomes) - {"unchanged"}
