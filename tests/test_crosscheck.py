"""The agreement rules of ``crosscheck``, and the exit 4 of a false verdict.

Each case replaces route answers as ``crosscheck`` reads them, through the
route module's attribute, and checks which verdicts turn false.  The setup
is the cotangent bundle of CP^2: n = 3, d = 1, P = 1 + q + q^2, ordinary
dims (1, 1, 1, 0, 0) and circle dims (1, 2, 3, 3, 3, 3).
"""

import json

import pytest

from hypertoric import arrangement, cli, morse, ringcalc
from hypertoric.crosscheck import analyze, polynomial_recurrence
from hypertoric.serialize import setup_to_json
from hypertoric.torus import modify, new_setup

CP2 = new_setup(((1,), (1,), (1,)), [1], [(3, 0)])


def replace_answers(monkeypatch, patches):
    """Make each module.name return change(its true answer)."""
    for module, name, change in patches:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, change=change:
                            change(real(*args)))


def write_setup(tmp_path, setup):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(setup_to_json(setup)))
    return str(path)


def false_flags(agreement):
    return {flag for flag, holds in agreement.items() if not holds}


@pytest.mark.parametrize("patches, flags", [
    ([], set()),
    # The ordinary dims stop at degree n - d + 2, the circle dims one later;
    # the running sums are padded with zeros.
    ([(ringcalc, "circle_dims", lambda c: c + (3,))], set()),
    ([(ringcalc, "circle_dims", lambda c: c + (4,))], {"circle_series"}),
    # Every route agrees on a P of degree 3 > n - d: the ring must vanish
    # above n - d, so only morse_ring fails.
    ([(morse, "poincare_morse", lambda p: p + (1,)),
      (arrangement, "census_poincare", lambda p: p + (1,)),
      (ringcalc, "ring_dims", lambda o: o[:3] + (1, 0)),
      (ringcalc, "circle_dims", lambda c: c[:3] + (4, 4, 4))], {"morse_ring"}),
    # So must a ring whose dims are P's through n - d but not zero above.
    ([(ringcalc, "ring_dims", lambda o: o[:4] + (1,)),
      (ringcalc, "circle_dims", lambda c: c[:4] + (4, 4))], {"morse_ring"}),
], ids=["true-answers", "circle-padded", "circle-past-the-padding",
        "poincare-above-the-top", "ring-above-the-top"])
def test_truth_table(monkeypatch, patches, flags):
    replace_answers(monkeypatch, patches)
    agreement = analyze(CP2).agreement
    assert list(agreement) == ["morse_census", "morse_ring", "circle_series", "all"]
    assert false_flags(agreement) == (flags | {"all"} if flags else set())


@pytest.mark.parametrize("module, name, change, flags", [
    (arrangement, "census_poincare", lambda p: (p[0], p[1] + 1) + p[2:],
     {"morse_census"}),
    # The circle verdict reads the running sums of the ordinary dims, so a
    # shifted ordinary series fails both verdicts that read it.
    (ringcalc, "ring_dims", lambda o: (0,) + o[:-1],
     {"morse_ring", "circle_series"}),
    (ringcalc, "circle_dims", lambda c: c[:-1] + (c[-1] + 1,),
     {"circle_series"}),
], ids=["census-off-by-one", "ordinary-shifted", "circle-not-cumulative"])
def test_analyze_disagreement_exits_4(tmp_path, capsys, monkeypatch, module,
                                      name, change, flags):
    replace_answers(monkeypatch, [(module, name, change)])
    assert cli.main(["analyze", write_setup(tmp_path, CP2)]) == 4
    out, err = capsys.readouterr()
    assert false_flags(json.loads(out)["agreement"]) == flags | {"all"}
    assert err == ("cross-check disagreement: the routes to the Poincare "
                   "polynomial do not match; see the agreement flags\n")


@pytest.mark.parametrize("module, name, change, broken", [
    (morse, "poincare_morse", lambda p: (p[0] + 1,) + p[1:], "recurrence"),
    (arrangement, "face_census", lambda d: (d[0] + 1,) + d[1:],
     "census_recurrence"),
], ids=["morse", "census"])
def test_modify_violation_exits_4(tmp_path, capsys, monkeypatch, module, name,
                                  change, broken):
    replace_answers(monkeypatch, [(module, name, change)])
    pair = new_setup(((1,), (1,)), [1], [(3, 0)])
    assert cli.main(["modify", write_setup(tmp_path, pair), "--column", "1,0",
                     "--check-recurrence"]) == 4
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert {key: report[key]["holds"]
            for key in ("recurrence", "census_recurrence")} == {
        "recurrence": broken != "recurrence",
        "census_recurrence": broken != "census_recurrence"}
    assert err == "modification recurrence violated; see the report\n"


def test_recurrence_reads_the_top_coefficient_of_the_longest_polynomial(
        monkeypatch):
    # P_ext = 1 + 2q + 5q^2 is longer than P_base = 1 + q and q P_enl = q,
    # so only the coefficient of q^2 breaks the recurrence.
    pair = modify(new_setup(((1,), (1,)), [1], [(3, 0)]), (1, 0))
    base, enlarged, extended = pair
    answers = {base.weights: (1, 1), enlarged.weights: (1,),
               extended.weights: (1, 2, 5)}
    monkeypatch.setattr(morse, "poincare_morse", answers.__getitem__)
    assert polynomial_recurrence(pair) == ((1, 1), (1,), (1, 2, 5), False)
