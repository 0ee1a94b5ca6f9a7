"""The record contract of the slotted result types.

RecipeTrace, Classification, ScanRow, GoldbachTriple and Decomposition fill
their slots through the slot descriptors instead of the dataclass __init__;
they must still be frozen, slotted and compared, hashed and printed as the
generated methods do.  The enums they carry read .value as a plain attribute
and must still behave as enum members do.
"""

import json
import pickle
from dataclasses import FrozenInstanceError

import pytest

import ramseychoice.decomposition as decomposition
from ramseychoice import Classification, Decomposition, GoldbachTriple, RecipeTrace, ScanRow
from ramseychoice import Reason, Recipe, Verdict
from ramseychoice import classify_detailed, iter_goldbach_triples


def examples():
    """Two separately built, equal instances of each record."""
    (c1, t1), (c2, t2) = classify_detailed(4, 9), classify_detailed(4, 9)
    return {
        "RecipeTrace": (t1, RecipeTrace(4, 9, t1.recipe, Decomposition([3, 3, 3]), t1.narrative)),
        "Classification": (c1, Classification(4, 9, c1.verdict, c1.reason, Decomposition([3, 3, 3]))),
        "ScanRow": (
            ScanRow(4, 9, "not_provable", "certificate", "OddCase", (3, 3, 3)),
            ScanRow(m=4, n=9, verdict="not_provable", reason="certificate", recipe="OddCase", parts=(3, 3, 3)),
        ),
        "GoldbachTriple": (next(iter_goldbach_triples(9)), GoldbachTriple(3, 3, 3, 9)),
        "Decomposition": (Decomposition.from_runs((3,), (3,)), Decomposition([3, 3, 3])),
    }


REPRS = {
    "RecipeTrace": "RecipeTrace(m=4, n=9, recipe=<Recipe.ODD: 'OddCase'>, "
    "decomposition=Decomposition(parts=(3, 3, 3)), "
    "narrative=('goldbach triple (3, 3, 3)', 'triple blocks m directly'))",
    "Classification": "Classification(m=4, n=9, verdict=<Verdict.NOT_PROVABLE: 'not_provable'>, "
    "reason=<Reason.CERTIFICATE: 'certificate'>, certificate=Decomposition(parts=(3, 3, 3)))",
    "ScanRow": "ScanRow(m=4, n=9, verdict='not_provable', reason='certificate', "
    "recipe='OddCase', parts=(3, 3, 3))",
    "GoldbachTriple": "GoldbachTriple(p1=3, p2=3, p3=3, target=9)",
    "Decomposition": "Decomposition(parts=(3, 3, 3))",
}


@pytest.mark.parametrize("name", REPRS)
def test_records_are_frozen_slotted_and_compare_by_value(name):
    a, b = examples()[name]
    assert type(a).__name__ == name
    assert not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(a, next(iter(type(a).__dataclass_fields__)), 0)
    assert repr(a) == repr(b) == REPRS[name]
    assert a == b and hash(a) == hash(b)


def test_scan_row_defaults():
    assert ScanRow(2, 2, "provable", "diagonal") == ScanRow(2, 2, "provable", "diagonal", None, None)


def test_classification_round_trips_through_json():
    for m, n in ((4, 9), (2, 4), (7, 7), (9, 2)):
        c = classify_detailed(m, n)[0]
        assert Classification.from_json_obj(c.to_json_obj()) == c


def test_achievable_table_is_read_on_demand_and_ignored_by_eq_and_repr(monkeypatch):
    calls = []
    real = decomposition.admissible_sums
    monkeypatch.setattr(decomposition, "admissible_sums", lambda d: calls.append(d) or real(d))
    c, fresh = classify_detailed(4, 9)[0], classify_detailed(4, 9)[0]
    assert calls == []  # deciding the pair never builds the table
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    assert calls == []  # comparing, hashing and printing c read no table
    assert c.achievable_for_certificate.values() == [0, 3, 6, 9]
    assert calls == [c.certificate]
    assert classify_detailed(7, 7)[0].achievable_for_certificate is None
    assert len(calls) == 1


@pytest.mark.parametrize("member", [*Verdict, *Reason, *Recipe], ids=lambda x: f"{type(x).__name__}.{x.name}")
def test_enum_value_is_the_member_value(member):
    kind = type(member)
    assert member.value == member._value_ and type(member.value) is str
    assert kind(member.value) is member and kind[member.name] is member
    assert pickle.loads(pickle.dumps(member)) is member
    assert json.dumps(member) == json.dumps(member.value)
    assert repr(member) == f"<{kind.__name__}.{member.name}: {member.value!r}>"
