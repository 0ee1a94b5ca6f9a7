"""The record contract of the ten result types.

Every record is slotted and compares, hashes and prints by value in the
dataclass formats; all but ScanReport are frozen.  RecipeTrace,
Classification and ScanRow are built as an open twin whose class is then
set to the record, and Decomposition fills its slots through the slot
descriptors; the records the library builds must still behave as the
others do.  The enums they carry read .value as a plain attribute and must
still behave as enum members do.
"""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

import ramseychoice
import ramseychoice.certificates as certificates
import ramseychoice.decomposition as decomposition
from ramseychoice import (
    AdmissibleSumSet,
    Classification,
    CyclicAutomorphism,
    Decomposition,
    PairChoice,
    Reason,
    Recipe,
    RecipeTrace,
    ScanReport,
    ScanRow,
    ScoreProfile,
    SelectorModel,
    Verdict,
    admissible_sums,
    blocks,
    build_cyclic_model,
    classify_detailed,
    provable_by_theorem,
    run_scan,
)
from ramseychoice.rc24 import FOUR_SET, score
from ramseychoice.records import Open

_SEL = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 1, (2, 3): 2, (1, 3): 3}


def examples():
    """Two separately built, equal instances of each record."""
    (c1, t1), (c2, t2) = classify_detailed(4, 9), classify_detailed(4, 9)
    cyclic = build_cyclic_model(2, 1, Decomposition([3]))
    model = SelectorModel(2, (0, 1, 2, 3), dict(_SEL))
    return {
        "RecipeTrace": (t1, RecipeTrace(4, 9, t1.recipe, Decomposition([3, 3, 3]), t1.narrative)),
        "Classification": (c1, Classification(4, 9, c1.verdict, c1.reason, Decomposition([3, 3, 3]))),
        "ScanRow": (
            run_scan(4, 9)[0].rows[-1],
            ScanRow(m=4, n=9, verdict="not_provable", reason="certificate", recipe="OddCase", parts=(3, 3, 3)),
        ),
        "Decomposition": (Decomposition.from_runs((3,), (3,)), Decomposition([3, 3, 3])),
        "AdmissibleSumSet": (admissible_sums(Decomposition([3, 3, 3])), AdmissibleSumSet(total=9, bits=0b1001001001)),
        "SelectorModel": (cyclic.model, model),
        "CyclicAutomorphism": (cyclic, CyclicAutomorphism(model, (0,), ((1, 2, 3),), (0, 2, 3, 1))),
        "PairChoice": (PairChoice.from_bits((0, 1, 2), 5), PairChoice((0, 1, 2), {(0, 1): 1, (0, 2): 0, (1, 2): 2})),
        "ScoreProfile": (
            score(FOUR_SET, PairChoice.from_bits(FOUR_SET, 5)),
            ScoreProfile(z=(0, 1, 2, 3), scores=(1, 3, 1, 1), min_score=1, argmin=(0, 2, 3)),
        ),
        # equality ignores oracle_checked, which describes the run
        "ScanReport": (run_scan(2, 3)[0], run_scan(2, 3, oracle=True)[0]),
    }


_MODEL_REPR = "SelectorModel(m=2, domain=(0, 1, 2, 3), sel=" + repr(_SEL) + ")"
_ROWS_REPR = (
    "[ScanRow(m=2, n=2, verdict='provable', reason='diagonal', recipe=None, parts=None), "
    "ScanRow(m=2, n=3, verdict='not_provable', reason='certificate', recipe='PrimeDivisorCase', parts=(3,))]"
)
REPRS = {
    "RecipeTrace": "RecipeTrace(m=4, n=9, recipe=<Recipe.ODD: 'OddCase'>, "
    "decomposition=Decomposition(parts=(3, 3, 3)), "
    "narrative=('goldbach triple (3, 3, 3)', 'triple blocks m directly'))",
    "Classification": "Classification(m=4, n=9, verdict=<Verdict.NOT_PROVABLE: 'not_provable'>, "
    "reason=<Reason.CERTIFICATE: 'certificate'>, certificate=Decomposition(parts=(3, 3, 3)))",
    "ScanRow": "ScanRow(m=4, n=9, verdict='not_provable', reason='certificate', "
    "recipe='OddCase', parts=(3, 3, 3))",
    "Decomposition": "Decomposition(parts=(3, 3, 3))",
    "AdmissibleSumSet": "AdmissibleSumSet(total=9, bits=585)",
    "SelectorModel": _MODEL_REPR,
    "CyclicAutomorphism": f"CyclicAutomorphism(model={_MODEL_REPR}, fixed=(0,), cycles=((1, 2, 3),), "
    "sigma=(0, 2, 3, 1))",
    "PairChoice": "PairChoice(universe=(0, 1, 2), choice={(0, 1): 1, (0, 2): 0, (1, 2): 2})",
    "ScoreProfile": "ScoreProfile(z=(0, 1, 2, 3), scores=(1, 3, 1, 1), min_score=1, argmin=(0, 2, 3))",
    "ScanReport": f"ScanReport(max_m=2, max_n=3, rows={_ROWS_REPR}, oracle_checked=None)",
}
# The records whose hash fails on the dict they hold, and the one that is unhashable itself.
UNHASHABLE = {
    "SelectorModel": "unhashable type: 'dict'",
    "CyclicAutomorphism": "unhashable type: 'dict'",
    "PairChoice": "unhashable type: 'dict'",
    "ScanReport": "unhashable type: 'ScanReport'",
}
FROZEN = [name for name in REPRS if name != "ScanReport"]


def assert_equal_by_value(a, b):
    """a and b are equal and hash alike, or fail to hash alike; neither equals another type."""
    assert a == b and not a != b
    for other in (object(), tuple(getattr(a, f) for f in type(a).__slots__), None):
        assert a != other and not a == other
    message = UNHASHABLE.get(type(a).__name__)
    if message is None:
        assert hash(a) == hash(b)
    else:
        for record in (a, b):
            with pytest.raises(TypeError, match=f"^{message}$"):
                hash(record)


@pytest.mark.parametrize("name", FROZEN)
def test_records_are_frozen_slotted_and_compare_by_value(name):
    a, b = examples()[name]
    assert type(a).__name__ == name
    assert not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(a, type(a).__slots__[0], 0)
    assert repr(a) == repr(b) == REPRS[name]
    assert_equal_by_value(a, b)


@pytest.mark.parametrize("name", FROZEN)
def test_every_field_refuses_assignment_and_deletion(name):
    a = examples()[name][0]
    before = repr(a)
    for f in type(a).__slots__:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{f}'$"):
            setattr(a, f, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{f}'$"):
            delattr(a, f)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'other'$"):
        a.other = 0
    assert repr(a) == before


def test_scan_report_is_slotted_mutable_and_unhashable():
    report, checked = examples()["ScanReport"]
    assert not hasattr(report, "__dict__")
    assert repr(report) == REPRS["ScanReport"]
    assert_equal_by_value(report, checked)
    report.max_n = 4
    report.oracle_checked = 7
    assert (report.max_n, report.oracle_checked) == (4, 7)


@pytest.mark.parametrize("name", REPRS)
def test_records_round_trip_through_pickle_and_copy(name):
    a = examples()[name][0]
    fields, printed = type(a).__slots__, repr(a)  # repr first: it fills Decomposition's _parts
    copies = [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    shallow, deep = copy.copy(a), copy.deepcopy(a)
    for c in (*copies, shallow, deep):
        assert type(c) is type(a) and c == a and repr(c) == printed
        assert [getattr(c, f) for f in fields] == [getattr(a, f) for f in fields]
        if name not in UNHASHABLE:
            assert hash(c) == hash(a)
        if name in FROZEN:
            with pytest.raises(FrozenInstanceError):
                setattr(c, fields[0], 0)
    assert all(getattr(shallow, f) is getattr(a, f) for f in fields)


def test_constructors_take_fields_by_keyword_and_keep_their_checks():
    assert SelectorModel(2, (0, 1)).sel == {}
    assert SelectorModel(2, (0, 1)).sel is not SelectorModel(2, (0, 1)).sel
    assert ScanReport(2, 3, []).oracle_checked is None
    assert ScanReport(max_m=2, max_n=3, rows=[], oracle_checked=5) == ScanReport(2, 3, [])
    model = SelectorModel(m=2, domain=(0, 1), sel={(0, 1): 0})
    assert CyclicAutomorphism(model=model, fixed=(0, 1), cycles=(), sigma=(0, 1)).order == 1
    assert PairChoice(universe=(0, 1), choice={(0, 1): 1}).pick(1, 0) == 1
    with pytest.raises(ValueError, match="^choice is not total on the pairs of the universe$"):
        PairChoice((0, 1, 2), {(0, 1): 0})
    with pytest.raises(ValueError, match=r"^choice\(0, 1\) = 5 is outside the pair$"):
        PairChoice((0, 1), {(0, 1): 5})


# One pair each recipe answers first in dispatch, and a pair of each reason to prove.
RECIPE_PAIRS = {
    Recipe.GREATER: (3, 2),
    Recipe.PRIME_DIVISOR: (2, 3),
    Recipe.PRIME_POWER: (2, 8),
    Recipe.ODD: (2, 7),
    Recipe.FERMAT_SHIFT: (4, 8),
    Recipe.EVEN_GAP: (6, 12),
    Recipe.EVEN_DENSE: (48, 54),
}
PROVABLE_PAIRS = ((7, 7), (2, 4))


def by_keyword(record):
    """The record of the same class built from record's fields by keyword."""
    return type(record)(**{f: getattr(record, f) for f in type(record).__slots__})


def test_the_per_pair_records_the_library_builds_keep_the_record_contract():
    built = []  # (the public class, a record the library built of it)
    for recipe, (m, n) in RECIPE_PAIRS.items():
        cls_, trace = classify_detailed(m, n)
        assert trace.recipe is recipe and cls_.verdict is Verdict.NOT_PROVABLE
        built += [(Classification, cls_), (RecipeTrace, trace)]
    for m, n in PROVABLE_PAIRS:
        cls_, trace = classify_detailed(m, n)
        assert trace is None and cls_.verdict is Verdict.PROVABLE
        built.append((Classification, cls_))
    report = run_scan(6, 12)[0]
    read = (ScanReport.from_csv(report.to_csv()), ScanReport.from_json_obj(report.to_json_obj()))
    assert read == (report, report)
    for rows in (report.rows, read[0].rows, read[1].rows):
        assert {r.recipe for r in rows} >= {"PrimeDivisorCase", "OddCase", "EvenGapCase", None}
        built += [(ScanRow, r) for r in rows]
    for kind, a in built:
        assert type(a) is kind and a.__class__ is kind and not isinstance(a, Open)
        b = by_keyword(a)
        assert type(b) is kind and repr(a) == repr(b)
        assert_equal_by_value(a, b)
        for f in kind.__slots__:
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{f}'$"):
                setattr(a, f, 0)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{f}'$"):
                delattr(a, f)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'other'$"):
            a.other = 0
        assert repr(a) == repr(b)
        for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(c) is kind and c == a and hash(c) == hash(a) and repr(c) == repr(a)


NARRATORS = ("_greater_lines", "_prime_divisor_lines")
_NARRATIVE_SLOT = certificates._OpenRecipeTrace.narrative  # reads the slot without telling it


@pytest.fixture
def told(monkeypatch):
    """The narrators' calls, as (narrator name, (m, n)), with each narrator still telling its lines."""
    calls = []
    for name in NARRATORS:
        real = getattr(certificates, name)

        def narrator(trace, name=name, real=real):
            calls.append((name, (trace.m, trace.n)))
            return real(trace)

        monkeypatch.setattr(certificates, name, narrator)
    return calls


def test_deciding_a_pair_tells_no_narrative(told):
    run_scan(6, 12)
    traces = {recipe: classify_detailed(*pair)[1] for recipe, pair in RECIPE_PAIRS.items()}
    assert told == []
    for recipe in (Recipe.GREATER, Recipe.PRIME_DIVISOR):
        trace = traces[recipe]
        assert callable(_NARRATIVE_SLOT.__get__(trace))
        first = trace.narrative
        assert told == [(NARRATORS[recipe is Recipe.PRIME_DIVISOR], RECIPE_PAIRS[recipe])]
        assert type(first) is tuple and all(type(line) is str for line in first)
        assert trace.narrative is first and _NARRATIVE_SLOT.__get__(trace) is first
        assert len(told) == 1
        told.clear()
    given = ("a hand-told line",)
    assert RecipeTrace(4, 9, Recipe.ODD, Decomposition([3, 3, 3]), given).narrative is given


@pytest.mark.parametrize("recipe", RECIPE_PAIRS)
def test_an_untold_trace_behaves_as_a_told_one(recipe):
    deferred = recipe in (Recipe.GREATER, Recipe.PRIME_DIVISOR)

    def untold():
        trace = classify_detailed(*RECIPE_PAIRS[recipe])[1]
        assert callable(_NARRATIVE_SLOT.__get__(trace)) is deferred
        return trace

    told = classify_detailed(*RECIPE_PAIRS[recipe])[1]
    told.narrative
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(untold(), protocol) == pickle.dumps(told, protocol)
    for c in (copy.copy(untold()), copy.deepcopy(untold()), by_keyword(untold()), untold()):
        assert type(c) is RecipeTrace and c == told and told == c and hash(c) == hash(told)
        assert repr(c) == repr(told) and c.narrative == told.narrative
    assert untold() == told and told == untold() and not untold() != told
    assert hash(untold()) == hash(told) and repr(untold()) == repr(told)


def test_no_open_twin_is_exported():
    exported = [getattr(ramseychoice, name) for name in ramseychoice.__all__]
    assert [x for x in exported if isinstance(x, type) and issubclass(x, Open)] == [ScanReport]


@seed(2000)
@example(7, 7)
@example(2, 4)
@given(st.integers(2, 2000), st.integers(2, 2000))
def test_classify_detailed_builds_the_records_its_fields_name(m, n):
    cls_, trace = classify_detailed(m, n)
    for record, kind in ((cls_, Classification), (trace, RecipeTrace)):
        if record is not None:
            assert type(record) is kind
            assert record == by_keyword(record) and repr(record) == repr(by_keyword(record))
            assert (record.m, record.n) == (m, n)
    if provable_by_theorem(m, n):
        assert trace is None and cls_.verdict is Verdict.PROVABLE and cls_.certificate is None
        assert cls_.reason is (Reason.DIAGONAL if m == n else Reason.RC24)
    else:
        assert (cls_.verdict, cls_.reason) == (Verdict.NOT_PROVABLE, Reason.CERTIFICATE)
        assert cls_.certificate is trace.decomposition and trace.decomposition.total == n
        assert type(trace.recipe) is Recipe and blocks(trace.decomposition, m)


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
