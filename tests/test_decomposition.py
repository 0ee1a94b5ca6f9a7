import json
import math
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramseychoice.cli import main
from ramseychoice.decomposition import (
    EXHAUSTIVE_BOUND,
    _COLUMNS,
    _blockable,
    Classification,
    Decomposition,
    Reason,
    Verdict,
    admissible_sums,
    allowed_contributions,
    blocks,
    classify,
    classify_detailed,
    find_blocking_decomposition,
    iter_decompositions,
    provable_by_theorem,
    provable_reason,
)
from ramseychoice.errors import (
    BoundExceeded,
    CertificateSearchFailed,
    InvalidPart,
    OracleDisagreement,
)


def brute_sums(parts):
    """Independent oracle: full cartesian product over the contributions."""
    pools = [sorted(allowed_contributions(p)) for p in parts]
    return {sum(combo) for combo in product(*pools)}


def reference_sums(parts, limit):
    """Independent oracle: set-based DP up to limit, contributions by gcd.

    A copy that leaves the set unchanged is skipped with the rest of its run:
    the next copy would meet the same set.
    """
    sums, fixed = {0}, None
    for part in parts:
        if part == fixed:
            continue
        options = [j for j in range(1, min(part, limit) + 1) if math.gcd(j, part) > 1]
        grown = sums | {s + j for s in sums for j in options if s + j <= limit}
        sums, fixed = grown, part if grown == sums else None
    return sums


def assert_fold_matches_reference(parts, ms, limit=None):
    """blocks at each m, and admissible_sums up to limit, against reference_sums.

    Each m must be at most limit, unless limit is the total.
    """
    d = Decomposition(parts)
    limit = d.total if limit is None else limit
    want = reference_sums(d.parts, limit)
    assert {s for s in admissible_sums(d).values() if s <= limit} == want, parts
    for m in ms:
        assert blocks(d, m) == (m not in want), (parts[:3], len(parts), m)


def count_partitions_min2(n):
    """Partitions of n into parts >= 2, counted by direct recursion."""
    def rec(rest, biggest):
        if rest == 0:
            return 1
        return sum(rec(rest - p, p) for p in range(2, min(rest, biggest) + 1)
                   if rest - p != 1)
    return rec(n, n)


def test_decomposition_canonical_form():
    d = Decomposition([2, 7, 3])
    assert d.parts == (7, 3, 2)
    assert d.total == 12
    assert str(d) == "7+3+2"
    assert d.as_json() == {"parts": [7, 3, 2]}
    assert Decomposition([3, 7, 2]) == d


def test_decomposition_total_is_stored_outside_equality():
    a, b = Decomposition((3, 2)), Decomposition((2, 3))
    assert a == b and hash(a) == hash(b)
    assert a.total == b.total == 5
    assert repr(a) == "Decomposition(parts=(3, 2))"
    assert a != Decomposition((5,))  # same total, other parts


def test_decomposition_rejects_bad_parts():
    with pytest.raises(InvalidPart):
        Decomposition([])
    with pytest.raises(InvalidPart):
        Decomposition([3, 1])
    with pytest.raises(InvalidPart):
        Decomposition([0])
    # non-int parts, even ones equal to a valid int, and bools
    for parts in ([2.0], [2, 2.0], [2.0, 2], [5, 3, 3.0], [True], [3, True], ["3"], [(3,)] * 2):
        with pytest.raises(InvalidPart):
            Decomposition(parts)
    with pytest.raises(InvalidPart, match=r"part 2\.0 is invalid"):
        Decomposition([3, 2, 2.0, 2])

    # an int subclass other than bool is still an int part
    class Size(int):
        pass

    assert Decomposition([Size(3), 2]).parts == (3, 2)


def test_allowed_contributions_small():
    assert allowed_contributions(2) == frozenset({0, 2})
    assert allowed_contributions(3) == frozenset({0, 3})
    assert allowed_contributions(4) == frozenset({0, 2, 4})
    assert allowed_contributions(6) == frozenset({0, 2, 3, 4, 6})
    assert allowed_contributions(7) == frozenset({0, 7})
    # primes only offer nothing or everything
    for p in (2, 3, 5, 7, 11, 13):
        assert allowed_contributions(p) == frozenset({0, p})


def test_allowed_contributions_definition():
    for part in range(2, 300):
        want = {0} | {j for j in range(1, part + 1) if math.gcd(j, part) > 1}
        assert allowed_contributions(part) == frozenset(want)


def test_admissible_sums_against_cartesian_oracle():
    for n in range(2, 15):
        for d in iter_decompositions(n):
            s = admissible_sums(d)
            assert set(s.values()) == brute_sums(d.parts), d
            assert s.total == n
            # membership protocol agrees with the value list
            for m in range(0, n + 1):
                assert (m in s) == (m in set(s.values()))


def test_blocks_frozen_cases():
    assert blocks(Decomposition([7, 2]), 6)
    assert blocks(Decomposition([5]), 3)
    assert blocks(Decomposition([3, 3]), 4)
    assert not blocks(Decomposition([4]), 2)
    assert not blocks(Decomposition([2, 2]), 2)
    assert not blocks(Decomposition([3, 3]), 3)
    # sums above the total are never achievable
    assert blocks(Decomposition([2, 2]), 9)
    # zero is always achievable
    assert not blocks(Decomposition([5, 3]), 0)
    with pytest.raises(ValueError):
        blocks(Decomposition([2]), -1)


def test_blocks_is_membership_in_the_full_table():
    for n in range(2, 23):
        for d in iter_decompositions(n):
            table = admissible_sums(d)
            want = reference_sums(d.parts, n)
            assert set(table.values()) == want, d
            for m in range(0, n + 3):
                assert blocks(d, m) == (m not in table) == (m not in want), (d, m)


def test_blocks_folds_runs_of_equal_parts():
    cases = [(3,) * k for k in (1, 2, 7, 166, 167, 1999, 2000)]
    cases += [(5,) * k + (2,) for k in (1, 3, 40, 400)]
    cases += [(p, 3) for p in (10007, 1000003, 4194301)]
    for parts in cases:
        d = Decomposition(parts)
        table = admissible_sums(d)
        ms = [*range(0, 40), d.total - 3, d.total - 1, d.total, d.total + 1]
        for m in ms:
            assert blocks(d, m) == (m not in table), (parts[:3], len(parts), m)
        # the reference DP is quadratic, so the long tables are checked up to 40
        if d.total <= 2002:
            assert_fold_matches_reference(parts, ms)
        else:
            assert_fold_matches_reference(parts, range(0, 41), limit=40)


def test_fold_splits_single_contribution_runs():
    # 250 copies of 2 reach every even sum up to 500 and no odd one
    assert_fold_matches_reference((2,) * 250, range(0, 502))
    assert blocks(Decomposition((2,) * 250), 499)
    for k in (1, 2, 3, 7, 8, 9):
        # a prime run, alone and between other parts; the ms include total - 1 and total
        for parts in [(7,) * k, (11,) + (7,) * k + (2,), (7,) * k + (6, 4)]:
            assert_fold_matches_reference(parts, range(0, sum(parts) + 2))
        # composites whose only contribution up to m is one prime: 3 for 9, 2 for 4
        assert_fold_matches_reference((9,) * k, range(0, 6), limit=5)
        assert_fold_matches_reference((4,) * k, range(0, 4), limit=3)
        assert_fold_matches_reference((9,) * k + (4,) * k, range(0, 6), limit=5)


# Small parts, then one small prime with a large cofactor, prime powers, and many primes.
FOLD_PARTS = st.one_of(
    st.integers(2, 40),
    st.sampled_from((2 * 1009, 3 * 1013, 4, 8, 9, 27, 32, 30, 210, 2310, 30030)),
)


@given(
    st.lists(st.tuples(FOLD_PARTS, st.integers(1, 60)), min_size=1, max_size=12),
    st.integers(0, 500),
)
def test_blocks_is_membership_in_the_full_table_random(runs, m):
    d = Decomposition([part for part, count in runs for _ in range(count)])
    want = reference_sums(d.parts, m)
    assert blocks(d, m) == (m not in want)
    # a full table of a few million bits takes up to a second, so the reporting
    # view is compared only up to a total of 10^5, which 12 runs of up to 12
    # parts up to 40 never exceed
    if d.total <= 10**5:
        table = admissible_sums(d)
        assert (m not in table) == (m not in want)
        assert {s for s in range(m + 1) if s in table} == want


@given(st.dictionaries(FOLD_PARTS, st.integers(1, 10**4), min_size=1, max_size=4), st.integers(0, 500))
def test_run_built_decomposition_matches_the_expanded_one(runs, m):
    pairs = tuple(sorted(runs.items(), reverse=True))
    d = Decomposition.from_runs(*zip(*pairs))
    e = Decomposition([p for p, count in pairs for _ in range(count)])
    assert d.runs == e.runs == pairs
    assert d == e and hash(d) == hash(e) and d.total == e.total
    # a run of a part with several primes folds copy by copy, so the tables
    # stay small enough for an example to take milliseconds
    near = min(d.total, 2000)
    for k in (m, abs(near - m), near):
        assert blocks(d, k) == blocks(e, k), k
    if sum(runs.values()) * d.total <= 10**7:
        table = admissible_sums(d)
        assert table == admissible_sums(e)
        if d.total <= 2000:
            assert set(table.values()) == reference_sums(e.parts, d.total)
    # the expanded views last: they are what a run-built decomposition defers
    assert (repr(d), str(d), d.as_json(), d.parts) == (repr(e), str(e), e.as_json(), e.parts)


def test_a_run_of_10_to_the_17_copies_is_never_expanded():
    # 10^17 copies of 2 would need 800 PB as a tuple, so expanding raises MemoryError
    c = classify(3, 2 * 10**17)
    assert c.certificate.runs == ((2, 10**17),)
    assert c.certificate.total == 2 * 10**17
    assert blocks(c.certificate, 3)
    assert c.certificate == Decomposition.from_runs((2,), (10**17,))


def test_a_long_run_survives_the_json_round_trip():
    c = classify(464, 26574)  # 8,858 copies of 3
    obj = c.to_json_obj()
    back = Classification.from_json_obj(obj)
    assert back == c and back.certificate.runs == ((3, 8858),)
    assert back.to_json_obj() == obj


def test_admissible_sums_of_one_dense_part():
    n = 999999  # 3^3 * 7 * 11 * 13 * 37: a part with five primes
    table = admissible_sums(Decomposition((n,)))
    want = "".join("1" if j == 0 or math.gcd(j, n) > 1 else "0" for j in range(n, -1, -1))
    assert table.bits == int(want, 2)


def test_values_on_a_sparse_wide_table():
    table = admissible_sums(Decomposition((4194301, 3)))
    assert table.values() == [0, 3, 4194301, 4194304]
    dense = admissible_sums(Decomposition((12, 9, 4)))
    assert dense.values() == [s for s in range(dense.total + 1) if dense.bits >> s & 1]


def test_iter_decompositions_order_and_count():
    assert [d.parts for d in iter_decompositions(6)] == [
        (6,), (4, 2), (3, 3), (2, 2, 2)]
    assert [d.parts for d in iter_decompositions(2)] == [(2,)]
    assert [d.parts for d in iter_decompositions(3)] == [(3,)]
    assert list(iter_decompositions(1)) == []
    assert list(iter_decompositions(0)) == []
    for n in range(2, 22):
        ds = list(iter_decompositions(n))
        assert len(ds) == count_partitions_min2(n), n
        assert len(set(d.parts for d in ds)) == len(ds)
        for d in ds:
            assert d.total == n
        # reverse lexicographic on part tuples
        assert [d.parts for d in ds] == sorted(
            (d.parts for d in ds), reverse=True)


def test_find_blocking_decomposition_frozen():
    assert find_blocking_decomposition(2, 4) is None
    assert find_blocking_decomposition(3, 5).parts == (5,)
    assert find_blocking_decomposition(6, 9).parts == (7, 2)
    assert find_blocking_decomposition(4, 6).parts == (3, 3)
    for n in range(2, 30):
        assert find_blocking_decomposition(n, n) is None, n


def test_find_blocking_decomposition_is_first_in_scan_order():
    for m in range(2, 12):
        for n in range(2, 12):
            hits = [d for d in iter_decompositions(n) if blocks(d, m)]
            got = find_blocking_decomposition(m, n)
            if hits:
                assert got == hits[0]
            else:
                assert got is None


def test_blockable_columns_match_brute_force():
    # bit m of column n is set when some decomposition's full table lacks m
    for n in range(41):
        full, want = (1 << n + 1) - 1, 0
        tables = {admissible_sums(d).bits for d in iter_decompositions(n)}
        for table in tables:
            want |= ~table & full
        assert _blockable(n) == want, n
        # and the column keeps exactly the subset-minimal tables (column 0: the empty sum)
        minimal = {t for t in tables if not any(u != t and u & t == u for u in tables)}
        assert set(_COLUMNS[n][0]) == (minimal if n else {1}), n
    # n = 0 and n = 1 have no decomposition, so nothing is blockable
    assert _blockable(0) == _blockable(1) == 0
    # m > n lies outside the column, and every decomposition blocks it
    for n in range(1, 20):
        assert _blockable(n) >> n + 1 == 0
        for m in range(n + 1, 25):
            got = find_blocking_decomposition(m, n)
            assert got == (Decomposition((n,)) if n >= 2 else None), (m, n)


def test_blockable_columns_match_the_theorem():
    # no recipes and no scan: the table alone against the closed form
    for n in range(2, 151):
        bits = _blockable(n)
        for m in range(2, 151):
            unblockable = m <= n and not bits >> m & 1
            assert unblockable == provable_by_theorem(m, n), (m, n)


def test_find_blocking_decomposition_bounds():
    with pytest.raises(ValueError):
        find_blocking_decomposition(0, 5)
    with pytest.raises(ValueError):
        find_blocking_decomposition(5, 0)
    with pytest.raises(BoundExceeded):
        find_blocking_decomposition(2, EXHAUSTIVE_BOUND + 1)
    # raising the bound re-enables the search
    assert find_blocking_decomposition(2, 65, bound=65) is not None


def test_provable_by_theorem():
    assert provable_by_theorem(4, 4)
    assert provable_by_theorem(2, 4)
    assert not provable_by_theorem(4, 2)
    assert not provable_by_theorem(2, 5)
    assert not provable_by_theorem(3, 9)
    # provable_reason is the one home of the closed form; classify reports it
    for m in range(1, 40):
        for n in range(1, 40):
            want = Reason.DIAGONAL if m == n else Reason.RC24 if (m, n) == (2, 4) else None
            assert provable_reason(m, n) is want, (m, n)
            assert provable_by_theorem(m, n) == (want is not None)
            if n >= 2:
                assert classify(m, n).reason == (want or Reason.CERTIFICATE)


def test_classify_verdicts():
    c = classify(5, 5)
    assert (c.verdict, c.reason) == (Verdict.PROVABLE, Reason.DIAGONAL)
    assert c.certificate is None
    c = classify(2, 4)
    assert (c.verdict, c.reason) == (Verdict.PROVABLE, Reason.RC24)
    c = classify(3, 7)
    assert (c.verdict, c.reason) == (Verdict.NOT_PROVABLE, Reason.CERTIFICATE)
    assert c.certificate.parts == (7,)
    assert blocks(c.certificate, 3)


def test_classify_oracle_mode_agrees_everywhere():
    for m in range(1, 16):
        for n in range(2, 16):
            a = classify(m, n)
            b = classify(m, n, oracle=True)
            assert a.verdict == b.verdict
            assert a.certificate == b.certificate


def test_oracle_disagreement_on_a_provable_pair(monkeypatch):
    import ramseychoice.decomposition as dm

    monkeypatch.setattr(dm, "find_blocking_decomposition", lambda m, n, bound: Decomposition((n,)))
    with pytest.raises(OracleDisagreement) as info:
        classify_detailed(4, 4, oracle=True)
    assert str(info.value) == "(4, 4) should be provable but 4 blocks m = 4"
    assert info.value.result == classify_detailed(4, 4)
    with pytest.raises(OracleDisagreement) as info:
        classify(2, 4, oracle=True)
    assert str(info.value) == "(2, 4) should be provable but 4 blocks m = 2"
    # the oracle only runs when asked, and only within its bound
    assert classify(4, 4).verdict == Verdict.PROVABLE
    assert classify(70, 70, oracle=True).verdict == Verdict.PROVABLE


def test_oracle_disagreement_on_a_certified_pair(monkeypatch):
    import ramseychoice.decomposition as dm

    monkeypatch.setattr(dm, "find_blocking_decomposition", lambda m, n, bound: None)
    with pytest.raises(OracleDisagreement) as info:
        classify_detailed(3, 7, oracle=True)
    assert str(info.value) == (
        "recipes produced a certificate for (3, 7) but the exhaustive scan found none"
    )
    assert info.value.result == classify_detailed(3, 7)
    assert classify(3, 7).certificate.parts == (7,)


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify(0, 3)
    with pytest.raises(ValueError):
        classify(3, -1)


def test_classify_n1_has_no_certificate_vocabulary(capsys, caplog):
    # the implication holds trivially but no decomposition of 1 exists,
    # so the search reports failure instead of inventing a verdict
    with pytest.raises(CertificateSearchFailed):
        classify(3, 1)
    assert classify(1, 1).verdict == Verdict.PROVABLE
    # the command line prints the error line and nothing else; pytest takes
    # log records off stderr, so no record may be logged either
    assert main(["classify", "3", "1"]) == 1
    assert capsys.readouterr() == (
        "", "error: no decomposition of 1 exists, so (3, 1) has no certificate\n"
    )
    assert caplog.records == []


def test_classification_json_round_trip():
    for m, n in [(4, 4), (2, 4), (3, 7), (6, 9), (5, 12)]:
        c = classify(m, n)
        obj = c.to_json_obj()
        back = Classification.from_json_obj(obj)
        assert back == c
        # the derived table survives the trip and matches the certificate
        assert back.to_json_obj() == obj
        if c.certificate is None:
            assert back.achievable_for_certificate is None
        else:
            assert back.achievable_for_certificate == admissible_sums(c.certificate)
        # serialization is stable through the text form
        assert json.loads(json.dumps(obj)) == obj


def test_admissible_sums_estimates_its_work_first(monkeypatch):
    import ramseychoice.decomposition as dm

    # classify 4 1000000 --json (200,000 parts of 5) is admitted, and
    # classify 4 3000000 --json (10^6 parts of 3) is not
    assert 200_000 * 10**6 <= dm.TABLE_WORK_BOUND < 10**6 * 3 * 10**6
    d = Decomposition((5, 3))  # 2 parts, total 8: work 16
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", 16)
    assert admissible_sums(d).values() == [0, 3, 5, 8]
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", 15)
    with pytest.raises(BoundExceeded):
        admissible_sums(d)
    # the blocking test never builds the table
    assert blocks(d, 4)


def test_classification_json_key_order():
    keys = list(classify(3, 7).to_json_obj())
    assert keys == ["m", "n", "verdict", "reason", "certificate", "achievable_sums"]
    keys = list(classify(4, 4).to_json_obj())
    assert keys == ["m", "n", "verdict", "reason"]


def test_classify_detailed_trace_matches_certificate():
    cls_, trace = classify_detailed(6, 9)
    assert trace is not None
    assert trace.decomposition == cls_.certificate
    assert trace.m == 6 and trace.n == 9
    cls_, trace = classify_detailed(4, 4)
    assert trace is None


@pytest.mark.parametrize("first", ["certificates", "decomposition"])
def test_either_module_may_be_imported_first(first):
    # decomposition imports certificates at its end, and certificates imports decomposition
    code = (
        f"import ramseychoice.{first}\n"
        "from ramseychoice.decomposition import classify\n"
        "c = classify(3, 7)\n"
        "print(c.verdict.value, c.certificate)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "not_provable 7\n", "")
