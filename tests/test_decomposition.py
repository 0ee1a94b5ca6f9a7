import json
import math
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ramseychoice.cli import main
from ramseychoice.decomposition import (
    COLUMN_BOUND,
    KEPT_TABLE_BITS,
    LISTED_PARTS_BOUND,
    _COLUMNS,
    _blockable,
    AdmissibleSumSet,
    Classification,
    Decomposition,
    Reason,
    Verdict,
    _fold,
    admissible_sums,
    allowed_contributions,
    blocks,
    classify,
    classify_detailed,
    find_blocking_decomposition,
    iter_decompositions,
    oracle_blocks,
    oracle_disagreement,
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
    # built from parts or from runs, distinct or repeated, it is one value
    for parts, values, counts in (((7, 3, 2), (7, 3, 2), (1, 1, 1)), ((5, 3, 3, 3), (5, 3), (1, 3)),
                                  ((3, 3), [3], [2]), ((3,), [3], [1])):
        e, r = Decomposition(parts), Decomposition.from_runs(values, counts)
        assert e == r and hash(e) == hash(r)
        assert e.runs == r.runs == tuple(zip(values, counts))


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
    # the message names the first bad part in decreasing order
    with pytest.raises(InvalidPart, match=r"part 2\.5 is invalid"):
        Decomposition([1, 5, 2.5, 0])

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


@given(
    st.lists(st.tuples(st.one_of(st.integers(2, 40), st.sampled_from((4, 9, 27, 30, 210, 2 * 1009))),
                       st.integers(1, 20)), min_size=1, max_size=6),
    st.data(),
)
def test_the_kept_table_does_not_depend_on_the_order_of_the_queries(runs, data):
    d = Decomposition([part for part, count in runs for _ in range(count)])
    ms = data.draw(st.lists(st.integers(0, d.total + 1), min_size=1, max_size=30))
    ms += data.draw(st.permutations(ms))  # every m again, in another order
    for m in ms:
        if data.draw(st.booleans()):  # the reporting view widens the same table
            assert admissible_sums(d).bits == _fold(d, d.total)
        assert blocks(d, m) == (not _fold(d, m) >> m & 1), m
    table = d._table
    if min(ms) <= d.total <= KEPT_TABLE_BITS:  # m above the total needs no table
        assert table is not None
    assert table is None or table[0] <= d.total and table[1] == _fold(d, table[0])


def test_a_table_wider_than_the_kept_bound_is_not_kept():
    d = Decomposition((4194301, 3))
    assert not blocks(d, 3) and d._table == (3, 0b1001)
    assert blocks(d, 10**6) and d._table == (3, 0b1001)  # folded to 2^20 - 1, then dropped
    assert admissible_sums(d).values() == [0, 3, 4194301, 4194304] and d._table == (3, 0b1001)


def test_a_shared_decomposition_is_folded_about_log2_n_times(monkeypatch, cold_caches):
    # every m of an odd and an even column, from cold caches: the rows of a
    # column share their decompositions, and each widens its kept table at
    # most once per doubling of m
    import ramseychoice.decomposition as dm

    folds, alive = Counter(), []
    fold = dm._fold

    def counted(d, limit):
        folds[id(d)] += 1
        alive.append(d)  # no id is reused while the test counts
        return fold(d, limit)

    monkeypatch.setattr(dm, "_fold", counted)
    for n in (299, 298):
        cold_caches()
        folds.clear()
        for m in range(1, n + 2):
            classify_detailed(m, n)
        assert len(folds) > 1 and max(folds.values()) <= n.bit_length() + 1, (n, max(folds.values()))


def test_a_run_of_10_to_the_17_copies_is_never_expanded():
    # 10^17 copies of 2 would need 800 PB as a tuple, so listing them is refused before any is made
    c = classify(3, 2 * 10**17)
    assert c.certificate.runs == ((2, 10**17),)
    assert c.certificate.total == 2 * 10**17
    assert blocks(c.certificate, 3)
    assert c.certificate == Decomposition.from_runs((2,), (10**17,))
    with pytest.raises(BoundExceeded, match=f"^{10**17} parts exceed the listing bound {LISTED_PARTS_BOUND}$"):
        str(c.certificate)


def test_parts_lists_up_to_the_listing_bound_and_refuses_beyond_it():
    assert LISTED_PARTS_BOUND == 10**7
    assert Decomposition.from_runs((2,), (10**7,)).parts == (2,) * 10**7
    message = f"^{10**7 + 1} parts exceed the listing bound {10**7}$"
    for runs in [((2,), (10**7 + 1,)), ((5, 3, 2), (1, 5 * 10**6, 5 * 10**6))]:
        d = Decomposition.from_runs(*runs)
        for show in (str, repr, Decomposition.as_json):
            with pytest.raises(BoundExceeded, match=message):
                show(d)
        assert d._parts is None and d.total == sum(map(math.prod, zip(*runs)))


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
    # a 10^8-bit table built directly, with no fold: only the two ends are sums
    assert AdmissibleSumSet(10**8, 1 | 1 << 10**8).values() == [0, 10**8]


def set_bits(bits):
    """Reference for AdmissibleSumSet.values: peel off the lowest set bit, one at a time."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


sparse_tables = st.sets(st.integers(1, 2**20), max_size=8).map(lambda ss: sum(1 << s for s in ss) | 1)
dense_tables = st.one_of(
    st.integers(0, 2**4096 - 1).map(lambda bits: bits | 1),
    st.integers(0, 4096).map(lambda top: (1 << top + 1) - 1),
)


@example(1)
@given(st.one_of(sparse_tables, dense_tables))
def test_values_lists_the_set_bits_lowest_first(bits):
    assert AdmissibleSumSet(bits.bit_length() - 1, bits).values() == set_bits(bits)


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


def test_column_bound_refuses_before_any_column_is_built(capsys):
    built = len(_COLUMNS)
    # COLUMN_BOUND is the oracle's reach: a larger n skips the check and builds no column
    assert main(["classify", "3", "5000"]) == 0
    plain = capsys.readouterr()
    assert main(["classify", "3", "5000", "--oracle"]) == 0
    assert capsys.readouterr() == plain
    assert classify(3, COLUMN_BOUND + 1, oracle=True) == classify(3, COLUMN_BOUND + 1)
    assert len(_COLUMNS) == built
    # asked directly, the oracle refuses a column above its reach before building any
    with pytest.raises(BoundExceeded) as info:
        oracle_blocks(2, 5000)
    assert str(info.value) == (
        f"the oracle's column n = 5000 exceeds the column bound {COLUMN_BOUND}"
    )
    assert len(_COLUMNS) == built


def test_find_blocking_decomposition_bounds():
    with pytest.raises(ValueError):
        find_blocking_decomposition(0, 5)
    with pytest.raises(ValueError):
        find_blocking_decomposition(5, 0)
    # the scan's reach is the oracle's: column COLUMN_BOUND answers, the next one is refused
    assert find_blocking_decomposition(2, COLUMN_BOUND) is not None
    with pytest.raises(BoundExceeded, match=rf"^the oracle's column n = {COLUMN_BOUND + 1} exceeds"):
        find_blocking_decomposition(2, COLUMN_BOUND + 1)


def test_find_blocking_decomposition_stops_early_within_the_column_bound(monkeypatch):
    """Behind the column gate the scan meets a blocking decomposition within 57
    yields for every non-provable pair with m < n <= COLUMN_BOUND, and a
    provable pair scans nothing."""
    import ramseychoice.decomposition as dm

    yields = {}

    def counting(n):  # m: the pair's m in the loop below
        for d in iter_decompositions(n):
            yields[m, n] += 1
            assert yields[m, n] <= 57, (m, n)  # fail, not hang, on a long scan
            yield d

    monkeypatch.setattr(dm, "iter_decompositions", counting)
    for n in range(2, COLUMN_BOUND + 1):
        for m in range(1, n + 1):
            yields[m, n] = 0
            found = find_blocking_decomposition(m, n)
            assert (found is None) == provable_by_theorem(m, n), (m, n)
    scanned = [count for (m, n), count in yields.items() if not provable_by_theorem(m, n)]
    assert (len(scanned), max(scanned)) == (44_849, 57)
    assert len(yields) - len(scanned) == 300 and sum(yields.values()) == sum(scanned)


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

    def scan(*args, **kwargs):
        raise AssertionError("the column bit alone names the disagreement")

    monkeypatch.setattr(dm, "oracle_blocks", lambda m, n: True)
    monkeypatch.setattr(dm, "find_blocking_decomposition", scan)
    with pytest.raises(OracleDisagreement) as info:
        classify_detailed(4, 4, oracle=True)
    assert str(info.value) == "(4, 4) should be provable but the oracle's column 4 blocks m = 4"
    with pytest.raises(OracleDisagreement) as info:
        classify(2, 4, oracle=True)
    assert str(info.value) == "(2, 4) should be provable but the oracle's column 4 blocks m = 2"
    with pytest.raises(OracleDisagreement):
        classify(COLUMN_BOUND, COLUMN_BOUND, oracle=True)
    # the oracle only runs when asked, and only within its reach
    assert classify(4, 4).verdict == Verdict.PROVABLE
    n = COLUMN_BOUND + 1
    assert classify(n, n, oracle=True).verdict == Verdict.PROVABLE


def test_oracle_disagreement_on_a_certified_pair(monkeypatch):
    import ramseychoice.decomposition as dm

    def scan(m, n, bound):
        raise AssertionError("a certified pair needs no witness")

    monkeypatch.setattr(dm, "oracle_blocks", lambda m, n: False)
    monkeypatch.setattr(dm, "find_blocking_decomposition", scan)
    with pytest.raises(OracleDisagreement) as info:
        classify_detailed(3, 7, oracle=True)
    assert str(info.value) == (
        "recipes produced a certificate for (3, 7) but the oracle's column 7 admits m = 3"
    )
    assert classify(3, 7).certificate.parts == (7,)


def test_oracle_disagreement_words_the_finding_within_the_column_bound(monkeypatch):
    import ramseychoice.decomposition as dm

    # the real column agrees with every verdict
    assert oracle_disagreement(4, 4, False) is None
    assert oracle_disagreement(3, 7, True) is None
    assert oracle_disagreement(2, 4, False) is None
    monkeypatch.setattr(dm, "oracle_blocks", lambda m, n: n % 2 == 0)
    assert oracle_disagreement(4, 4, False) == (
        "(4, 4) should be provable but the oracle's column 4 blocks m = 4"
    )
    assert oracle_disagreement(3, 7, True) == (
        "recipes produced a certificate for (3, 7) but the oracle's column 7 admits m = 3"
    )
    assert oracle_disagreement(3, 8, True) is None and oracle_disagreement(7, 7, False) is None
    # past the column bound there is no column to disagree with
    n = COLUMN_BOUND + 1
    assert oracle_disagreement(n, n, True) is None and oracle_disagreement(3, n + 1, False) is None


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
    d = Decomposition.from_runs((2,), (300,))  # 300 parts, total 600: work 180,000
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", 180_000)
    assert admissible_sums(d).values() == list(range(0, 601, 2))
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", 179_999)
    with pytest.raises(BoundExceeded, match="^300 parts of total 600 exceed the table work bound$"):
        admissible_sums(d)
    # a table of few parts is refused on its width: TABLE_WORK_BOUND / 2^8 bits at most
    d = Decomposition((5, 3))  # 2 parts, total 8: 9 bits wide
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", 9 << 8)
    assert admissible_sums(d).values() == [0, 3, 5, 8]
    monkeypatch.setattr(dm, "TABLE_WORK_BOUND", (9 << 8) - 1)
    with pytest.raises(BoundExceeded, match="^a table 9 bits wide exceeds the table width bound$"):
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
