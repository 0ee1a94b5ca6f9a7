import bisect
import hashlib
import importlib.util
import math
import random
from pathlib import Path

import pytest

from ramseychoice.certificates import (
    _DISPATCH,
    Recipe,
    RecipeTrace,
    build_certificate,
    recipe_even_dense,
    recipe_even_gap,
    recipe_fermat_shift,
    recipe_greater,
    recipe_odd,
    recipe_prime_divisor,
    recipe_prime_power,
)
from ramseychoice.cli import main
from ramseychoice.decomposition import (
    Decomposition,
    blocks,
    find_blocking_decomposition,
    provable_by_theorem,
)
from ramseychoice.errors import BoundExceeded, CertificateSearchFailed, PreconditionViolated
from ramseychoice.numtheory import bertrand_prime, is_prime, iter_goldbach_triples, prime_factors, primes_up_to


def test_every_recipe_output_is_verified_blocking():
    # emission policy: a trace only exists if its decomposition checks out
    for m in range(2, 33):
        for n in range(2, 33):
            if provable_by_theorem(m, n):
                continue
            tr = build_certificate(m, n)
            assert tr.decomposition.total == n
            assert blocks(tr.decomposition, m), (m, n)
            assert tr.narrative


def test_trace_constructor_rejects_bad_claims():
    with pytest.raises(RuntimeError):
        RecipeTrace.verified(2, 4, Recipe.EXHAUSTIVE, Decomposition([4]), ("x",))
    with pytest.raises(RuntimeError):
        # wrong total
        RecipeTrace.verified(3, 9, Recipe.ODD, Decomposition([7, 3]), ("x",))


def test_trace_json_shape():
    tr = build_certificate(6, 9)
    obj = tr.to_json_obj()
    assert list(obj) == ["m", "n", "recipe", "parts", "narrative", "verified"]
    assert obj["m"] == 6 and obj["n"] == 9
    assert obj["recipe"] == "OddCase"
    assert obj["parts"] == [7, 2]
    assert obj["verified"] is True


def test_trace_json_verified_reports_both_checks():
    # a hand-built trace is not checked when built; its JSON says whether it holds
    admits = RecipeTrace(4, 10, Recipe.PRIME_DIVISOR, Decomposition([2] * 5), ("x",))
    short = RecipeTrace(4, 11, Recipe.PRIME_DIVISOR, Decomposition([3] * 3), ("x",))
    assert admits.to_json_obj()["verified"] is False and short.to_json_obj()["verified"] is False
    assert RecipeTrace(4, 9, Recipe.ODD, Decomposition([3] * 3), ("x",)).to_json_obj()["verified"] is True
    assert build_certificate(4, 150).to_json_obj()["verified"] is True


def test_recipe_greater():
    assert recipe_greater(5, 3).decomposition.parts == (3,)
    assert recipe_greater(17, 2).decomposition.parts == (2,)


def test_recipe_prime_divisor():
    assert recipe_prime_divisor(2, 10).decomposition.parts == (5, 5)
    assert recipe_prime_divisor(2, 6).decomposition.parts == (3, 3)
    assert recipe_prime_divisor(9, 10).decomposition.parts == (2, 2, 2, 2, 2)
    assert recipe_prime_divisor(12, 14).decomposition.parts == (7, 7)
    assert recipe_prime_divisor(2, 4) is None
    assert recipe_prime_divisor(6, 8) is None
    assert recipe_prime_divisor(30, 8) is None


def test_recipe_prime_divisor_picks_the_smallest_prime():
    # reference: the first prime up to n that divides n but not m
    for n in range(2, 501):
        primes = primes_up_to(n)
        for m in range(2, 501):
            want = next((q for q in primes if n % q == 0 and m % q != 0), None)
            trace = recipe_prime_divisor(m, n)
            got = None if trace is None else trace.decomposition.parts[0]
            assert got == want, (m, n)


def test_recipe_prime_power():
    assert recipe_prime_power(2, 8).decomposition.parts == (5, 3)
    assert recipe_prime_power(2, 16).decomposition.parts == (13, 3)
    assert recipe_prime_power(2, 32).decomposition.parts == (29, 3)


def test_recipe_odd_branches():
    # triple used directly
    assert recipe_odd(6, 7).decomposition.parts == (3, 2, 2)
    assert recipe_odd(4, 9).decomposition.parts == (3, 3, 3)
    assert recipe_odd(2, 13).decomposition.parts == (7, 3, 3)
    # all-equal triple shifted to 3p-2 plus 2
    assert recipe_odd(3, 9).decomposition.parts == (7, 2)
    assert recipe_odd(6, 9).decomposition.parts == (7, 2)
    # single part when m is coprime to everything below n
    assert recipe_odd(5, 11).decomposition.parts == (11,)
    assert recipe_odd(4, 7).decomposition.parts == (7,)
    # regrouped (p2 + p1) + p3 of the triple (3, 5, 7)
    assert recipe_odd(3, 15).decomposition.parts == (10, 5)


def test_recipe_odd_needs_one_triple():
    # the proof in recipe_odd: the first triple settles every m < n
    for n in range(7, 302, 2):
        for m in range(1, n):
            tr = recipe_odd(m, n)
            assert tr is not None, (m, n)
            assert sum(line.startswith("goldbach triple") for line in tr.narrative) == 1


def test_recipe_fermat_shift():
    assert recipe_fermat_shift(4, 8).decomposition.parts == (5, 3)
    assert recipe_fermat_shift(6, 8).decomposition.parts == (5, 3)
    assert recipe_fermat_shift(16, 32).decomposition.parts == (17, 15)
    assert recipe_fermat_shift(28, 32).decomposition.parts == (27, 5)


def test_recipe_even_gap():
    # the largest odd prime below n - 1 is tried first
    assert recipe_even_gap(4, 10).decomposition.parts == (7, 3)
    assert recipe_even_gap(10, 16).decomposition.parts == (13, 3)
    assert recipe_even_gap(6, 12).decomposition.parts == (7, 5)
    assert recipe_even_gap(8, 128).decomposition.parts == (113, 5, 5, 5)
    assert recipe_even_gap(10, 1250).decomposition.parts == (1237, 13)


def test_even_gap_fallback_census():
    """Every (m, r) that reaches recipe_even_gap's last branch, for odd r = n - p < 1600.

    p > m contributes nothing below p, so p plus a triple of r blocks the
    even m < r exactly when the triple does, and a prime triple admits only
    its sub-sums.  Three cases miss every triple: (2, 7), (4, 7) and
    (10, 13).  recipe_odd answers each with the single part r, so the
    fallback yields the split p + (n - p).  The proof through recipe_odd
    covers every r; this census covers only r < 1600.
    """
    reached = []
    for r in range(7, 1600, 2):
        admitted = None  # the even m < r that every triple so far admits
        for t in iter_goldbach_triples(r):
            a, b, c = t
            sums = {a, b, c, a + b, a + c, b + c}
            admitted = {s for s in sums if s % 2 == 0 and s < r} if admitted is None else admitted & sums
            if not admitted:
                break
        reached += [(m, r) for m in sorted(admitted)]
    assert reached == [(2, 7), (4, 7), (10, 13)]
    for m, r in reached:
        assert recipe_odd(m, r).decomposition.parts == (r,)


def test_even_gap_fallback_fires_at_four_and_two_to_the_39(capsys):
    # the gap prime of 2^39 is 2^39 - 7, and 7's only triple (2, 2, 3) admits 4
    n = 2**39
    assert main(["certificate", "4", str(n)]) == 0
    assert capsys.readouterr().out == (
        "RC_4 => RC_549755813888: blocked by 549755813881+7 (EvenGapCase)\n"
        "  - prime 549755813881 between m = 4 and n = 549755813888\n"
        "  - odd-case certificate 7 for (4, 7); append 549755813881\n"
    )
    assert build_certificate(2, n).recipe == Recipe.PRIME_POWER


def test_recipe_even_gap_needs_one_prime():
    # the proof in recipe_even_gap: the largest odd prime in (m, n - 1)
    # verifies; with no such prime the tree never picks the even gap
    for n in range(4, 301, 2):
        for m in range(2, n, 2):
            if not any(is_prime(p) for p in range(m + 1, n - 1)):
                assert provable_by_theorem(m, n) or build_certificate(m, n).recipe is not Recipe.EVEN_GAP, (m, n)
                continue
            tr = recipe_even_gap(m, n)
            assert tr is not None, (m, n)
            assert sum(line.startswith("prime ") for line in tr.narrative) == 1


def test_recipe_even_dense_four_part_split_always_blocks():
    # the proof in recipe_even_dense: the first Goldbach triple of n - p blocks
    checked = 0
    for n in range(6, 301, 2):
        p = bertrand_prime(n // 2)
        for m in range(n // 2 + n // 2 % 2, n - 4, 2):
            if p < m and not (m - p > 2 and is_prime(m - p)):
                tr = recipe_even_dense(m, n)
                assert tr is not None, (m, n)
                assert len(tr.decomposition.parts) == 4
                checked += 1
    assert checked > 1000


def test_recipe_even_dense():
    assert recipe_even_dense(48, 54).decomposition.parts == (29, 25)
    assert recipe_even_dense(116, 128).decomposition.parts == (67, 53, 5, 3)
    # the all-odd first triple of n - p = 9, not (2, 2, 5)
    assert recipe_even_dense(12, 20).decomposition.parts == (11, 3, 3, 3)


def test_dense_outputs_block_wherever_defined():
    # every pair the old dispatch sent to the dense case, called directly
    checked = 0
    for n in range(6, 301, 2):
        for m in range(2, n, 2):
            if not provable_by_theorem(m, n) and _old_case(m, n) is Recipe.EVEN_DENSE:
                tr = recipe_even_dense(m, n)
                assert tr.decomposition.total == n
                assert blocks(tr.decomposition, m), (m, n)
                checked += 1
    assert checked == 8


LEAVES = {
    Recipe.GREATER: recipe_greater,
    Recipe.ODD: recipe_odd,
    Recipe.PRIME_DIVISOR: recipe_prime_divisor,
    Recipe.PRIME_POWER: recipe_prime_power,
    Recipe.FERMAT_SHIFT: recipe_fermat_shift,
    Recipe.EVEN_GAP: recipe_even_gap,
    Recipe.EVEN_DENSE: recipe_even_dense,
}


def test_every_recipe_returns_none_or_a_blocking_trace():
    # each leaf, called on every pair the old dispatch sent to it, answers
    # with a blocking trace; the prime divisor, the one leaf that returns
    # None, does so on every pair sent past it
    pairs = [(m, n) for m in range(1, 121) for n in range(2, 121) if not provable_by_theorem(m, n)]
    assert (8, 12) in pairs
    reached = set()
    for m, n in pairs:
        case = _old_case(m, n)
        tr = LEAVES[case](m, n)
        assert (tr.m, tr.n, tr.recipe) == (m, n, case)
        assert sum(tr.decomposition.parts) == n, (case, m, n)
        assert blocks(tr.decomposition, m), (case, m, n)
        if case not in (Recipe.GREATER, Recipe.ODD, Recipe.PRIME_DIVISOR):
            assert recipe_prime_divisor(m, n) is None, (m, n)
        reached.add(case)
    assert reached == set(LEAVES)


def test_dispatch_frozen_choices():
    table = {
        (2, 8): (Recipe.PRIME_POWER, (5, 3)),
        (2, 16): (Recipe.PRIME_POWER, (13, 3)),
        (3, 9): (Recipe.ODD, (7, 2)),
        (5, 11): (Recipe.ODD, (11,)),
        (6, 7): (Recipe.ODD, (3, 2, 2)),
        (4, 10): (Recipe.PRIME_DIVISOR, (5, 5)),
        (12, 14): (Recipe.PRIME_DIVISOR, (7, 7)),
        (4, 8): (Recipe.FERMAT_SHIFT, (5, 3)),
        (16, 32): (Recipe.FERMAT_SHIFT, (17, 15)),
        (10, 16): (Recipe.EVEN_GAP, (13, 3)),
        (4, 16): (Recipe.EVEN_GAP, (13, 3)),
        (5, 3): (Recipe.GREATER, (3,)),
        (3, 15): (Recipe.ODD, (10, 5)),
        (6, 12): (Recipe.EVEN_GAP, (7, 5)),
        (8, 128): (Recipe.EVEN_GAP, (113, 5, 5, 5)),
        (10, 1250): (Recipe.EVEN_GAP, (1237, 13)),
        (48, 54): (Recipe.EVEN_DENSE, (29, 25)),
        (116, 128): (Recipe.EVEN_DENSE, (67, 53, 5, 3)),
    }
    for (m, n), (recipe, parts) in table.items():
        tr = build_certificate(m, n)
        assert tr.recipe == recipe, (m, n)
        assert tr.decomposition.parts == parts, (m, n)


def test_build_certificate_rejects_provable_and_bad_pairs(capsys, caplog):
    with pytest.raises(PreconditionViolated):
        build_certificate(2, 4)
    with pytest.raises(PreconditionViolated):
        build_certificate(7, 7)
    # a non-positive pair is a bad argument, as for classify
    with pytest.raises(ValueError, match=r"need positive m and n, got \(0, 5\)"):
        build_certificate(0, 5)
    with pytest.raises(ValueError):
        build_certificate(-1, 3)
    with pytest.raises(CertificateSearchFailed, match="no decomposition of 1"):
        build_certificate(3, 1)
    # the command line prints the error line and nothing else; pytest takes
    # log records off stderr, so no record may be logged either
    assert main(["certificate", "3", "1"]) == 1
    assert capsys.readouterr() == (
        "", "error: no decomposition of 1 exists, so (3, 1) has no certificate\n"
    )
    assert caplog.records == []


def test_an_odd_walk_that_blocks_nothing_is_a_bug(cold_caches):
    # recipe_odd never declines: a walk of n's proposals that blocks nothing
    # (only m = n, which the tree never sends) raises and names the recipe
    with pytest.raises(RuntimeError, match="^no proposal for 9 blocks m = 9; recipe OddCase is buggy$"):
        recipe_odd(9, 9)
    assert recipe_odd(3, 9).decomposition.parts == (7, 2)


def test_a_pair_past_the_primality_bound_is_refused_before_dispatch(monkeypatch):
    from ramseychoice import certificates as ct

    # every leaf raises, so reaching the case tree would raise AssertionError
    def leaf(m, n):
        raise AssertionError(f"a leaf ran on ({m}, {n})")

    for recipe in LEAVES.values():
        monkeypatch.setattr(ct, recipe.__name__, leaf)
    with pytest.raises(BoundExceeded, match=r"^n = 36893488147419103232 exceeds"):
        ct.build_certificate(5, 2**65)


def test_dispatch_agrees_with_exhaustive_search_on_blocking():
    # the recipe result and the direct scan may differ in the decomposition
    # they pick, but never on whether one exists
    for m in range(2, 26):
        for n in range(2, 26):
            direct = find_blocking_decomposition(m, n)
            if provable_by_theorem(m, n):
                assert direct is None
                continue
            tr = build_certificate(m, n)
            assert direct is not None
            assert blocks(tr.decomposition, m)


def test_recipes_answer_every_pair_without_the_exhaustive_scan(monkeypatch):
    # dispatch alone certifies the box: no partition scan runs, and every
    # certificate and narrative is byte-identical to the pinned digest
    import ramseychoice.decomposition as dm

    def scan(n):
        raise AssertionError(f"a partition scan of {n} ran")

    monkeypatch.setattr(dm, "iter_decompositions", scan)
    box = [(m, n) for n in range(2, 301) for m in range(2, 301) if not provable_by_theorem(m, n)]
    assert _box_digest({pair: build_certificate(*pair) for pair in box}) == BOX_DIGEST


BOX_DIGEST = "588a2d0551d5dc073179470615f67a4b3550cb660603b4abccd41e1261cf55b8"


def _box_digest(traces) -> str:
    """sha256 over every certificate and narrative, n-major, in pair order."""
    digest = hashlib.sha256()
    for (m, n), tr in sorted(traces.items(), key=lambda item: item[0][::-1]):
        assert tr.decomposition.total == n, (m, n)
        digest.update(repr((m, n, tr.recipe.value, tr.decomposition.parts, tr.narrative)).encode())
    return digest.hexdigest()


def test_the_per_n_caches_do_not_depend_on_the_order_of_the_pairs(cold_caches):
    # from cold caches, a seeded shuffle of the box fills them in another
    # order; every certificate and narrative must come out the same
    box = [(m, n) for n in range(2, 301) for m in range(2, 301) if not provable_by_theorem(m, n)]
    random.Random(14).shuffle(box)
    assert _box_digest({pair: build_certificate(*pair) for pair in box}) == BOX_DIGEST


def test_an_even_gap_column_shares_its_decompositions_and_finds_its_prime_once(cold_caches):
    # from cold caches, the even-gap pairs of a column that propose the same
    # parts get the same Decomposition object, so one kept sum table serves
    # them all; the gap prime is searched for once per column
    import ramseychoice.certificates as cm

    for n, kinds in ((128, 3), (294, 1), (296, 1)):
        cold_caches()
        shared = {}
        for m in range(2, n + 1):
            if provable_by_theorem(m, n):
                continue
            tr = build_certificate(m, n)
            if tr.recipe is Recipe.EVEN_GAP:
                assert shared.setdefault(tr.decomposition.parts, tr.decomposition) is tr.decomposition, (m, n)
        assert len(shared) == kinds, n
        assert cm._gap_prime.cache_info().misses == 1, n


def _gap_prime(n):
    """The largest odd prime <= n - 3, or None."""
    return next((q for q in range(n - 3, 2, -1) if q % 2 and is_prime(q)), None)


def _old_case(m, n):
    """The recipe the old dispatch picked: the first whose guards (m, n) passes,
    greater, odd, prime divisor, prime power, Fermat shift, even gap, dense."""
    if m > n >= 2:
        return Recipe.GREATER
    if n % 2 and n >= 7:
        return Recipe.ODD
    if any(m % q for q in prime_factors(n)):
        return Recipe.PRIME_DIVISOR
    if is_prime(m) and n > m and set(prime_factors(n)) == {m} and n - bertrand_prime(m) >= 2:
        return Recipe.PRIME_POWER
    gap = n - m
    if m % 2 == 0 and m > 2 and gap >= 2 and gap & (gap - 1) == 0 and is_prime(gap + 1):
        return Recipe.FERMAT_SHIFT
    p = _gap_prime(n)
    if m % 2 == 0 and n % 2 == 0 and p is not None and p > m:
        return Recipe.EVEN_GAP
    if m % 2 == 0 and n % 2 == 0 and n // 2 <= m < n - 4:
        p = bertrand_prime(n // 2)
        if p < m and not (m - p > 2 and is_prime(m - p) and (n - p) % (m - p) == 0):
            return Recipe.EVEN_DENSE
    raise AssertionError(f"the old dispatch declined ({m}, {n})")


def test_dispatch_by_n_picks_the_first_trace_of_the_full_dispatch(cold_caches):
    # the case tree picks the recipe the old dispatch's guards picked, from
    # cold caches, then warm; BOX_DIGEST pins the parts and narratives
    pairs = [(m, n) for n in range(2, 121) for m in range(1, 121) if not provable_by_theorem(m, n)]
    for _ in range(2):
        for m, n in pairs:
            assert build_certificate(m, n).recipe is _old_case(m, n), (m, n)


def test_the_dense_leaf_gets_only_the_pairs_its_proof_covers():
    # beyond the n <= 300 digest, by arithmetic: for every even n <= 20,000
    # and every m < n that every prime of n divides (the pairs the prime
    # divisor passes on), m = 2 means a power of two, and a pair that passes
    # the Fermat shift and the even gap is in no state of the dense case's
    # deleted declines
    primes = primes_up_to(20000)
    prime_set = set(primes)
    dense = []
    for n in range(4, 20001, 2):
        radical = math.prod(prime_factors(n))
        for m in range(radical, n, radical):
            if m == 2:
                assert n & (n - 1) == 0, n
                continue
            gap = n - m
            if gap & (gap - 1) == 0 and gap + 1 in prime_set:
                continue
            if primes[bisect.bisect_right(primes, n - 3) - 1] > m:
                continue
            p = bertrand_prime(n // 2)
            assert n // 2 <= m < n - 4 and p < m, (m, n)
            assert not (m - p > 2 and m - p in prime_set and (n - p) % (m - p) == 0), (m, n)
            dense.append((m, n))
    assert len(dense) == 52
    assert all(build_certificate(m, n).recipe is Recipe.EVEN_DENSE for m, n in dense)


def test_perfbench_pins_name_library_functions():
    # perfbench's tracer wraps library functions by name and rebuilds
    # _DISPATCH from its leaves' names, so a rename or deletion fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # it imports only the standard library
    pinned = [(layer, name) for layer, names in tracing.TRACED.items() for name in names]
    pinned += [tuple(qualified.split(".")) for qualified in tracing.COUNTED]
    for layer, name in pinned:
        assert hasattr(importlib.import_module(f"ramseychoice.{layer}"), name), f"{layer}.{name}"
    certificates = importlib.import_module("ramseychoice.certificates")
    assert _DISPATCH == (recipe_greater, recipe_odd, recipe_prime_divisor, recipe_prime_power,
                         recipe_fermat_shift, recipe_even_gap, recipe_even_dense)
    for leaf in _DISPATCH:
        assert getattr(certificates, leaf.__name__) is leaf, leaf.__name__


def test_n_is_trial_divided_no_further_than_the_prime_that_answers():
    # 2 does not divide 3, so the search stops there and never tries to
    # factor the prime 2^61 - 1, which trial division could not do
    tr = build_certificate(3, 2 * (2**61 - 1))
    assert tr.recipe is Recipe.PRIME_DIVISOR
    assert tr.decomposition.runs == ((2, 2**61 - 1),)


def test_the_prime_that_answers_may_come_from_rho():
    # 2 divides m = 2, so the answer is the smaller prime of the cofactor
    # 1073741827 * 1073741831, which rho splits; both primes are near 2^30
    tr = build_certificate(2, 2 * 1073741827 * 1073741831)
    assert tr.recipe is Recipe.PRIME_DIVISOR
    assert tr.decomposition.runs == ((1073741827, 2147483662),)


def test_an_even_gap_column_walks_its_triples_once(monkeypatch, cold_caches):
    # n = 2^15 has gap prime 32749 and n - p = 19: every even m of the
    # column reads one walk of the triples of 19, however many m need it
    import ramseychoice.certificates as cm

    walked = []

    def counted(target):
        walked.append(target)
        return iter_goldbach_triples(target)

    monkeypatch.setattr(cm, "iter_goldbach_triples", counted)
    n = 2**15
    assert n - cm._gap_prime(n) == 19
    recipes = {build_certificate(m, n).recipe for m in range(2, n, 2) if not provable_by_theorem(m, n)}
    assert Recipe.EVEN_GAP in recipes
    assert walked.count(19) <= 1


def test_reading_one_walk_of_n_starts_no_other(monkeypatch, cold_caches):
    # every pair of the even column 128 reads n's primes and its even-gap
    # splits, never the triples of n itself, which raise on an even n; the
    # odd column 3 * (2^61 - 1) answered by recipe_odd never trial-divides n
    import ramseychoice.certificates as cm

    walked, factored = [], []

    def triples(target):
        walked.append(target)
        return iter_goldbach_triples(target)

    def factors(target):
        factored.append(target)
        return prime_factors(target)

    monkeypatch.setattr(cm, "iter_goldbach_triples", triples)
    monkeypatch.setattr(cm, "prime_factors", factors)
    n = 128
    recipes = {build_certificate(m, n).recipe for m in range(1, n + 2) if not provable_by_theorem(m, n)}
    assert {Recipe.PRIME_DIVISOR, Recipe.EVEN_GAP, Recipe.EVEN_DENSE} <= recipes
    assert walked and n not in walked
    assert factored == [n]
    n = 3 * (2**61 - 1)
    assert all(recipe_odd(m, n) is not None for m in range(1, 40))
    assert walked[-1] == n and factored == [128]


def test_a_walk_interrupted_while_it_extends_loses_no_item():
    # an iterator that raises is dropped; the next reader that needs more
    # starts a new one past the items found, so a column's cache never
    # reads as shorter than its walk
    from ramseychoice.certificates import _Walk

    starts = []

    def make():
        starts.append(1)
        yield 2
        if len(starts) == 1:
            raise KeyboardInterrupt
        yield 3

    walk = _Walk(make)
    spares = lambda q, m: m % q != 0  # noqa: E731
    with pytest.raises(KeyboardInterrupt):
        walk.first(spares, 4)
    assert walk.found == [2]
    assert walk.first(spares, 4) == 3
    assert walk.first(spares, 9) == 2
    assert (walk.found, len(starts)) == ([2, 3], 2)
