import hashlib

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
    classify,
    find_blocking_decomposition,
    provable_by_theorem,
)
from ramseychoice.errors import CertificateSearchFailed, PreconditionViolated
from ramseychoice.numtheory import bertrand_prime, is_prime, primes_up_to


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


def test_recipe_greater():
    assert recipe_greater(5, 3).decomposition.parts == (3,)
    assert recipe_greater(17, 2).decomposition.parts == (2,)
    assert recipe_greater(3, 5) is None
    assert recipe_greater(4, 4) is None


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
    assert recipe_prime_power(3, 9).decomposition.parts == (5, 4)
    # the (2, 4) corner has no room after the Bertrand prime
    assert recipe_prime_power(2, 4) is None
    assert recipe_prime_power(2, 12) is None
    assert recipe_prime_power(4, 8) is None


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
    assert recipe_odd(4, 10) is None
    assert recipe_odd(2, 5) is None


def test_recipe_odd_needs_one_triple():
    # the proof in recipe_odd: the first triple settles every m < n
    for n in range(7, 302, 2):
        for m in range(1, n):
            tr = recipe_odd(m, n)
            assert tr is not None, (m, n)
            assert sum(line.startswith("goldbach triple") for line in tr.narrative) == 1
        assert recipe_odd(n, n) is None


def test_recipe_fermat_shift():
    assert recipe_fermat_shift(4, 8).decomposition.parts == (5, 3)
    assert recipe_fermat_shift(6, 8).decomposition.parts == (5, 3)
    assert recipe_fermat_shift(16, 32).decomposition.parts == (17, 15)
    assert recipe_fermat_shift(28, 32).decomposition.parts == (27, 5)
    assert recipe_fermat_shift(3, 9) is None  # odd m
    assert recipe_fermat_shift(2, 4) is None  # m - 1 below 2
    assert recipe_fermat_shift(6, 12) is None  # gap 6 is not a power of two
    assert recipe_fermat_shift(24, 56) is None  # gap 32, but 33 is composite


def test_recipe_even_gap():
    # the largest odd prime below n - 1 is tried first
    assert recipe_even_gap(4, 10).decomposition.parts == (7, 3)
    assert recipe_even_gap(10, 16).decomposition.parts == (13, 3)
    assert recipe_even_gap(6, 12).decomposition.parts == (7, 5)
    assert recipe_even_gap(8, 128).decomposition.parts == (113, 5, 5, 5)
    assert recipe_even_gap(10, 1250).decomposition.parts == (1237, 13)
    assert recipe_even_gap(2, 4) is None  # no odd prime in (2, 3)
    assert recipe_even_gap(3, 10) is None  # odd m


def test_recipe_even_gap_needs_one_prime():
    # the proof in recipe_even_gap: the largest odd prime in (m, n - 1) verifies
    for n in range(4, 301, 2):
        for m in range(2, n, 2):
            if not any(is_prime(p) for p in range(m + 1, n - 1)):
                assert recipe_even_gap(m, n) is None, (m, n)
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
    # the prime above n/2 is not below m
    assert recipe_even_dense(8, 14) is None
    assert recipe_even_dense(10, 16) is None
    # the direct split admits m: 20 = 17 + 3 with 3 dividing n - p
    assert recipe_even_dense(20, 26) is None
    assert recipe_even_dense(20, 32) is None
    # gap n - m of at most 4
    assert recipe_even_dense(6, 8) is None
    assert recipe_even_dense(8, 12) is None
    assert recipe_even_dense(4, 10) is None  # m below n/2
    assert recipe_even_dense(5, 8) is None  # odd m
    assert recipe_even_dense(8, 8) is None


def test_dense_outputs_block_wherever_defined():
    for n in range(6, 65, 2):
        for m in range(2, n, 2):
            tr = recipe_even_dense(m, n)
            if tr is None:
                continue
            assert tr.decomposition.total == n
            assert blocks(tr.decomposition, m), (m, n)


def test_every_recipe_returns_none_or_a_blocking_trace():
    # recipes decline through their return value, on any pair at all
    pairs = [(m, n) for m in range(1, 121) for n in range(1, 121)]
    assert (8, 12) in pairs
    for recipe in _DISPATCH:
        for m, n in pairs:
            tr = recipe(m, n)
            if tr is None:
                continue
            assert (tr.m, tr.n) == (m, n)
            assert sum(tr.decomposition.parts) == n, (recipe.__name__, m, n)
            assert blocks(tr.decomposition, m), (recipe.__name__, m, n)


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
    with pytest.raises(PreconditionViolated):
        build_certificate(0, 5)
    with pytest.raises(CertificateSearchFailed, match="no decomposition of 1"):
        build_certificate(3, 1)
    # the command line prints the error line and nothing else; pytest takes
    # log records off stderr, so no record may be logged either
    assert main(["certificate", "3", "1"]) == 1
    assert capsys.readouterr() == (
        "", "error: no decomposition of 1 exists, so (3, 1) has no certificate\n"
    )
    assert caplog.records == []


def test_a_decline_by_every_recipe_is_a_bug(monkeypatch):
    from ramseychoice import certificates as ct

    monkeypatch.setattr(ct, "_DISPATCH", ())
    with pytest.raises(RuntimeError, match=r"\(3, 7\)"):
        ct.build_certificate(3, 7)
    with pytest.raises(RuntimeError, match=r"\(3, 7\)"):
        classify(3, 7)


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
    digest = hashlib.sha256()
    for n in range(2, 301):
        for m in range(2, 301):
            if not provable_by_theorem(m, n):
                tr = build_certificate(m, n)
                assert tr.decomposition.total == n, (m, n)
                digest.update(repr(
                    (m, n, tr.recipe.value, tr.decomposition.parts, tr.narrative)
                ).encode())
    assert digest.hexdigest() == (
        "588a2d0551d5dc073179470615f67a4b3550cb660603b4abccd41e1261cf55b8"
    )
