import pytest

from ramseychoice.errors import BoundExceeded
from ramseychoice.numtheory import (
    GOLDBACH_SEARCH_BOUND,
    GoldbachTriple,
    bertrand_prime,
    goldbach_triples,
    is_prime,
    iter_goldbach_triples,
    prime_factors,
    primes_up_to,
)


def trial_division(x):
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    for x in range(0, 2000):
        assert is_prime(x) == trial_division(x), x


def test_is_prime_known_composites():
    # Carmichael numbers and strong-pseudoprime bait
    for x in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751):
        assert not is_prime(x)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(4611686018427387847)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**63 + 1)
    assert is_prime(0) is False
    assert is_prime(1) is False


def test_bertrand_prime_in_open_interval():
    for m in range(2, 400):
        p = bertrand_prime(m)
        assert m < p < 2 * m
        assert is_prime(p)
        # it is the smallest such prime
        for x in range(m + 1, p):
            assert not is_prime(x)


def test_primes_up_to():
    ps = primes_up_to(100)
    assert ps == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)


def test_goldbach_triple_validation():
    t = GoldbachTriple(3, 5, 11, 19)
    assert t.as_tuple() == (3, 5, 11)
    assert t.all_odd
    assert not GoldbachTriple(2, 2, 3, 7).all_odd
    with pytest.raises(ValueError):
        GoldbachTriple(5, 3, 11, 19)  # not sorted
    with pytest.raises(ValueError):
        GoldbachTriple(3, 5, 11, 20)  # wrong sum
    with pytest.raises(ValueError):
        GoldbachTriple(3, 5, 9, 17)  # 9 is not prime


def test_goldbach_triples_lex_order_and_completeness():
    """Compare against a direct cube scan for every odd target up to 99."""
    for n in range(7, 100, 2):
        got = [t.as_tuple() for t in goldbach_triples(n)]
        ps = primes_up_to(n)
        want = [
            (a, b, n - a - b)
            for a in ps
            for b in ps
            if a <= b <= n - a - b and is_prime(n - a - b)
        ]
        assert got == sorted(want), n
        assert got


def test_goldbach_all_odd_preferred_is_stable():
    ts = goldbach_triples(13, all_odd_preferred=True)
    odds = [t for t in ts if t.all_odd]
    evens = [t for t in ts if not t.all_odd]
    assert ts == odds + evens
    # within each block the lex order survives
    assert odds == sorted(odds, key=lambda t: t.as_tuple())
    assert evens == sorted(evens, key=lambda t: t.as_tuple())
    assert odds[0].as_tuple() == (3, 3, 7)


def test_goldbach_triples_rejects_bad_targets():
    with pytest.raises(ValueError):
        goldbach_triples(5)
    with pytest.raises(ValueError):
        goldbach_triples(12)
    with pytest.raises(BoundExceeded):
        goldbach_triples(GOLDBACH_SEARCH_BOUND + 1)
    with pytest.raises(BoundExceeded):
        goldbach_triples(9, bound=7)


def test_goldbach_sweep_never_empty():
    # ternary Goldbach has no odd exceptions above 5 in this range; the first
    # triple is enough to show it, and EmptyResult would fail the test
    for n in range(7, 10**5 + 1, 2):
        assert sum(next(iter_goldbach_triples(n)).as_tuple()) == n


def sieve_goldbach_triples(n, all_odd_preferred):
    """Sieve-based enumeration: the reference for iter_goldbach_triples."""
    primes = primes_up_to(n)
    prime_set = set(primes)
    triples = []
    for i, p1 in enumerate(primes):
        if 3 * p1 > n:
            break
        for p2 in primes[i:]:
            p3 = n - p1 - p2
            if p3 < p2:
                break
            if p3 in prime_set:
                triples.append((p1, p2, p3))
    if all_odd_preferred:
        triples.sort(key=lambda t: t[0] == 2)
    return triples


def test_iter_goldbach_triples_matches_sieve_enumeration():
    for n in range(7, 602, 2):
        for preferred in (False, True):
            got = [t.as_tuple() for t in iter_goldbach_triples(n, preferred)]
            assert got == sieve_goldbach_triples(n, preferred), (n, preferred)
            assert [t.as_tuple() for t in goldbach_triples(n, preferred)] == got


def test_iter_goldbach_triples_checks_target_on_call():
    # the target is validated before the first triple is asked for
    with pytest.raises(ValueError):
        iter_goldbach_triples(12)
    with pytest.raises(BoundExceeded):
        iter_goldbach_triples(9, bound=7)
    # the first triple of a target near the bound comes without listing the rest
    n = GOLDBACH_SEARCH_BOUND - 1
    assert next(iter_goldbach_triples(n, all_odd_preferred=True)).as_tuple() == (3, 13, n - 16)
    assert not any(is_prime(p) and is_prime(n - 3 - p) for p in range(3, 13, 2))


def test_prime_factors_by_trial_division():
    assert list(prime_factors(1)) == []
    assert list(prime_factors(2**22)) == [2]
    assert list(prime_factors(1_000_000)) == [2, 5]
    assert list(prime_factors(4194301)) == [4194301]
    for n in range(1, 600):
        assert list(prime_factors(n)) == [p for p in primes_up_to(n) if n % p == 0], n
