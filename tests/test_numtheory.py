import random

import pytest

from ramseychoice.errors import BoundExceeded
from ramseychoice.numtheory import (
    GOLDBACH_SEARCH_BOUND,
    bertrand_prime,
    goldbach_triples,
    is_prime,
    iter_goldbach_triples,
    prime_factors,
    primes_up_to,
    verify_goldbach,
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


# psi_k: the least strong pseudoprime to each of the first k prime bases
# (psi_8 = psi_7 and psi_11 = psi_10 = psi_9); psi_12 lies above 2^63.
PSI = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
}


def strong_probable_prime(x, a):
    d, r = x - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    y = pow(a, d, x)
    if y in (1, x - 1):
        return True
    for _ in range(r - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def twelve_base_reference(x):
    # all twelve bases on every x, the battery before it was cut to psi_k
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if x < 2:
        return False
    if x in bases:
        return True
    if any(x % a == 0 for a in bases):
        return False
    return all(strong_probable_prime(x, a) for a in bases)


def test_each_psi_is_composite():
    # psi_k passes the first k bases, so taking psi_k <= x for "the first k
    # suffice" instead of x < psi_k calls it prime; psi_1 = 23 * 89 falls to
    # trial division, and psi_12 is outside is_prime's range
    for k, psi in PSI.items():
        if k == 12:
            assert psi > 2**63
            with pytest.raises(ValueError):
                is_prime(psi)
            continue
        assert all(strong_probable_prime(psi, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:k])
        assert not is_prime(psi), k


def test_is_prime_agrees_with_twelve_bases():
    # around each psi_k, and on a seeded log-uniform sample below 2^63
    near = [psi + d for psi in PSI.values() if psi < 2**63 for d in (-2, 2)]
    rng = random.Random(25)
    sample = [int(2 ** rng.uniform(1, 63)) for _ in range(3000)]
    for x in near + sample:
        assert is_prime(x) == twelve_base_reference(x), x
    assert sum(map(is_prime, sample)) > 100  # the sample reaches primes too


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(4611686018427387847)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**63 + 1)
    with pytest.raises(ValueError):
        is_prime("7")
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
    with pytest.raises(ValueError):
        bertrand_prime(1)


def test_primes_up_to():
    ps = primes_up_to(100)
    assert ps == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)


def test_walked_triples_are_sorted_primes_summing_to_n():
    """The walker checks no triple it yields; every one for odd
    7 <= n < 2000 must be a sorted tuple of three primes summing to n."""
    for n in range(7, 2000, 2):
        for t in iter_goldbach_triples(n):
            assert type(t) is tuple and len(t) == 3 and t == tuple(sorted(t)) and sum(t) == n, (n, t)
            assert all(map(is_prime, t)), (n, t)


def test_goldbach_triples_lex_order_and_completeness():
    """Compare against a direct cube scan for every odd target up to 99."""
    for n in range(7, 100, 2):
        got = goldbach_triples(n)
        ps = primes_up_to(n)
        want = [
            (a, b, n - a - b)
            for a in ps
            for b in ps
            if a <= b <= n - a - b and is_prime(n - a - b)
        ]
        assert got == sorted(want, key=lambda t: (t[0] == 2, t)), n  # all-odd first
        assert got


def test_goldbach_all_odd_preferred_is_stable():
    ts = goldbach_triples(15)
    odds = [t for t in ts if t[0] != 2]
    evens = [t for t in ts if t[0] == 2]
    assert ts == odds + evens
    # within each block the lex order survives
    assert odds == sorted(odds)
    assert evens == [(2, 2, 11)]
    assert odds[0] == (3, 5, 7)


def test_a_goldbach_sweep_that_checks_nothing_is_refused():
    for max_n in (6, 5, -1):
        with pytest.raises(ValueError, match=f"^max_n must be >= 7, got {max_n}$"):
            verify_goldbach(max_n)
    assert verify_goldbach(7) == (1, [])


def test_goldbach_triples_rejects_bad_targets():
    with pytest.raises(ValueError):
        goldbach_triples(5)
    with pytest.raises(ValueError):
        goldbach_triples(12)
    with pytest.raises(BoundExceeded):
        goldbach_triples(GOLDBACH_SEARCH_BOUND + 1)


def test_goldbach_triples_refuses_a_long_listing_before_it_starts(monkeypatch):
    import ramseychoice.numtheory as numtheory

    assert len(goldbach_triples(20_001)) == 87_358
    assert next(iter_goldbach_triples(20_003)) == (3, 3, 19_997)  # the lazy walk keeps 2^63
    monkeypatch.setattr(numtheory, "_walk_goldbach_triples", None)  # a walk would fail with TypeError
    with pytest.raises(BoundExceeded, match="^n = 20003 exceeds the triple search bound 20001$"):
        goldbach_triples(20_003)


def test_goldbach_sweep_never_empty():
    # ternary Goldbach has no odd exceptions above 5 in this range; the first
    # triple is enough to show it, and EmptyResult would fail the test
    for n in range(7, 10**5 + 1, 2):
        assert sum(next(iter_goldbach_triples(n))) == n


def sieve_goldbach_triples(n):
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
    triples.sort(key=lambda t: t[0] == 2)  # all-odd first, each block still lexicographic
    return triples


def test_iter_goldbach_triples_matches_sieve_enumeration():
    for n in range(7, 602, 2):
        got = list(iter_goldbach_triples(n))
        assert got == sieve_goldbach_triples(n), n
        assert goldbach_triples(n) == got


def test_iter_goldbach_triples_checks_target_on_call(monkeypatch):
    import ramseychoice.numtheory as numtheory

    # the target is validated before the first triple is asked for
    with pytest.raises(ValueError):
        iter_goldbach_triples(12)
    with pytest.raises(BoundExceeded, match=r"^n = 9223372036854775809 exceeds the triple search "
                                            r"bound 9223372036854775808$"):
        iter_goldbach_triples(2**63 + 1)
    # the first triple of a target near the ceiling comes without listing the
    # rest, and without testing n - 4, which only (2, 2, n - 4) needs
    n = GOLDBACH_SEARCH_BOUND - 1
    tested = []
    monkeypatch.setattr(numtheory, "is_prime", lambda x: tested.append(x) or is_prime(x))
    assert next(iter_goldbach_triples(n)) == (3, 13, n - 16)
    assert n - 4 not in tested
    assert not any(is_prime(p) and is_prime(n - 3 - p) for p in range(3, 13, 2))


def test_prime_factors_by_trial_division():
    assert list(prime_factors(1)) == []
    assert list(prime_factors(2**22)) == [2]
    assert list(prime_factors(1_000_000)) == [2, 5]
    assert list(prime_factors(4194301)) == [4194301]
    for n in range(1, 600):
        assert list(prime_factors(n)) == [p for p in primes_up_to(n) if n % p == 0], n


def trial_division_factors(n):
    # n's distinct primes by trial division to sqrt(n): the reference for prime_factors
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return primes + [n] if n > 1 else primes


def assert_factored(n, primes):
    # ascending, distinct primes that rebuild n: the one answer, where trial division is too slow
    assert primes == sorted(set(primes)), n
    assert all(map(is_prime, primes)), n
    rest = n
    for p in primes:
        assert rest % p == 0, (n, p)
        while rest % p == 0:
            rest //= p
    assert rest == 1, n


def test_prime_factors_agree_with_trial_division_below_20000():
    # test_prime_factors_by_trial_division stops at 600; 20,000 passes 131^2 =
    # 17161, the first n whose rest after the primes below 128 is composite
    for n in range(1, 20_000):
        assert list(prime_factors(n)) == trial_division_factors(n), n


def test_prime_factors_split_63_bit_inputs_by_rho():
    near = [bertrand_prime(x) for x in (2**21, 2**21 + 100, 2**31, 2**31 + 100)]
    inputs = [
        1073741827 * 1073741831,
        2 * 1073741827 * 1073741831,
        561, 41041, 825265, 321197185,  # Carmichael numbers
        2 * (2**61 - 1),
        2**63 - 25,
    ]
    inputs += [p**2 for p in near] + [p**3 for p in near if p**3 <= 2**63]
    inputs += [near[0] * near[1] * 3, near[0] * near[2], near[2] * near[3]]
    rng = random.Random(38)
    inputs += [rng.randrange(2**62, 2**63) for _ in range(20)]
    for n in inputs:
        assert_factored(n, list(prime_factors(n)))
    assert list(prime_factors(2 * 1073741827 * 1073741831)) == [2, 1073741827, 1073741831]
    assert list(prime_factors(2 * (2**61 - 1))) == [2, 2**61 - 1]
    assert list(prime_factors(near[3] ** 2)) == [near[3]]


def test_prime_factors_rejects_out_of_range_on_call():
    for n in (0, -12, 2**63 + 1, 3 * 2**70):
        with pytest.raises(ValueError):
            prime_factors(n)
    assert list(prime_factors(2**63)) == [2]
