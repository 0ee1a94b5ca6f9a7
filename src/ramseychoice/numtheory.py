"""Exact number-theoretic primitives.

Everything here is deterministic: primality runs the fewest strong-pseudoprime
bases of a fixed battery that are proven exact for its input, and the prime
searches scan candidate ranges directly instead of sampling.  Nothing a
certificate recipe calls sieves: factors come from trial division and
Goldbach triples from is_prime, one candidate at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

from .errors import BoundExceeded, EmptyResult

# Witness battery: the first twelve primes (2..37).  The first k of them are
# exact for every x below psi_k, the least strong pseudoprime to all of them
# (Jaeschke, Math. Comp. 61, 1993; Jiang and Deng, Math. Comp. 83, 2014;
# Sorenson and Webster, Math. Comp. 86, 2017), so is_prime runs only the
# first k bases for the least k with x < psi_k.  psi_8 = psi_7 and
# psi_11 = psi_10 = psi_9, so those counts never help; psi_12 (about 3.18e23)
# covers the whole supported 63-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
    )
)

_MAX_INPUT = 2**63

# Ceiling for verify_goldbach; a lazy search goes to is_prime's 2^63.
GOLDBACH_SEARCH_BOUND = 1_000_000

# Ceiling for goldbach_triples, which lists every triple: n = 20,001 has 87,358 of them
# (0.4 s on a 2-vCPU VM), and their count grows about as n^2 / log(n)^2.
_TRIPLE_LISTING_BOUND = 20_001


@lru_cache(maxsize=1 << 18)
def is_prime(x: int) -> bool:
    """Exact primality test for 0 <= x <= 2**63."""
    if not isinstance(x, int):
        raise ValueError(f"is_prime expects an integer, got {type(x).__name__}")
    if x < 0 or x > _MAX_INPUT:
        raise ValueError(f"is_prime supports 0 <= x <= 2**63, got {x}")
    if x < 2:
        return False
    for p in _MR_BASES:
        if x == p:
            return True
        if x % p == 0:
            return False
    # Strong-pseudoprime rounds; x is odd and coprime to every base here.
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for psi, bases in _MR_ROUNDS:  # x <= 2^63 < psi_12, so some row holds it
        if x < psi:
            break
    for a in bases:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> Iterator[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    return _prime_factors_up_to(n, n)


def _prime_factors_up_to(n: int, limit: int) -> Iterator[int]:
    # Trial division that also stops at limit: O(min(limit, sqrt(n))) steps for any n.
    f = 2
    while f <= limit and f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if 1 < n <= limit:  # no prime below f divides n, and f * f > n (else n >= f > limit)
        yield n


def bertrand_prime(m: int) -> int:
    """Smallest prime p with m < p < 2m, which exists for every m >= 2."""
    if m < 2:
        raise ValueError(f"bertrand_prime needs m >= 2, got {m}")
    for candidate in range(m + 1, 2 * m):
        if is_prime(candidate):
            return candidate
    raise RuntimeError(f"no prime in ({m}, {2 * m}); this contradicts Bertrand's postulate")


@lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i in range(limit + 1) if flags[i])


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return ()
    # Round the sieve size up so nearby requests share one cache entry.
    padded = max(1024, 1 << (limit - 1).bit_length())
    return tuple(p for p in _sieve(padded) if p <= limit)


def _check_target(n: int, bound: int) -> None:
    if n % 2 == 0 or n <= 5:
        raise ValueError(f"goldbach_triples needs an odd n > 5, got {n}")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds the triple search bound {bound}")


def iter_goldbach_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """Prime triples p1 <= p2 <= p3 with p1 + p2 + p3 = n, lazily, as tuples.

    The all-odd triples come first, in lexicographic order, then
    (2, 2, n - 4) when n - 4 is prime.  Candidates are tested with is_prime
    as they are reached, so a caller that stops at the first useful triple
    pays only for the triples before it.  n is checked on call, also against
    is_prime's 2^63; EmptyResult is raised only if the iterator runs out
    without yielding, which would falsify ternary Goldbach.
    """
    _check_target(n, _MAX_INPUT)
    return _walk_goldbach_triples(n)


def _walk_goldbach_triples(n: int) -> Iterator[tuple[int, int, int]]:
    # p2 + p3 = n - 2 is odd, so (2, 2, n - 4) is the only triple holding a 2;
    # every other triple has odd p1 <= n/3 and odd p2 <= (n - p1)/2.
    found = False
    for p1 in filter(is_prime, range(3, n // 3 + 1, 2)):
        for p2 in filter(is_prime, range(p1, (n - p1) // 2 + 1, 2)):
            if is_prime(n - p1 - p2):
                found = True
                yield p1, p2, n - p1 - p2
    if is_prime(n - 4):
        yield 2, 2, n - 4
    elif not found:
        raise EmptyResult(f"no prime triple sums to {n}; ternary Goldbach violated in range")


def goldbach_triples(n: int) -> list[tuple[int, int, int]]:
    """All prime triples summing to n, as sorted tuples, in iter_goldbach_triples order.

    An n above _TRIPLE_LISTING_BOUND raises BoundExceeded before any is
    listed, after the ValueError of a bad target; an empty result raises EmptyResult.
    """
    _check_target(n, _TRIPLE_LISTING_BOUND)
    return list(_walk_goldbach_triples(n))


def verify_goldbach(max_n: int) -> tuple[int, list[int]]:
    """Look for a prime triple of every odd target 7..max_n.

    Returns (targets checked, targets with no triple).  A max_n below 7,
    which would check nothing, raises ValueError.  Before any search, the
    first target above GOLDBACH_SEARCH_BOUND, if max_n reaches one, is
    refused with BoundExceeded.
    """
    if max_n < 7:
        raise ValueError(f"max_n must be >= 7, got {max_n}")
    if max_n > GOLDBACH_SEARCH_BOUND:
        _check_target(GOLDBACH_SEARCH_BOUND + 1 | 1, GOLDBACH_SEARCH_BOUND)
    targets = range(7, max_n + 1, 2)
    failures = []
    for n in targets:
        try:
            next(iter_goldbach_triples(n))
        except EmptyResult:
            failures.append(n)
    return len(targets), failures
