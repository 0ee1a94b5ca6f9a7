"""Exact number-theoretic primitives.

Everything here is deterministic: primality uses a fixed strong-pseudoprime
base battery that is exact far beyond 63 bits, and the prime searches scan
candidate ranges directly instead of sampling.  Nothing a certificate recipe
calls sieves: factors come from trial division and Goldbach triples from
is_prime, one candidate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import BoundExceeded, EmptyResult

# Witness battery: the first twelve primes decide primality correctly for
# every n < 3.3e24, which covers the whole supported 63-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_INPUT = 2**63

# Ceiling for listing every Goldbach triple; a lazy search goes to is_prime's 2^63.
GOLDBACH_SEARCH_BOUND = 1_000_000


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
    for a in _MR_BASES:
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


@dataclass(frozen=True)
class GoldbachTriple:
    """Three primes p1 <= p2 <= p3 summing to an odd target > 5."""

    p1: int
    p2: int
    p3: int
    target: int

    def __post_init__(self):
        ps = (self.p1, self.p2, self.p3)
        if not (self.p1 <= self.p2 <= self.p3):
            raise ValueError(f"triple {ps} is not sorted")
        if sum(ps) != self.target:
            raise ValueError(f"triple {ps} does not sum to {self.target}")
        if self.target % 2 == 0 or self.target <= 5:
            raise ValueError(f"target must be odd and > 5, got {self.target}")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)

    @property
    def all_odd(self) -> bool:
        return self.p1 != 2


def iter_goldbach_triples(
    n: int, all_odd_preferred: bool = False, bound: int = _MAX_INPUT
) -> Iterator[GoldbachTriple]:
    """Prime triples p1 <= p2 <= p3 with p1 + p2 + p3 = n, lazily, lexicographic.

    With all_odd_preferred, triples avoiding the prime 2 come first (still in
    lexicographic order within each group).  Candidates are tested with
    is_prime as they are reached, so a caller that stops at the first useful
    triple pays only for the triples before it.  n is checked on call, also
    against bound (by default is_prime's 2^63); EmptyResult is raised only if
    the iterator runs out without yielding, which would falsify ternary Goldbach.
    """
    if n % 2 == 0 or n <= 5:
        raise ValueError(f"goldbach_triples needs an odd n > 5, got {n}")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds the triple search bound {bound}")
    return _walk_goldbach_triples(n, all_odd_preferred)


def _walk_goldbach_triples(n: int, all_odd_preferred: bool) -> Iterator[GoldbachTriple]:
    # p2 + p3 = n - 2 is odd, so (2, 2, n - 4) is the only triple holding a 2;
    # every other triple has odd p1 <= n/3 and odd p2 <= (n - p1)/2.
    with_two = (GoldbachTriple(2, 2, n - 4, n),) if is_prime(n - 4) else ()
    if not all_odd_preferred:
        yield from with_two
    found = bool(with_two)
    for p1 in filter(is_prime, range(3, n // 3 + 1, 2)):
        for p2 in filter(is_prime, range(p1, (n - p1) // 2 + 1, 2)):
            if is_prime(n - p1 - p2):
                found = True
                yield GoldbachTriple(p1, p2, n - p1 - p2, n)
    if all_odd_preferred:
        yield from with_two
    if not found:
        raise EmptyResult(f"no prime triple sums to {n}; ternary Goldbach violated in range")


def goldbach_triples(
    n: int, all_odd_preferred: bool = False, bound: int = GOLDBACH_SEARCH_BOUND
) -> list[GoldbachTriple]:
    """All prime triples summing to n, listed in iter_goldbach_triples order.

    Kept for callers that want the whole set at once; an empty result raises
    EmptyResult, as the iterator does.
    """
    return list(iter_goldbach_triples(n, all_odd_preferred, bound))
