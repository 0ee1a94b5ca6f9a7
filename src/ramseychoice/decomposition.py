"""Blocking decompositions and the provability classification they decide.

A decomposition writes n as a sum of parts, each at least 2.  A part of size
p can contribute j elements to a selection only when j = 0 or j shares a
factor with p; a decomposition blocks m when no admissible combination of
per-part contributions sums to exactly m.  The existence of a blocking
decomposition is what separates the unprovable implications RC_m => RC_n
from the provable ones, and the provable set is exactly the diagonal plus
the single sporadic pair (2, 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from .errors import BoundExceeded, CertificateSearchFailed, InvalidPart, OracleDisagreement

# Largest n for which the exhaustive partition scan runs by default; the
# partition count stays in the low millions up to here.
EXHAUSTIVE_BOUND = 64


@dataclass(frozen=True)
class Decomposition:
    """A multiset of parts >= 2, stored in canonical non-increasing order."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        ordered = tuple(sorted(parts, reverse=True))
        if not ordered:
            raise InvalidPart("a decomposition needs at least one part")
        for p in ordered:
            if not isinstance(p, int) or p < 2:
                raise InvalidPart(f"part {p!r} is invalid; parts must be integers >= 2")
        object.__setattr__(self, "parts", ordered)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def as_json(self) -> dict:
        return {"parts": list(self.parts)}


@dataclass(frozen=True)
class AdmissibleSumSet:
    """Bit table of the contribution sums a decomposition admits."""

    total: int
    bits: int

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and bool(self.bits >> s & 1)

    def values(self) -> list[int]:
        return [s for s in range(self.total + 1) if self.bits >> s & 1]


@lru_cache(maxsize=1024)
def allowed_contributions(part: int) -> frozenset[int]:
    """Contributions a part admits: zero, or any j <= part sharing a factor."""
    if part < 2:
        raise InvalidPart(f"part must be >= 2, got {part}")
    return frozenset([0]) | frozenset(j for j in range(1, part + 1) if math.gcd(j, part) > 1)


def admissible_sums(d: Decomposition) -> AdmissibleSumSet:
    """Subset-sum table over the per-part allowed contributions."""
    bits = 1
    for part in d.parts:
        step = 0
        for j in allowed_contributions(part):
            step |= bits << j
        bits = step
    return AdmissibleSumSet(d.total, bits)


def blocks(d: Decomposition, m: int) -> bool:
    """True when no admissible combination of contributions sums to m.

    Any m above the decomposition total is blocked automatically; m = 0 is
    never blocked since every part may contribute nothing.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return m not in admissible_sums(d)


def iter_decompositions(n: int) -> Iterator[Decomposition]:
    """All decompositions of n in reverse-lexicographic part order."""

    def rec(remaining: int, max_part: int):
        for first in range(min(remaining, max_part), 1, -1):
            rest = remaining - first
            if rest == 0:
                yield (first,)
            elif rest >= 2:
                for tail in rec(rest, first):
                    yield (first,) + tail

    for parts in rec(n, n):
        yield Decomposition(parts)


def find_blocking_decomposition(
    m: int, n: int, bound: int = EXHAUSTIVE_BOUND
) -> Decomposition | None:
    """First decomposition of n blocking m in the canonical scan order.

    Returns None when every decomposition admits m.  The scan order is fixed
    (reverse-lexicographic over non-increasing part lists), so the returned
    certificate is canonical for the pair.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds the exhaustive search bound {bound}")
    for d in iter_decompositions(n):
        if blocks(d, m):
            return d
    return None


class Verdict(str, Enum):
    PROVABLE = "provable"
    NOT_PROVABLE = "not_provable"


class Reason(str, Enum):
    DIAGONAL = "diagonal"
    RC24 = "rc24"
    CERTIFICATE = "certificate"


@dataclass(frozen=True)
class Classification:
    """Verdict for one implication RC_m => RC_n."""

    m: int
    n: int
    verdict: Verdict
    reason: Reason
    certificate: Decomposition | None = None
    achievable_for_certificate: AdmissibleSumSet | None = None

    def to_json_obj(self) -> dict:
        obj = {"m": self.m, "n": self.n, "verdict": self.verdict.value, "reason": self.reason.value}
        if self.certificate is not None:
            obj["certificate"] = self.certificate.as_json()
        if self.achievable_for_certificate is not None:
            obj["achievable_sums"] = self.achievable_for_certificate.values()
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Classification":
        cert = obj.get("certificate")
        d = Decomposition(cert["parts"]) if cert is not None else None
        ach = admissible_sums(d) if d is not None else None
        return cls(
            m=obj["m"],
            n=obj["n"],
            verdict=Verdict(obj["verdict"]),
            reason=Reason(obj["reason"]),
            certificate=d,
            achievable_for_certificate=ach,
        )


def provable_by_theorem(m: int, n: int) -> bool:
    """The closed-form provability predicate: m = n or (m, n) = (2, 4)."""
    return m == n or (m, n) == (2, 4)


def classify_detailed(m: int, n: int, *, oracle: bool = False, bound: int = EXHAUSTIVE_BOUND):
    """Classify one pair and keep the recipe trace for reporting.

    Returns (Classification, RecipeTrace | None).  With oracle=True the
    exhaustive partition scan runs alongside the constructive recipes and any
    disagreement is raised as a hard failure.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    if m == n:
        cls = Classification(m, n, Verdict.PROVABLE, Reason.DIAGONAL)
        _oracle_check_provable(m, n, oracle, bound)
        return cls, None
    if (m, n) == (2, 4):
        cls = Classification(m, n, Verdict.PROVABLE, Reason.RC24)
        _oracle_check_provable(m, n, oracle, bound)
        return cls, None

    from . import certificates  # deferred: certificates imports this module

    trace = certificates.build_certificate(m, n, bound=bound)
    if oracle and n <= bound:
        exhaustive = find_blocking_decomposition(m, n, bound=bound)
        if exhaustive is None:
            raise OracleDisagreement(
                f"recipes produced a certificate for ({m}, {n}) "
                "but the exhaustive scan found none"
            )
    cert = trace.decomposition
    return (
        Classification(
            m,
            n,
            Verdict.NOT_PROVABLE,
            Reason.CERTIFICATE,
            certificate=cert,
            achievable_for_certificate=admissible_sums(cert),
        ),
        trace,
    )


def _oracle_check_provable(m: int, n: int, oracle: bool, bound: int) -> None:
    if not oracle or n > bound:
        return
    witness = find_blocking_decomposition(m, n, bound=bound)
    if witness is not None:
        raise OracleDisagreement(
            f"({m}, {n}) should be provable but {witness} blocks m = {m}"
        )


def classify(m: int, n: int, *, oracle: bool = False, bound: int = EXHAUSTIVE_BOUND) -> Classification:
    """Decide whether RC_m => RC_n is provable; attach a certificate if not.

    Degenerate inputs are accepted: (1, 1) is diagonal, and m = 1 is blocked
    by every decomposition.  For n = 1 with m != 1 no decomposition of n
    exists at all (the implication holds trivially), which surfaces as
    CertificateSearchFailed rather than a fabricated verdict.
    """
    return classify_detailed(m, n, oracle=oracle, bound=bound)[0]
