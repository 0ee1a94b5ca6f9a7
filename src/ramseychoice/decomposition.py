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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import groupby
from operator import mul
from typing import Iterator

from .errors import BoundExceeded, InvalidPart, OracleDisagreement
from .numtheory import _prime_factors_up_to, primes_up_to

# Largest n for which the exhaustive oracle runs by default.  The column table
# behind it takes about 5 ms up to here; a provable pair never scans partitions.
EXHAUSTIVE_BOUND = 64

# Largest (number of parts) * total admissible_sums builds; admits classify 4 1000000 --json.
# The fold updates its table of total + 1 bits at most once per part, and less for runs.
TABLE_WORK_BOUND = 2**38


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A multiset of parts >= 2, stored as runs: its distinct parts in
    decreasing order and the count of each.

    parts, one entry per copy in non-increasing order, is kept from the
    constructor's argument; for a decomposition built from runs it is
    derived on first use and then kept.  When every part is distinct the
    counts are None and parts is the tuple of distinct parts itself.
    """

    _values: tuple[int, ...]
    _counts: tuple[int, ...] | None
    total: int = field(compare=False)
    _parts: tuple[int, ...] | None = field(compare=False)

    def __init__(self, parts):
        ordered = tuple(sorted(parts, reverse=True))
        if not ordered:
            raise InvalidPart("a decomposition needs at least one part")
        try:  # one C-level pass: a non-int part makes the sum a non-int, or raises
            total = sum(ordered)
            valid = type(total) is int and ordered[-1] >= 2
        except TypeError:
            valid = False
        for p in () if valid else ordered:  # the exact rule, naming the first bad part
            if not isinstance(p, int) or p < 2:
                raise InvalidPart(f"part {p!r} is invalid; parts must be integers >= 2")
        values, counts = ordered, None
        if len(set(ordered)) < len(ordered):  # some part repeats
            values, counts = zip(*[(p, len(tuple(run))) for p, run in groupby(ordered)])
        _set_values(self, values)
        _set_counts(self, counts)
        _set_total(self, total)
        _set_parts(self, ordered)

    @classmethod
    def from_runs(cls, values: tuple[int, ...], counts: tuple[int, ...]) -> Decomposition:
        """The decomposition with counts[i] copies of values[i], trusted as given.

        values must be strictly decreasing integers >= 2 and counts positive;
        nothing is sorted or checked, so a run of 10^17 copies costs O(1).
        """
        self = object.__new__(cls)
        distinct = counts.count(1) == len(counts)
        _set_values(self, values)
        _set_counts(self, None if distinct else counts)
        _set_total(self, sum(map(mul, values, counts)))
        _set_parts(self, values if distinct else None)
        return self

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(part, count) pairs, parts in decreasing order."""
        return tuple(zip(self._values, self._counts or (1,) * len(self._values)))

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts in non-increasing order, one entry per copy."""
        parts = self._parts
        if parts is None:
            parts = ()
            for p, k in zip(self._values, self._counts):  # a run too long to allocate fails at once
                parts += (p,) * k
            _set_parts(self, parts)
        return parts

    def __repr__(self) -> str:
        return f"Decomposition(parts={self.parts!r})"

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def as_json(self) -> dict:
        return {"parts": list(self.parts)}


# The slots' own setters, which the frozen __setattr__ does not block: the
# constructors fill each field through them, faster than object.__setattr__.
_set_values, _set_counts, _set_total, _set_parts = (
    getattr(Decomposition, name).__set__ for name in ("_values", "_counts", "total", "_parts")
)


@dataclass(frozen=True)
class AdmissibleSumSet:
    """Bit table of the contribution sums a decomposition admits."""

    total: int
    bits: int

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and bool(self.bits >> s & 1)

    def values(self) -> list[int]:
        # One pass over the binary digits, lowest bit first.
        return [s for s, digit in enumerate(bin(self.bits)[:1:-1]) if digit == "1"]


@lru_cache(maxsize=1024)
def allowed_contributions(part: int) -> frozenset[int]:
    """Contributions a part admits: zero, or any j <= part sharing a factor.

    These are zero and the multiples of part's primes up to part, the rule
    _add_part folds by shifts.  No library path reads this set.
    """
    if part < 2:
        raise InvalidPart(f"part must be >= 2, got {part}")
    return frozenset((0,)).union(*(range(q, part + 1, q) for q in _part_primes(part, part)))


@lru_cache(maxsize=1024)
def _part_primes(part: int, reach: int) -> tuple[int, ...]:
    """part's primes up to reach: its contributions up to reach are their multiples."""
    return tuple(_prime_factors_up_to(part, reach))


def _progression(sums: int, q: int, k: int) -> int:
    """sums shifted by each of 0, q, ..., kq and ORed, in about log2(k + 1) shift-ORs.

    Binary splitting: chunks of 1, 2, 4, ... multiples cover 0..2^t - 1 of
    them, and a last shift by the k - (2^t - 1) <= 2^t left closes the gap.
    """
    chunk = 1
    while chunk < k:
        sums |= sums << chunk * q
        k -= chunk
        chunk *= 2
    return sums | sums << k * q


def _add_part(sums: int, primes: tuple[int, ...], reach: int) -> int:
    """sums plus one part with these primes: 0, or a multiple of one of them up to reach."""
    step = sums
    for q in primes:
        step |= _progression(sums, q, reach // q)
    return step


def _fold(d: Decomposition, limit: int) -> int:
    """Bit table of the admissible sums up to limit (see blocks); stops once bit limit is set."""
    keep, sums = (1 << limit + 1) - 1, 1
    counts = d._counts and iter(d._counts)  # None when every count is 1; cheaper than zip
    for part in d._values:
        count = next(counts) if counts else 1
        reach = part if part < limit else limit
        primes = _part_primes(part, reach)
        if len(primes) == 1:  # the count copies add exactly the multiples of q up to count * part
            q = primes[0]
            sums = _progression(sums, q, min(count * part, limit) // q) & keep
        else:  # copy by copy, until a copy leaves the table unchanged
            while count:
                step = _add_part(sums, primes, reach) & keep
                if step == sums:
                    break
                sums, count = step, count - 1
        if sums >> limit:
            return sums
    return sums


def admissible_sums(d: Decomposition) -> AdmissibleSumSet:
    """Full subset-sum table over the per-part allowed contributions.

    This is the reporting view: the fold of blocks taken up to d.total,
    which only the last part can reach, so the fold never stops early.  A
    table whose cost, the number of parts times d.total, exceeds
    TABLE_WORK_BOUND raises BoundExceeded before any work.
    """
    count = sum(d._counts) if d._counts else len(d._values)
    if count * d.total > TABLE_WORK_BOUND:
        raise BoundExceeded(f"{count} parts of total {d.total} exceed the table work bound")
    return AdmissibleSumSet(d.total, _fold(d, d.total))


def blocks(d: Decomposition, m: int) -> bool:
    """True when no admissible combination of contributions sums to m.

    m above the total is always blocked, and m = 0 never is.  Otherwise this
    reads bit m of one subset-sum fold that keeps only the sums up to m and
    stops once m is reached.  A part adds 0 or a multiple of one of its
    primes, one _progression per prime.  The fold walks d's runs, not its
    copies.  If the part of a run of k copies has one prime q up to m, the
    k copies add exactly the multiples of q up to k * part, in one
    _progression.  Any other run folds copy by copy until a copy changes
    nothing; as a part may always contribute 0, the rest of the run cannot
    change the table either.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return m > d.total or not _fold(d, m) >> m


def iter_decompositions(n: int) -> Iterator[Decomposition]:
    """All decompositions of n in reverse-lexicographic part order.

    The recursion yields runs: for each largest part, from the most copies
    down to one, then the decompositions of the rest into smaller parts.
    """

    def rec(remaining: int, max_part: int):
        for part in range(min(remaining, max_part), 1, -1):
            count = remaining // part
            while count:
                rest = remaining - part * count
                if rest == 0:
                    yield (part,), (count,)
                elif rest >= 2 and part > 2:  # parts of 2 leave no smaller part for the rest
                    for values, counts in rec(rest, part - 1):
                        yield (part,) + values, (count,) + counts
                count -= 1

    for values, counts in rec(n, n):
        yield Decomposition.from_runs(values, counts)


# The oracle's column table, grown on demand by _blockable: entry n holds the
# subset-minimal admissible-sum masks over the decompositions of n, and the
# bits m <= n that one of them lacks.
_COLUMNS: list[tuple[list[int], int]] = [([1], 0)]


def _blockable(n: int) -> int:
    """Bits m <= n that some decomposition of n blocks: the oracle's column n.

    Column n's masks are the minimal ones among S | S << p for each prime
    part p <= n and each mask S of column n - p.  A composite part p with a
    prime q adds 0 and every multiple of q up to p, a superset of what p/q
    parts q add, so it never yields a minimal mask.  The sumset is monotone
    in S, so a non-minimal S yields only supersets of what a minimal one
    yields, and m is blocked by some decomposition exactly when some minimal
    mask lacks bit m.  Columns are built in order up to n, once per process.
    """
    for k in range(len(_COLUMNS), n + 1):
        candidates = set()
        for p in primes_up_to(k):
            candidates.update(base | base << p for base in _COLUMNS[k - p][0])
        minimal = []
        for mask in sorted(candidates, key=int.bit_count):  # a subset never has more bits
            if all(kept & mask != kept for kept in minimal):
                minimal.append(mask)
        full, bits = (1 << k + 1) - 1, 0
        for mask in minimal:
            bits |= ~mask & full
        _COLUMNS.append((minimal, bits))
    return _COLUMNS[n][1]


def find_blocking_decomposition(
    m: int, n: int, bound: int = EXHAUSTIVE_BOUND
) -> Decomposition | None:
    """First decomposition of n blocking m in the canonical scan order.

    Returns None when every decomposition admits m, at once when column n
    of the table behind _blockable says so.  Otherwise the scan order is
    fixed (reverse-lexicographic over non-increasing part lists), so the
    returned certificate is canonical for the pair.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds the exhaustive search bound {bound}")
    if m <= n and not _blockable(n) >> m & 1:
        return None
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
    """Verdict for one implication RC_m => RC_n.

    achievable_for_certificate, the full admissible-sum table of the
    certificate, is derived from the certificate on first access and then
    kept; deciding the pair never builds it.
    """

    m: int
    n: int
    verdict: Verdict
    reason: Reason
    certificate: Decomposition | None = None

    @cached_property
    def achievable_for_certificate(self) -> AdmissibleSumSet | None:
        return admissible_sums(self.certificate) if self.certificate is not None else None

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
        return cls(
            m=obj["m"],
            n=obj["n"],
            verdict=Verdict(obj["verdict"]),
            reason=Reason(obj["reason"]),
            certificate=Decomposition(cert["parts"]) if cert is not None else None,
        )


def provable_reason(m: int, n: int) -> Reason | None:
    """Why RC_m => RC_n is provable (diagonal, or the pair-to-four rule), else None."""
    if m == n:
        return Reason.DIAGONAL
    return Reason.RC24 if (m, n) == (2, 4) else None


def provable_by_theorem(m: int, n: int) -> bool:
    """True when provable_reason gives a reason for the pair."""
    return provable_reason(m, n) is not None


def oracle_checks(n: int, bound: int) -> bool:
    """True when classify_detailed(oracle=True) runs the oracle on column n."""
    return n <= bound


def classify_detailed(m: int, n: int, *, oracle: bool = False, bound: int = EXHAUSTIVE_BOUND):
    """Classify one pair and keep the recipe trace for reporting.

    Returns (Classification, RecipeTrace | None).  With oracle=True and
    n <= bound (oracle_checks) find_blocking_decomposition runs after the
    verdict, and a disagreement (a blocking decomposition of a provable
    pair, or none for a certified one) is raised as a hard failure that
    carries the recipe result.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    reason = provable_reason(m, n)
    if reason is not None:
        cls, trace = Classification(m, n, Verdict.PROVABLE, reason), None
    else:
        trace = certificates.build_certificate(m, n)
        cls = Classification(
            m, n, Verdict.NOT_PROVABLE, Reason.CERTIFICATE, certificate=trace.decomposition
        )
    if oracle and oracle_checks(n, bound):
        witness = find_blocking_decomposition(m, n, bound=bound)
        if (witness is None) != (trace is None):
            raise OracleDisagreement(
                f"({m}, {n}) should be provable but {witness} blocks m = {m}"
                if trace is None
                else f"recipes produced a certificate for ({m}, {n}) "
                "but the exhaustive scan found none",
                result=(cls, trace),
            )
    return cls, trace


def classify(m: int, n: int, *, oracle: bool = False, bound: int = EXHAUSTIVE_BOUND) -> Classification:
    """Decide whether RC_m => RC_n is provable; attach a certificate if not.

    Degenerate inputs are accepted: (1, 1) is diagonal, and m = 1 is blocked
    by every decomposition.  For n = 1 with m != 1 no decomposition of n
    exists at all (the implication holds trivially), which surfaces as
    CertificateSearchFailed rather than a fabricated verdict.  Every other
    non-provable pair gets a recipe certificate; bound only limits the oracle.
    """
    return classify_detailed(m, n, oracle=oracle, bound=bound)[0]


# Imported last: certificates imports this module, so whichever of the two is
# imported first, the other finds every name it needs already defined.
from . import certificates  # noqa: E402
