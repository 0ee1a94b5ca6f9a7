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

import re
from bisect import bisect_right
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache
from itertools import groupby, takewhile
from operator import attrgetter, mul, neg

from .errors import BoundExceeded, InvalidPart, OracleDisagreement
from .numtheory import _MAX_INPUT, _TRIAL_BOUND, _prime_factors_up_to, is_prime, prime_factors, primes_up_to
from .records import Record, _rebuilt

# The oracle's reach: classify_detailed(oracle=True) checks every pair with n <=
# COLUMN_BOUND and skips larger n; find_blocking_decomposition refuses them for m <= n.
# Columns up to 300 take about 0.4 s on a 2-vCPU VM, and the cost grows about
# threefold per 50 beyond.
COLUMN_BOUND = 300

# Widest sum table a decomposition keeps (8 KiB), far above every m of a scan.
KEPT_TABLE_BITS = 2**16

# Most parts Decomposition.parts lists, and most sums AdmissibleSumSet.values lists:
# classify 3 20000000 (10^7 copies of 2) still prints.
LISTED_PARTS_BOUND = 10**7

# Largest (number of parts) * total admissible_sums builds; admits classify 4 1000000 --json.
# The fold updates its table of total + 1 bits at most once per part, and less for runs.
TABLE_WORK_BOUND = 2**38


class Decomposition(Record):
    """A multiset of parts >= 2, stored as runs: its distinct parts in
    decreasing order (_values) and the count of each (_counts), with their
    sum (total).

    _parts, one entry per copy in non-increasing order, is kept from the
    constructor's argument; for a decomposition built from runs it is
    derived on first use and then kept, unless every count is 1 and parts
    is the tuple of distinct parts itself.

    _table holds the widest admissible-sum table kept so far, as a pair
    (limit, bits) complete up to limit, or None before one is kept; see
    _sums_up_to.  Like _parts it is derived from the runs, so equality and
    hashing read the runs only, and repr prints the parts.
    """

    __slots__ = ("_values", "_counts", "total", "_parts", "_table")
    _compared = ("_values", "_counts")

    def __new__(cls, parts):
        ordered = tuple(sorted(parts, reverse=True))
        if not ordered:
            raise InvalidPart("a decomposition needs at least one part")
        for p in ordered:  # in decreasing order, so the first bad part is named
            if not isinstance(p, int) or p < 2:
                raise InvalidPart(f"part {p!r} is invalid; parts must be integers >= 2")
        total = sum(ordered)
        values, counts = ordered, (1,) * len(ordered)
        if len(set(ordered)) < len(ordered):  # some part repeats
            values, counts = zip(*[(p, len(tuple(run))) for p, run in groupby(ordered)])
        return _rebuilt(cls, (values, counts, total, ordered, None))

    @classmethod
    def from_runs(cls, values: tuple[int, ...], counts: tuple[int, ...]) -> Decomposition:
        """The decomposition with counts[i] copies of values[i], trusted as given.

        values must be strictly decreasing integers >= 2 and counts positive;
        nothing is sorted or checked, so a run of 10^17 copies costs O(1).
        Lists are taken as tuples, so the result hashes and compares as one.
        """
        values, counts = tuple(values), tuple(counts)
        parts = values if counts.count(1) == len(counts) else None
        return _rebuilt(cls, (values, counts, sum(map(mul, values, counts)), parts, None))

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(part, count) pairs, parts in decreasing order."""
        return tuple(zip(self._values, self._counts))

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts in non-increasing order, one entry per copy.

        Runs of more than LISTED_PARTS_BOUND copies in all raise
        BoundExceeded before any is expanded, so str, repr and as_json refuse
        a certificate of 10^17 copies instead of exhausting memory.
        """
        parts = self._parts
        if parts is None:
            count = sum(self._counts)
            if count > LISTED_PARTS_BOUND:
                raise BoundExceeded(f"{count} parts exceed the listing bound {LISTED_PARTS_BOUND}")
            parts = ()
            for p, k in zip(self._values, self._counts):
                parts += (p,) * k
            _set_parts(self, parts)
        return parts

    def __repr__(self) -> str:
        return f"Decomposition(parts={self.parts!r})"

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def as_json(self) -> dict:
        return {"parts": list(self.parts)}


# The two cache slots, written after construction.
_set_parts, _set_table = Decomposition._parts.__set__, Decomposition._table.__set__


class AdmissibleSumSet(Record):
    """Bit table of the contribution sums a decomposition admits."""

    __slots__ = ("total", "bits")

    def __new__(cls, total: int, bits: int) -> AdmissibleSumSet:
        return _rebuilt(cls, (total, bits))

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and bool(self.bits >> s & 1)

    def values(self) -> list[int]:
        """The admitted sums in increasing order, refused above LISTED_PARTS_BOUND of them."""
        count = self.bits.bit_count()
        if count > LISTED_PARTS_BOUND:
            raise BoundExceeded(f"{count} sums exceed the listing bound {LISTED_PARTS_BOUND}")
        return set_bits(self.bits)


def set_bits(bits: int) -> list[int]:
    """The positions of the set bits of bits >= 0, in increasing order.

    One C-level scan finds the runs of nonzero bytes, lowest first, and
    _BIT_OFFSETS expands each byte: bits is read a byte, not a bit, at a time.
    """
    raw = bits.to_bytes(-(-bits.bit_length() // 8), "little")
    return [
        at + offset
        for run in re.finditer(rb"[^\0]+", raw)
        for at, byte in zip(range(run.start() << 3, run.end() << 3, 8), run.group())
        for offset in _BIT_OFFSETS[byte]
    ]


# _BIT_OFFSETS[b] lists the set bits of the byte b in increasing order: the
# table for bits 0..j-1 followed by each of its entries with bit j added.
# The entries are bytes, which the garbage collector does not track, so the
# 256 of them neither count toward its next pass nor lengthen its passes.
_BIT_OFFSETS = [b""]
for _bit in range(8):
    _BIT_OFFSETS += [offsets + bytes((_bit,)) for offsets in _BIT_OFFSETS]
_BIT_OFFSETS = tuple(_BIT_OFFSETS)
del _bit


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
    """part's primes up to reach: its contributions up to reach are their multiples.

    A part in is_prime's range is its own prime when is_prime says so (the
    Goldbach and gap-prime searches have usually asked already).  A part
    above 2^63, or a composite part with reach below prime_factors' trial
    bound, is trial-divided no further than reach: rho would factor the
    whole cofactor only to drop primes above reach.  Any other composite
    part has prime_factors' primes, read no further than reach.
    """
    if part <= _MAX_INPUT and is_prime(part):
        return (part,) if part <= reach else ()
    if part > _MAX_INPUT or reach < _TRIAL_BOUND:
        return tuple(_prime_factors_up_to(part, reach))
    return tuple(takewhile(reach.__ge__, prime_factors(part)))


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
    """Bit table of the admissible sums up to limit, complete up to limit.

    A part adds 0 or a multiple of one of its primes, one _progression per
    prime; only its primes up to the limit matter.  The fold walks d's runs,
    not its copies.  If the part of a run of k copies has one prime q up to
    the limit, the k copies add exactly the multiples of q up to k * part,
    in one _progression.  Any other run folds copy by copy until a copy
    changes nothing; as a part may always contribute 0, the rest of the run
    cannot change the table either.
    """
    keep, sums = (1 << limit + 1) - 1, 1
    for part, count in zip(d._values, d._counts):
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
    return sums


def _sums_up_to(d: Decomposition, m: int) -> int:
    """d's kept sum table, folded first if it does not reach m; its bit m is exact.

    A new table reaches the next 2^b - 1 at or above m, or d.total if that
    is smaller, so it is at most 2m bits wide, and the m of one
    decomposition take at most log2(d.total) + 1 folds in any order.  It
    replaces the kept one only up to KEPT_TABLE_BITS bits, so the two
    caches of shared decompositions in certificates keep at most 16 MiB of
    tables; a wider question folds afresh each time.  A table wider than
    TABLE_WORK_BOUND / 2^5 bits (1 GiB) raises BoundExceeded before the fold.
    """
    table = d._table
    if table is None or table[0] < m:
        limit = min((1 << m.bit_length()) - 1, d.total)
        if limit >= TABLE_WORK_BOUND >> 5:
            raise BoundExceeded(f"a table {limit + 1} bits wide exceeds the table width bound")
        table = (limit, _fold(d, limit))
        if limit <= KEPT_TABLE_BITS:
            _set_table(d, table)
    return table[1]


def admissible_sums(d: Decomposition) -> AdmissibleSumSet:
    """Full subset-sum table over the per-part allowed contributions.

    This is the reporting view: d's kept table (see _sums_up_to), widened
    to d.total unless it reaches it already.  A table whose cost, the
    number of parts times d.total, exceeds TABLE_WORK_BOUND raises
    BoundExceeded before any work, even when the table is kept; so does a
    table wider than TABLE_WORK_BOUND / 2^8 bits, which would not fit in memory.
    """
    count = sum(d._counts)
    if count * d.total > TABLE_WORK_BOUND:
        raise BoundExceeded(f"{count} parts of total {d.total} exceed the table work bound")
    if d.total >= TABLE_WORK_BOUND >> 8:
        raise BoundExceeded(f"a table {d.total + 1} bits wide exceeds the table width bound")
    return AdmissibleSumSet(d.total, _sums_up_to(d, d.total))


def blocks(d: Decomposition, m: int) -> bool:
    """True when no admissible combination of contributions sums to m.

    m above the total is always blocked, and m = 0 never is.  Otherwise this
    reads bit m of d's kept sum table, which is folded (_fold) only when it
    does not reach m yet; the rows of a column share one decomposition, so
    most of them only read.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return m > d.total or not _sums_up_to(d, m) >> m & 1


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
# subset-minimal admissible-sum masks over the decompositions of n, the bits
# m <= n that one of them lacks, and each mask's smallest part (its lowest
# nonzero bit; 0 for column 0's empty sum), the masks in non-increasing order
# of it.  The smallest part is the prime that links a mask to its parent.
_COLUMNS: list[tuple[list[int], int, list[int]]] = [([1], 0, [0])]


def _blockable(n: int) -> int:
    """Bits m <= n that some decomposition of n blocks: the oracle's column n.

    Column n's masks are the minimal admissible-sum masks over the
    decompositions of n.  A composite part p with a prime q adds 0 and every
    multiple of q up to p, a superset of what p/q parts q add, so minimal
    masks come from prime parts, which add 0 or p, and m is blocked by some
    decomposition exactly when some minimal mask lacks bit m.

    Each minimal mask T is built from its smallest part p, the lowest nonzero
    bit of T: take primes A with sums T, remove one copy of p = min(A), and
    shrink the sums of the rest to a minimal mask S of column n - p.  S has
    no part below p, S | S << p lies inside T, and so equals it, T being
    minimal.  So the candidates are S | S << p for each prime p <= n/2 and
    each mask S of column n - p with smallest part >= p, a prefix of that
    column, plus {0, n} when n is prime.  p is walked down from the largest:
    a mask inside a candidate with smallest part p has none below p, so the
    masks kept before it are all it must be checked against, and a kept mask
    never holds a later candidate, which has bit p or more bits.  Columns are
    built in order up to n, once per process; an n above COLUMN_BOUND raises
    BoundExceeded before any is built, and a negative n raises ValueError.
    """
    if n < 0:
        raise ValueError(f"the oracle's column n must be non-negative, got {n}")
    if n < len(_COLUMNS):
        return _COLUMNS[n][1]
    if n > COLUMN_BOUND:
        raise BoundExceeded(f"the oracle's column n = {n} exceeds the column bound {COLUMN_BOUND}")
    primes = primes_up_to(n)
    for k in range(len(_COLUMNS), n + 1):
        minimal, smallest = ([1 | 1 << k], [k]) if k in primes else ([], [])
        for p in reversed(primes[: bisect_right(primes, k // 2)]):
            bases, parts = _COLUMNS[k - p][0], _COLUMNS[k - p][2]
            prefix = bisect_right(parts, -p, key=neg)  # the bases with smallest part >= p
            # a subset never has more bits, and equal-sized masks are never nested;
            # the plain loop costs about two thirds of all() over a generator
            for mask in sorted({base | base << p for base in bases[:prefix]}, key=int.bit_count):
                for kept in minimal:
                    if kept & mask == kept:
                        break
                else:
                    minimal.append(mask)
                    smallest.append(p)
        full, bits = (1 << k + 1) - 1, 0
        for mask in minimal:
            bits |= ~mask & full
        _COLUMNS.append((minimal, bits, smallest))
    return _COLUMNS[n][1]


def oracle_blocks(m: int, n: int) -> bool:
    """True when some decomposition of n blocks m: m > n, or bit m of column n.

    This is the oracle's verdict; it builds the columns up to n but no
    decomposition, and reads a built column without a call.  A negative n
    raises ValueError.
    """
    if 0 <= n < len(_COLUMNS):
        return m > n or bool(_COLUMNS[n][1] >> m & 1)
    # an unbuilt column: m > n needs none, and _blockable refuses a negative n
    return m > n >= 0 or bool(_blockable(n) >> m & 1)


def oracle_disagreement(m: int, n: int, certified: bool) -> str | None:
    """How the oracle's column n contradicts a verdict on (m, n), or None.

    certified says whether the recipes blocked m.  The finding is None when
    the column agrees, and when n > COLUMN_BOUND puts the pair out of the
    oracle's reach.
    """
    if n > COLUMN_BOUND or oracle_blocks(m, n) == certified:
        return None
    if certified:
        return (
            f"recipes produced a certificate for ({m}, {n}) but the oracle's column {n} admits m = {m}"
        )
    return f"({m}, {n}) should be provable but the oracle's column {n} blocks m = {m}"


def find_blocking_decomposition(m: int, n: int) -> Decomposition | None:
    """First decomposition of n blocking m in the canonical scan order.

    Returns None when every decomposition admits m, at once when
    oracle_blocks says so; n > COLUMN_BOUND with m <= n raises its
    BoundExceeded.  Otherwise the scan order is fixed (reverse-lexicographic
    over non-increasing part lists), so the returned certificate is
    canonical for the pair.  No library path calls the scan, which names
    witnesses for demos and tests.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    if not oracle_blocks(m, n):
        return None
    for d in iter_decompositions(n):
        if blocks(d, m):
            return d
    return None


# Each result enum reads .value as the member's own _value_ attribute: enum's
# value descriptor costs about five times as much, and scans read it per row.
class Verdict(str, Enum):
    PROVABLE = "provable"
    NOT_PROVABLE = "not_provable"

    value = property(attrgetter("_value_"))


class Reason(str, Enum):
    DIAGONAL = "diagonal"
    RC24 = "rc24"
    CERTIFICATE = "certificate"

    value = property(attrgetter("_value_"))


# The members each pair reads, as module globals: on Python 3.10 and 3.11 every
# attribute read on an enum class goes through EnumType.__getattr__ (~0.1 us).
_PROVABLE, _NOT_PROVABLE = Verdict
_DIAGONAL, _RC24, _CERTIFICATE = Reason


class Classification(Record):
    """Verdict for one implication RC_m => RC_n.

    achievable_for_certificate, the full admissible-sum table of the
    certificate, is read through admissible_sums, so it is the certificate's
    own kept table widened to its total; deciding the pair never builds it.
    """

    __slots__ = ("m", "n", "verdict", "reason", "certificate")

    def __new__(
        cls, m: int, n: int, verdict: Verdict, reason: Reason, certificate: Decomposition | None = None
    ) -> "Classification":
        self = object.__new__(_OpenClassification)
        self.m = m
        self.n = n
        self.verdict = verdict
        self.reason = reason
        self.certificate = certificate
        self.__class__ = cls
        return self

    @property
    def achievable_for_certificate(self) -> AdmissibleSumSet | None:
        return None if self.certificate is None else admissible_sums(self.certificate)

    def to_json_obj(self) -> dict:
        obj = {"m": self.m, "n": self.n, "verdict": self.verdict.value, "reason": self.reason.value}
        if self.certificate is not None:
            obj["certificate"] = self.certificate.as_json()
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


_OpenClassification = Classification._open  # read by __new__ as a global, faster than cls._open
_new_classification = Classification.__new__  # called directly, as certificates._new_trace


def provable_reason(m: int, n: int) -> Reason | None:
    """Why RC_m => RC_n is provable (diagonal, or the pair-to-four rule), else None."""
    if m == n:
        return _DIAGONAL
    return _RC24 if (m, n) == (2, 4) else None


def provable_by_theorem(m: int, n: int) -> bool:
    """True when provable_reason gives a reason for the pair."""
    return provable_reason(m, n) is not None


def classify_detailed(m: int, n: int, *, oracle: bool = False):
    """Classify one pair and keep the recipe trace for reporting.

    Returns (Classification, RecipeTrace | None).  With oracle=True the
    verdict is checked by oracle_disagreement, and its finding is raised as
    OracleDisagreement.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    reason = provable_reason(m, n)
    if reason is not None:
        cls, trace = _new_classification(Classification, m, n, _PROVABLE, reason), None
    else:
        trace = certificates.build_certificate(m, n)
        cls = _new_classification(Classification, m, n, _NOT_PROVABLE, _CERTIFICATE, trace.decomposition)
    if oracle:
        finding = oracle_disagreement(m, n, trace is not None)
        if finding is not None:
            raise OracleDisagreement(finding)
    return cls, trace


def classify(m: int, n: int, *, oracle: bool = False) -> Classification:
    """Decide whether RC_m => RC_n is provable; attach a certificate if not.

    Degenerate inputs are accepted: (1, 1) is diagonal, and m = 1 is blocked
    by every decomposition.  For n = 1 with m != 1 no decomposition of n
    exists at all (the implication holds trivially), which surfaces as
    CertificateSearchFailed rather than a fabricated verdict.  Every other
    non-provable pair gets a recipe certificate; oracle=True also checks the
    verdict against the oracle when n <= COLUMN_BOUND.
    """
    return classify_detailed(m, n, oracle=oracle)[0]


# Imported last: certificates imports this module, so whichever of the two is
# imported first, the other finds every name it needs already defined.
from . import certificates  # noqa: E402
