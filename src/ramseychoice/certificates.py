"""Constructive blocking certificates, one recipe per proof case.

build_certificate is the proof's case tree: it sends each non-provable pair
to one recipe, recipe_*(m, n) -> RecipeTrace, a leaf of the tree whose
docstring states what the tree guarantees it.  A recipe replays its proof
once: it takes the case's one Goldbach triple or prime, proposes the
decompositions of that case in proof order, and asks blocks of each.  Only
recipe_prime_divisor returns None: its walk over n's primes is the tree's
test whether some prime of n does not divide m.  Where the theorem
guarantees blocking (greater, prime divisor, prime power, Fermat shift, the
even-gap split p + (n - p) and its odd-case fallback, both dense splits)
the proposal goes through RecipeTrace.verified, which raises: a failure
there is a bug.  Together the leaves cover every non-provable pair with
n >= 2.

The greater and prime-divisor recipes, most of the pairs of a scan, hand
the trace a narrator instead of lines (_greater_lines, _prime_divisor_lines),
so their lines are formatted only when the narrative is first read.

The work that depends only on n is done once per n and kept in bounded
caches: one cache of walks keyed by walk and n (n's primes, recipe_odd's
proposals and the even-gap splits p + a triple of n - p), the even-gap prime
p, and the decompositions proposed for n alone, which every row of a column
then shares.  Reading one walk of n starts no other.  The caches hold no
verdict; every pair runs its own blocking test.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import islice, permutations
from operator import attrgetter

from .decomposition import Decomposition, blocks, provable_reason
from .errors import BoundExceeded, CertificateSearchFailed, PreconditionViolated
from .numtheory import _MAX_INPUT, bertrand_prime, is_prime, iter_goldbach_triples, prime_factors
from .records import Record


class Recipe(str, Enum):
    GREATER = "GreaterCase"
    PRIME_DIVISOR = "PrimeDivisorCase"
    PRIME_POWER = "PrimePowerCase"
    ODD = "OddCase"
    FERMAT_SHIFT = "FermatShiftCase"
    EVEN_GAP = "EvenGapCase"
    EVEN_DENSE = "EvenDenseCase"
    # No certificate carries it; the scan summary's ExhaustiveFallback: 0 line
    # and the benchmark's per-recipe win counts still list it.
    EXHAUSTIVE = "ExhaustiveFallback"

    value = property(attrgetter("_value_"))  # at attribute cost, as Verdict's (decomposition)


# Each recipe reads its member as a module global, as classify_detailed does Verdict's.
_GREATER, _PRIME_DIVISOR, _PRIME_POWER, _ODD, _FERMAT_SHIFT, _EVEN_GAP, _EVEN_DENSE = tuple(Recipe)[:7]


class RecipeTrace(Record):
    """A verified certificate plus the reasoning steps that produced it.

    narrative is a tuple of lines, or a narrator: a module-level function of
    the trace that returns its lines.  A narrator is told on the first read
    of narrative, and its lines are then kept, so deciding a pair formats no
    lines; repr, equality, hashing, pickling and copying read the lines.
    """

    __slots__ = ("m", "n", "recipe", "decomposition", "narrative")

    def __new__(
        cls, m: int, n: int, recipe: Recipe, decomposition: Decomposition, narrative: tuple[str, ...]
    ) -> "RecipeTrace":
        self = object.__new__(_OpenRecipeTrace)
        self.m = m
        self.n = n
        self.recipe = recipe
        self.decomposition = decomposition
        self.narrative = narrative
        self.__class__ = cls
        return self

    @staticmethod
    def verified(m, n, recipe, decomposition, narrative) -> "RecipeTrace":
        """The trace of a proposal its proof guarantees: one that does not
        decompose n or admits m is a bug in its recipe, so it raises."""
        if decomposition.total != n:
            raise RuntimeError(
                f"certificate {decomposition} does not decompose {n}; recipe {recipe.value} is buggy"
            )
        if not blocks(decomposition, m):
            raise RuntimeError(f"certificate {decomposition} admits m = {m}; recipe {recipe.value} is buggy")
        narrative = narrative if callable(narrative) else tuple(narrative)
        return _new_trace(RecipeTrace, m, n, recipe, decomposition, narrative)

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "recipe": self.recipe.value,
            "parts": list(self.decomposition.parts),
            "narrative": list(self.narrative),
            "verified": self.decomposition.total == self.n and blocks(self.decomposition, self.m),
        }


_OpenRecipeTrace = RecipeTrace._open  # as decomposition's _OpenClassification; holds the narrative slot


def _told(trace, slot=_OpenRecipeTrace.narrative):
    """trace's lines: a narrator in the slot is told once and its lines kept there."""
    narrative = slot.__get__(trace)
    if callable(narrative):
        narrative = narrative(trace)
        slot.__set__(trace, narrative)
    return narrative


RecipeTrace.narrative = property(_told)

# The library calls __new__ itself: RecipeTrace(...) goes through type.__call__,
# which packs the arguments again and then tries __init__ (0.1 us of a trace).
_new_trace = RecipeTrace.__new__


class _Walk:
    """The items of walk(*args), each computed once however many pairs read them.

    first(keep, m) returns the first item with keep(item, m) true, or None:
    it reads the items found so far, then keeps more from the iterator, so
    the pairs of a column do n's work once, as far as some pair has needed.
    keep takes m as an argument, as a closure over m built per pair cost
    about 0.2 us of a 1 us recipe.  An iterator that raises (an interrupt)
    is dropped; the next pair that needs more starts one past the items found.
    """

    __slots__ = ("found", "walk", "args", "rest")

    def __init__(self, walk, *args) -> None:
        self.found, self.walk, self.args, self.rest = [], walk, args, None

    def first(self, keep, m):
        found = self.found
        for item in found:
            if keep(item, m):
                return item
        if self.rest is None:
            self.rest = islice(self.walk(*self.args), len(found), None)
        try:
            for item in self.rest:
                found.append(item)
                if keep(item, m):
                    return item
        except BaseException:
            self.rest = None
            raise
        return None


# n's walks, read as _walk(prime_factors, n), _walk(_odd_proposals, n) and _walk(_gap_proposals, n)
_walk = lru_cache(maxsize=3 * 1024)(_Walk)


def _does_not_divide(q: int, m: int) -> bool:
    return m % q != 0


def _blocks_proposal(proposal, m: int) -> bool:
    return blocks(proposal[0], m)


# One shared decomposition per parts tuple, built when a pair first tests it;
# the rows of a column then expand its parts only once.
_decomposition = lru_cache(maxsize=1024)(Decomposition)


@lru_cache(maxsize=1024)
def _run(part: int, count: int) -> Decomposition:
    """count copies of part, built from the run without the tuple of copies."""
    return Decomposition.from_runs((part,), (count,))


def _greater_lines(trace: RecipeTrace) -> tuple[str, ...]:
    return (f"m = {trace.m} exceeds n = {trace.n}; single part blocks",)


def recipe_greater(m: int, n: int) -> RecipeTrace:
    """m > n >= 2: the single part {n} admits only sums up to n < m."""
    return RecipeTrace.verified(m, n, _GREATER, _decomposition((n,)), _greater_lines)


def _prime_divisor_lines(trace: RecipeTrace) -> tuple[str, ...]:
    ((p, copies),) = trace.decomposition.runs
    return (f"prime {p} divides n = {trace.n} but not m = {trace.m}", f"emit {copies} copies of {p}")


def recipe_prime_divisor(m: int, n: int) -> RecipeTrace | None:
    """Some prime p divides n but not m: split n into n/p copies of p.

    p is the smallest such prime.  n's primes come from prime_factors, once
    per n and no further than this p (_walk(prime_factors, n)): a p below
    128 ends the trial division there, and only a larger one factors n's
    cofactor, by is_prime and rho.  The one
    leaf that returns None: when every prime of n divides m, the tree goes on.
    """
    p = _walk(prime_factors, n).first(_does_not_divide, m)
    if p is None:
        return None
    return RecipeTrace.verified(m, n, _PRIME_DIVISOR, _run(p, n // p), _prime_divisor_lines)


def recipe_prime_power(m: int, n: int) -> RecipeTrace:
    """m = 2 and n = 2^k with k >= 3: split off the Bertrand prime 3 in (2, 4).

    Both parts 3 and n - 3 then admit no contribution equal to m.  The split
    needs n - 3 >= 2, which excludes exactly the pair (2, 4): that
    implication really is provable.
    """
    k = n.bit_length() - 1
    return RecipeTrace.verified(
        m, n, _PRIME_POWER, Decomposition((3, n - 3)),
        [f"n = 2^{k}", "bertrand prime 3 in (2, 4)", f"split {n} = 3 + {n - 3}"],
    )


def _odd_proposals(n: int):
    p1, p2, p3 = next(iter_goldbach_triples(n))
    head = f"goldbach triple ({p1}, {p2}, {p3})"
    yield _decomposition((p1, p2, p3)), (head, "triple blocks m directly")
    if p1 == p2 == p3:
        yield _decomposition((3 * p1 - 2, 2)), (head, f"all-equal case: split {n} = {3 * p1 - 2} + 2")
    yield _decomposition((n,)), (head, f"single part {n} blocks m")
    for a, b, c in dict.fromkeys(permutations((p1, p2, p3))):
        if c < a and (a + b) % c == 0:
            line = f"regrouped: {c} < {a} and {c} divides {a} + {b}; split {n} = {b + c} + {a}"
            yield _decomposition((b + c, a)), (head, line)


def recipe_odd(m: int, n: int) -> RecipeTrace:
    """Odd n >= 7 and m < n: the first Goldbach triple (p1, p2, p3), all odd if possible.

    Branches in proof order: the triple; for (p, p, p) the split (3p - 2) + 2;
    the single part {n}; the regroups (pj + pk) + pi with pk < pi, pk | pi + pj.
    One triple settles every m != n.  The triple blocks m unless m is a
    sub-sum, and {n} unless gcd(m, n) > 1; both fail only if some pi divides
    pj + pk and m is pi or n - pi.  Then (3p - 2) + 2 blocks p and 2p, or some
    a in {pj, pk} exceeds pi and the regroup with c = pi blocks m unless the
    other prime b = c, which would force pi | a.  Nothing blocks m = n or 0.
    The proposals come from _walk(_odd_proposals, n), walked once per n and
    each built when some pair first needs it; each is tested against m here.
    A walk that blocks nothing is a bug and raises RuntimeError.
    """
    proposal = _walk(_odd_proposals, n).first(_blocks_proposal, m)
    if proposal is None:
        raise RuntimeError(f"no proposal for {n} blocks m = {m}; recipe {_ODD.value} is buggy")
    return _new_trace(RecipeTrace, m, n, _ODD, *proposal)


def recipe_fermat_shift(m: int, n: int) -> RecipeTrace:
    """Even m > 2 with n = m + 2^k and 2^k + 1 prime: split (m - 1) + (2^k + 1).

    The prime part forces any nonzero contribution to be all of 2^k + 1, and
    the remainder m - 2^k - 1 is coprime to m - 1 because gcd(2^k, m - 1) = 1
    for even m.
    """
    q = n - m + 1
    k = (q - 1).bit_length() - 1
    return RecipeTrace.verified(
        m, n, _FERMAT_SHIFT, Decomposition((m - 1, q)),
        [f"n - m = 2^{k}", f"2^{k} + 1 = {q} is prime", f"split {n} = {m - 1} + {q}"],
    )


@lru_cache(maxsize=1024)
def _gap_prime(n: int) -> int | None:
    """The largest odd prime <= n - 3, or None when n < 6; it depends on n alone."""
    return next(filter(is_prime, range(n - 3, 2, -2)), None)


def _gap_proposals(n: int):
    """The splits p + t of n, t a Goldbach triple of n - p for n's gap prime p,
    each a (decomposition, narrative line), in walk order."""
    p = _gap_prime(n)
    for p1, p2, p3 in iter_goldbach_triples(n - p):
        yield Decomposition((p, p1, p2, p3)), f"split {n} = {p} + {p1} + {p2} + {p3}"


def recipe_even_gap(m: int, n: int) -> RecipeTrace:
    """Even m < n with an odd prime strictly between them (and below n - 1).

    Only the largest such prime p is tried: for m >= 2 it always verifies.
    p is the largest odd prime <= n - 3 (_gap_prime, once per n), and the
    tree sends here only pairs with p > m.
    p > m contributes 0.  If n - p is 3 or 5, the split p + (n - p) blocks
    the even m.  Otherwise p plus each Goldbach triple of n - p is tried, and
    the first blocks any m > n - p.  If none blocks, m < n - p (m is even,
    n - p odd), and recipe_odd(m, n - p) always answers, so its certificate
    with p appended blocks m.  For n - p < 1600 only (m, n - p) = (2, 7),
    (4, 7) and (10, 13) get there, as (4, 2^39) does.  Every proposal but
    that last one depends on n alone: _walk(_gap_proposals, n) walks the
    triples once per n, and all m of a column share their decompositions.
    """
    p = _gap_prime(n)
    head = f"prime {p} between m = {m} and n = {n}"
    if n - p in (3, 5):
        return RecipeTrace.verified(
            m, n, _EVEN_GAP, _decomposition((p, n - p)), (head, f"split {n} = {p} + {n - p}")
        )
    split = _walk(_gap_proposals, n).first(_blocks_proposal, m)
    if split is not None:
        return _new_trace(RecipeTrace, m, n, _EVEN_GAP, split[0], (head, split[1]))
    inner = recipe_odd(m, n - p)
    return RecipeTrace.verified(
        m, n, _EVEN_GAP, Decomposition((p,) + inner.decomposition.parts),
        (head, f"odd-case certificate {inner.decomposition} for ({m}, {n - p}); append {p}"),
    )


def recipe_even_dense(m: int, n: int) -> RecipeTrace:
    """Even m, n with n/2 <= m < n - 4 and the prime p just above n/2 below m.

    The tree sends here no pair whose m - p is an odd prime dividing n - p
    (see build_certificate).  If m - p is an odd prime, try the direct split
    p + (n - p), and otherwise the four-part split p plus the first Goldbach
    triple of n - p.  m < n - 4 keeps n - p >= 7, the smallest odd target
    iter_goldbach_triples accepts.

    The direct split blocks m unless the prime m - p divides n - p: n - p
    < n/2 <= m, so p must contribute and n - p supply m - p, which needs a
    shared factor.  The four-part split always blocks: again p must
    contribute and the triple supply the odd m - p, here 1 or composite; but
    each odd sub-sum of the first triple (all odd, or (2, 2, 3) for n - p = 7)
    is a prime or n - p, and m - p = n - p would mean m = n.
    """
    p = bertrand_prime(n // 2)
    narrative = [f"prime {p} just above n/2 = {n // 2}"]
    if m - p > 2 and is_prime(m - p):
        narrative += [f"m - p = {m - p} is an odd prime", f"direct split {n} = {p} + {n - p}"]
        return RecipeTrace.verified(m, n, _EVEN_DENSE, _decomposition((p, n - p)), narrative)
    narrative.append(f"m - p = {m - p} is not an odd prime; four-part splits")
    p1, p2, p3 = next(iter_goldbach_triples(n - p))
    narrative.append(f"split {n} = {p} + {p1} + {p2} + {p3}")
    return RecipeTrace.verified(m, n, _EVEN_DENSE, _decomposition((p, p1, p2, p3)), narrative)


# The leaves in the tree's order.  No library code reads this tuple: perfbench's
# tracer rebinds it under --trace 1, and ROADMAP item 7 removes it.
_DISPATCH = (
    recipe_greater,
    recipe_odd,
    recipe_prime_divisor,
    recipe_prime_power,
    recipe_fermat_shift,
    recipe_even_gap,
    recipe_even_dense,
)


def build_certificate(m: int, n: int) -> RecipeTrace:
    """Produce a verified blocking certificate for a non-provable pair.

    A non-positive m or n raises ValueError, as in classify_detailed, and a
    provable pair PreconditionViolated.  m > n is the greater case, but n = 1
    has no decomposition (CertificateSearchFailed).  Every other leaf tests
    primes of n's size, so m < n with n above is_prime's 2^63 raises
    BoundExceeded.  For m < n the proof's case tree picks one leaf:
    - odd n >= 7 is the odd case;
    - a prime of n that does not divide m is the prime-divisor case; it
      takes every odd m, and every m below the prime n of 3 or 5;
    - so m and n are even and every prime of n divides m.  m = 2 forces
      n = 2^k with k >= 3, as (2, 4) is provable: the prime power;
    - a gap n - m = 2^k with 2^k + 1 prime is the Fermat shift (m >= 4);
    - an odd prime in (m, n - 1), that is _gap_prime(n) > m, is the even gap;
    - every other pair is the even-dense case, with p the prime just above
      n/2.  There n/2 <= m, as a Bertrand prime in (m, 2m) would lie in
      (m, n - 1); m < n - 4, as the gaps 2 and 4 are Fermat shifts; p < m,
      or the odd p would lie in (m, n - 1) (p = n - 1 only for n <= 6).
      Nor is m - p an odd prime dividing n - p: by Nagura's theorem (a
      prime lies in (x, 6x/5) for x >= 25; J. Nagura, Proc. Japan Acad. 28,
      1952), (m - p) | (n - p) with n != m forces n - p >= 2(m - p), so
      p >= 2m - n; p < 0.6n, so m < 0.8n; then (m, 1.2m) holds a prime
      below 0.96n <= n - 3 once n >= 75, an even gap.  For n < 75 a scan of
      every even pair in that state finds such a prime too.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need positive m and n, got ({m}, {n})")
    if m > n:
        if n == 1:
            raise CertificateSearchFailed(f"no decomposition of 1 exists, so ({m}, 1) has no certificate")
        return recipe_greater(m, n)
    if provable_reason(m, n) is not None:
        raise PreconditionViolated(f"({m}, {n}) is provable; no blocking certificate exists")
    if n > _MAX_INPUT:
        raise BoundExceeded(f"n = {n} exceeds the primality test's bound 2^63")
    if n % 2 and n >= 7:
        return recipe_odd(m, n)
    if (trace := recipe_prime_divisor(m, n)) is not None:
        return trace
    if m == 2:
        return recipe_prime_power(m, n)
    gap = n - m
    if gap & (gap - 1) == 0 and is_prime(gap + 1):
        return recipe_fermat_shift(m, n)
    if _gap_prime(n) > m:
        return recipe_even_gap(m, n)
    return recipe_even_dense(m, n)
