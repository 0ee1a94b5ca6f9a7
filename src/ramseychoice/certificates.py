"""Constructive blocking certificates, one recipe per proof case.

Every recipe has the signature recipe_*(m, n) -> RecipeTrace | None.  A
recipe replays its proof once: it takes the case the proof picks (one
Goldbach triple, one prime), proposes the decompositions of that case in
proof order, and asks blocks of each.  It returns the first trace that
blocks m, or None when (m, n) is not its case.  A wrong guess can therefore
cost completeness but never soundness.  Where the theorem guarantees
blocking (greater, prime divisor, prime power, Fermat shift, the even-gap
split p + (n - p) and its odd-case fallback, both dense splits) the
proposal goes through RecipeTrace.verified, which raises instead of
declining: a failure there is a bug, not a decline.  Together the recipes
cover every non-provable pair with n >= 2.

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
from .records import Open, Record


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


class _OpenRecipeTrace(Open, RecipeTrace):
    __slots__ = ()
    narrative = RecipeTrace.narrative  # the slot itself, so __new__ stores a narrator by the plain path


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


def recipe_greater(m: int, n: int) -> RecipeTrace | None:
    """m > n: the single part {n} admits only sums up to n < m."""
    if not (m > n >= 2):
        return None
    return RecipeTrace.verified(m, n, _GREATER, _decomposition((n,)), _greater_lines)


def _prime_divisor_lines(trace: RecipeTrace) -> tuple[str, ...]:
    ((p, copies),) = trace.decomposition.runs
    return (f"prime {p} divides n = {trace.n} but not m = {trace.m}", f"emit {copies} copies of {p}")


def recipe_prime_divisor(m: int, n: int) -> RecipeTrace | None:
    """Some prime p divides n but not m: split n into n/p copies of p.

    p is the smallest such prime.  n's primes come by trial division, once
    per n and no further than this p (_walk(prime_factors, n)).
    """
    p = _walk(prime_factors, n).first(_does_not_divide, m)
    if p is None:
        return None
    return RecipeTrace.verified(m, n, _PRIME_DIVISOR, _run(p, n // p), _prime_divisor_lines)


def _prime_power_exponent(m: int, n: int) -> int | None:
    k, power = 0, 1
    while power < n:
        power *= m
        k += 1
    return k if power == n and k >= 2 else None


def recipe_prime_power(m: int, n: int) -> RecipeTrace | None:
    """m prime and n = m^k: split off a prime p with m < p < 2m.

    Both parts p and n - p then admit no contribution equal to m.  The split
    needs n - p >= 2, which excludes exactly the pair (2, 4): that implication
    really is provable, so the decline is correct, not a gap.
    """
    if not is_prime(m):
        return None
    k = _prime_power_exponent(m, n)
    if k is None:
        return None
    p = bertrand_prime(m)
    if n - p < 2:
        return None
    return RecipeTrace.verified(
        m, n, _PRIME_POWER, Decomposition((p, n - p)),
        [f"n = {m}^{k}", f"bertrand prime {p} in ({m}, {2 * m})", f"split {n} = {p} + {n - p}"],
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


def recipe_odd(m: int, n: int) -> RecipeTrace | None:
    """Odd n >= 7: the first Goldbach triple (p1, p2, p3), all odd if possible.

    Branches in proof order: the triple; for (p, p, p) the split (3p - 2) + 2;
    the single part {n}; the regroups (pj + pk) + pi with pk < pi, pk | pi + pj.
    One triple settles every m != n.  The triple blocks m unless m is a
    sub-sum, and {n} unless gcd(m, n) > 1; both fail only if some pi divides
    pj + pk and m is pi or n - pi.  Then (3p - 2) + 2 blocks p and 2p, or some
    a in {pj, pk} exceeds pi and the regroup with c = pi blocks m unless the
    other prime b = c, which would force pi | a.  Nothing blocks m = n or 0.
    The proposals come from _walk(_odd_proposals, n), walked once per n and
    each built when some pair first needs it; each is tested against m here.
    """
    if n % 2 == 0 or n < 7:
        return None
    proposal = _walk(_odd_proposals, n).first(_blocks_proposal, m)
    return None if proposal is None else _new_trace(RecipeTrace, m, n, _ODD, *proposal)


def recipe_fermat_shift(m: int, n: int) -> RecipeTrace | None:
    """Even m > 2 with n = m + 2^k and 2^k + 1 prime: split (m - 1) + (2^k + 1).

    The prime part forces any nonzero contribution to be all of 2^k + 1, and
    the remainder m - 2^k - 1 is coprime to m - 1 because gcd(2^k, m - 1) = 1
    for even m.
    """
    gap = n - m
    if m % 2 != 0 or m <= 2 or gap < 2 or gap & (gap - 1) != 0:
        return None
    q = gap + 1
    if not is_prime(q):
        return None
    k = gap.bit_length() - 1
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


def recipe_even_gap(m: int, n: int) -> RecipeTrace | None:
    """Even m < n with an odd prime strictly between them (and below n - 1).

    Only the largest such prime p is tried: for m >= 2 it always verifies.
    p is the largest odd prime <= n - 3 (_gap_prime, once per n); when it
    is not above m, no odd prime lies between them and the recipe declines.
    p > m contributes 0.  If n - p is 3 or 5, the split p + (n - p) blocks
    the even m.  Otherwise p plus each Goldbach triple of n - p is tried, and
    the first blocks any m > n - p.  If none blocks, m < n - p (m is even,
    n - p odd), and recipe_odd(m, n - p) never declines, so its certificate
    with p appended blocks m.  For n - p < 1600 only (m, n - p) = (2, 7),
    (4, 7) and (10, 13) get there, as (4, 2^39) does.  Every proposal but
    that last one depends on n alone: _walk(_gap_proposals, n) walks the
    triples once per n, and all m of a column share their decompositions.
    """
    if m % 2 != 0 or n % 2 != 0:
        return None
    p = _gap_prime(n)
    if p is None or p <= m:
        return None
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


def recipe_even_dense(m: int, n: int) -> RecipeTrace | None:
    """Even pair with n/2 <= m < n - 4: the dense cascade.

    Take the prime p just above n/2; when p < m, try the direct split
    p + (n - p) if m - p is an odd prime, and otherwise the four-part split
    p plus the first Goldbach triple of n - p.  The n - m > 4 guard keeps
    n - p >= 7, the smallest odd target iter_goldbach_triples accepts.

    The direct split blocks m unless the prime m - p divides n - p: n - p
    < n/2 <= m, so p must contribute and n - p supply m - p, which needs a
    shared factor.  The four-part split always blocks: again p must
    contribute and the triple supply the odd m - p, here 1 or composite; but
    each odd sub-sum of the first triple (all odd, or (2, 2, 3) for n - p = 7)
    is a prime or n - p, and m - p = n - p would mean m = n.

    Cases this recipe declines, because dispatch never sends them here:
    - a gap n - m that is a power of two with 2^k + 1 prime (2, 4, 16, ...)
      is the Fermat shift case, which runs earlier and always succeeds;
    - p = n - 1 happens only for n <= 6, below the guard;
    - p >= m makes p an odd prime in (m, n - 1), and with one of those the
      even-gap recipe never declines (see its proof);
    - when m - p is an odd prime dividing n - p the direct split admits m
      and the recipe declines, but no pair reaches it in that state.  By
      Nagura's theorem (a prime lies in (x, 6x/5) for x >= 25; J. Nagura,
      Proc. Japan Acad. 28, 1952): (m - p) | (n - p) with n != m forces
      n - p >= 2(m - p), so p >= 2m - n; p < 0.6n, so m < 0.8n; then
      (m, 1.2m) holds a prime below 0.96n <= n - 3 once n >= 75, and
      recipe_even_gap answers first.  For n < 75, a scan of every even pair
      in that state finds such a prime too.
    """
    if m % 2 != 0 or n % 2 != 0 or not (n // 2 <= m < n - 4):
        return None
    p = bertrand_prime(n // 2)
    if p >= m:
        return None
    narrative = [f"prime {p} just above n/2 = {n // 2}"]
    if m - p > 2 and is_prime(m - p):
        if (n - p) % (m - p) == 0:  # the direct split admits m; see the last case below
            return None
        narrative += [f"m - p = {m - p} is an odd prime", f"direct split {n} = {p} + {n - p}"]
        return RecipeTrace.verified(m, n, _EVEN_DENSE, _decomposition((p, n - p)), narrative)
    narrative.append(f"m - p = {m - p} is not an odd prime; four-part splits")
    p1, p2, p3 = next(iter_goldbach_triples(n - p))
    narrative.append(f"split {n} = {p} + {p1} + {p2} + {p3}")
    return RecipeTrace.verified(m, n, _EVEN_DENSE, _decomposition((p, p1, p2, p3)), narrative)


# Dispatch follows the order in which the cases eliminate pairs: a larger m,
# then odd n, then a missing prime divisor, and finally the all-even cases.
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

    m > n goes to the greater case.  Otherwise the recipes run in the fixed
    dispatch order, less those that never fire for n's parity (the greater
    case, and the odd case for even n), and the first that returns a trace
    wins.  A non-positive m or n raises ValueError, as in classify_detailed,
    and a provable pair PreconditionViolated.  n = 1 has no decomposition,
    so it raises CertificateSearchFailed.  Every recipe but the greater case
    tests primes of n's size, so m < n with n above is_prime's 2^63 raises
    BoundExceeded before any recipe runs.  If every recipe declines, that is
    a bug and RuntimeError is raised.
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
    skipped = recipe_odd if n % 2 == 0 else None
    for recipe in _DISPATCH:
        if recipe is recipe_greater or recipe is skipped:
            continue
        trace = recipe(m, n)
        if trace is not None:
            return trace
    raise RuntimeError(f"every recipe declined ({m}, {n}); dispatch is buggy")
