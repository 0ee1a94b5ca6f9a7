"""Reference checks that share no code with the library under test.

Each check returns None when the output is right and a one-line reason when
it is not, so the worker can count failures without stopping.  The checks
are deliberately plain (Python sets, explicit loops, textbook formulas) so
that a fast-but-wrong change to the library cannot pass them by reusing the
same mistake.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations


def theorem_provable(m: int, n: int) -> bool:
    """RC_m => RC_n is provable exactly on the diagonal and at (2, 4)."""
    return m == n or (m, n) == (2, 4)


def reachable_upto(parts, m: int) -> set[int]:
    """Sums <= m reachable when each part p contributes 0 or some j <= p
    with gcd(j, p) > 1.

    Equal parts are applied one copy at a time.  Each further copy can only
    add sums built from the ones the previous copy added, so only that
    frontier is extended, and the copies stop once it is empty.
    """
    reach = {0}
    for p, count in sorted(Counter(parts).items()):
        steps = _steps(p, min(p, m))
        frontier = set(reach)
        for _ in range(count):
            frontier = {s + j for s in frontier for j in steps if s + j <= m} - reach
            if not frontier:
                break
            reach |= frontier
    return reach


@lru_cache(maxsize=None)
def _steps(p: int, limit: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, limit + 1) if math.gcd(j, p) > 1)


def check_certificate(m: int, n: int, parts) -> str | None:
    """A blocking certificate: parts >= 2, summing to n, m not reachable."""
    parts = tuple(parts)
    if not parts:
        return f"({m}, {n}): empty certificate"
    if any(not isinstance(p, int) or p < 2 for p in parts):
        return f"({m}, {n}): certificate has a part below 2"
    if sum(parts) != n:
        return f"({m}, {n}): certificate parts sum to {sum(parts)}"
    # Every reachable sum is at most n, so m > n is blocked outright.
    if m <= n and m in reachable_upto(parts, m):
        return f"({m}, {n}): certificate admits m"
    return None


def check_classification(m: int, n: int, verdict: str, reason: str, parts) -> str | None:
    """Verdict against the theorem, and the certificate when there is one."""
    if theorem_provable(m, n):
        expected = "diagonal" if m == n else "rc24"
        if verdict != "provable" or reason != expected or parts is not None:
            return f"({m}, {n}): expected provable/{expected}, got {verdict}/{reason}"
        return None
    if verdict != "not_provable" or reason != "certificate" or parts is None:
        return f"({m}, {n}): expected a certificate, got {verdict}/{reason}"
    return check_certificate(m, n, parts)


def check_selector_table(m: int, domain, sel: dict) -> str | None:
    """sel is total on the m-subsets of domain and picks inside each subset."""
    if list(domain) != sorted(set(domain)):
        return "domain is not sorted and duplicate-free"
    subsets = list(combinations(domain, m))
    if len(sel) != len(subsets) or any(P not in sel for P in subsets):
        return "selection is not total on the m-subsets"
    for P in subsets:
        if sel[P] not in P:
            return f"sel{P} = {sel[P]} lies outside the subset"
    return None


def check_cyclic_model(m: int, s_size: int, parts, domain, sel, sigma) -> str | None:
    """Selector on S plus cycles: S fixed, one rotation per part, and
    sel(sigma P) = sigma(sel P) for every m-subset P."""
    n = sum(parts)
    if tuple(domain) != tuple(range(s_size + n)):
        return f"domain has {len(domain)} atoms, expected {s_size + n}"
    problem = check_selector_table(m, domain, sel)
    if problem:
        return problem
    expected = list(range(s_size))
    start = s_size
    for length in parts:
        expected.extend(start + (i + 1) % length for i in range(length))
        start += length
    if list(sigma) != expected:
        return "sigma is not the block rotation fixing S"
    if any(sigma[a] == a for a in range(s_size, s_size + n)):
        return "sigma has a fixed point outside S"
    for P, x in sel.items():
        if sel[tuple(sorted(sigma[a] for a in P))] != sigma[x]:
            return f"selection at {P} is not sigma-equivariant"
    return None


def burnside_class_count(m: int, k: int) -> int:
    """Isomorphism classes of arity-m selectors on k atoms, by Burnside.

    A relabeling g fixes a selector exactly when, on each g-orbit of
    m-subsets of length l through P, sel(P) is an element of P fixed by g^l;
    the choice on P then determines the rest of the orbit.
    """
    subsets = list(combinations(range(k), m))
    perms = list(permutations(range(k)))
    fixed_total = 0
    for g in perms:
        seen = set()
        fixed = 1
        for P in subsets:
            if P in seen:
                continue
            orbit = [P]
            Q = tuple(sorted(g[x] for x in P))
            while Q != P:
                orbit.append(Q)
                Q = tuple(sorted(g[x] for x in Q))
            seen.update(orbit)
            power = list(range(k))
            for _ in orbit:
                power = [g[x] for x in power]
            fixed *= sum(1 for x in P if power[x] == x)
        fixed_total += fixed
    return fixed_total // len(perms)


def gcd_claim_counts(q: int) -> int:
    """Nonempty proper subsets of Z_q fixed by rotation r, summed over
    r = 1..q-1: rotation by r has gcd(q, r) cycles, so 2^gcd - 2 of them."""
    return sum(2 ** math.gcd(q, r) - 2 for r in range(1, q))


def rc24_census() -> dict[str, int]:
    """Argmin-size census of the pair-score rule over all 64 orientations."""
    universe = (0, 1, 2, 3)
    pairs = list(combinations(universe, 2))
    census = {1: 0, 2: 0, 3: 0}
    for bits in range(64):
        score = dict.fromkeys(universe, 0)
        for i, (a, b) in enumerate(pairs):
            score[b if bits >> i & 1 else a] += 1
        low = min(score.values())
        census[sum(1 for v in score.values() if v == low)] += 1
    return {
        "case_singleton_min": census[1],
        "case_pair_min": census[2],
        "case_triple_min": census[3],
    }
