"""Deriving a choice on 4-sets from a choice on 2-sets.

Given a selector f on the pairs of a 4-set z, every element gets a score:
the number of pairs that choose it.  The six pairs hand out six points, so
the minimum-score set M can never have all four elements.  The rule picks

  * the unique element when |M| = 1,
  * the element left out of M when |M| = 3,
  * f(M) itself when |M| = 2.

The verifier below runs all 64 pair orientations on a 4-set, checks the rule
is total, tallies which case fired, and confirms equivariance under all 24
relabelings.  The score only reads pairs inside z, so the rule is local and
glues over any larger universe.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import BadSubset
from .records import Record, _rebuilt
from .selector_models import _relabeling

# The 4-set the exhaustive checks run on; the rule is local, so any other is a relabeling.
FOUR_SET = (0, 1, 2, 3)
_PAIRS = tuple(combinations(FOUR_SET, 2))
ORIENTATIONS = 64  # 2^6 ways to orient the six pairs
EQUIVARIANCE_CHECKS = ORIENTATIONS * 24  # each orientation under the 4! relabelings
# The census key of each argmin case, by the size of M.
_CASES = {1: "case_singleton_min", 2: "case_pair_min", 3: "case_triple_min"}


class PairChoice(Record):
    """A total selector on the 2-subsets of a finite universe."""

    __slots__ = ("universe", "choice")

    def __new__(cls, universe: tuple[int, ...], choice: dict[tuple[int, ...], int]) -> PairChoice:
        pairs = set(combinations(universe, 2))
        if set(choice) != pairs:
            raise ValueError("choice is not total on the pairs of the universe")
        for p, x in choice.items():
            if x not in p:
                raise ValueError(f"choice{p} = {x} is outside the pair")
        return _rebuilt(cls, (universe, choice))

    @classmethod
    def from_bits(cls, universe, bits: int) -> "PairChoice":
        """Orientation number -> selector; bit i set picks the larger element
        of the i-th pair in lexicographic order."""
        universe = tuple(sorted(universe))
        choice = {}
        for i, p in enumerate(combinations(universe, 2)):
            choice[p] = p[1] if (bits >> i) & 1 else p[0]
        return cls(universe, choice)

    def pick(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("a pair needs two distinct elements")
        return self.choice[(a, b) if a < b else (b, a)]

    def conjugate(self, perm: dict[int, int]) -> "PairChoice":
        """Relabel by a bijection of the universe."""
        universe = tuple(sorted(perm[x] for x in self.universe))
        choice = {
            tuple(sorted((perm[p[0]], perm[p[1]]))): perm[x]
            for p, x in self.choice.items()
        }
        return PairChoice(universe, choice)


class ScoreProfile(Record):
    """Per-element pair counts on a 4-set and the argmin data of the rule."""

    __slots__ = ("z", "scores", "min_score", "argmin")

    def __new__(cls, z: tuple[int, ...], scores: tuple[int, ...], min_score: int, argmin: tuple[int, ...]):
        return _rebuilt(cls, (z, scores, min_score, argmin))


def score(z, f2: PairChoice) -> ScoreProfile:
    z = tuple(sorted(z))
    if len(z) != 4 or len(set(z)) != 4:
        raise BadSubset(f"{z} is not a 4-element subset")
    if not set(z) <= set(f2.universe):
        raise BadSubset(f"{z} is not inside the selector's universe")
    counts = {a: 0 for a in z}
    for p in combinations(z, 2):
        counts[f2.pick(*p)] += 1
    scores = tuple(counts[a] for a in z)
    assert sum(scores) == 6
    lo = min(scores)
    argmin = tuple(a for a in z if counts[a] == lo)
    return ScoreProfile(z, scores, lo, argmin)


def choose4(z, f2: PairChoice) -> int:
    """The element of z determined by f2 through the score rule."""
    prof = score(z, f2)
    M = prof.argmin
    if len(M) == 1:
        return M[0]
    if len(M) == 3:
        return next(a for a in prof.z if a not in M)
    if len(M) == 2:
        return f2.pick(M[0], M[1])
    # 4 equal minima would need 4 | 6.
    raise RuntimeError(f"impossible score profile {prof.scores} on {prof.z}")


def verify_rc24():
    """Exhaust all pair orientations on FOUR_SET.

    Returns (ok, census) where census counts how often each argmin case
    fired over the ORIENTATIONS orientations.
    """
    census = {"total": ORIENTATIONS, **dict.fromkeys(_CASES.values(), 0)}
    ok = True
    for bits in range(ORIENTATIONS):
        f2 = PairChoice.from_bits(FOUR_SET, bits)
        prof = score(FOUR_SET, f2)
        picked = choose4(FOUR_SET, f2)
        if picked not in FOUR_SET:
            ok = False
        census[_CASES[len(prof.argmin)]] += 1
    census["all_cases_covered"] = all(census[k] > 0 for k in _CASES.values())
    return ok, census


def _relabeled_orientations(images: tuple[int, ...]) -> list[int]:
    """For the relabeling x -> images[x], the orientation number of the
    conjugate of each orientation, indexed by orientation number.

    An orientation number is the catalog's table code over the pairs in
    reverse order (bit i is the digit of pair i), so the action is
    selector_models._relabeling's.
    """
    return _relabeling(images, _PAIRS[::-1], 2, 0)[1]


def check_equivariance():
    """choose4 commutes with every relabeling of FOUR_SET.

    Returns (ok, first counterexample or None), checking EQUIVARIANCE_CHECKS
    (64 x 24) instances.  choose4 runs once per orientation, and each check
    compares its pick on a conjugate with the relabeled pick, both looked up
    by orientation number.
    """
    chosen = [choose4(FOUR_SET, PairChoice.from_bits(FOUR_SET, bits)) for bits in range(ORIENTATIONS)]
    relabelings = [(images, _relabeled_orientations(images)) for images in permutations(FOUR_SET)]
    for bits in range(ORIENTATIONS):
        for images, relabeled in relabelings:
            if chosen[relabeled[bits]] != images[chosen[bits]]:
                return False, (bits, images)
    return True, None
