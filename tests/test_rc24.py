from itertools import combinations, permutations

import pytest

from ramseychoice import rc24
from ramseychoice.errors import BadSubset
from ramseychoice.rc24 import (
    PairChoice,
    check_equivariance,
    choose4,
    score,
    verify_rc24,
)


def test_pair_choice_totality_and_pick():
    f = PairChoice.from_bits((0, 1, 2, 3), 0)
    assert all(f.pick(*p) == p[0] for p in combinations(range(4), 2))
    f = PairChoice.from_bits((0, 1, 2, 3), 63)
    assert all(f.pick(*p) == p[1] for p in combinations(range(4), 2))
    assert f.pick(3, 1) == f.pick(1, 3)
    with pytest.raises(ValueError):
        f.pick(2, 2)


def test_pair_choice_validation():
    with pytest.raises(ValueError):
        PairChoice((0, 1, 2), {(0, 1): 0})  # not total
    with pytest.raises(ValueError):
        PairChoice((0, 1), {(0, 1): 5})  # outside the pair


def test_pair_choice_conjugate():
    f = PairChoice.from_bits((0, 1, 2, 3), 21)
    perm = {0: 2, 1: 0, 2: 3, 3: 1}
    g = f.conjugate(perm)
    for p in combinations(range(4), 2):
        assert g.pick(perm[p[0]], perm[p[1]]) == perm[f.pick(*p)]


def test_score_profiles():
    # everyone picks the smaller element: scores fall off linearly
    f = PairChoice.from_bits((0, 1, 2, 3), 0)
    prof = score((0, 1, 2, 3), f)
    assert prof.scores == (3, 2, 1, 0)
    assert prof.min_score == 0
    assert prof.argmin == (3,)
    assert choose4((0, 1, 2, 3), f) == 3
    # everyone picks the larger element
    f = PairChoice.from_bits((0, 1, 2, 3), 63)
    prof = score((0, 1, 2, 3), f)
    assert prof.scores == (0, 1, 2, 3)
    assert choose4((0, 1, 2, 3), f) == 0


def test_score_sum_is_always_six():
    for bits in range(64):
        f = PairChoice.from_bits((0, 1, 2, 3), bits)
        assert sum(score((0, 1, 2, 3), f).scores) == 6


def test_score_rejects_bad_subsets():
    f = PairChoice.from_bits((0, 1, 2, 3), 0)
    with pytest.raises(BadSubset):
        score((0, 1, 2), f)
    with pytest.raises(BadSubset):
        score((0, 1, 2, 5), f)


def test_verify_rc24_census():
    ok, census = verify_rc24()
    assert ok
    assert census["total"] == 64
    assert census["case_singleton_min"] == 32
    assert census["case_pair_min"] == 24
    assert census["case_triple_min"] == 8
    assert census["all_cases_covered"]
    # the three cases partition the orientations: no 4-way tie can occur
    assert (census["case_singleton_min"] + census["case_pair_min"]
            + census["case_triple_min"]) == 64


def test_equivariance_all_relabelings():
    ok, counter = check_equivariance()
    assert ok
    assert counter is None


@pytest.mark.parametrize(
    "rule, counterexample",
    [
        (lambda z, f2: min(z), (0, (1, 0, 2, 3))),
        (lambda z, f2: f2.pick(z[0], z[1]), (0, (2, 0, 1, 3))),
    ],
    ids=["least-element", "pick-of-first-pair"],
)
def test_equivariance_reports_the_first_counterexample_of_a_rule(monkeypatch, rule, counterexample):
    """A rule that is not equivariant fails at the same (bits, images) as
    when every conjugate ran its own choose4."""
    monkeypatch.setattr(rc24, "choose4", rule)
    assert check_equivariance() == (False, counterexample)


def test_equivariance_scores_each_selector_once(monkeypatch):
    # one choose4 per orientation: each conjugate is looked up by its
    # orientation number, not scored again for each of the 1536 checks
    calls = []
    monkeypatch.setattr(rc24, "choose4", lambda z, f2: calls.append(f2) or choose4(z, f2))
    assert check_equivariance() == (True, None)
    assert len(calls) == rc24.ORIENTATIONS


def orientation_number(f2):
    """The bits of from_bits: bit i set when pair i picks its larger element."""
    return sum(1 << i for i, p in enumerate(rc24._PAIRS) if f2.choice[p] == p[1])


def test_relabeling_table_agrees_with_conjugate():
    # the relabeled orientation number of every (orientation, relabeling) is
    # that of the conjugate selector built pair by pair
    for images in permutations(rc24.FOUR_SET):
        relabeled = rc24._relabeled_orientations(images)
        assert len(relabeled) == rc24.ORIENTATIONS
        for bits in range(rc24.ORIENTATIONS):
            g2 = PairChoice.from_bits(rc24.FOUR_SET, bits).conjugate(dict(zip(rc24.FOUR_SET, images)))
            assert relabeled[bits] == orientation_number(g2), (bits, images)


def test_choice_is_local():
    """The rule on a 4-set ignores every pair leaving the set."""
    z = (1, 3, 4, 6)
    big = tuple(range(7))
    inner = list(combinations(z, 2))
    for bits in range(64):
        small = PairChoice.from_bits(z, bits)
        for outer_bit in (0, 1):
            choice = {}
            for p in combinations(big, 2):
                if p in small.choice:
                    choice[p] = small.choice[p]
                else:
                    choice[p] = p[outer_bit]
            extended = PairChoice(big, choice)
            assert choose4(z, extended) == choose4(z, small)
            assert len(inner) == 6


def test_triple_min_case_excludes_correctly():
    # find an orientation with a 3-way tie and check the left-out element wins
    found = 0
    for bits in range(64):
        f = PairChoice.from_bits((0, 1, 2, 3), bits)
        prof = score((0, 1, 2, 3), f)
        if len(prof.argmin) == 3:
            found += 1
            winner = choose4((0, 1, 2, 3), f)
            assert winner not in prof.argmin
            assert prof.scores[prof.z.index(winner)] == 3
    assert found == 8


def test_pair_min_case_delegates_to_f2():
    for bits in range(64):
        f = PairChoice.from_bits((0, 1, 2, 3), bits)
        prof = score((0, 1, 2, 3), f)
        if len(prof.argmin) == 2:
            assert choose4((0, 1, 2, 3), f) == f.pick(*prof.argmin)
