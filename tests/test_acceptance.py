"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import time
from itertools import product

from ramseychoice.certificates import build_certificate
from ramseychoice.decomposition import (
    admissible_sums,
    allowed_contributions,
    blocks,
    find_blocking_decomposition,
    iter_decompositions,
    provable_by_theorem,
)
from ramseychoice.errors import NotBlocking
from ramseychoice.rc24 import check_equivariance, verify_rc24
from ramseychoice.scan import run_scan
from ramseychoice.selector_models import (
    build_cyclic_model,
    check_one_point_extension,
    run_fraisse_stages,
    verify_equivariance,
    verify_gcd_claim,
    witness_no_invariant_choice,
)


def _report(ok, line):
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def test_criterion_1_full_scan_with_oracle():
    start = time.perf_counter()
    report, disagreements = run_scan(50, 50, oracle=True)
    elapsed = time.perf_counter() - start
    ok = (report.total == 2401 and not disagreements and elapsed < 300.0)
    _report(ok, "criterion 1: 50x50 scan, %d pairs, %d oracle disagreements, %.1fs"
            % (report.total, len(disagreements), elapsed))


def test_criterion_2_pair_to_four_exhaustive():
    start = time.perf_counter()
    ok24, census = verify_rc24()
    eq_ok, _ = check_equivariance()
    elapsed = time.perf_counter() - start
    ok = (ok24 and eq_ok and census["total"] == 64
          and census["all_cases_covered"] and elapsed < 1.0)
    _report(ok, "criterion 2: 64/64 orientations, cases %d/%d/%d, "
            "1536 equivariance checks, %.2fs"
            % (census["case_singleton_min"], census["case_pair_min"],
               census["case_triple_min"], elapsed))


def test_criterion_3_cycle_invariance_claim():
    start = time.perf_counter()
    ok, log = verify_gcd_claim(12)
    elapsed = time.perf_counter() - start
    total = sum(e["invariant_proper_subsets"] for e in log.values())
    ok = ok and set(log) == set(range(2, 13)) and elapsed < 10.0
    _report(ok, "criterion 3: gcd claim for cycle lengths 2..12, "
            "%d invariant subsets checked, %.2fs" % (total, elapsed))


def test_criterion_4_constructive_matches_exhaustive():
    bad = []
    for m in range(2, 51):
        for n in range(2, 51):
            direct = find_blocking_decomposition(m, n)
            if provable_by_theorem(m, n):
                if direct is not None:
                    bad.append((m, n, "oracle found a blocker for a provable pair"))
                continue
            if direct is None:
                bad.append((m, n, "no exhaustive blocker for an unprovable pair"))
                continue
            tr = build_certificate(m, n)
            if tr.decomposition.total != n or not blocks(tr.decomposition, m):
                bad.append((m, n, "recipe certificate fails verification"))
    _report(not bad, "criterion 4: recipes vs exhaustive search on 2..50 square, "
            "%d mismatches" % len(bad))


def test_criterion_5_cyclic_models_iff_blocking():
    start = time.perf_counter()
    checked = mism = 0
    for n in range(2, 11):
        for d in iter_decompositions(n):
            for m in range(1, 11):
                for s in range(3):
                    checked += 1
                    expected = blocks(d, m)
                    try:
                        c = build_cyclic_model(m, s, d)
                    except NotBlocking:
                        if expected:
                            mism += 1
                        continue
                    eq_ok, _ = verify_equivariance(c)
                    if not (expected and eq_ok
                            and witness_no_invariant_choice(c, n)):
                        mism += 1
    elapsed = time.perf_counter() - start
    ok = mism == 0 and elapsed < 120.0
    _report(ok, "criterion 5: cyclic model exists iff decomposition blocks, "
            "%d combinations, %d mismatches, %.1fs" % (checked, mism, elapsed))


def test_criterion_6_dp_equals_cartesian():
    pairs = mism = 0
    for n in range(2, 15):
        for d in iter_decompositions(n):
            pairs += 1
            dp = set(admissible_sums(d).values())
            pools = [sorted(allowed_contributions(p)) for p in d.parts]
            brute = {sum(c) for c in product(*pools)}
            if dp != brute:
                mism += 1
    ok = mism == 0
    _report(ok, "criterion 6: subset-sum DP vs cartesian enumeration, "
            "%d decompositions, %d mismatches" % (pairs, mism))


def test_criterion_7_staged_construction_saturates():
    chain = run_fraisse_stages(2, 2)
    sizes = [len(mod.domain) for mod in chain]
    complete, missing = check_one_point_extension(chain[-1], 2, 2)
    ok = sizes == [0, 1, 4] and complete
    _report(ok, "criterion 7: two staged extensions for m=2, sizes %s, "
            "one-point extensions %s" % (sizes, "complete" if complete
                                         else "missing %d" % len(missing)))
