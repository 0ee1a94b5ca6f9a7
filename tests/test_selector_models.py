import math
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramseychoice.decomposition import Decomposition, blocks, iter_decompositions
from ramseychoice.errors import BoundExceeded, CapExceeded, NotBlocking
from ramseychoice.selector_models import (
    CLAIM_STEP_BOUND,
    EXTENSION_TYPE_BOUND,
    CyclicAutomorphism,
    SelectorModel,
    StageCaps,
    build_cyclic_model,
    build_fraisse_stage,
    catalog_models,
    check_one_point_extension,
    empty_model,
    find_embeddings,
    run_fraisse_stages,
    verify_equivariance,
    verify_gcd_claim,
    witness_no_invariant_choice,
)


def test_selector_model_validate():
    good = SelectorModel(2, (0, 1, 2), {(0, 1): 0, (0, 2): 2, (1, 2): 1})
    good.validate()
    with pytest.raises(ValueError):
        SelectorModel(2, (1, 0), {}).validate()
    with pytest.raises(ValueError):
        SelectorModel(2, (0, 1), {}).validate()  # missing pair
    with pytest.raises(ValueError):
        SelectorModel(2, (0, 1), {(0, 1): 2}).validate()  # choice outside


def test_find_embeddings_simple():
    target = SelectorModel(2, (0, 1), {(0, 1): 0})
    # a single unconstrained atom embeds both ways
    assert find_embeddings(SelectorModel(2, (0,), {}), target) == [(0,), (1,)]
    # the 2-atom structure has a trivial automorphism group
    assert find_embeddings(target, target) == [(0, 1)]
    with pytest.raises(ValueError):
        find_embeddings(SelectorModel(3, (0,), {}), target)


def test_cyclic_model_frozen_table():
    c = build_cyclic_model(2, 1, Decomposition([3]))
    assert c.model.domain == (0, 1, 2, 3)
    assert c.fixed == (0,)
    assert c.cycles == ((1, 2, 3),)
    assert c.sigma == (0, 2, 3, 1)
    assert c.order == 3
    assert c.model.sel == {
        (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, 2): 1, (1, 3): 3, (2, 3): 2,
    }
    assert c.dump() == (
        "m=2 domain=4\n"
        "P={0,1} sel=0\n"
        "P={0,2} sel=0\n"
        "P={0,3} sel=0\n"
        "P={1,2} sel=1\n"
        "P={1,3} sel=3\n"
        "P={2,3} sel=2\n"
        "S={0} cycles=[(1,2,3)]"
    )


def test_cyclic_model_refuses_exactly_the_non_blockers():
    for n in range(2, 9):
        for d in iter_decompositions(n):
            for m in range(1, 9):
                for s in range(3):
                    if blocks(d, m):
                        c = build_cyclic_model(m, s, d)
                        c.model.validate()
                        ok, counter = verify_equivariance(c)
                        assert ok, (m, s, d, counter)
                        assert witness_no_invariant_choice(c, n)
                    else:
                        with pytest.raises(NotBlocking):
                            build_cyclic_model(m, s, d)


def test_cyclic_model_vacuous_when_arity_exceeds_domain():
    c = build_cyclic_model(9, 0, Decomposition([2, 2]))
    assert c.model.sel == {}
    assert c.order == 2
    c = build_cyclic_model(7, 1, Decomposition([3, 2]))
    assert c.model.sel == {}
    assert c.order == 6
    # at m = |domain| the single full subset still picks from S
    c = build_cyclic_model(6, 1, Decomposition([3, 2]))
    assert c.model.sel == {(0, 1, 2, 3, 4, 5): 0}
    # m > N: there are no m-subsets, so the model is valid vacuously
    c = build_cyclic_model(5, 0, Decomposition((2,)))
    c.model.validate()
    assert c.model.sel == {}
    assert verify_equivariance(c) == (True, None)


def test_cyclic_model_rejects_bad_args():
    with pytest.raises(ValueError):
        build_cyclic_model(0, 1, Decomposition([3]))
    with pytest.raises(ValueError):
        build_cyclic_model(2, -1, Decomposition([3]))


def test_equivariance_detects_tampering():
    c = build_cyclic_model(2, 0, Decomposition([5]))
    sel = dict(c.model.sel)
    p = (0, 1)
    sel[p] = 1 - sel[p] if sel[p] in (0, 1) else 0
    broken = CyclicAutomorphism(
        SelectorModel(2, c.model.domain, sel), c.fixed, c.cycles, c.sigma
    )
    ok, counter = verify_equivariance(broken)
    assert not ok
    assert counter is not None


def equivariance_by_all_powers(c):
    """Reference: walk every power sigma^t, 1 <= t < order, from every subset."""
    for P, x in c.model.sel.items():
        Q, v = P, x
        for t in range(1, c.order):
            Q = tuple(sorted(c.sigma[a] for a in Q))
            v = c.sigma[v]
            if c.model.sel.get(Q) != v:
                return False, (P, t)
    return True, None


def sigma_orbit(c, P):
    orbit, Q = {P}, tuple(sorted(c.sigma[a] for a in P))
    while Q != P:
        orbit.add(Q)
        Q = tuple(sorted(c.sigma[a] for a in Q))
    return orbit


def test_one_step_equivariance_matches_all_powers():
    """Each single tampered selection fails both checks, at a subset of its orbit."""
    tampered = 0
    for n in range(2, 9):
        for d in iter_decompositions(n):
            for m in range(2, 5):
                if not blocks(d, m):
                    continue
                c = build_cyclic_model(m, 1, d)
                assert verify_equivariance(c) == equivariance_by_all_powers(c) == (True, None)
                for P, x in c.model.sel.items():
                    sel = dict(c.model.sel)
                    sel[P] = P[(P.index(x) + 1) % m]
                    broken = replace(c, model=replace(c.model, sel=sel))
                    ok, counter = verify_equivariance(broken)
                    ref_ok, (ref_counter, _) = equivariance_by_all_powers(broken)
                    assert not ok and not ref_ok, (m, d, P)
                    orbit = sigma_orbit(c, P)
                    assert counter in orbit and ref_counter in orbit, (m, d, P)
                    tampered += 1
    assert tampered > 1000


def test_model_bound_counts_atoms_and_is_checked_first(monkeypatch):
    import ramseychoice.selector_models as sm

    monkeypatch.setattr(sm, "MODEL_ATOM_BOUND", 12)
    assert len(build_cyclic_model(2, 1, Decomposition([3])).model.sel) == 6  # 6 * 2 atoms
    with pytest.raises(BoundExceeded):
        build_cyclic_model(2, 2, Decomposition([3]))  # 10 * 2 atoms
    with pytest.raises(BoundExceeded):
        build_cyclic_model(2, 0, Decomposition([2, 2, 2]))  # would be NotBlocking


def test_witness_rejects_wrong_region_or_fixed_points():
    c = build_cyclic_model(2, 1, Decomposition([3]))
    assert witness_no_invariant_choice(c, 3)
    assert not witness_no_invariant_choice(c, 4)
    # identity on the region is not a usable witness
    frozen = CyclicAutomorphism(c.model, c.fixed, c.cycles, (0, 1, 2, 3))
    assert not witness_no_invariant_choice(frozen, 3)


def rotation_recount(q):
    """Tuple-based recount of invariant proper subsets, avoiding bitmasks."""
    atoms = range(q)
    count = 0
    violations = []
    for r in range(1, q):
        for size in range(1, q):
            for sub in combinations(atoms, size):
                image = {(i + r) % q for i in sub}
                if image == set(sub):
                    count += 1
                    if math.gcd(size, q) <= 1:
                        violations.append((r, sub))
    return count, violations


def test_gcd_claim_matches_independent_recount():
    ok, log = verify_gcd_claim(8)
    assert ok
    for q in range(2, 9):
        count, violations = rotation_recount(q)
        assert log[q]["invariant_proper_subsets"] == count, q
        assert not violations


def test_gcd_claim_frozen_counts():
    ok, log = verify_gcd_claim(12)
    assert ok
    got = {q: v["invariant_proper_subsets"] for q, v in log.items()}
    assert got == {2: 0, 3: 0, 4: 2, 5: 0, 6: 10, 7: 0, 8: 18,
                   9: 12, 10: 38, 11: 0, 12: 106}
    # prime cycles admit no proper invariant subsets at all
    for q in (2, 3, 5, 7, 11):
        assert got[q] == 0
    with pytest.raises(ValueError):
        verify_gcd_claim(1)


def test_gcd_claim_bound_counts_steps_and_is_checked_first(monkeypatch):
    import ramseychoice.selector_models as sm

    def steps(q_max):
        return sum((q - 1) * (2**q - 2) for q in range(2, q_max + 1))

    # the default admits cycle lengths up to 20 and refuses 21
    assert steps(20) <= CLAIM_STEP_BOUND < steps(21)
    with pytest.raises(BoundExceeded):
        verify_gcd_claim(21)
    monkeypatch.setattr(sm, "CLAIM_STEP_BOUND", steps(5))
    assert verify_gcd_claim(5)[0]
    with pytest.raises(BoundExceeded):
        verify_gcd_claim(6)
    with pytest.raises(BoundExceeded):
        verify_gcd_claim(10**18)


def orbit_of(table, subsets, k):
    index = {s: i for i, s in enumerate(subsets)}
    out = set()
    for perm in permutations(range(k)):
        relabeled = [0] * len(subsets)
        for i, s in enumerate(subsets):
            target = tuple(sorted(perm[x] for x in s))
            relabeled[index[target]] = perm[table[i]]
        out.add(tuple(relabeled))
    return out


def test_catalog_counts_frozen():
    for k, want in [(0, 1), (1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56)]:
        assert len(catalog_models(2, k)) == want, k
    assert len(catalog_models(3, 3)) == 1
    assert len(catalog_models(3, 4)) == 6
    assert len(catalog_models(3, 5)) == 513
    assert len(catalog_models(1, 4)) == 1
    assert len(catalog_models(4, 3)) == 1  # no m-subsets at all


def test_catalog_counts_against_full_orbit_partition():
    """Second oracle: partition the whole table space into orbits directly."""
    for m, k in [(2, 3), (2, 4), (3, 4)]:
        subsets = list(combinations(range(k), m))
        all_tables = set(product(*subsets))
        orbits = []
        left = set(all_tables)
        while left:
            t = left.pop()
            orb = orbit_of(t, subsets, k)
            orbits.append(orb)
            left -= orb
        assert sum(len(o) for o in orbits) == len(all_tables)
        assert len(orbits) == len(catalog_models(m, k)), (m, k)


def test_catalog_reps_are_lex_least_and_valid():
    for m, k in [(2, 3), (2, 4), (3, 4)]:
        subsets = list(combinations(range(k), m))
        for mod in catalog_models(m, k):
            mod.validate()
            table = tuple(mod.sel[s] for s in subsets)
            assert table == min(orbit_of(table, subsets, k))


def test_catalog_guards():
    with pytest.raises(BoundExceeded):
        catalog_models(2, 7)  # 21 pair-subsets
    with pytest.raises(BoundExceeded):
        catalog_models(3, 6)  # 3^20 assignments
    with pytest.raises(BoundExceeded):
        catalog_models(1, 9)  # 9! relabelings
    with pytest.raises(ValueError):
        catalog_models(0, 3)
    with pytest.raises(ValueError):
        catalog_models(2, -1)


def test_fraisse_stage_sizes_and_f2_table():
    chain = run_fraisse_stages(2, 2)
    assert [len(m.domain) for m in chain] == [0, 1, 4]
    f2 = chain[-1]
    f2.validate()
    assert f2.sel == {
        (0, 1): 1, (0, 2): 2, (0, 3): 0,
        (1, 2): 2, (1, 3): 3, (2, 3): 3,
    }
    # every atom wins somewhere and loses somewhere
    for a in f2.domain:
        outcomes = {f2.sel[p] == a for p in f2.sel if a in p}
        assert outcomes == {True, False}, a


def test_fraisse_third_stage_size():
    chain = run_fraisse_stages(2, 3)
    assert [len(m.domain) for m in chain] == [0, 1, 4, 49]
    chain[-1].validate()


def test_fraisse_stage_caps():
    with pytest.raises(CapExceeded) as info:
        run_fraisse_stages(2, 3, StageCaps(max_new_atoms=10))
    assert info.value.report is not None
    with pytest.raises(CapExceeded):
        run_fraisse_stages(2, 3, StageCaps(max_domain=20))


def test_fraisse_stage_ground_limit_zero():
    prev = run_fraisse_stages(2, 1)[-1]
    nxt = build_fraisse_stage(2, prev, StageCaps(ground_limit=0))
    assert nxt.domain == (0, 1)
    assert nxt.sel == {(0, 1): 1}


def test_fraisse_stage_rejects_gappy_domain():
    bad = SelectorModel(2, (0, 2), {(0, 2): 0})
    with pytest.raises(ValueError):
        build_fraisse_stage(2, bad, StageCaps(ground_limit=1))


def restrict(model, atoms):
    """Induced substructure on sorted atoms of model's domain, atom ids kept."""
    return SelectorModel(model.m, atoms, {P: model.sel[P] for P in combinations(atoms, model.m)})


def stage_by_embedding_search(m, prev, limit):
    """Reference builder: restrict prev to each ground A, walk find_embeddings
    backwards per cataloged R, and pull R's choices back through the images."""
    planned = []
    for size in range(min(limit, len(prev.domain)) + 1):
        for A in combinations(prev.domain, size):
            sub = restrict(prev, A)
            for R in catalog_models(m, size + 1):
                planned += [(A, R, images) for images in reversed(find_embeddings(sub, R))]
    base = len(prev.domain)
    sel = dict(prev.sel)
    for a, (A, R, images) in enumerate(planned, base):
        back, phi = dict(zip(images, A)), dict(zip(A, images))
        spare = next(x for x in R.domain if x not in images)
        for rest in combinations(A, m - 1):
            z = R.sel[tuple(sorted([phi[x] for x in rest] + [spare]))]
            sel[rest + (a,)] = a if z == spare else back[z]
    domain = tuple(range(base + len(planned)))
    for Q in combinations(domain, m):
        sel.setdefault(Q, Q[-1])
    return SelectorModel(m, domain, sel)


@pytest.mark.parametrize("m, stages", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_fraisse_stage_matches_embedding_search(m, stages):
    """Reading demanded types by relabeled table plans the same atoms in the same order."""
    chain = run_fraisse_stages(m, stages)
    for i, prev in enumerate(chain[:-1]):
        assert chain[i + 1].sel == stage_by_embedding_search(m, prev, i).sel, i
        for limit in (0, 1):
            got = build_fraisse_stage(m, prev, StageCaps(ground_limit=limit))
            assert got.sel == stage_by_embedding_search(m, prev, limit).sel, (i, limit)


def carries(phi, sel, target_sel, m):
    """Reference: is target_sel[phi(P)] = phi(sel[P]) for every m-subset P of phi's atoms?"""
    return all(
        target_sel[tuple(sorted(phi[a] for a in P))] == phi[sel[P]]
        for P in combinations(sorted(phi), m)
    )


def embeddings_by_permutation(sub, target):
    """Reference: walk every injection in permutation order and test the whole map."""
    return [
        images
        for images in permutations(target.domain, len(sub.domain))
        if carries(dict(zip(sub.domain, images)), sub.sel, target.sel, sub.m)
    ]


def extensions_by_candidate(model, m, k):
    """Reference checker: try each candidate witness w in turn on the whole map."""
    missing = []
    for size in range(1, k):
        for A in combinations(model.domain, size):
            sub = restrict(model, A)
            for R in catalog_models(m, size + 1):
                for images in embeddings_by_permutation(sub, R):
                    phi = dict(zip(A, images))
                    spare = next(x for x in R.domain if x not in images)
                    if not any(
                        carries({**phi, w: spare}, model.sel, R.sel, m)
                        for w in model.domain if w not in A
                    ):
                        missing.append((A, tuple(sorted(R.sel.items())), images))
    return not missing, missing


def test_embeddings_match_permutation_walk():
    """Placing one image at a time by point type gives the same ordered list."""
    nonempty = 0
    for m in (2, 3):
        models = [mod for k in range(5) for mod in catalog_models(m, k)]
        for sub in models:
            for target in models:
                want = embeddings_by_permutation(sub, target)
                assert find_embeddings(sub, target) == want, (sub, target)
                nonempty += bool(want)
    assert nonempty > 50


def test_one_point_extension_check_matches_candidate_walk():
    """Pick masks report the same missing list as trying each candidate witness."""
    counts = {}
    for m, stages in [(2, 2), (2, 3), (3, 3)]:
        model = run_fraisse_stages(m, stages)[-1]
        for k in (2, 3):
            got = check_one_point_extension(model, m, k)
            assert got == extensions_by_candidate(model, m, k), (m, stages, k)
            counts[m, stages, k] = len(got[1])
    assert counts == {
        (2, 2, 2): 0, (2, 2, 3): 15,
        (2, 3, 2): 0, (2, 3, 3): 996,
        (3, 3, 2): 0, (3, 3, 3): 2386,
    }


@given(st.integers(1, 3), st.integers(0, 127), st.integers(0, 3**20 - 1), st.integers(1, 4))
def test_one_point_extension_check_matches_candidate_walk_random(m, atoms, code, k):
    """Random tables on at most 6 atoms out of 0..6, so ids have gaps and bit positions differ."""
    domain = tuple(a for a in range(7) if atoms >> a & 1)[:6]
    # digit i of code in base m picks from the i-th m-subset
    sel = {P: P[code // m**i % m] for i, P in enumerate(combinations(domain, m))}
    model = SelectorModel(m, domain, sel)
    assert check_one_point_extension(model, m, k) == extensions_by_candidate(model, m, k)


@pytest.mark.parametrize("m", [2, 3])
def test_fraisse_stage_three_misses_only_over_new_atoms(m):
    """Stage 3 realizes every extension over A inside stage 2, so each A missing at k = 3 reaches past it."""
    chain = run_fraisse_stages(m, 3)
    inner = len(chain[2].domain)
    ok, missing = check_one_point_extension(chain[3], m, 3)
    assert not ok and missing
    assert all(max(A) >= inner for A, _, _ in missing)


def test_one_point_extension_check_cost_bound(monkeypatch):
    """Pairs (A, w) the estimate counts on the 49-atom stage 3: 57,624 for
    k = 3, 905,128 for k = 4, 10,439,548 for k = 5; the bound admits k = 4
    and refuses k = 5."""
    import ramseychoice.selector_models as sm

    stage3 = run_fraisse_stages(2, 3)[-1]
    assert 905_128 <= EXTENSION_TYPE_BOUND < 10_439_548
    with pytest.raises(BoundExceeded, match="10439548 point types for k = 5 on 49 atoms"):
        check_one_point_extension(stage3, 2, 5)
    monkeypatch.setattr(sm, "EXTENSION_TYPE_BOUND", 57_624)
    assert len(check_one_point_extension(stage3, 2, 3)[1]) == 996
    with pytest.raises(BoundExceeded, match="905128 point types for k = 4"):
        check_one_point_extension(stage3, 2, 4)
    # sizes past the domain add nothing, so a huge k on a tiny model is cheap
    assert check_one_point_extension(empty_model(2), 2, 10**9) == (True, [])


def test_one_point_extension_check():
    chain = run_fraisse_stages(2, 2)
    ok, missing = check_one_point_extension(chain[-1], 2, 2)
    assert ok and missing == []
    # one atom cannot realize both orientations over a point
    ok, missing = check_one_point_extension(chain[1], 2, 2)
    assert not ok and missing
    # vacuous at k = 1: there is no nonempty subset below size 1
    ok, missing = check_one_point_extension(empty_model(2), 2, 1)
    assert ok
    with pytest.raises(ValueError):
        check_one_point_extension(chain[-1], 3, 2)
