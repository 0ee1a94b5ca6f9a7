import math
from itertools import accumulate, combinations, permutations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseychoice.decomposition import Decomposition, blocks, iter_decompositions
from ramseychoice.errors import BoundExceeded, NotBlocking
from ramseychoice.selector_models import (
    CLAIM_STEP_BOUND,
    STAGE_WORK_BOUND,
    CyclicAutomorphism,
    SelectorModel,
    are_isomorphic,
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
from ramseychoice.selector_models import _bit_slices, _extensions, _fixed_subsets


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


def cyclic_model_by_subset_walk(m, S_size, d):
    """Reference build: walk every m-subset in combinations order, each image
    sorted by its own call, as build_cyclic_model did before it paired the
    subsets meeting S with their picks and the images with their subsets."""
    import ramseychoice.selector_models as sm

    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if S_size < 0:
        raise ValueError(f"S_size must be >= 0, got {S_size}")
    N = S_size + d.total
    bound = sm.MODEL_ATOM_BOUND
    if min(m, N - m) >= bound.bit_length() or math.comb(N, m) * m > bound:
        raise BoundExceeded(f"C({N}, {m}) m-subsets hold more than {bound} atoms")
    domain = tuple(range(N))
    sigma = list(domain)
    cycle_of = [None] * S_size
    cycles = []
    parts = d.parts
    for start, length in zip(accumulate(parts, initial=S_size), parts):
        block = tuple(range(start, start + length))
        for i, a in enumerate(block):
            sigma[a] = block[(i + 1) % length]
        cycle_of.extend([len(cycles)] * length)
        cycles.append(block)

    def image(P):
        return tuple(sorted([sigma[a] for a in P]))

    sel = {}
    for P in combinations(domain, m):
        if P in sel:
            continue
        if P[0] < S_size:
            sel[P] = P[0]
            continue
        meets = {}
        for a in P:
            meets.setdefault(cycle_of[a], []).append(a)
        coprime = (xs[0] for i, xs in meets.items() if math.gcd(len(xs), parts[i]) == 1)
        chosen = next(coprime, None)
        if chosen is None:
            sizes = tuple(len(meets.get(i, ())) for i in range(len(cycles)))
            raise NotBlocking(
                f"subset {P} meets the cycles in sizes {sizes}, each sharing a "
                f"factor with its cycle length; {d} admits m = {m}"
            )
        sel[P] = chosen
        Q, v = image(P), sigma[chosen]
        while Q != P:
            sel[Q] = v
            Q, v = image(Q), sigma[v]
        if v != chosen:
            raise RuntimeError(f"orbit of {P} closes on a different selection {v}")
    model = SelectorModel(m, domain, sel)
    return CyclicAutomorphism(model, tuple(range(S_size)), tuple(cycles), tuple(sigma))


def build_outcome(build, m, s, d):
    try:
        c = build(m, s, d)
    except (NotBlocking, BoundExceeded) as e:
        return type(e), str(e)
    return list(c.model.sel.items()), c.fixed, c.cycles, c.sigma


def test_cyclic_model_matches_the_subset_walk(monkeypatch):
    """Same sel, insertion order included, and the same refusals."""
    import ramseychoice.selector_models as sm

    kinds = {}
    for n in range(2, 13):
        for d in iter_decompositions(n):
            for m in range(1, 8):
                for s in range(4):
                    want = build_outcome(cyclic_model_by_subset_walk, m, s, d)
                    assert build_outcome(build_cyclic_model, m, s, d) == want, (m, s, d)
                    kinds[want[0] if isinstance(want[0], type) else "model"] = True
    assert set(kinds) == {"model", NotBlocking}
    # a bound this low refuses some of these pairs, and both refuse the same ones
    monkeypatch.setattr(sm, "MODEL_ATOM_BOUND", 60)
    refused = 0
    for n in range(2, 9):
        for d in iter_decompositions(n):
            for m in range(1, 6):
                for s in range(4):
                    want = build_outcome(cyclic_model_by_subset_walk, m, s, d)
                    assert build_outcome(build_cyclic_model, m, s, d) == want, (m, s, d)
                    refused += want[0] is BoundExceeded
    assert refused > 100


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


def equivariance_by_sel_walk(c):
    """Reference: one step from every subset, in sel order, each image sorted by
    its own call; the counterexample is the first subset where the step fails."""
    sel, sigma = c.model.sel, c.sigma
    for P, x in sel.items():
        if sel.get(tuple(sorted([sigma[a] for a in P]))) != sigma[x]:
            return False, P
    return True, None


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
    """Each single tampered selection fails both checks, at a subset of its
    orbit, and the one-step check names the first failing subset in sel order."""
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
                    broken = CyclicAutomorphism(SelectorModel(c.model.m, c.model.domain, sel), c.fixed, c.cycles, c.sigma)
                    ok, counter = verify_equivariance(broken)
                    ref_ok, (ref_counter, _) = equivariance_by_all_powers(broken)
                    assert not ok and not ref_ok, (m, d, P)
                    assert (ok, counter) == equivariance_by_sel_walk(broken), (m, d, P)
                    orbit = sigma_orbit(c, P)
                    assert counter in orbit and ref_counter in orbit, (m, d, P)
                    tampered += 1
    assert tampered > 1000


def sel_walk_outcome(c):
    try:
        return equivariance_by_sel_walk(c)
    except (KeyError, TypeError, IndexError) as e:
        return type(e)


def verify_outcome(c):
    try:
        return verify_equivariance(c)
    except (KeyError, TypeError, IndexError) as e:
        return type(e)


def test_malformed_models_answer_as_the_sel_walk():
    """Models whose sel is not exactly the domain's m-subsets with picks in
    range leave the combinations stream and get the walk's answer."""
    c = build_cyclic_model(3, 1, Decomposition([5, 2]))
    subsets = list(c.model.sel)

    def edited(m=c.model.m, domain=c.model.domain, sel=c.model.sel):
        return CyclicAutomorphism(SelectorModel(m, domain, sel), c.fixed, c.cycles, c.sigma)

    cases = {}
    for i, P in enumerate(subsets):
        missing = {Q: x for Q, x in c.model.sel.items() if Q != P}
        cases["missing", i] = edited(sel=missing)
        cases["extra", i] = edited(sel={**c.model.sel, (0, P[1], 99): 0})
        cases["swapped", i] = edited(sel={**missing, (0, 0, P[1]): 0})  # same size
        cases["none", i] = edited(sel={**c.model.sel, P: None})
    # a repeated atom repeats combinations: C(9, 3) keys hold all 63 of them
    # and 21 more, which only the walk reaches
    sel = {**c.model.sel, **{(0, 0, x): 0 for x in range(1, 8)}}  # each passes the step
    sel.update(((90 + i, 91 + i, 92 + i), 90 + i) for i in range(84 - len(sel)))
    cases["repeated atom"] = edited(domain=(0, *c.model.domain), sel=sel)
    cases["negative arity"] = edited(m=-1)  # no subset count to compare with
    answers = set()
    for key, broken in cases.items():
        want = sel_walk_outcome(broken)
        assert verify_outcome(broken) == want, key
        answers.add(want if isinstance(want, type) else want[0])
    # True: dropping a subset that sigma fixes, such as (0, 6, 7), breaks no step
    assert answers == {True, False, IndexError, TypeError}


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


def test_fixed_subset_slices_match_the_shift_loop():
    for q in range(2, 13):
        full = (1 << q) - 1
        slices = _bit_slices(q)
        for r in range(1, q):
            want = 0
            for s in range(1, full):
                if ((s << r) | (s >> (q - r))) & full == s:
                    want |= 1 << s
            assert _fixed_subsets(slices, r) == want, (q, r)


def test_gcd_claim_at_the_bound_matches_the_closed_form():
    # rotation by r splits the q atoms into gcd(q, r) cycles and fixes exactly
    # their unions, of which all but the empty and the full one are proper
    ok, log = verify_gcd_claim(20)
    assert ok
    assert log == {
        q: {
            "powers": q - 1,
            "invariant_proper_subsets": sum(2 ** math.gcd(q, r) - 2 for r in range(1, q)),
            "ok": True,
        }
        for q in range(2, 21)
    }


def test_gcd_claim_fails_where_a_fixed_subset_has_a_coprime_size(monkeypatch):
    import ramseychoice.selector_models as sm

    # with every gcd reported as 1, each q with a fixed proper subset fails
    sizes = []

    def gcd(size, q):
        sizes.append((q, size))
        return 1

    monkeypatch.setattr(sm, "math", SimpleNamespace(gcd=gcd))
    ok, log = verify_gcd_claim(12)
    assert not ok
    assert {q: v["ok"] for q, v in log.items()} == {
        q: q not in (4, 6, 8, 9, 10, 12) for q in range(2, 13)
    }
    # gcd saw the size of every fixed subset, found with the shift formula
    want = []
    for q in range(2, 13):
        full = (1 << q) - 1
        for r in range(1, q):
            want += [(q, s.bit_count()) for s in range(1, full)
                     if ((s << r) | (s >> (q - r))) & full == s]
    assert sorted(sizes) == sorted(want)


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


def test_are_isomorphic_matches_the_catalog_classes():
    reps = catalog_models(2, 4)
    for rep in reps:
        for perm in permutations(range(4)):  # every relabeling of a class is isomorphic to its rep
            sel = {tuple(sorted(perm[a] for a in P)): perm[x] for P, x in rep.sel.items()}
            assert are_isomorphic(SelectorModel(2, rep.domain, sel), rep), (rep, perm)
    for a, b in combinations(reps, 2):  # different classes
        assert not are_isomorphic(a, b) and not are_isomorphic(b, a)
    # another arity or another size
    assert not are_isomorphic(catalog_models(3, 4)[0], reps[0])
    assert not are_isomorphic(catalog_models(2, 3)[0], reps[0])
    assert not are_isomorphic(reps[0], catalog_models(2, 5)[0])


def test_catalog_reps_are_lex_least_and_valid():
    for m, k in [(2, 3), (2, 4), (3, 4)]:
        subsets = list(combinations(range(k), m))
        for mod in catalog_models(m, k):
            mod.validate()
            table = tuple(mod.sel[s] for s in subsets)
            assert table == min(orbit_of(table, subsets, k))


def catalog_by_all_relabelings(m, k):
    """Reference catalog: walk the tables in product order and, at each one not
    yet seen, keep it and mark its image under every one of the k! relabelings."""
    subsets = list(combinations(range(k), m))
    index = {s: i for i, s in enumerate(subsets)}
    actions = []
    for perm in permutations(range(k)):
        source = [0] * len(subsets)  # source[j]: the subset perm relabels into slot j
        for i, s in enumerate(subsets):
            source[index[tuple(sorted(perm[x] for x in s))]] = i
        actions.append((perm, source))
    seen, reps = set(), []
    for table in product(*subsets):
        if table not in seen:
            reps.append(table)
            seen.update(tuple(perm[table[i]] for i in source) for perm, source in actions)
    return reps


def test_catalog_matches_all_relabelings_reference():
    checked = {}
    for k in range(7):
        for m in range(1, 8):  # m = 7 > k: no m-subsets
            s = math.comb(k, m)
            if s > 20 or m**s > 59_049:
                continue
            want = catalog_by_all_relabelings(m, k)
            got = [tuple(mod.sel[P] for P in combinations(range(k), m)) for mod in catalog_models(m, k)]
            assert got == want, (m, k)
            checked[m, k] = len(got)
    assert checked[3, 5] == 513 and checked[2, 6] == 56 and checked[5, 6] == 40
    assert len(checked) == 47  # all but (3, 6) and (4, 6)


def test_catalog_walks_two_generators_not_all_relabelings(monkeypatch):
    """Two relabelings are built and each is applied once per table code, so
    the work is 2 m^s applications whatever k! is."""
    import ramseychoice.selector_models as sm

    lookups = [0]

    class Counted(list):
        def __getitem__(self, i):
            lookups[0] += 1
            return list.__getitem__(self, i)

    def no_walk(*args):
        raise AssertionError("the catalog walks every relabeling")

    built, real = [], sm._relabeling

    def relabeling(perm, *args):
        built.append(perm)
        return tuple(Counted(half) for half in real(perm, *args))

    monkeypatch.setattr(sm, "permutations", no_walk, raising=False)
    monkeypatch.setattr(sm, "_relabeling", relabeling)
    for m, k, classes in [(1, 8, 1), (8, 8, 1), (2, 6, 56), (3, 5, 513)]:
        sm._catalog_tables.cache_clear()
        built.clear()
        lookups[0] = 0
        assert len(catalog_models(m, k)) == classes
        assert built == [(1, 0, *range(2, k)), (*range(1, k), 0)]
        # each code is closed once: one low and one high lookup per generator
        assert lookups[0] == 4 * m ** math.comb(k, m), (m, k)


def test_catalog_guards():
    with pytest.raises(BoundExceeded):
        catalog_models(2, 7)  # 21 pair-subsets
    with pytest.raises(BoundExceeded):
        catalog_models(3, 6)  # 3^20 assignments
    with pytest.raises(BoundExceeded):
        catalog_models(21, 21)  # 21 atoms, one subset
    # k! bounds no work: m = 1 or m >= k leaves one class up to 20 atoms
    for m, k in [(1, 9), (1, 20), (9, 9), (20, 20), (21, 20)]:
        assert len(catalog_models(m, k)) == 1, (m, k)
    with pytest.raises(ValueError):
        catalog_models(0, 3)
    with pytest.raises(ValueError):
        catalog_models(2, -1)


def test_extension_guard_refuses_before_listing_embeddings(monkeypatch):
    import ramseychoice.selector_models as sm

    # m > k + 1 or m = 1 leaves every injection into k + 1 atoms an embedding
    for m, table in [(20, ()), (1, tuple(range(7)))]:
        listed = _extensions(m, 7, table)  # one R
        assert (len(listed), len({R_tab for R_tab, _, _ in listed})) == (math.factorial(8), 1)

    def no_listing(*args):
        raise AssertionError("the embeddings were listed")

    prev = run_fraisse_stages(20, 8, ground_limit=0)[-1]  # 8 atoms
    pairs = run_fraisse_stages(2, 8, ground_limit=0)[-1]
    monkeypatch.setattr(sm, "find_embeddings", no_listing)
    for m, k in [(20, 8), (1, 8), (9, 8), (20, 12)]:
        with pytest.raises(BoundExceeded, match=rf"^{k + 1}! embeddings"):
            _extensions(m, k, () if m > k else tuple(range(k)))
    # both walkers refuse the 8-atom bases before they walk any smaller one
    _extensions.cache_clear()
    with pytest.raises(BoundExceeded, match=r"^9! embeddings"):
        build_fraisse_stage(20, prev, ground_limit=8)
    with pytest.raises(BoundExceeded, match=r"^9! embeddings"):
        check_one_point_extension(prev, 20, 9)
    # the catalog's guards count as well, in walk order: for m = 2 the 6-atom bases come first
    with pytest.raises(BoundExceeded, match=r"^21 m-subsets exceed the catalog guard"):
        build_fraisse_stage(2, pairs, ground_limit=8)
    with pytest.raises(BoundExceeded, match=r"^21 m-subsets exceed the catalog guard"):
        check_one_point_extension(pairs, 2, 9)


def test_fraisse_stages_refuse_a_negative_ground_limit():
    for build in (lambda: run_fraisse_stages(2, 2, ground_limit=-1),
                  lambda: build_fraisse_stage(2, run_fraisse_stages(2, 1)[-1], ground_limit=-1)):
        with pytest.raises(ValueError, match="^need ground_limit >= 0, got -1$"):
            build()


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


def stage_work(chain, ground_limit=None):
    """Reference: the bases each stage walked plus the atoms and m-subsets each stage holds, summed."""
    work = 0
    for i, (prev, stage) in enumerate(zip(chain, chain[1:])):
        limit, n = i if ground_limit is None else ground_limit, len(prev.domain)
        work += sum(math.comb(n, s) for s in range(min(limit, n) + 1)) + len(stage.domain) + len(stage.sel)
    return work


def test_fraisse_stage_work_bound(monkeypatch):
    import ramseychoice.selector_models as sm

    assert STAGE_WORK_BOUND == 2 * 10**6
    work = stage_work(run_fraisse_stages(2, 3))
    assert work == (1 + 1 + 0) + (2 + 4 + 6) + (11 + 49 + math.comb(49, 2))  # bases + atoms + subsets
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work)
    assert [len(stage.domain) for stage in run_fraisse_stages(2, 3)] == [0, 1, 4, 49]
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work - 1)
    with pytest.raises(BoundExceeded, match=r"^C\(49, 2\) m-subsets and 49 atoms take the stages over"):
        run_fraisse_stages(2, 3)
    # stage 4 for m = 1 walks the 19,650 bases of up to 3 of stage 3's 49 atoms
    work = stage_work(run_fraisse_stages(1, 3))
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work + 19649)
    with pytest.raises(BoundExceeded, match=r"^bases of up to 3 of 49 atoms"):
        run_fraisse_stages(1, 4)
    # an arity above every stage size holds no m-subset, but the atoms count
    work = stage_work(run_fraisse_stages(200, 3, ground_limit=3), 3)
    assert work == (1 + 1) + (2 + 4) + (15 + 145)
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work - 1)
    with pytest.raises(BoundExceeded, match=r"^C\(145, 200\) m-subsets and 145 atoms take the stages over"):
        run_fraisse_stages(200, 3, ground_limit=3)
    # with ground limit 0 each stage adds one atom, so the check before any stage is exact
    work = 20 + math.comb(21, 2) + math.comb(21, 4)
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work)
    assert stage_work(run_fraisse_stages(3, 20, ground_limit=0), 0) == work
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work - 1)
    monkeypatch.setattr(sm, "build_fraisse_stage", None)  # refused before any stage
    with pytest.raises(BoundExceeded, match=r"^at least 20 bases, C\(21, 2\) atoms and C\(21, 4\) m-subsets"):
        run_fraisse_stages(3, 20, ground_limit=0)
    # a chain far over the bound is refused without building its C(stages + 1, m + 1)
    with pytest.raises(BoundExceeded, match=r"^at least 10{4000} bases"):
        run_fraisse_stages(6000, 10**4000)
    with pytest.raises(ValueError):
        run_fraisse_stages(0, 1)
    with pytest.raises(ValueError):
        run_fraisse_stages(2, -1)


@given(st.integers(1, 8), st.integers(0, 400), st.sampled_from([None, 0, 1, 2]))
def test_fraisse_stages_answer_within_the_work_bound_or_refuse(m, stages, ground_limit):
    with mock.patch("ramseychoice.selector_models.STAGE_WORK_BOUND", 5000):
        try:
            chain = run_fraisse_stages(m, stages, ground_limit=ground_limit)
        except BoundExceeded:
            return
    assert len(chain) == stages + 1
    assert stage_work(chain, ground_limit) <= 5000


def test_fraisse_stage_ground_limit_zero():
    prev = run_fraisse_stages(2, 1)[-1]
    nxt = build_fraisse_stage(2, prev, ground_limit=0)
    assert nxt.domain == (0, 1)
    assert nxt.sel == {(0, 1): 1}


def test_fraisse_stage_rejects_gappy_domain():
    bad = SelectorModel(2, (0, 2), {(0, 2): 0})
    with pytest.raises(ValueError):
        build_fraisse_stage(2, bad, ground_limit=1)


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
            got = build_fraisse_stage(m, prev, ground_limit=limit)
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


def check_work(model, m, k):
    """Reference: the work the check counts, (bases + demanded extensions) *
    ceil(N / 64) plus m per sel entry when some base reads picks, with the
    extensions counted by find_embeddings once per relabeled table."""
    N, bases, demands, by_table = len(model.domain), 0, 0, {}
    for size in range(1, min(k, N + 1)):
        for A in combinations(model.domain, size):
            table = size, tuple(A.index(model.sel[P]) for P in combinations(A, m))
            if table not in by_table:
                sub = restrict(model, A)
                by_table[table] = sum(len(find_embeddings(sub, R)) for R in catalog_models(m, size + 1))
            bases, demands = bases + 1, demands + by_table[table]
    picks = len(model.sel) * m if 0 < bases and min(k - 1, N) >= m - 1 else 0
    return (bases + demands) * -(-N // 64) + picks


def test_one_point_extension_check_cost_bound(monkeypatch):
    """The check's work on the 49-atom stage 3 of m = 2: it answers at the
    bound and refuses one less; k = 4 answers and k = 5 is refused."""
    import ramseychoice.selector_models as sm

    stage3 = run_fraisse_stages(2, 3)[-1]
    with pytest.raises(BoundExceeded, match=r"^231525 bases demanding at least 3542210 extensions and 1176 "
                       r"m-subsets on 49 atoms exceed the stage work bound 2000000$"):
        check_one_point_extension(stage3, 2, 5)
    for k, missing in [(3, 996), (4, 92629)]:
        work = check_work(stage3, 2, k)
        monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work)
        assert len(check_one_point_extension(stage3, 2, k)[1]) == missing
        monkeypatch.setattr(sm, "STAGE_WORK_BOUND", work - 1)
        with pytest.raises(BoundExceeded, match=r" m-subsets on 49 atoms exceed the stage work bound"):
            check_one_point_extension(stage3, 2, k)
    assert check_work(stage3, 2, 3) == (49 + 1176) + (49 * 2 + 1176 * 6) + 2 * 1176
    assert check_work(stage3, 2, 4) <= STAGE_WORK_BOUND
    # past 64 atoms a mask takes two words: 65 bases demanding 130 extensions, and 65 picks
    chain65 = run_fraisse_stages(1, 65, ground_limit=0)[-1]
    assert check_work(chain65, 1, 2) == (65 + 130) * 2 + 65
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", 455)
    assert check_one_point_extension(chain65, 1, 2)[0]
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", 454)
    with pytest.raises(BoundExceeded, match=r"^65 bases demanding 130 extensions and 65 m-subsets on 65 atoms"):
        check_one_point_extension(chain65, 1, 2)
    # at k = 3 the 1,225 bases demand at least 2^C(s, 1) extensions per base of
    # s atoms: past that lower bound, in closed form, the check lists no base
    least = (1225 + 49 * 2 + 1176 * 4) + 2 * 1176
    assert least == 8379 < check_work(stage3, 2, 3)
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", least)
    with pytest.raises(BoundExceeded, match=r"^1225 bases demanding 7154 extensions"):
        check_one_point_extension(stage3, 2, 3)
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", least - 1)
    monkeypatch.setattr(sm, "_extensions", None)
    with pytest.raises(BoundExceeded, match=r"^1225 bases demanding at least 4802 extensions"):
        check_one_point_extension(stage3, 2, 3)
    # the 1,225 bases alone are refused before the catalog is read
    monkeypatch.setattr(sm, "STAGE_WORK_BOUND", 1224)
    with pytest.raises(BoundExceeded, match=r"^bases of up to 2 of 49 atoms"):
        check_one_point_extension(stage3, 2, 3)
    # sizes past the domain add nothing, so a huge k on a tiny model is cheap
    assert check_one_point_extension(empty_model(2), 2, 10**9) == (True, [])


@settings(deadline=None)
@given(st.integers(1, 3), st.integers(0, 70), st.integers(0, 5), st.sampled_from([300, 3000]), st.randoms())
def test_one_point_extension_check_answers_within_its_work_or_refuses(m, n, k, bound, rnd):
    """Random tables on n atoms with gaps: the check answers exactly when its
    counted work is within the bound; past 64 atoms each mask takes two words."""
    domain = tuple(sorted(rnd.sample(range(100), n)))
    model = SelectorModel(m, domain, {P: rnd.choice(P) for P in combinations(domain, m)})
    # the work is at least the bases, so more bases than the bound need not be walked
    bases = sum(math.comb(n, size) for size in range(1, min(k, n + 1)))
    over = bases > bound or check_work(model, m, k) > bound
    with mock.patch("ramseychoice.selector_models.STAGE_WORK_BOUND", bound):
        try:
            check_one_point_extension(model, m, k)
        except BoundExceeded:
            assert over
            return
    assert not over


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
