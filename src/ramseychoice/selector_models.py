"""Finite selector structures and their automorphism-based witnesses.

A selector structure of arity m picks one element from every m-subset of its
domain.  The cyclic construction here builds such a structure whose domain
splits into a pointwise-fixed set S and disjoint cycles matching a blocking
decomposition; the cycle rotation is then a fixed-point-free automorphism
outside S, which is exactly the shape of witness that separates RC_m from
RC_n.  The same module catalogues small structures up to isomorphism and
grows staged homogeneous models by adding witnesses for every one-point
extension type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product

from .decomposition import Decomposition
from .errors import BoundExceeded, CapExceeded, NotBlocking

# build_cyclic_model refuses tables of more atoms (m-subsets times m) before any
# work; atoms, not subsets, because m near the domain gives few, huge subsets.
MODEL_ATOM_BOUND = 10**6
# check_one_point_extension refuses more point types: k = 4, not 5, on stage 3 of m = 2
EXTENSION_TYPE_BOUND = 2 * 10**6
# verify_gcd_claim refuses more (power, subset) steps: q_max = 20 (3.8e7), not 21 (8e7)
CLAIM_STEP_BOUND = 4 * 10**7


@dataclass(frozen=True, eq=True)
class SelectorModel:
    """Arity-m selector: a total choice sel(P) in P over all m-subsets."""

    m: int
    domain: tuple[int, ...]
    sel: dict[tuple[int, ...], int] = field(default_factory=dict)

    def subsets(self):
        return combinations(self.domain, self.m)

    def validate(self) -> None:
        if list(self.domain) != sorted(set(self.domain)):
            raise ValueError(f"domain {self.domain} is not sorted and duplicate-free")
        expected = set(self.subsets())
        if set(self.sel) != expected:
            raise ValueError("sel is not total on the m-subsets of the domain")
        for P, x in self.sel.items():
            if x not in P:
                raise ValueError(f"sel{P} = {x} is not a member of the subset")

    def dump(self) -> str:
        lines = [f"m={self.m} domain={len(self.domain)}"]
        for P in sorted(self.sel):
            lines.append("P={%s} sel=%d" % (",".join(map(str, P)), self.sel[P]))
        return "\n".join(lines)


def empty_model(m: int) -> SelectorModel:
    return SelectorModel(m, (), {})


def find_embeddings(sub: SelectorModel, target: SelectorModel) -> list[tuple[int, ...]]:
    """All structure-preserving injections of sub into target.

    Each embedding is returned as the tuple of images of sub's (sorted)
    domain, in lexicographic order of those tuples.  Images are placed one
    at a time; y is kept for x when its point type over the images so far
    equals x's over the atoms before it, both in positions (see _point_type).
    """
    if sub.m != target.m:
        raise ValueError("arity mismatch")
    m, atoms, placed = sub.m, sub.domain, [()]
    for i, x in enumerate(atoms):
        wanted = _point_type(sub.sel, atoms[:i], x, m)
        placed = [
            images + (y,)
            for images in placed
            for y in target.domain
            if y not in images and _point_type(target.sel, images, y, m) == wanted
        ]
    return placed


def _image(phi, P) -> tuple[int, ...]:
    """The subset phi(P), sorted; phi maps atoms by indexing."""
    return tuple(sorted([phi[a] for a in P]))


def _point_type(sel, atoms, w, m: int) -> tuple:
    """The point type of w over atoms: for each (m-1)-subset, in combinations
    order, the position in atoms of the atom sel picks from it plus w, or None
    for w itself.  Positions let bases with one relabeled table share types.
    """
    picks = (sel[tuple(sorted((*rest, w)))] for rest in combinations(atoms, m - 1))
    return tuple(None if z == w else atoms.index(z) for z in picks)


def are_isomorphic(a: SelectorModel, b: SelectorModel) -> bool:
    if a.m != b.m or len(a.domain) != len(b.domain):
        return False
    return bool(find_embeddings(a, b))


@dataclass(frozen=True)
class CyclicAutomorphism:
    """A selector model together with a cycle-structured automorphism.

    sigma fixes every atom in `fixed` and rotates each block in `cycles`
    forward by one position.
    """

    model: SelectorModel
    fixed: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    sigma: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles)) if self.cycles else 1

    def dump(self) -> str:
        s_line = "S={%s}" % ",".join(map(str, self.fixed))
        cyc = ";".join("(%s)" % ",".join(map(str, c)) for c in self.cycles)
        return self.model.dump() + "\n" + s_line + " cycles=[%s]" % cyc


def build_cyclic_model(m: int, S_size: int, d: Decomposition) -> CyclicAutomorphism:
    """Selector model on S plus one cycle per part of d, equivariant under
    the cycle rotation.

    Subsets meeting S select their least S-element.  A subset P inside the
    cycle region needs a cycle C with gcd(|P n C|, |C|) = 1; P then selects
    the least element of that intersection and the choice is propagated
    along the whole sigma-orbit of P.  When some P has no such cycle the
    per-cycle intersection sizes form an admissible sum hitting m, so the
    decomposition fails to block m; that is reported as NotBlocking, making
    this construction an independent oracle for the blocking test.  If m
    exceeds the domain size there are no m-subsets and the model is valid
    vacuously.  BoundExceeded is raised before any work when the m-subsets
    hold more than MODEL_ATOM_BOUND atoms in all.
    """
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if S_size < 0:
        raise ValueError(f"S_size must be >= 0, got {S_size}")
    N = S_size + d.total
    # C(N, m) >= 2^min(m, N - m) > bound once the exponent reaches the bound's bit length
    if min(m, N - m) >= MODEL_ATOM_BOUND.bit_length() or math.comb(N, m) * m > MODEL_ATOM_BOUND:
        raise BoundExceeded(f"C({N}, {m}) m-subsets hold more than {MODEL_ATOM_BOUND} atoms")
    domain = tuple(range(N))
    sigma = list(domain)
    cycle_of = [None] * S_size  # atom -> index of its cycle
    cycles = []
    parts = d.parts
    for start, length in zip(accumulate(parts, initial=S_size), parts):
        block = tuple(range(start, start + length))
        for i, a in enumerate(block):
            sigma[a] = block[(i + 1) % length]
        cycle_of.extend([len(cycles)] * length)
        cycles.append(block)

    sel: dict[tuple[int, ...], int] = {}
    for P in combinations(domain, m):
        if P in sel:
            continue
        if P[0] < S_size:
            sel[P] = P[0]  # the least S-element
            continue
        meets: dict[int, list[int]] = {}  # P n C per cycle C met, in cycle order
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
        # Push the choice around the orbit of P.  No Q on the way is filled
        # yet: sigma fixes S, so orbits meeting S never reach here, and the
        # other orbits are filled whole, so the first unfilled P starts an
        # unfilled orbit.  The closure check is the gcd claim at work.
        Q, v = _image(sigma, P), sigma[chosen]
        while Q != P:
            sel[Q] = v
            Q, v = _image(sigma, Q), sigma[v]
        if v != chosen:
            raise RuntimeError(f"orbit of {P} closes on a different selection {v}")

    model = SelectorModel(m, domain, sel)
    return CyclicAutomorphism(model, tuple(range(S_size)), tuple(cycles), tuple(sigma))


def verify_equivariance(c: CyclicAutomorphism):
    """Check sel(sigma P) = sigma(sel P) for every subset P.

    One step per subset suffices: by induction on t it gives
    sel(sigma^t P) = sigma^t(sel P) for every power t.  Returns (True, None),
    or (False, P) with the first subset P, in sel order, where the step fails.
    """
    sel, sigma = c.model.sel, c.sigma
    for P, x in sel.items():
        if sel.get(_image(sigma, P)) != sigma[x]:
            return False, P
    return True, None


def witness_no_invariant_choice(c: CyclicAutomorphism, n: int) -> bool:
    """True when sigma moves every atom outside S and that region has size n."""
    fixed = set(c.fixed)
    region = [a for a in c.model.domain if a not in fixed]
    # sigma maps the domain to itself, so sigma[a] outside S means inside the region
    return len(region) == n and all(c.sigma[a] != a and c.sigma[a] not in fixed for a in region)


def verify_gcd_claim(q_max: int):
    """Brute-force the cycle-invariance claim for all cycle lengths up to q_max.

    For each q, each power r of the canonical q-cycle with a non-identity
    action, and each nonempty proper subset fixed setwise by that power, the
    subset size must share a factor with q.  Subsets are bitmasks and the
    cycle power is a rotation, so the check is a full enumeration, not an
    orbit argument.  It takes (q - 1) * (2^q - 2) steps per q; BoundExceeded
    is raised before any work when their sum exceeds CLAIM_STEP_BOUND.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    steps = 0
    for q in range(2, q_max + 1):  # stops at the first q past the bound, so a huge q_max is cheap
        steps += (q - 1) * ((1 << q) - 2)
        if steps > CLAIM_STEP_BOUND:
            raise BoundExceeded(f"cycle lengths up to {q_max} take more than {CLAIM_STEP_BOUND} steps")
    log = {}
    ok = True
    for q in range(2, q_max + 1):
        full = (1 << q) - 1
        checked = 0
        q_ok = True
        for r in range(1, q):
            for s in range(1, full):
                rotated = ((s << r) | (s >> (q - r))) & full
                if rotated != s:
                    continue
                checked += 1
                if math.gcd(s.bit_count(), q) <= 1:
                    q_ok = False
                    ok = False
        log[q] = {"powers": q - 1, "invariant_proper_subsets": checked, "ok": q_ok}
    return ok, log


@lru_cache(maxsize=128)
def _catalog_tables(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    subsets = list(combinations(range(k), m))
    n_subsets = len(subsets)
    if n_subsets > 20:
        raise BoundExceeded(f"{n_subsets} m-subsets exceed the catalog guard of 20")
    if math.factorial(k) > 50_000:
        raise BoundExceeded(f"{k}! relabelings exceed the catalog guard")
    if n_subsets and m**n_subsets > 2_000_000:
        raise BoundExceeded(f"{m}^{n_subsets} selector assignments exceed the catalog guard")
    index = {s: i for i, s in enumerate(subsets)}
    # source[j]: the subset that perm relabels into slot j, found once per perm.
    actions = []
    for perm in permutations(range(k)):
        source = [0] * n_subsets
        for i, s in enumerate(subsets):
            source[index[_image(perm, s)]] = i
        actions.append((perm, source))
    seen = set()
    reps = []
    # Assignments arrive in lexicographic order, so the first member of each
    # isomorphism orbit seen here is its least table, the canonical form.
    for table in product(*subsets):
        if table in seen:
            continue
        reps.append(table)
        for perm, source in actions:
            seen.add(tuple([perm[table[i]] for i in source]))
    return tuple(reps)


def catalog_models(m: int, k: int) -> list[SelectorModel]:
    """All arity-m selector structures on k atoms, one per isomorphism class.

    Representatives carry the lexicographically least sel table of their
    class and are listed in table order.
    """
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    subsets = list(combinations(range(k), m))
    return [
        SelectorModel(m, tuple(range(k)), dict(zip(subsets, table)))
        for table in _catalog_tables(m, k)
    ]


@lru_cache(maxsize=4096)
def _extensions(m: int, k: int, table: tuple[int, ...]) -> tuple[tuple, ...]:
    """The extensions the catalog demands over a k-atom base with this sel
    table in positions: per cataloged R on k + 1 atoms, in catalog order, a
    tuple of (R's sorted table, images, spare atom's point type over images)
    per embedding of the base into R, in find_embeddings order.
    """
    base = SelectorModel(m, tuple(range(k)), dict(zip(combinations(range(k), m), table)))
    return tuple(
        tuple((tuple(sorted(R.sel.items())), images,
               _point_type(R.sel, images, next(x for x in R.domain if x not in images), m))
              for images in find_embeddings(base, R))
        for R in catalog_models(m, k + 1)
    )


@dataclass(frozen=True)
class StageCaps:
    """Limits for one staged extension.

    ground_limit bounds the size of the base subsets receiving witnesses; the
    stage driver sets it to the stage index when left as None.
    """

    ground_limit: int | None = None
    max_new_atoms: int = 512
    max_domain: int = 4096


def build_fraisse_stage(m: int, prev: SelectorModel, caps: StageCaps) -> SelectorModel:
    """Extend prev by one witness per (base subset, extension type, embedding).

    For every subset A of the previous domain within the ground limit, every
    cataloged structure R on |A| + 1 atoms, and every embedding of A's induced
    substructure into R, a fresh atom gets the point type R demands of its
    spare atom, read from _extensions by A's relabeled table; every remaining
    new m-subset selects its largest element.  So every one-point extension
    over such an A is realized; A holding new atoms gets no witness.
    Embeddings are consumed in reverse lexicographic order per R: under the
    max-element completion the highest fresh atoms win all unconstrained
    comparisons, so the last witnesses are the ones pinned down as dominated,
    which for m = 2 also realizes each extension over one new atom at stage 2.
    """
    prev.validate()
    if prev.domain != tuple(range(len(prev.domain))):
        raise ValueError("previous stage domain must be the initial segment 0..s-1")
    limit = caps.ground_limit if caps.ground_limit is not None else len(prev.domain)
    grounds = []
    for size in range(0, min(limit, len(prev.domain)) + 1):
        grounds.extend(combinations(prev.domain, size))

    a = base = len(prev.domain)  # a: the next fresh atom
    sel = dict(prev.sel)
    for A in grounds:
        table = tuple(A.index(prev.sel[P]) for P in combinations(A, m))
        for per_R in _extensions(m, len(A), table):
            for _, _, demanded in reversed(per_R):
                if a - base >= caps.max_new_atoms:
                    raise CapExceeded(
                        f"stage needs more than {caps.max_new_atoms} fresh atoms",
                        report={"atoms_planned": a - base, "ground": A},
                    )
                if a >= caps.max_domain:
                    raise CapExceeded(
                        f"stage domain would exceed {caps.max_domain}",
                        report={"atoms_planned": a - base, "ground": A},
                    )
                for rest, z in zip(combinations(A, m - 1), demanded):
                    sel[rest + (a,)] = a if z is None else A[z]  # sorted: a exceeds all of A
                a += 1

    domain = tuple(range(a))
    for Q in combinations(domain, m):
        if Q not in sel:
            sel[Q] = Q[-1]  # completion rule: the largest element

    return SelectorModel(m, domain, sel)


def run_fraisse_stages(m: int, stages: int, caps: StageCaps | None = None) -> list[SelectorModel]:
    """Run the staged construction from the empty structure.

    Returns the chain of models, starting with the empty stage 0.  When caps
    leaves ground_limit unset, stage i gets witnesses over ground subsets of
    size <= i - 1, so it realizes every one-point extension over every A
    inside the domain of stage i - 1 with |A| <= i - 1.
    """
    caps = caps or StageCaps()
    chain = [empty_model(m)]
    for i in range(stages):
        eff = replace(caps, ground_limit=i) if caps.ground_limit is None else caps
        chain.append(build_fraisse_stage(m, chain[-1], eff))
    return chain


def check_one_point_extension(model: SelectorModel, m: int, k: int):
    """Is every one-point extension of every small substructure realized?

    For each nonempty subset A of the domain with |A| < k, each cataloged
    structure R on |A| + 1 atoms, and each embedding of A's substructure
    into R, some atom outside A must have the point type R demands of its
    spare atom, as read from _extensions by A's relabeled table.  One pass
    over sel builds the pick masks: picks[rest][z] holds a bit per atom w,
    by position in the domain, with sel(rest + w) = z, or z = None when w
    itself is picked.  A demanded type is realized exactly when the AND of
    its picks over the (m - 1)-subsets of A, less A's own bits, is nonzero.
    BoundExceeded is raised before any work when the pairs (A, w) number
    more than EXTENSION_TYPE_BOUND.  Returns (ok, missing) where missing
    lists (A, R table, embedding images) for every unrealized extension.
    Stage i of run_fraisse_stages passes for A inside stage i - 1 with
    |A| <= i - 1; other A may miss: stage 3 for m = 2 misses 996 extensions
    at k = 3, each over an A with a stage-3 atom.
    """
    if model.m != m:
        raise ValueError("arity mismatch")
    N = len(model.domain)
    sizes = range(1, min(k, N + 1))
    cost = sum(math.comb(N, s) * (N - s) for s in sizes)
    if cost > EXTENSION_TYPE_BOUND:
        raise BoundExceeded(f"{cost} point types for k = {k} on {N} atoms exceed {EXTENSION_TYPE_BOUND}")
    bit = {a: 1 << i for i, a in enumerate(model.domain)}
    picks: dict[tuple[int, ...], dict[int | None, int]] = {}
    # only an A of at least m - 1 atoms reads picks; without one, skip the pass
    entries = model.sel.items() if sizes and sizes[-1] >= m - 1 else ()
    for P, x in entries:
        for i, w in enumerate(P):
            by_pick = picks.setdefault(P[:i] + P[i + 1:], {})
            z = None if w == x else x
            by_pick[z] = by_pick.get(z, 0) | bit[w]
    everyone = (1 << N) - 1
    missing = []
    for size in sizes:
        for A in combinations(model.domain, size):
            outside = everyone ^ sum(bit[a] for a in A)
            rows = [picks.get(rest, {}) for rest in combinations(A, m - 1)]
            table = tuple(A.index(model.sel[P]) for P in combinations(A, m))
            for per_R in _extensions(m, size, table):
                for R_tab, images, demanded in per_R:
                    mask = outside
                    for by_pick, z in zip(rows, demanded):
                        mask &= by_pick.get(z if z is None else A[z], 0)
                    if not mask:
                        missing.append((A, R_tab, images))
    return not missing, missing
