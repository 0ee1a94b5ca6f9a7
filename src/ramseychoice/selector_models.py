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
from functools import lru_cache
from itertools import accumulate, combinations, groupby, islice
from operator import eq, itemgetter

from .decomposition import Decomposition, set_bits
from .errors import BoundExceeded, NotBlocking
from .records import Record, _rebuilt

# build_cyclic_model refuses tables of more atoms (m-subsets times m) before any
# work; atoms, not subsets, because m near the domain gives few, huge subsets.
MODEL_ATOM_BOUND = 10**6
# verify_gcd_claim refuses more (power, subset) tests, one bit of a 2^q-bit slice
# AND each: q_max = 20 (3.8e7 tests, 20 slices of 128 KiB at q = 20), not 21 (8e7)
CLAIM_STEP_BOUND = 4 * 10**7
# run_fraisse_stages refuses more bases walked plus atoms and m-subsets held, summed
# over its stages: fraisse 5 3 (1,906,952, 1.7 s) answers, 6 3 not.  The one-point
# extension check counts its own work against it: k = 4, not 5, on stage 3 of m = 2.
STAGE_WORK_BOUND = 2 * 10**6


def _comb_over(n: int, k: int, budget: int) -> bool:
    """C(n, k) > budget, answered without math.comb when budget < 0 or when
    C(n, k) >= 2^min(k, n - k) already exceeds it: a huge C(n, k) is never built."""
    return budget < 0 or min(k, n - k) >= budget.bit_length() or math.comb(n, k) > budget


def _subsets(pool, r: int):
    """combinations(pool, r), empty at once when r exceeds the pool: combinations
    itself allocates r indices before it looks at the pool."""
    return combinations(pool, r) if r <= len(pool) else iter(())


class SelectorModel(Record):
    """Arity-m selector: a total choice sel(P) in P over all m-subsets; sel defaults to a new {}."""

    __slots__ = ("m", "domain", "sel")

    def __new__(cls, m: int, domain: tuple[int, ...], sel: dict[tuple[int, ...], int] | None = None):
        return _rebuilt(cls, (m, domain, {} if sel is None else sel))

    def subsets(self):
        return _subsets(self.domain, self.m)

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
    picks = (sel[tuple(sorted((*rest, w)))] for rest in _subsets(atoms, m - 1))
    return tuple(None if z == w else atoms.index(z) for z in picks)


def are_isomorphic(a: SelectorModel, b: SelectorModel) -> bool:
    if a.m != b.m or len(a.domain) != len(b.domain):
        return False
    return bool(find_embeddings(a, b))


class CyclicAutomorphism(Record):
    """A selector model together with a cycle-structured automorphism.

    sigma fixes every atom in `fixed` and rotates each block in `cycles`
    forward by one position.
    """

    __slots__ = ("model", "fixed", "cycles", "sigma")

    def __new__(
        cls, model: SelectorModel, fixed: tuple[int, ...], cycles: tuple[tuple[int, ...], ...],
        sigma: tuple[int, ...],
    ) -> CyclicAutomorphism:
        return _rebuilt(cls, (model, fixed, cycles, sigma))

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

    The subsets meeting S are the first C(N, m) - C(|d|, m) combinations,
    and a second combinations iterator pairs each with its least element in
    C.  Only the cycle region is walked in Python: each unfilled subset
    starts an orbit, whose members are sorted images taken one step at a
    time.  No table of the images of all region subsets is built, since
    holding one beside sel would double the peak memory at the atom bound.
    """
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if S_size < 0:
        raise ValueError(f"S_size must be >= 0, got {S_size}")
    N = S_size + d.total
    if _comb_over(N, m, MODEL_ATOM_BOUND // m):  # C(N, m) * m > MODEL_ATOM_BOUND
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

    # the subsets meeting S come first and pick their least, an S-element
    head = math.comb(N, m) - math.comb(d.total, m)
    sel = dict(zip(islice(_subsets(domain, m), head), map(itemgetter(0), _subsets(domain, m))))
    image, cycle = sigma.__getitem__, cycle_of.__getitem__
    for P in _subsets(domain[S_size:], m):
        if P in sel:
            continue
        for i, xs in groupby(P, cycle):  # P n C per cycle C met, in cycle order
            xs = list(xs)
            if math.gcd(len(xs), parts[i]) == 1:
                chosen = xs[0]
                break
        else:
            sizes = tuple(sum(cycle(a) == i for a in P) for i in range(len(cycles)))
            raise NotBlocking(
                f"subset {P} meets the cycles in sizes {sizes}, each sharing a "
                f"factor with its cycle length; {d} admits m = {m}"
            )
        sel[P] = chosen
        # Push the choice around the orbit of P.  No Q on the way is filled
        # yet: sigma fixes S, so orbits meeting S never reach here, and the
        # other orbits are filled whole, so the first unfilled P starts an
        # unfilled orbit.  The closure check is the gcd claim at work.
        Q, v = tuple(sorted(map(image, P))), image(chosen)
        while Q != P:
            sel[Q] = v
            Q, v = tuple(sorted(map(image, Q))), image(v)
        if v != chosen:
            raise RuntimeError(f"orbit of {P} closes on a different selection {v}")

    model = SelectorModel(m, domain, sel)
    return CyclicAutomorphism(model, tuple(range(S_size)), tuple(cycles), tuple(sigma))


def verify_equivariance(c: CyclicAutomorphism):
    """Check sel(sigma P) = sigma(sel P) for every subset P.

    One step per subset suffices: by induction on t it gives
    sel(sigma^t P) = sigma^t(sel P) for every power t.  Returns (True, None),
    or (False, P) with the first subset P, in sel order, where the step fails.

    Combinations of the sigma-images of the domain run in lockstep with the
    combinations of the domain and yield each subset's image unsorted, so
    the steps are streamed through C iterators with no list or image table
    built.  The stream runs when the domain is duplicate-free and sel has as
    many keys as the domain has m-subsets; if it finds every subset in sel,
    those are all the keys, so every entry is tested.  When the stream finds
    a failure or a malformed entry (a missing subset, a selection sigma
    cannot map), the sel-order walk runs instead and gives the answer: the
    counterexample, or the exception the entry raises.
    """
    sel, sigma, domain, m = c.model.sel, c.sigma, c.model.domain, c.model.m
    try:
        if len(sel) == math.comb(len(domain), m) and len(set(domain)) == len(domain):
            images = map(tuple, map(sorted, _subsets([sigma[a] for a in domain], m)))
            picks = map(sel.get, _subsets(domain, m))
            if all(map(eq, map(sel.get, images), map(sigma.__getitem__, picks))):
                return True, None
    except (KeyError, TypeError, IndexError, ValueError):
        pass
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


def _bit_slices(q: int) -> list[int]:
    """q slices of the 2^q subsets of q atoms: bit s of slices[i] is bit i of s."""
    slices = []
    for i in range(q):
        width = 2 << i
        pattern = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros, then 2^i ones
        while width < 1 << q:
            pattern |= pattern << width
            width <<= 1
        slices.append(pattern)
    return slices


def _fixed_subsets(slices: list[int], r: int) -> int:
    """Bit s is set when s is a nonempty proper subset that rotation by r fixes.

    The rotation fixes s exactly when bit j of s equals bit j - r for every
    j, and each AND below makes that test for all 2^q subsets at once.
    """
    fixed = (1 << (1 << len(slices)) - 1) - 2  # every subset but the empty and the full one
    for j, x in enumerate(slices):
        fixed &= ~(x ^ slices[j - r])
    return fixed


def verify_gcd_claim(q_max: int):
    """Brute-force the cycle-invariance claim for all cycle lengths up to q_max.

    For each q, each power r of the canonical q-cycle with a non-identity
    action, and each nonempty proper subset fixed setwise by that power, the
    subset size must share a factor with q.  Subsets are bitmasks and the
    cycle power is a rotation.  The subsets are bit-sliced: bit s of a
    2^q-bit integer stands for subset s, and q ANDs over the slices give
    every subset that rotation r fixes (_fixed_subsets).  A step is one bit
    of such an AND, the test of one (power, subset) pair, so the check is
    still a full enumeration, not an orbit argument.  It takes
    (q - 1) * (2^q - 2) steps per q; BoundExceeded is raised before any
    work when their sum exceeds CLAIM_STEP_BOUND.
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
        slices = _bit_slices(q)
        checked = 0
        q_ok = True
        for r in range(1, q):
            for s in set_bits(_fixed_subsets(slices, r)):
                checked += 1
                if math.gcd(s.bit_count(), q) <= 1:
                    q_ok = False
                    ok = False
        log[q] = {"powers": q - 1, "invariant_proper_subsets": checked, "ok": q_ok}
    return ok, log


def _relabeling(perm, subsets, m: int, n_low: int) -> tuple[list[int], list[int]]:
    """The action of the relabeling perm on table codes, as two lookup lists.

    perm sends the atom in position p of subset i to the atom in position q
    of subset j, so it moves digit p of slot i to digit q of slot j.  Each
    slot's digit lands on its own, so the image of a code is a sum of one
    term per slot: lo[code % m**n_low] sums the terms of the n_low last
    slots, hi[code // m**n_low] those of the others.  The catalog reads it,
    and so does rc24's equivariance check: an orientation number is the code
    of an arity-2 table on 4 atoms with the pairs in reverse order.
    """
    s = len(subsets)
    index = {S: i for i, S in enumerate(subsets)}
    terms = []  # terms[i][p]: what digit p in slot i adds to the image code
    for S in subsets:
        T = _image(perm, S)
        weight = m ** (s - 1 - index[T])
        terms.append([T.index(perm[a]) * weight for a in S])
    lo, hi = [0], [0]
    for i, slot in enumerate(terms):  # slot order: each new digit is the least so far
        half = lo if i >= s - n_low else hi
        half[:] = [x + t for x in half for t in slot]
    return lo, hi


@lru_cache(maxsize=128)
def _catalog_tables(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least sel table of every isomorphism class, in order.

    A table picks digit i, the position of its atom in subset i, for every
    m-subset in combinations order; its code reads those digits base m with
    slot 0 the most significant, so code order is table order.  Two
    relabelings generate S_k, the transposition (0 1) and the k-cycle, so a
    class is the closure of any member under both (_relabeling).  Codes are
    scanned upwards and each class is closed as soon as its first code
    appears; every smaller code then lies in a class already closed, so that
    first code is the least of its class.  The work is two relabelings per
    code, not k! per class, and the memory is one byte per code (m^s with s
    subsets, at most 2*10^6 under the guards) plus four lookup lists of
    about m^(s/2) entries each.
    """
    if k > 20:  # first, so math.comb stays small; for m < k it means over 20 subsets too
        raise BoundExceeded(f"{k} atoms exceed the catalog guard of 20")
    n_subsets = math.comb(k, m)
    if n_subsets > 20:
        raise BoundExceeded(f"{n_subsets} m-subsets exceed the catalog guard of 20")
    if n_subsets and m**n_subsets > 2_000_000:
        raise BoundExceeded(f"{m}^{n_subsets} selector assignments exceed the catalog guard")
    subsets = list(_subsets(range(k), m))
    n_low = n_subsets // 2
    L = m**n_low
    # below k = 2 there is one table and S_k is trivial
    perms = ((1, 0, *range(2, k)), (*range(1, k), 0)) if k > 1 else ((0,), (0,))
    (swap_lo, swap_hi), (cycle_lo, cycle_hi) = (_relabeling(p, subsets, m, n_low) for p in perms)
    seen = bytearray(m**n_subsets)
    tables = []
    code = 0
    while code >= 0:
        rest, digits = code, []
        for _ in subsets:
            rest, p = divmod(rest, m)
            digits.append(p)
        tables.append(tuple(S[p] for S, p in zip(subsets, reversed(digits))))
        orbit = [code]
        seen[code] = 1
        for c in orbit:  # grows while walked: a breadth-first closure
            r, q = c % L, c // L
            d = swap_lo[r] + swap_hi[q]
            if not seen[d]:
                seen[d] = 1
                orbit.append(d)
            d = cycle_lo[r] + cycle_hi[q]
            if not seen[d]:
                seen[d] = 1
                orbit.append(d)
        code = seen.find(0, code + 1)
    return tuple(tables)


def catalog_models(m: int, k: int) -> list[SelectorModel]:
    """All arity-m selector structures on k atoms, one per isomorphism class.

    Representatives carry the lexicographically least sel table of their
    class and are listed in table order.
    """
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    tables = _catalog_tables(m, k)
    subsets = list(_subsets(range(k), m))
    return [SelectorModel(m, tuple(range(k)), dict(zip(subsets, table))) for table in tables]


def _extension_guard(m: int, k: int) -> None:
    """Refuse k-atom bases as _extensions does: (k + 1)! > 50,000, then the catalog's guards."""
    if math.factorial(k + 1) > 50_000:
        raise BoundExceeded(f"{k + 1}! embeddings into {k + 1} atoms exceed the extension guard")
    _catalog_tables(m, k + 1)


@lru_cache(maxsize=4096)
def _extensions(m: int, k: int, table: tuple[int, ...]) -> tuple[tuple, ...]:
    """The extensions the catalog demands over a k-atom base with this sel
    table in positions: (R's sorted table, images, spare atom's point type
    over images) per cataloged R on k + 1 atoms, in catalog order, and per
    embedding of the base into R, in find_embeddings order.  For every m
    a k + 1 with (k + 1)! > 50,000 raises BoundExceeded before any is listed
    (_extension_guard): m = 1 or m > k leaves all (k + 1)! injections
    embeddings, and for other m the catalog's guards refuse such a k + 1.
    """
    _extension_guard(m, k)
    base = SelectorModel(m, tuple(range(k)), dict(zip(_subsets(range(k), m), table)))
    return tuple(
        (tuple(sorted(R.sel.items())), images,
         _point_type(R.sel, images, next(x for x in R.domain if x not in images), m))
        for R in catalog_models(m, k + 1) for images in find_embeddings(base, R)
    )


def _count_bases(model: SelectorModel, m: int, sizes: range, spent: int) -> int:
    """The number of bases A of model's domain with |A| in sizes, which _grounds
    lists.  BoundExceeded is raised when spent plus the bases exceeds
    STAGE_WORK_BOUND, then at the first size _extension_guard refuses."""
    N = len(model.domain)
    # sizes 0 or 1 to t <= N hold 2^t - 1 bases or more: past the bound's bit length, refused unsummed
    over = len(sizes) > STAGE_WORK_BOUND.bit_length()
    bases = 0 if over else sum(math.comb(N, s) for s in sizes)
    if over or spent + bases > STAGE_WORK_BOUND:
        raise BoundExceeded(f"bases of up to {sizes.stop - 1} of {N} atoms take the stages "
                            f"over the stage work bound {STAGE_WORK_BOUND}")
    for size in sizes:
        _extension_guard(m, size)
    return bases


def _grounds(model: SelectorModel, m: int, sizes: range) -> list[tuple]:
    """Each base A of model's domain with |A| in sizes, in combinations order, with
    _extensions(m, |A|, A's relabeled table); _count_bases refuses them first."""
    return [(A, _extensions(m, size, tuple(A.index(model.sel[P]) for P in _subsets(A, m))))
            for size in sizes for A in _subsets(model.domain, size)]


def build_fraisse_stage(m: int, prev: SelectorModel, *, ground_limit: int | None = None,
                        spent: int = 0) -> SelectorModel:
    """Extend prev by one witness per (base subset, extension type, embedding).

    For every subset A of the previous domain of at most ground_limit atoms
    (any when None), every cataloged structure R on |A| + 1 atoms, and every
    embedding of A's induced substructure into R, a fresh atom gets the point
    type R demands of its spare atom, read from _extensions by A's relabeled
    table (_grounds); every remaining new m-subset selects its largest
    element.  So every one-point extension over such an A is realized; A
    holding new atoms gets no witness.  Embeddings are consumed in reverse
    lexicographic order per R: under the max-element completion the highest
    fresh atoms win all unconstrained comparisons, so the last witnesses are
    the ones pinned down as dominated, which for m = 2 also realizes each
    extension over one new atom at stage 2.  BoundExceeded is raised before
    any write when spent, the earlier stages' work, plus the bases, then
    plus the stage's atoms and m-subsets, exceeds STAGE_WORK_BOUND.
    """
    prev.validate()
    if prev.domain != tuple(range(len(prev.domain))):
        raise ValueError("previous stage domain must be the initial segment 0..s-1")
    if ground_limit is not None and ground_limit < 0:
        raise ValueError(f"need ground_limit >= 0, got {ground_limit}")
    a = base = len(prev.domain)  # a: the next fresh atom
    limit = base if ground_limit is None else ground_limit
    sizes = range(min(limit, base) + 1)
    bases = _count_bases(prev, m, sizes, spent)
    grounds = _grounds(prev, m, sizes)
    N = base + sum(len(per_A) for _, per_A in grounds)
    spent += bases + N
    if _comb_over(N, m, STAGE_WORK_BOUND - spent):
        raise BoundExceeded(f"C({N}, {m}) m-subsets and {N} atoms take the stages over the stage "
                            f"work bound {STAGE_WORK_BOUND}")

    sel = dict(prev.sel)
    for A, per_A in grounds:
        for _, per_R in groupby(per_A, itemgetter(0)):  # one R's embeddings, by its table
            for _, _, demanded in reversed(list(per_R)):
                for rest, z in zip(_subsets(A, m - 1), demanded):
                    sel[rest + (a,)] = a if z is None else A[z]  # sorted: a exceeds all of A
                a += 1

    domain = tuple(range(a))
    for Q in _subsets(domain, m):
        if Q not in sel:
            sel[Q] = Q[-1]  # completion rule: the largest element

    return SelectorModel(m, domain, sel)


def run_fraisse_stages(m: int, stages: int, *, ground_limit: int | None = None) -> list[SelectorModel]:
    """Run the staged construction from the empty structure.

    Returns the chain of models, starting with the empty stage 0.  With
    ground_limit unset, stage i gets witnesses over ground subsets of
    size <= i - 1, so it realizes every one-point extension over every A
    inside the domain of stage i - 1 with |A| <= i - 1.  Each stage checks
    the chain's work against STAGE_WORK_BOUND before it writes.  Stage i
    walks the empty base and holds i atoms and C(i, m) subsets at least, so
    stages + C(stages + 1, 2) + C(stages + 1, m + 1) over the bound is
    refused before any stage; with ground_limit 0 that is exactly the
    chain's work.
    """
    if m < 1 or stages < 0:
        raise ValueError(f"need m >= 1 and stages >= 0, got ({m}, {stages})")
    if ground_limit is not None and ground_limit < 0:
        raise ValueError(f"need ground_limit >= 0, got {ground_limit}")
    n, k = stages + 1, m + 1
    if _comb_over(n, k, STAGE_WORK_BOUND - stages - math.comb(n, 2)):
        raise BoundExceeded(f"at least {stages} bases, C({n}, 2) atoms and C({n}, {k}) m-subsets "
                            f"take the stages over the stage work bound {STAGE_WORK_BOUND}")
    chain = [empty_model(m)]
    spent = 0
    for i in range(stages):
        prev, limit = chain[-1], i if ground_limit is None else ground_limit
        chain.append(build_fraisse_stage(m, prev, ground_limit=limit, spent=spent))
        bases = sum(math.comb(len(prev.domain), s) for s in range(min(limit, len(prev.domain)) + 1))
        spent += bases + len(chain[-1].domain) + len(chain[-1].sel)
    return chain


def check_one_point_extension(model: SelectorModel, m: int, k: int):
    """Is every one-point extension of every small substructure realized?

    For each nonempty subset A of the domain with |A| < k, each cataloged
    structure R on |A| + 1 atoms, and each embedding of A's substructure
    into R, some atom outside A must have the point type R demands of its
    spare atom, as read from _extensions by A's relabeled table (_grounds).
    One pass over sel builds the pick masks: picks[rest][z] holds a bit per
    atom w, by position in the domain, with sel(rest + w) = z, or z = None
    when w itself is picked.  A demanded type is realized exactly when the
    AND of its picks over the (m - 1)-subsets of A, less A's own bits, is
    nonzero.  The work is m per sel entry, plus ceil(N / 64) words per base
    (its N-bit mask) and per demanded extension (its AND chain).  Past
    _count_bases' refusals, BoundExceeded is raised before any base is listed
    when that work with a lower bound for the demanded extensions exceeds
    STAGE_WORK_BOUND, and again before the pick pass with their exact count.
    A base of s atoms demands at least m^C(s, m - 1) extensions, one per
    point type of the spare atom, so the first refusal never refuses a check
    the second admits.  Returns (ok, missing) where missing lists (A, R table,
    embedding images) for every unrealized extension.  Stage 3 for m = 2
    misses 996 extensions at k = 3, each over an A with a stage-3 atom.
    """
    if model.m != m:
        raise ValueError("arity mismatch")
    N = len(model.domain)
    sizes = range(1, min(k, N + 1))
    bases = _count_bases(model, m, sizes, 0)
    if not bases:  # nothing to check, so no N-bit masks either
        return True, []
    # only an A of at least m - 1 atoms reads picks; without one, skip the pass
    entries = model.sel.items() if sizes[-1] >= m - 1 else ()

    def refuse_over_bound(demands: int, qualifier: str) -> None:
        if (bases + demands) * -(-N // 64) + len(entries) * m > STAGE_WORK_BOUND:
            raise BoundExceeded(f"{bases} bases demanding {qualifier}{demands} extensions and {len(entries)} "
                                f"m-subsets on {N} atoms exceed the stage work bound {STAGE_WORK_BOUND}")

    refuse_over_bound(sum(math.comb(N, s) * m ** math.comb(s, m - 1) for s in sizes), "at least ")
    grounds = _grounds(model, m, sizes)
    refuse_over_bound(sum(len(per_A) for _, per_A in grounds), "")
    bit = {a: 1 << i for i, a in enumerate(model.domain)}
    picks: dict[tuple[int, ...], dict[int | None, int]] = {}
    for P, x in entries:
        for i, w in enumerate(P):
            by_pick = picks.setdefault(P[:i] + P[i + 1:], {})
            z = None if w == x else x
            by_pick[z] = by_pick.get(z, 0) | bit[w]
    everyone = (1 << N) - 1
    missing = []
    for A, per_A in grounds:
        outside = everyone ^ sum(bit[a] for a in A)
        rows = [picks.get(rest, {}) for rest in _subsets(A, m - 1)]
        for R_tab, images, demanded in per_A:
            mask = outside
            for by_pick, z in zip(rows, demanded):
                mask &= by_pick.get(z if z is None else A[z], 0)
            if not mask:
                missing.append((A, R_tab, images))
    return not missing, missing
