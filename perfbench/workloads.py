"""The four benchmark workloads: seeded inputs, the timed job, and the checks.

Every workload runs in a fresh process, so the library's caches start cold
as they do for each CLI invocation.  The library only ever sees the inputs
generated here.  Why each workload exists:

* grid: about 20k classify_detailed calls over 2..300 x 2..300, packed into
  a ScanReport and written with to_csv.  The everyday use: recipe dispatch,
  many tiny DP checks and small Goldbach enumerations.  No pair in this box
  needs the exhaustive fallback, so the partition search never runs.
* oracle: the whole box 2..50 x 2..50 with oracle=True; the seed only
  permutes the order, so every seed does the same work.  Dominated by the
  full partition scans on the 49 diagonal pairs.
* large: classify at n around 10^4..3*10^4 in three strata (odd n, even n
  with the odd prime divisor 3 not dividing m, n a power of two with even m).
  Number theory and wide-mask DP dominate; n is above the exhaustive bound,
  so the partition search never runs.
* witness: cyclic selector models for small pairs, plus the catalog, the
  staged construction with its one-point-extension check, the cycle gcd
  claim and the RC_2 => RC_4 checks.  The only workload that reaches
  selector_models and rc24.  Its task costs span four orders of magnitude,
  so a seeded subset would move the medians from seed to seed; like oracle
  it runs a fixed task set in seeded order.

The large workload draws n from the middle of equal-width slices of each
stratum's range, so that the cost of a job barely moves between seeds.
"""

from __future__ import annotations

import csv
import math
import random
import time

import reference

NAMES = ("grid", "oracle", "large", "witness")

# Tail percentile per workload: the highest of 99, 90 and 50 with at least
# ten items beyond it.
TAIL_PERCENTILE = {"grid": 99, "oracle": 99, "large": 90, "witness": 90}
MIN_REPS = 4

GRID_MAX = 300
GRID_PER_N = 67  # 299 values of n x 67 values of m = 20,033 pairs
ORACLE_MAX = 50
LARGE_STRATA = {
    # stratum: (items, lowest n, highest n)
    "odd": (12, 10_001, 16_001),
    "divisor": (20, 10_002, 30_002),
    "pow2": (68, 2**14, 2**15),
}
WITNESS_MAX_M = 7
WITNESS_MAX_N = 17
WITNESS_MAX_S = 4
WITNESS_MAX_SUBSETS = 1000  # keeps each model task well under 0.1 s
CATALOG = (3, 5)
FRAISSE = (2, 3)  # arity, stages; the extension check uses k = stages
GCD_QMAX = 14


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One uniform draw from the middle fifth of each of count equal slices
    of [lo, hi): the sizes vary with the seed, their spread of costs does not."""
    width = (hi - lo) / count
    return [int(lo + width * (i + 0.4 + 0.2 * rng.random())) for i in range(count)]


def generate(name: str, seed: int) -> list[tuple]:
    """The workload's items, a pure function of the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "grid":
        span = range(2, GRID_MAX + 1)
        items = [("pair", m, n) for n in span for m in rng.sample(span, GRID_PER_N)]
    elif name == "oracle":
        span = range(2, ORACLE_MAX + 1)
        items = [("pair", m, n) for m in span for n in span]
    elif name == "large":
        items = []
        count, lo, hi = LARGE_STRATA["odd"]
        for n in _strata(rng, count, lo, hi):
            # The number of Goldbach triples of n, and so the cost, moves by
            # half with 3 | n; n = 1 mod 30 keeps 2, 3 and 5 out of n.
            items.append(("odd", rng.randrange(2, 500), n - n % 30 + 1))
        count, lo, hi = LARGE_STRATA["divisor"]
        for n in _strata(rng, count, lo, hi):
            m = rng.choice([m for m in range(4, 500, 2) if m % 3])
            items.append(("divisor", m, n - n % 6))
        count, lo, hi = LARGE_STRATA["pow2"]
        for i in range(count):
            items.append(("pow2", rng.randrange(4, 500, 2), lo if i % 2 else hi))
    elif name == "witness":
        items = [
            ("model", m, n, s)
            for m in range(2, WITNESS_MAX_M + 1)
            for n in range(2, WITNESS_MAX_N + 1)
            for s in range(WITNESS_MAX_S + 1)
            if not reference.theorem_provable(m, n)
            and math.comb(s + n, m) <= WITNESS_MAX_SUBSETS
        ]
        items += [("catalog",) + CATALOG, ("fraisse",) + FRAISSE, ("gcd_claim", GCD_QMAX), ("rc24",)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng.shuffle(items)
    return items


def item_counts(items) -> dict[str, int]:
    counts: dict[str, int] = {}
    for item in items:
        counts[item[0]] = counts.get(item[0], 0) + 1
    return counts


# --- the timed job ---------------------------------------------------------


def _call(rc, item, oracle: bool):
    kind = item[0]
    if kind == "pair":
        return rc.classify_detailed(item[1], item[2], oracle=oracle)
    if kind in LARGE_STRATA:
        return rc.classify(item[1], item[2])
    if kind == "model":
        _, m, n, s = item
        trace = rc.build_certificate(m, n)
        model = rc.build_cyclic_model(m, s, trace.decomposition)
        return trace, model, rc.verify_equivariance(model), rc.witness_no_invariant_choice(model, n)
    if kind == "catalog":
        return rc.catalog_models(item[1], item[2])
    if kind == "fraisse":
        chain = rc.run_fraisse_stages(item[1], item[2])
        return chain, rc.check_one_point_extension(chain[-1], item[1], item[2])
    if kind == "gcd_claim":
        return rc.verify_gcd_claim(item[1])
    if kind == "rc24":
        return rc.verify_rc24(), rc.check_equivariance()
    raise ValueError(f"unknown item kind {kind!r}")


class ItemError:
    """Stands in for the result of an item whose library call raised."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"


def run(name: str, rc, items, meter):
    """Run the job; returns (wall seconds, per-item seconds, per-item start
    times, results, extra).

    Between items meter samples the host's speed (see speed.py); the wall
    time leaves those samples out.  extra is the grid's CSV text and None
    elsewhere.
    """
    clock = time.perf_counter
    oracle = name == "oracle"
    latencies = []
    starts = []
    results = []
    meter.sample()
    calibrating = meter.spent
    start = clock()
    for item in items:
        meter.tick()
        t0 = clock()
        try:
            result = _call(rc, item, oracle)
        except Exception as exc:  # a failed item is counted, not fatal
            result = ItemError(exc)
        latencies.append(clock() - t0)
        starts.append(t0)
        results.append(result)
    extra = _scan_csv(rc, items, results) if name == "grid" else None
    wall = clock() - start - (meter.spent - calibrating)
    meter.sample()
    return wall, latencies, starts, results, extra


def _scan_row(cli, item, result):
    cls_, trace = result
    return cli.ScanRow(
        item[1],
        item[2],
        cls_.verdict.value,
        cls_.reason.value,
        trace.recipe.value if trace is not None else None,
        trace.decomposition.parts if trace is not None else None,
    )


def _scan_csv(rc, items, results) -> str:
    cli = rc.cli
    rows = [_scan_row(cli, i, r) for i, r in zip(items, results) if not isinstance(r, ItemError)]
    return cli.ScanReport(GRID_MAX, GRID_MAX, rows).to_csv()


# --- checks and canonical output -------------------------------------------


def _pairs(table: dict) -> list:
    return sorted([list(k), v] for k, v in table.items())


def _check_pair(item, result):
    _, m, n = item
    cls_, trace = result
    parts = list(cls_.certificate.parts) if cls_.certificate is not None else None
    problem = reference.check_classification(m, n, cls_.verdict.value, cls_.reason.value, parts)
    if problem is None and parts is not None:
        if trace is None or list(trace.decomposition.parts) != parts:
            problem = f"({m}, {n}): recipe trace and certificate differ"
        elif cls_.achievable_for_certificate.bits >> m & 1:
            problem = f"({m}, {n}): achievable sums contain m"
    record = [m, n, cls_.verdict.value, cls_.reason.value, parts]
    if trace is not None:
        record += [trace.recipe.value, list(trace.narrative)]
    return problem, record


def _check_large(item, cls_):
    kind, m, n = item
    parts = list(cls_.certificate.parts) if cls_.certificate is not None else None
    problem = reference.check_classification(m, n, cls_.verdict.value, cls_.reason.value, parts)
    ach = cls_.achievable_for_certificate
    if problem is None and (ach.total != n or ach.bits >> m & 1):
        problem = f"({m}, {n}): achievable sums disagree with the certificate"
    return problem, [kind, m, n, cls_.verdict.value, parts, format(ach.bits, "x")]


def _check_model(item, result):
    _, m, n, s = item
    trace, c, equivariant, witness = result
    parts = list(trace.decomposition.parts)
    problem = reference.check_certificate(m, n, parts)
    if problem is None:
        problem = reference.check_cyclic_model(m, s, parts, c.model.domain, c.model.sel, c.sigma)
    if problem is None and tuple(equivariant) != (True, None):
        problem = f"({m}, {n}, S={s}): verify_equivariance reports {equivariant}"
    if problem is None and witness is not True:
        problem = f"({m}, {n}, S={s}): no witness of a choice-free failure"
    record = [m, n, s, trace.recipe.value, parts, list(trace.narrative), _pairs(c.model.sel),
              [list(cyc) for cyc in c.cycles], list(c.sigma)]
    return problem, record


def _check_catalog(item, models):
    _, m, k = item
    tables = [[model.sel[P] for P in sorted(model.sel)] for model in models]
    classes = reference.burnside_class_count(m, k)
    problem = next(filter(None, (reference.check_selector_table(m, x.domain, x.sel) for x in models)), None)
    if problem is None and any(a >= b for a, b in zip(tables, tables[1:])):
        problem = "catalog tables are not strictly ascending"
    if problem is None and len(models) != classes:
        problem = f"catalog has {len(models)} classes, Burnside counts {classes}"
    return problem, [m, k, tables]


def _check_fraisse(item, result):
    _, m, stages = item
    chain, (complete, missing) = result
    problem = None
    for prev, stage in zip(chain, chain[1:]):
        problem = reference.check_selector_table(m, stage.domain, stage.sel)
        if problem is None and any(stage.sel[P] != x for P, x in prev.sel.items()):
            problem = "a stage does not extend the previous one"
        if problem:
            break
    # The construction realizes every extension over A inside the previous
    # stage's domain, so any missing A must reach into the last stage.
    inner = len(chain[-2].domain)
    if problem is None and any(max(A) < inner for A, _, _ in missing):
        problem = "an extension over the previous stage is missing"
    record = [[_pairs(stage.sel) for stage in chain], complete,
              [[list(A), [[list(k), v] for k, v in table], list(images)] for A, table, images in missing]]
    return problem, record


def _check_gcd(item, result):
    ok, log = result
    q_max = item[1]
    expected = {
        q: {"powers": q - 1, "invariant_proper_subsets": reference.gcd_claim_counts(q), "ok": True}
        for q in range(2, q_max + 1)
    }
    problem = None if ok is True and log == expected else "cycle gcd claim log disagrees"
    return problem, [ok, sorted([q, entry] for q, entry in log.items())]


def _check_rc24(item, result):
    (ok, census), equivariance = result
    problem = None
    if ok is not True or census.get("total") != 64 or census.get("all_cases_covered") is not True:
        problem = "verify_rc24 did not cover all 64 orientations"
    elif any(census.get(k) != v for k, v in reference.rc24_census().items()):
        problem = "verify_rc24 census disagrees with the score rule"
    elif tuple(equivariance) != (True, None):
        problem = f"check_equivariance reports {equivariance}"
    return problem, [ok, sorted(census.items()), list(equivariance)]


_CHECKS = {
    "pair": _check_pair,
    "odd": _check_large,
    "divisor": _check_large,
    "pow2": _check_large,
    "model": _check_model,
    "catalog": _check_catalog,
    "fraisse": _check_fraisse,
    "gcd_claim": _check_gcd,
    "rc24": _check_rc24,
}


def check(items, results, extra):
    """Check every result; returns (failed item indices with reasons, canonical output).

    The canonical output is sorted by item, so it does not depend on the
    seeded order in which the items ran.
    """
    failures = {}
    records = []
    for index, (item, result) in enumerate(zip(items, results)):
        if isinstance(result, ItemError):
            failures[index] = f"{item}: {result.message}"
            continue
        problem, record = _CHECKS[item[0]](item, result)
        if problem:
            failures[index] = problem
        records.append([list(item), record])
    canonical = {"items": sorted(records)}
    if extra is not None:
        canonical["csv"] = extra
        for index, problem in _check_csv(items, results, extra).items():
            failures.setdefault(index, problem)
    return failures, canonical


def _check_csv(items, results, text):
    """Each CSV row must restate its pair's verdict, recipe and parts."""
    rows = list(csv.reader(text.splitlines()))
    failures = {}
    if rows[:1] != [["m", "n", "verdict", "recipe", "parts"]]:
        return {0: "scan CSV header is wrong"}
    done = [i for i, r in enumerate(results) if not isinstance(r, ItemError)]
    if len(rows) - 1 != len(done):
        return {0: f"scan CSV has {len(rows) - 1} rows for {len(done)} pairs"}
    for index, row in zip(done, rows[1:]):
        (_, m, n), (cls_, trace) = items[index], results[index]
        expected = [str(m), str(n), cls_.verdict.value, "", ""]
        if trace is not None:
            expected[3:] = [trace.recipe.value, "+".join(map(str, trace.decomposition.parts))]
        if row != expected:
            failures[index] = f"({m}, {n}): scan CSV row {row} differs"
    return failures
